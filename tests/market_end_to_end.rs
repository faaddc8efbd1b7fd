//! End-to-end: offers in, atomic settlement out — the cleared spec itself
//! (with the parties' real keys and hashlocks) drives the protocol.

use atomic_swaps::core::runner::RunConfig;
use atomic_swaps::core::setup::SwapSetup;
use atomic_swaps::core::{Engine, ProtocolKind};
use atomic_swaps::crypto::{MssKeypair, Secret};
use atomic_swaps::market::{verify_cleared_swap, AssetKind, ClearingService, Offer};
use atomic_swaps::sim::{Delta, SimRng, SimTime};

struct TestParty {
    keypair: MssKeypair,
    secret: Secret,
    offer: Offer,
}

fn party(seed: u8, gives: &str, wants: &str) -> TestParty {
    let keypair = MssKeypair::from_seed_with_height([seed; 32], 4);
    let secret = Secret::from_bytes([seed ^ 0x5A; 32]);
    let offer = Offer {
        key: keypair.public_key(),
        hashlock: secret.hashlock(),
        gives: AssetKind::new(gives),
        wants: AssetKind::new(wants),
    };
    TestParty { keypair, secret, offer }
}

#[test]
fn offers_to_settlement_with_cleared_spec() {
    // A 4-cycle of offers.
    let parties = vec![
        party(1, "usd", "jpy"),
        party(2, "eur", "usd"),
        party(3, "gbp", "eur"),
        party(4, "jpy", "gbp"),
    ];
    let mut service = ClearingService::new();
    for p in &parties {
        service.submit(p.offer.clone());
    }
    let delta = Delta::from_ticks(10);
    let mut cleared = service.clear(delta, SimTime::ZERO).expect("clears");
    assert_eq!(cleared.len(), 1);
    let cleared = cleared.remove(0);
    assert_eq!(cleared.spec.digraph.vertex_count(), 4);

    // Every party verifies its slot against its own offer.
    for (pos, oid) in cleared.offer_of_vertex.iter().enumerate() {
        let me = &parties[oid.raw() as usize];
        verify_cleared_swap(
            &cleared,
            atomic_swaps::digraph::VertexId::new(pos as u32),
            &me.offer,
            SimTime::ZERO,
        )
        .expect("honest clearing must verify");
    }

    // Run the protocol under the *cleared spec itself*: keypairs and
    // secrets are the parties' own, ordered by the cleared vertex layout.
    let keypairs: Vec<MssKeypair> = cleared
        .offer_of_vertex
        .iter()
        .map(|oid| parties[oid.raw() as usize].keypair.clone())
        .collect();
    let secrets: Vec<Secret> =
        cleared.offer_of_vertex.iter().map(|oid| parties[oid.raw() as usize].secret).collect();
    let setup = SwapSetup::from_parts(cleared.spec.clone(), keypairs, secrets, SimTime::ZERO);
    let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
    assert!(report.all_deal(), "outcomes: {:?}", report.outcomes);
    assert!(report.settled);
    // |A|·|L| hashkey unlocks, one secret around the 4-cycle.
    assert_eq!(report.metrics.unlock_calls, 4);
}

#[test]
fn tampered_clearing_is_caught_before_anyone_escrows() {
    let parties = vec![party(1, "a", "b"), party(2, "b", "a")];
    let mut service = ClearingService::new();
    for p in &parties {
        service.submit(p.offer.clone());
    }
    let delta = Delta::from_ticks(10);
    let mut cleared = service.clear(delta, SimTime::ZERO).expect("clears");
    let mut swap = cleared.remove(0);
    // The service swaps in its own hashlock for the leader's.
    let evil = Secret::from_bytes([0xEE; 32]);
    swap.spec.hashlocks[0] = evil.hashlock();
    let leader = swap.spec.leaders[0];
    let victim = &parties[swap.offer_of_vertex[leader.index()].raw() as usize];
    let err = verify_cleared_swap(&swap, leader, &victim.offer, SimTime::ZERO).unwrap_err();
    assert!(
        matches!(err, atomic_swaps::market::VerifyError::ForeignHashlock { .. }),
        "got {err:?}"
    );
}

#[test]
fn epoch_clearing_is_deterministic_and_consumes_the_book() {
    let build = || {
        let mut service = ClearingService::new();
        for seed in 1..=6u8 {
            let gives = format!("k{}", seed % 3);
            let wants = format!("k{}", (seed + 1) % 3);
            service.submit(party(seed, &gives, &wants).offer);
        }
        service
    };
    let delta = Delta::from_ticks(10);
    // Determinism across service instances: the same book clears the same
    // way every time.
    let mut svc_a = build();
    let mut svc_b = build();
    let a = svc_a.clear(delta, SimTime::ZERO).expect("clears");
    let b = svc_b.clear(delta, SimTime::ZERO).expect("clears");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.offer_of_vertex, y.offer_of_vertex);
        assert_eq!(x.id, y.id);
    }
    // Epochs consume: the matched offers are gone, so re-clearing the same
    // service matches nothing.
    assert!(svc_a.clear(delta, SimTime::ZERO).expect("clears").is_empty());
    // And each cleared digraph runs to Deal.
    for (i, swap) in a.iter().enumerate() {
        let setup = SwapSetup::generate(
            swap.spec.digraph.clone(),
            &atomic_swaps::core::setup::SetupConfig { key_height: 4, ..Default::default() },
            &mut SimRng::from_seed(900 + i as u64),
        )
        .expect("valid");
        let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
        assert!(report.all_deal());
    }
}
