//! Exchange-level identity and lease properties: under arbitrary
//! interleavings of submissions, clears, settlements, refunds, and
//! identity reuse,
//!
//! 1. no `(address, leaf_index)` pair is ever used by two *different*
//!    signatures anywhere on the merged ledger (one-time keys stay
//!    one-time even as identities persist across swaps), and
//! 2. exhausting a height-`h` identity surfaces as the checked
//!    [`ExchangeError::KeysExhausted`] refund path — sibling swaps settle,
//!    nothing panics mid-epoch, and
//! 3. where an identity's key comes from — built by the caller, minted on
//!    the pool, or leased from the registry — shows up in the minting
//!    counters and nowhere in simulated time, beyond a reserved address
//!    deferring its next offer.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use swap_contract::AnyContract;
use swap_core::exchange::{
    DriveError, EpochStage, Exchange, ExchangeConfig, ExchangeError, ExchangeParty, ExchangeReport,
    PartySeed, ProtocolPolicy, StageCosts, StepEvent,
};
use swap_crypto::{Address, Digest32, Secret};
use swap_market::AssetKind;
use swap_sim::SimRng;

/// Drives to quiescence, tolerating (and counting) only
/// [`ExchangeError::KeysExhausted`] — any other error, or a panic, fails
/// the test.
fn drive_tolerant(exchange: &mut Exchange) -> u64 {
    let mut exhausted_errors = 0;
    loop {
        match exchange.drive_until_quiescent() {
            Ok(_) => return exhausted_errors,
            Err(DriveError { error: ExchangeError::KeysExhausted { .. }, .. }) => {
                exhausted_errors += 1;
            }
            Err(e) => panic!("unexpected pipeline error: {e}"),
        }
    }
}

/// Walks every unlock record on the merged ledger and collects, per
/// `(address, leaf_index)`, the set of distinct signature digests that
/// leaf produced. Hashkeys *copy* signatures freely (the same base chain
/// appears in many records), so a leaf observed under one digest is fine;
/// two distinct digests mean the one-time key signed twice.
fn leaf_usage(exchange: &Exchange) -> BTreeMap<(Address, u64), BTreeSet<Digest32>> {
    let mut used: BTreeMap<(Address, u64), BTreeSet<Digest32>> = BTreeMap::new();
    for (_, chain) in exchange.ledger().iter() {
        for (_, contract) in chain.contracts() {
            let AnyContract::Swap(swap) = contract else { continue };
            let spec = swap.spec();
            for index in 0..spec.leaders.len() {
                let Some(record) = swap.unlock_record(index) else { continue };
                let vertices = record.path.vertices();
                let k = vertices.len() - 1;
                // links[i] was signed by the key at path position k - i
                // (leader innermost — see `SigChain::verify`).
                for (i, link) in record.sig.links().iter().enumerate() {
                    let address = spec.key_of(vertices[k - i]).address();
                    used.entry((address, link.leaf_index())).or_default().insert(link.digest());
                }
            }
        }
    }
    used
}

#[test]
fn exhaustion_is_checked_refund_not_panic() {
    let mut rng = SimRng::from_seed(81);
    let mut exchange = Exchange::new(ExchangeConfig {
        protocol: ProtocolPolicy::ForceHashkey,
        ..Default::default()
    });
    // A height-1 identity: two one-time leaves, exactly one 2-cycle's
    // signing budget (leaders + 1 = 2). Its first swap drains it dry.
    let scarce = ExchangeParty::generate(&mut rng, 1, AssetKind::new("btc"), AssetKind::new("eth"));
    let scarce_address = scarce.keypair.public_key().address();
    let counter = |rng: &mut SimRng| {
        ExchangeParty::generate(rng, 4, AssetKind::new("eth"), AssetKind::new("btc"))
    };
    exchange.submit(scarce);
    let c = counter(&mut rng);
    exchange.submit(c);
    let first = exchange.drive_until_quiescent().expect("first swap has leaves");
    assert_eq!(first.len(), 1);
    assert_eq!(exchange.identities().remaining(&scarce_address), Some(0));

    // The dry identity returns with a fresh counterparty; a disjoint
    // fresh ring rides the same epoch as a sibling.
    exchange
        .resubmit(
            scarce_address,
            Secret::random(&mut rng),
            AssetKind::new("btc"),
            AssetKind::new("eth"),
        )
        .expect("identity is registered");
    let c = counter(&mut rng);
    exchange.submit(c);
    exchange.submit(ExchangeParty::generate(
        &mut rng,
        4,
        AssetKind::new("usd"),
        AssetKind::new("gbp"),
    ));
    exchange.submit(ExchangeParty::generate(
        &mut rng,
        4,
        AssetKind::new("gbp"),
        AssetKind::new("usd"),
    ));
    let err = exchange.drive_until_quiescent().expect_err("scarce identity is dry");
    assert!(
        matches!(err.error, ExchangeError::KeysExhausted { address, .. } if address == scarce_address),
        "wrong error: {}",
        err.error
    );
    // The refund is checked and surgical: the pipeline keeps driving and
    // the sibling ring still settles.
    exchange.drive_until_quiescent().expect("pipeline recovers after the checked refund");
    let report = exchange.report();
    assert_eq!(report.swaps_exhausted, 1);
    assert_eq!(report.swaps_refunded, 1);
    assert_eq!(report.swaps_settled, 2);
    assert_eq!(report.swaps_cleared, 3);
    // The dry identity consumed nothing further.
    assert_eq!(exchange.identities().remaining(&scarce_address), Some(0));
    // And nothing on the ledger reused a leaf.
    assert!(leaf_usage(&exchange).values().all(|sigs| sigs.len() == 1));
}

/// Where a rolling book's identities come from.
#[derive(Debug, Clone, Copy)]
enum IdentitySource {
    /// Parties built by the caller and `submit`ted, fresh every wave.
    CallerBuilt,
    /// The same seeds minted by the exchange on its pool (`submit_seeded`).
    PoolMinted,
    /// Nine identities minted in wave 0 and `resubmit`ted ever after.
    Registry,
}

/// Drives a six-wave rolling book — three disjoint rings of 2–4 parties,
/// nine offers a wave, the next wave injected each time an epoch enters
/// `Executing` — with every identity drawn from `source`.
fn rolling_book(source: IdentitySource, threads: usize) -> ExchangeReport {
    const WAVES: usize = 6;
    // 16 leaves: a registry identity leases two a wave, twelve in all.
    const KEY_HEIGHT: u32 = 4;
    let kinds = |wave: usize| -> Vec<(AssetKind, AssetKind)> {
        let mut out = Vec::new();
        for ring in 0..3 {
            let len = 2 + (wave + ring) % 3;
            for slot in 0..len {
                out.push((
                    AssetKind::new(format!("w{wave}r{ring}k{slot}")),
                    AssetKind::new(format!("w{wave}r{ring}k{}", (slot + 1) % len)),
                ));
            }
        }
        out
    };
    let seeds = |wave: usize| -> Vec<PartySeed> {
        let mut rng = SimRng::from_seed(0xE21 + wave as u64);
        kinds(wave)
            .into_iter()
            .map(|(gives, wants)| PartySeed {
                seed: rng.bytes32(),
                key_height: KEY_HEIGHT,
                secret: Secret::random(&mut rng),
                gives,
                wants,
            })
            .collect()
    };
    let mut exchange = Exchange::new(ExchangeConfig {
        threads,
        executing_slots: 8,
        stage_costs: StageCosts {
            clearing_base: 2,
            provisioning_base: 2,
            settling_base: 2,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut secrets = SimRng::from_seed(0x5EC2E2);
    let mut registered: Vec<Address> = Vec::new();
    let mut inject = |exchange: &mut Exchange, wave: usize| match source {
        IdentitySource::CallerBuilt => {
            let mut rng = SimRng::from_seed(0xE21 + wave as u64);
            for (gives, wants) in kinds(wave) {
                exchange.submit(ExchangeParty::generate(&mut rng, KEY_HEIGHT, gives, wants));
            }
        }
        IdentitySource::Registry if wave > 0 => {
            for (address, (gives, wants)) in registered.iter().zip(kinds(wave)) {
                exchange
                    .resubmit(*address, Secret::random(&mut secrets), gives, wants)
                    .expect("every identity registered in wave 0");
            }
        }
        IdentitySource::PoolMinted | IdentitySource::Registry => {
            registered.extend(exchange.submit_seeded(seeds(wave)).into_iter().map(|(_, a)| a));
        }
    };
    inject(&mut exchange, 0);
    let mut next = 1;
    loop {
        match exchange.step().expect("pipeline advances") {
            StepEvent::StageEntered { stage: EpochStage::Executing, .. } if next < WAVES => {
                inject(&mut exchange, next);
                next += 1;
            }
            StepEvent::Quiescent => break,
            _ => {}
        }
    }
    assert_eq!(next, WAVES, "every wave injected");
    assert!(leaf_usage(&exchange).values().all(|sigs| sigs.len() == 1), "{source:?}");
    exchange.into_report()
}

#[test]
fn identity_source_moves_the_mint_counters_and_never_simulated_time() {
    let mut walls = Vec::new();
    for source in
        [IdentitySource::CallerBuilt, IdentitySource::PoolMinted, IdentitySource::Registry]
    {
        let report = rolling_book(source, 1);
        for threads in [2, 8] {
            assert_eq!(
                format!("{:?}", rolling_book(source, threads)),
                format!("{report:?}"),
                "{source:?}: report differs at {threads} threads"
            );
        }
        assert_eq!(report.swaps_settled, 18, "{source:?}");
        assert_eq!((report.swaps_refunded, report.swaps_exhausted), (0, 0), "{source:?}");
        assert_eq!(report.stage_ticks.total(), report.wall_ticks, "{source:?}");
        let minted = (
            report.identities_minted,
            report.identities_registered,
            report.mints_overlapping_execution,
        );
        match source {
            // The exchange mints nothing; it registers what it was handed.
            IdentitySource::CallerBuilt => assert_eq!(minted, (0, 54, 0)),
            // Every wave after the first queues its nine keygens while
            // the wave before it executes.
            IdentitySource::PoolMinted => assert_eq!(minted, (54, 54, 45)),
            // Nine identities, minted once, leased every wave.
            IdentitySource::Registry => {
                assert_eq!(minted, (9, 9, 0));
                assert!(report.leaves_leased > 0);
            }
        }
        walls.push(report.wall_ticks);
    }
    // The fresh arms draw different key material, so their reports differ
    // in bytes — but who ran the keygen is invisible to simulated time.
    assert_eq!(walls[0], walls[1], "caller-built vs pool-minted wall ticks");
    // A reserved address defers its next offer to the clearing after its
    // swap settles: one identity per trader serializes the waves.
    assert!(walls[2] > walls[1], "registry {} vs fresh {} wall ticks", walls[2], walls[1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random submit/clear/settle/refund streams with identity reuse:
    /// height-2 identities (4 leaves, two 2-cycle budgets) resubmitted at
    /// random run dry mid-stream; every terminal ledger must show each
    /// `(address, leaf)` under at most one signature, and the books must
    /// balance (`cleared = settled + refunded`).
    #[test]
    fn random_streams_never_reuse_a_leaf(
        seed in any::<u64>(),
        rounds in 1usize..5,
        reuse in prop::collection::vec(any::<bool>(), 24..25),
        cancel in prop::collection::vec(any::<bool>(), 8..9),
    ) {
        let mut rng = SimRng::from_seed(seed ^ 0x1D_1EA5E5);
        let mut exchange = Exchange::new(ExchangeConfig {
            protocol: ProtocolPolicy::ForceHashkey,
            ..Default::default()
        });
        let mut pool: Vec<Address> = Vec::new();
        let mut flags = reuse.iter().copied().cycle();
        let mut errors = 0;
        for round in 0..rounds {
            // Two disjoint 2-rings per round; each slot either re-uses a
            // registered identity (fresh secret, zero keygen) or mints a
            // scarce height-2 newcomer.
            for ring in 0..2usize {
                for slot in 0..2usize {
                    let gives = AssetKind::new(format!("r{round}g{ring}k{slot}"));
                    let wants = AssetKind::new(format!("r{round}g{ring}k{}", (slot + 1) % 2));
                    let recycle = flags.next().unwrap_or(false) && !pool.is_empty();
                    if recycle {
                        let address = pool[(rng.bytes32()[0] as usize) % pool.len()];
                        exchange
                            .resubmit(address, Secret::random(&mut rng), gives, wants)
                            .expect("pooled addresses are registered");
                    } else {
                        let party = ExchangeParty::generate(&mut rng, 2, gives, wants);
                        pool.push(party.keypair.public_key().address());
                        exchange.submit(party);
                    }
                }
            }
            // Occasionally float an unmatched offer and withdraw it — the
            // cancel path must leave identity accounting untouched.
            if cancel.get(round).copied().unwrap_or(false) {
                let lone = ExchangeParty::generate(
                    &mut rng,
                    2,
                    AssetKind::new(format!("solo{round}")),
                    AssetKind::new("nothing-wants-this"),
                );
                let id = exchange.submit(lone);
                exchange.cancel(id).expect("lone offer is still open");
            }
            errors += drive_tolerant(&mut exchange);
        }
        errors += drive_tolerant(&mut exchange);
        prop_assert!(exchange.is_quiescent());

        let report = exchange.report();
        prop_assert_eq!(
            report.swaps_cleared,
            report.swaps_settled + report.swaps_refunded,
            "books balance"
        );
        prop_assert!(report.swaps_exhausted >= errors, "every reported error was a refund");
        // The core invariant: one leaf, one signature — everywhere, ever.
        for ((address, leaf), sigs) in leaf_usage(&exchange) {
            prop_assert_eq!(
                sigs.len(),
                1,
                "identity {} leaf {} signed {} distinct messages",
                address,
                leaf,
                sigs.len()
            );
        }
    }
}
