//! Property-based tests: the paper's guarantees hold on *randomized*
//! digraphs and failure schedules, not just the hand-picked families.

use proptest::prelude::*;

use std::sync::Arc;

use atomic_swaps::chain::ExecCtx;
use atomic_swaps::chain::{AssetDescriptor, AssetId, AssetRegistry, ContractId, ContractLogic};
use atomic_swaps::contract::testkit::{keypair_for, leader_secret, spec_for};
use atomic_swaps::contract::{HtlcCall, HtlcContract, HtlcError, SwapCall, SwapContract};
use atomic_swaps::contract::{SwapError, UnlockRecord};
use atomic_swaps::core::runner::{RunConfig, RunReport};
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::{assign_timeouts, Action, Behavior, Engine, Outcome, ProtocolKind, What};
use atomic_swaps::crypto::{Address, SigChain};
use atomic_swaps::digraph::{generators, ArcId, Digraph, DigraphBuilder, VertexId, VertexPath};
use atomic_swaps::sim::{SimRng, SimTime};

fn fast_config() -> SetupConfig {
    SetupConfig { key_height: 4, ..SetupConfig::default() }
}

fn random_digraph(seed: u64, n: usize, extra: f64) -> Digraph {
    generators::random_strongly_connected(n, extra, &mut SimRng::from_seed(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Liveness (Theorem 4.7): every all-conforming run on a random
    /// strongly connected digraph completes with Deal for all, within the
    /// 2·diam·Δ bound.
    #[test]
    fn all_conforming_always_deal(
        seed in 0u64..1_000,
        n in 3usize..7,
        extra in 0.0f64..0.5,
    ) {
        let digraph = random_digraph(seed, n, extra);
        let setup = SwapSetup::generate(
            digraph,
            &fast_config(),
            &mut SimRng::from_seed(seed ^ 0xAAAA),
        ).expect("strongly connected inputs are valid swaps");
        let start = setup.spec.start;
        let bound = setup.spec.worst_case_duration();
        let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
        prop_assert!(report.all_deal(), "outcomes: {:?}", report.outcomes);
        let completion = report.completion.expect("conforming runs complete");
        prop_assert!(completion - start <= bound);
        prop_assert!(report.settled);
    }

    /// Safety (Theorem 4.9): a random halting adversary at a random round
    /// never drives a conforming party Underwater.
    #[test]
    fn random_single_halt_never_underwater(
        seed in 0u64..1_000,
        n in 3usize..6,
        extra in 0.0f64..0.4,
        victim in 0u32..6,
        round in 0u64..12,
    ) {
        let digraph = random_digraph(seed, n, extra);
        let victim = VertexId::new(victim % n as u32);
        let setup = SwapSetup::generate(
            digraph,
            &fast_config(),
            &mut SimRng::from_seed(seed ^ 0xBBBB),
        ).expect("valid");
        let mut config = RunConfig::default();
        config.behaviors.insert(victim, Behavior::Halt { at_round: round });
        let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
        prop_assert!(
            report.no_conforming_underwater(),
            "halt {victim} at {round}: {:?}",
            report.outcomes
        );
    }

    /// Safety under multiple simultaneous random deviators of mixed kinds.
    #[test]
    fn random_multi_deviator_never_underwater(
        seed in 0u64..500,
        n in 3usize..6,
        mask in 1u32..14,
        kind in 0u8..4,
        round in 0u64..8,
    ) {
        let digraph = random_digraph(seed, n, 0.3);
        let setup = SwapSetup::generate(
            digraph,
            &fast_config(),
            &mut SimRng::from_seed(seed ^ 0xCCCC),
        ).expect("valid");
        let mut config = RunConfig::default();
        for v in 0..n as u32 {
            if mask & (1 << (v % 8)) != 0 {
                let behavior = match kind {
                    0 => Behavior::Halt { at_round: round },
                    1 => Behavior::WithholdSecret,
                    2 => Behavior::NeverPublish { arcs: None },
                    _ => Behavior::PrematureReveal,
                };
                config.behaviors.insert(VertexId::new(v), behavior);
            }
        }
        // At least one party must remain conforming for the assertion to
        // say anything; if all deviate the check is vacuous but harmless.
        let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
        prop_assert!(
            report.no_conforming_underwater(),
            "mask {mask:#b} kind {kind}: {:?}",
            report.outcomes
        );
    }

    /// Outcome coherence: the per-arc trigger vector and the per-party
    /// outcomes always agree with the Figure 3 definitions.
    #[test]
    fn outcomes_consistent_with_triggers(
        seed in 0u64..500,
        n in 3usize..6,
        victim in 0u32..6,
        round in 0u64..10,
    ) {
        let digraph = random_digraph(seed, n, 0.25);
        let victim = VertexId::new(victim % n as u32);
        let setup = SwapSetup::generate(
            digraph.clone(),
            &fast_config(),
            &mut SimRng::from_seed(seed ^ 0xDDDD),
        ).expect("valid");
        let mut config = RunConfig::default();
        config.behaviors.insert(victim, Behavior::Halt { at_round: round });
        let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
        for v in digraph.vertices() {
            let entering = (
                digraph.in_arcs(v).filter(|a| report.arc_triggered[a.id.index()]).count(),
                digraph.in_degree(v),
            );
            let leaving = (
                digraph.out_arcs(v).filter(|a| report.arc_triggered[a.id.index()]).count(),
                digraph.out_degree(v),
            );
            prop_assert_eq!(report.outcomes[v.index()], Outcome::classify(entering, leaving));
        }
    }
}

/// `D(from, target)` by trying every simple path: the longest path from
/// `from` to `target` on which `target` appears only at the end.
fn longest_path_by_search(d: &Digraph, from: VertexId, target: VertexId) -> Option<u64> {
    fn extend(d: &Digraph, v: VertexId, target: VertexId, on_path: &mut [bool]) -> Option<u64> {
        let mut best = None;
        for w in d.successors(v) {
            let via = if w == target {
                Some(1)
            } else if on_path[w.index()] {
                None
            } else {
                on_path[w.index()] = true;
                let rest = extend(d, w, target, on_path);
                on_path[w.index()] = false;
                rest.map(|len| len + 1)
            };
            best = best.max(via);
        }
        best
    }
    if from == target {
        return Some(0);
    }
    let mut on_path = vec![false; d.vertex_count()];
    on_path[from.index()] = true;
    extend(d, from, target, &mut on_path)
}

proptest! {
    /// The invariant `ProtocolKind::select` relies on: a spec that passed
    /// validation with exactly one leader has that leader as a feedback
    /// vertex set on its own, so the Lemma 4.13 ladder exists (Figure 6's
    /// condition holds) and selection picks the HTLC protocol. Cycles,
    /// stars and flowers always elect one leader; random digraphs do when
    /// their minimum feedback vertex set is a single vertex. Each arc
    /// `(u, v)` times out at `T₀ + (diam + D(v, v̂) + 1)·Δ`, with `D` found
    /// by trying every simple path.
    #[test]
    fn validated_single_leader_specs_admit_the_timeout_ladder(
        seed in 0u64..1_000,
        family in 0u32..4,
        n in 3usize..8,
        extra in 0.0f64..0.5,
    ) {
        let digraph = match family {
            0 => random_digraph(seed, n, extra),
            1 => generators::cycle(n),
            2 => generators::star(n - 2),
            _ => generators::flower(n / 3 + 1, n % 3 + 2),
        };
        let spec = SwapSetup::generate(
            digraph,
            &fast_config(),
            &mut SimRng::from_seed(seed ^ 0xEEEE),
        ).expect("strongly connected inputs are valid swaps").spec;
        if let &[leader] = spec.leaders.as_slice() {
            let (d, delta) = (&spec.digraph, spec.delta);
            let timeouts = assign_timeouts(&spec);
            prop_assert!(timeouts.is_ok(), "no ladder: {:?}", timeouts);
            let timeouts = timeouts.expect("checked");
            let t0 = spec.start - delta.times(1);
            for arc in d.arcs() {
                let to_leader = longest_path_by_search(d, arc.tail, leader);
                prop_assert!(to_leader.is_some(), "{} cannot reach the leader", arc.tail);
                let expected = t0 + delta.times(spec.diam + to_leader.unwrap_or(0) + 1);
                prop_assert_eq!(timeouts[arc.id.index()], expected, "arc {}", arc.id);
            }
            for v in d.vertices().filter(|&v| v != leader) {
                for entering in d.in_arcs(v) {
                    for leaving in d.out_arcs(v) {
                        let (te, tl) = (timeouts[entering.id.index()], timeouts[leaving.id.index()]);
                        prop_assert!(te >= tl + delta.times(1), "follower {}: {} vs {}", v, te, tl);
                    }
                }
            }
            prop_assert_eq!(ProtocolKind::select(&spec, &RunConfig::default()), ProtocolKind::Htlc);
        } else {
            prop_assert!(family == 0, "family {} elected {} leaders", family, spec.leaders.len());
        }
    }
}

// --- Adversaries replaying warmed hashkey links -----------------------------
//
// A chain link remembers the one `(message, key)` statement it was proven
// under (`swap_crypto::mss`). The honest run below leaves every link of
// every hashkey warmed; the adversary then presents those very `Arc`s —
// same keys, same spec — under statements they were never proven for.

fn hashkey_setup(digraph: Digraph, leader: &str) -> SwapSetup {
    let leader = digraph.vertex_by_name(leader).expect("named vertex");
    let config = SetupConfig { leaders: Some(vec![leader]), ..fast_config() };
    SwapSetup::generate(digraph, &config, &mut SimRng::from_seed(0x5EED)).expect("valid swap")
}

fn run_hashkey(setup: SwapSetup, config: RunConfig) -> (RunReport, SwapSetup) {
    Engine::lockstep(setup, config, ProtocolKind::Hashkey).run_full()
}

/// The hashkey stored on `arc`'s contract for the single leader, if any.
fn unlock_record(setup: &SwapSetup, arc: ArcId) -> Option<UnlockRecord> {
    let chain = setup.chains.get(setup.chain_of_arc[arc.index()]).expect("arc has a chain");
    let contract = chain.contracts().find_map(|(_, c)| c.as_swap().filter(|c| c.arc() == arc))?;
    contract.unlock_record(0).cloned()
}

fn arc_between(setup: &SwapSetup, from: VertexId, to: VertexId) -> ArcId {
    setup.spec.digraph.arcs_between(from, to)[0]
}

/// Every refused call as rendered text — one per call the metrics count.
fn rejections(report: &RunReport) -> Vec<String> {
    let events = report.trace.events().iter();
    let rendered: Vec<String> = events
        .filter(|e| matches!(e.what, What::Rejected { .. }))
        .map(|e| e.what.to_string())
        .collect();
    assert_eq!(report.metrics.rejected_calls, rendered.len() as u64, "a silent rejection");
    rendered
}

/// Herlihy's three parties, alice leading. Bob replays carol's warmed
/// hashkey on the arc he *is* the counterparty of (its path names carol,
/// not him) and on the arc he is *not* the counterparty of.
#[test]
fn warmed_hashkey_replayed_on_another_arc_is_rejected() {
    let setup = hashkey_setup(generators::herlihy_three_party(), "alice");
    let d = &setup.spec.digraph;
    let [alice, bob, carol] = ["alice", "bob", "carol"].map(|n| d.vertex_by_name(n).unwrap());
    let (to_bob, to_carol) = (arc_between(&setup, alice, bob), arc_between(&setup, bob, carol));

    let (honest, after) = run_hashkey(setup.clone(), RunConfig::default());
    assert!(honest.all_deal());
    assert_eq!(honest.metrics.unlock_calls, 3);
    assert!(rejections(&honest).is_empty());
    let carols = unlock_record(&after, to_carol).expect("carol unlocked her entering arc");
    assert_eq!(carols.path.vertices(), &[carol, alice]);

    let replay = |arc| Action::Unlock {
        arc,
        index: 0,
        secret: carols.secret,
        path: carols.path.clone(),
        sig: carols.sig.clone(),
    };
    // Bob calls his leaving arc before it has a contract, publishes on
    // schedule so there is something to call, publishes once more, then
    // replays; alice and carol go on to unlock theirs.
    let script = vec![
        (0, Action::Refund { arc: to_carol }),
        (1, Action::Publish { arc: to_carol }),
        (2, Action::Publish { arc: to_carol }),
        (2, replay(to_bob)),
        (2, replay(to_carol)),
    ];
    let mut config = RunConfig::default();
    config.behaviors.insert(bob, Behavior::Scripted { actions: script });
    let (report, after) = run_hashkey(setup, config);
    assert_eq!(report.metrics.rejected_calls, 4);
    assert_eq!((report.metrics.contracts_published, report.metrics.unlock_calls), (3, 2));
    let rejected = rejections(&report);
    assert_eq!(rejected[0], format!("refund {to_carol}: arc has no contract"));
    assert_eq!(rejected[1], format!("publish {to_carol}: arc already has a contract"));
    assert!(rejected.iter().any(|r| r.contains("path is not valid")), "{rejected:?}");
    assert!(rejected.iter().any(|r| r.contains("not the counterparty")), "{rejected:?}");
    assert!(unlock_record(&after, to_bob).is_none());
    assert!(report.no_conforming_underwater());
}

/// Two routes from bob to the leader: `a→b, b→c, c→a, b→d, d→a`. Bob
/// extends carol's warmed chain with his own signature — a perfectly good
/// hashkey for the path through carol — but names dave. The leader's link
/// is proven under the leader's key either way; carol's is now asked about
/// dave's key, misses its memo, and fails the full check.
#[test]
fn warmed_links_under_a_path_naming_another_vertex_are_rejected() {
    let digraph = DigraphBuilder::new()
        .vertices(["a", "b", "c", "d"])
        .arc("a", "b")
        .arc("b", "c")
        .arc("c", "a")
        .arc("b", "d")
        .arc("d", "a")
        .build();
    let setup = hashkey_setup(digraph, "a");
    let d = &setup.spec.digraph;
    let [a, b, c, dave] = ["a", "b", "c", "d"].map(|n| d.vertex_by_name(n).unwrap());
    let (to_b, to_c) = (arc_between(&setup, a, b), arc_between(&setup, b, c));

    let (honest, after) = run_hashkey(setup.clone(), RunConfig::default());
    assert!(honest.all_deal());
    assert!(rejections(&honest).is_empty());
    let carols = unlock_record(&after, to_c).expect("c unlocked its entering arc");
    assert_eq!(carols.path.vertices(), &[c, a]);

    let sig = carols.sig.extend(&mut setup.keypairs[b.index()].clone()).unwrap();
    assert!(Arc::ptr_eq(&sig.links()[1], &carols.sig.links()[1]), "the honest run's own link");
    let unlock = |via| Action::Unlock {
        arc: to_b,
        index: 0,
        secret: carols.secret,
        path: VertexPath::from_vertices(vec![b, via, a]).unwrap(),
        sig: sig.clone(),
    };
    // Round 2 names dave; round 3 presents the same chain honestly, which
    // shows the named vertex was the only thing wrong with it.
    let mut config = RunConfig::default();
    config
        .behaviors
        .insert(b, Behavior::Scripted { actions: vec![(2, unlock(dave)), (3, unlock(c))] });
    let (report, after) = run_hashkey(setup, config);
    assert_eq!(report.metrics.rejected_calls, 1);
    let rejected = rejections(&report);
    assert!(rejected[0].contains("signature at chain position 1 is invalid"), "{rejected:?}");
    assert_eq!(report.metrics.unlock_calls, 1);
    let stored = unlock_record(&after, to_b).expect("the honest presentation unlocked");
    assert_eq!(stored.path.vertices(), &[b, c, a]);
}

// --- The deadline tick against the tick before it --------------------------
//
// Every contract deadline is exclusive for the call it ends and inclusive
// for the refund it opens. Each check calls one tick before a deadline and
// at it, on a freshly published contract.

const CONTRACT: ContractId = ContractId::new(0);

/// Publishes `contract`, which escrows `AssetId(0)`: the first asset of a
/// fresh registry, minted to `party`. Returns a closure that applies one
/// call to a clone of the published contract at `now`.
fn published<C: ContractLogic + Clone>(
    mut contract: C,
    party: Address,
) -> impl Fn(Address, C::Call, SimTime) -> Result<(), C::Error> {
    let mut assets = AssetRegistry::new();
    assets.mint(AssetDescriptor::new("escrowed", 1), party);
    let mut ctx =
        ExecCtx { caller: party, now: SimTime::ZERO, this: CONTRACT, assets: &mut assets };
    assert!(contract.on_publish(&mut ctx).is_ok(), "publication escrows the asset");
    move |caller, call, now| {
        let mut assets = assets.clone();
        let ctx = &mut ExecCtx { caller, now, this: CONTRACT, assets: &mut assets };
        contract.clone().apply(call, ctx)
    }
}

#[test]
fn an_htlc_reveal_is_accepted_before_the_timeout_and_expired_at_it() {
    let (party, counterparty) = (keypair_for(VertexId::new(0)), keypair_for(VertexId::new(1)));
    let (party, counterparty) = (party.public_key().address(), counterparty.public_key().address());
    let secret = leader_secret(VertexId::new(0));
    let timeout = SimTime::from_ticks(60);
    let htlc = HtlcContract::new(AssetId::new(0), party, counterparty, secret.hashlock(), timeout);
    let call = published(htlc, party);
    let before = SimTime::from_ticks(59);
    assert_eq!(call(counterparty, HtlcCall::Reveal { secret }, before), Ok(()));
    assert_eq!(
        call(counterparty, HtlcCall::Reveal { secret }, timeout),
        Err(HtlcError::Expired { timeout })
    );
    assert_eq!(call(party, HtlcCall::Refund, before), Err(HtlcError::NotYetExpired { timeout }));
    assert_eq!(call(party, HtlcCall::Refund, timeout), Ok(()));
}

/// The alice → bob contract of Herlihy's three parties, alice leading, and
/// bob's hashkey for it: path (bob, carol, alice), signed alice → carol →
/// bob.
fn alice_to_bob() -> (SwapContract, Address, Address, SwapCall) {
    let d = generators::herlihy_three_party();
    let [alice, bob, carol] = ["alice", "bob", "carol"].map(|n| d.vertex_by_name(n).unwrap());
    let spec = spec_for(d, vec![alice]);
    let arc = spec.digraph.arcs_between(alice, bob)[0];
    let (party, counterparty) = (spec.address_of(alice), spec.address_of(bob));
    let secret = leader_secret(alice);
    let sig = SigChain::sign_secret(&mut keypair_for(alice), &secret)
        .and_then(|sig| sig.extend(&mut keypair_for(carol)))
        .and_then(|sig| sig.extend(&mut keypair_for(bob)))
        .expect("fresh keys sign");
    let path = VertexPath::from_vertices(vec![bob, carol, alice]).unwrap();
    let unlock = SwapCall::Unlock { index: 0, secret, path, sig };
    (SwapContract::new(spec, arc, AssetId::new(0)), party, counterparty, unlock)
}

#[test]
fn a_hashkey_unlock_is_accepted_before_its_deadline_and_expired_at_it() {
    let (contract, party, counterparty, unlock) = alice_to_bob();
    let deadline = contract.spec().hashkey_deadline(2);
    let call = published(contract, party);
    let before = SimTime::from_ticks(deadline.ticks() - 1);
    assert_eq!(call(counterparty, unlock.clone(), before), Ok(()));
    assert_eq!(
        call(counterparty, unlock, deadline),
        Err(SwapError::HashkeyExpired { deadline, now: deadline })
    );
}

#[test]
fn a_hashkey_refund_is_refused_before_every_hashkey_is_dead_and_accepted_at_it() {
    let (contract, party, _, _) = alice_to_bob();
    let dead = contract.spec().all_hashkeys_dead();
    let call = published(contract, party);
    let before = SimTime::from_ticks(dead.ticks() - 1);
    assert_eq!(call(party, SwapCall::Refund, before), Err(SwapError::NothingRefundable));
    assert_eq!(call(party, SwapCall::Refund, dead), Ok(()));
}
