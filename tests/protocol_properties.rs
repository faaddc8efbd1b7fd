//! Property-based tests: the paper's guarantees hold on *randomized*
//! digraphs and failure schedules, not just the hand-picked families.

use proptest::prelude::*;

use std::sync::Arc;

use atomic_swaps::contract::UnlockRecord;
use atomic_swaps::core::runner::{RunConfig, RunReport};
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::{Action, Behavior, Engine, Outcome, ProtocolKind, What};
use atomic_swaps::digraph::{generators, ArcId, Digraph, DigraphBuilder, VertexId, VertexPath};
use atomic_swaps::sim::SimRng;

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
