//! Cross-protocol equivalence properties (Theorem 4.7/4.14 and 4.9/4.12
//! side by side): over random single-leader-feasible digraph families, the
//! general §4.5 hashkey protocol and the §4.6 single-leader HTLC protocol
//! — both executed by the one event-driven engine — must agree on what
//! matters:
//!
//! (a) all-conforming runs end all-`Deal` under *both* protocols with
//!     identical asset movement (every arc's asset reaches the arc tail);
//! (b) under a follower `Halt`, no conforming party ends worse off under
//!     either protocol (`Underwater` never appears for conforming parties).

use proptest::prelude::*;

use atomic_swaps::chain::Owner;
use atomic_swaps::core::runner::{RunConfig, RunReport};
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::{Behavior, Engine, Outcome, ProtocolKind};
use atomic_swaps::digraph::{generators, Digraph, VertexId};
use atomic_swaps::sim::SimRng;

/// A random single-leader-feasible digraph family: cycles, stars, and
/// flowers all have singleton feedback vertex sets.
fn family(kind: u8, size: u8) -> Digraph {
    match kind % 3 {
        0 => generators::cycle(3 + (size % 4) as usize),
        1 => generators::star(2 + (size % 3) as usize),
        _ => generators::flower(2 + (size % 2) as usize, 2 + (size % 2) as usize),
    }
}

fn provision(digraph: Digraph, seed: u64) -> SwapSetup {
    let config = SetupConfig { key_height: 3, ..SetupConfig::default() };
    SwapSetup::generate(digraph, &config, &mut SimRng::from_seed(seed))
        .expect("families are strongly connected")
}

/// Runs one protocol to completion, returning the report plus the final
/// owner-check: whether every arc's asset ended with the arc's tail.
fn run(setup: SwapSetup, config: RunConfig, protocol: ProtocolKind) -> (RunReport, Vec<bool>) {
    let (report, setup) = Engine::lockstep(setup, config, protocol).run_full();
    let moved: Vec<bool> = setup
        .spec
        .digraph
        .arcs()
        .map(|arc| {
            let chain = setup.chains.get(setup.chain_of_arc[arc.id.index()]).expect("chain");
            let asset = setup.asset_of_arc[arc.id.index()];
            chain.assets().owner(asset) == Some(Owner::Party(setup.spec.address_of(arc.tail)))
        })
        .collect();
    (report, moved)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// (a) All-conforming: both protocols end all-`Deal`, and the asset
    /// movement is identical arc for arc (everything reached its tail).
    #[test]
    fn conforming_runs_agree_across_protocols(kind in 0u8..3, size in 0u8..4, seed in 0u64..1000) {
        let digraph = family(kind, size);
        prop_assume!(digraph.arc_count() <= 12);
        let setup = provision(digraph, seed);
        prop_assert_eq!(setup.spec.leaders.len(), 1);
        let (hashkey, hashkey_moved) =
            run(setup.clone(), RunConfig::default(), ProtocolKind::Hashkey);
        let (htlc, htlc_moved) = run(setup, RunConfig::default(), ProtocolKind::Htlc);
        prop_assert!(hashkey.all_deal(), "hashkey outcomes: {:?}", hashkey.outcomes);
        prop_assert!(htlc.all_deal(), "htlc outcomes: {:?}", htlc.outcomes);
        prop_assert_eq!(&hashkey.arc_triggered, &htlc.arc_triggered);
        prop_assert_eq!(&hashkey_moved, &htlc_moved, "asset movement must be identical");
        prop_assert!(htlc_moved.iter().all(|&m| m), "every asset reaches its tail");
        // The §4.6 savings hold everywhere, not just on the worked examples.
        prop_assert!(htlc.storage.total_bytes() < hashkey.storage.total_bytes());
        prop_assert!(htlc.metrics.unlock_bytes < hashkey.metrics.unlock_bytes);
    }

    /// (b) A halted follower never drags a conforming party underwater in
    /// either protocol, whatever the halt round.
    #[test]
    fn follower_halt_harms_no_conforming_party_in_either_protocol(
        kind in 0u8..3,
        size in 0u8..4,
        seed in 0u64..1000,
        follower_pick in 0usize..8,
        halt_round in 0u64..8,
    ) {
        let digraph = family(kind, size);
        prop_assume!(digraph.arc_count() <= 12);
        let setup = provision(digraph, seed);
        let leader = setup.spec.leaders[0];
        let followers: Vec<VertexId> =
            setup.spec.digraph.vertices().filter(|&v| v != leader).collect();
        let halted = followers[follower_pick % followers.len()];
        let mut config = RunConfig::default();
        config.behaviors.insert(halted, Behavior::Halt { at_round: halt_round });
        let (hashkey, _) = run(setup.clone(), config.clone(), ProtocolKind::Hashkey);
        let (htlc, _) = run(setup, config, ProtocolKind::Htlc);
        prop_assert!(
            hashkey.no_conforming_underwater(),
            "hashkey, halt {} at {}: {:?}", halted, halt_round, hashkey.outcomes
        );
        prop_assert!(
            htlc.no_conforming_underwater(),
            "htlc, halt {} at {}: {:?}", halted, halt_round, htlc.outcomes
        );
        // The halted party itself may lose, but never anyone conforming —
        // and a conforming party's outcome is acceptable in both worlds.
        for (i, (&h, &t)) in hashkey.outcomes.iter().zip(htlc.outcomes.iter()).enumerate() {
            if VertexId::new(i as u32) != halted {
                prop_assert!(h != Outcome::Underwater && t != Outcome::Underwater);
            }
        }
    }
}
