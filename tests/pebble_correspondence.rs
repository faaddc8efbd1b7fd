//! Cross-validation of §4.4: the protocol's phases really are the pebble
//! games. Contract publication rounds must match the lazy game; trigger
//! propagation must respect the eager game on the transpose (Lemmas 4.5
//! and 4.6).

use std::collections::BTreeSet;

use atomic_swaps::core::runner::RunConfig;
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::What;
use atomic_swaps::core::{Engine, ProtocolKind};
use atomic_swaps::digraph::{generators, Digraph};
use atomic_swaps::pebble::{EagerPebbleGame, LazyPebbleGame};
use atomic_swaps::sim::SimRng;

fn fast_config() -> SetupConfig {
    SetupConfig { key_height: 4, ..SetupConfig::default() }
}

/// Runs the protocol and returns, per arc, the round (multiple of Δ from
/// T₀) at which its contract was published.
fn publication_rounds(digraph: Digraph, seed: u64) -> (Vec<u64>, Vec<u64>, u64) {
    let setup =
        SwapSetup::generate(digraph, &fast_config(), &mut SimRng::from_seed(seed)).expect("valid");
    let delta = setup.spec.delta.ticks();
    let t0 = setup.spec.start.ticks() - delta;
    let arc_count = setup.spec.digraph.arc_count();
    let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
    assert!(report.all_deal());
    let mut publish = vec![u64::MAX; arc_count];
    for event in report.trace.events() {
        if let What::Published { arc, round } = event.what {
            publish[arc.index()] = round;
        }
    }
    let trigger: Vec<u64> = report
        .triggered_at
        .iter()
        .map(|t| (t.expect("all triggered").ticks() - t0) / delta)
        .collect();
    (publish, trigger, delta)
}

/// Runs the lazy pebble game, returning per-arc pebbling rounds (round 1 =
/// initial leader placement, matching protocol round 0 publications being
/// *visible* at round 1).
fn lazy_rounds(digraph: &Digraph, leaders: &BTreeSet<atomic_swaps::digraph::VertexId>) -> Vec<u64> {
    let mut game = LazyPebbleGame::new(digraph, leaders);
    let mut rounds = vec![u64::MAX; digraph.arc_count()];
    let mut r = 0;
    loop {
        let placed = game.step();
        if placed.is_empty() {
            break;
        }
        r += 1;
        for arc in placed {
            rounds[arc.index()] = r;
        }
        if game.all_pebbled() {
            break;
        }
    }
    rounds
}

#[test]
fn phase_one_is_the_lazy_pebble_game() {
    for (digraph, seed) in [
        (generators::herlihy_three_party(), 1u64),
        (generators::two_leader_triangle(), 2),
        (generators::cycle(5), 3),
        (generators::star(4), 4),
        (generators::flower(2, 3), 5),
    ] {
        let setup =
            SwapSetup::generate(digraph.clone(), &fast_config(), &mut SimRng::from_seed(seed))
                .expect("valid");
        let leaders: BTreeSet<_> = setup.spec.leaders.iter().copied().collect();
        drop(setup);
        let (publish, _, _) = publication_rounds(digraph.clone(), seed);
        let pebbles = lazy_rounds(&digraph, &leaders);
        // Publication at protocol round k ⇒ visible at k+1 ⇔ pebble at
        // round k+1.
        for arc in digraph.arcs() {
            assert_eq!(
                publish[arc.id.index()] + 1,
                pebbles[arc.id.index()],
                "arc {} of {:?}",
                arc.id,
                digraph.render()
            );
        }
    }
}

#[test]
fn phase_one_within_diam_rounds() {
    // Lemma 4.5: contracts on every arc within diam(D)·Δ of T₀.
    for (digraph, seed) in [
        (generators::herlihy_three_party(), 11u64),
        (generators::two_leader_triangle(), 12),
        (generators::cycle(7), 13),
        (generators::complete(4), 14),
    ] {
        let diam = digraph.diameter() as u64;
        let (publish, _, _) = publication_rounds(digraph, seed);
        for (i, &round) in publish.iter().enumerate() {
            assert!(round <= diam, "arc {i} published at round {round} > diam {diam}");
        }
    }
}

#[test]
fn phase_two_within_two_diam_rounds() {
    // Lemma 4.6 / Theorem 4.7: triggers within 2·diam rounds.
    for (digraph, seed) in [
        (generators::herlihy_three_party(), 21u64),
        (generators::two_leader_triangle(), 22),
        (generators::cycle(6), 23),
        (generators::complete(4), 24),
    ] {
        let diam = digraph.diameter() as u64;
        let (_, trigger, _) = publication_rounds(digraph, seed);
        for (i, &round) in trigger.iter().enumerate() {
            assert!(
                round <= 2 * diam + 1,
                "arc {i} triggered at round {round} > 2·diam {diam} (+1 for T = T₀+Δ)"
            );
        }
    }
}

#[test]
fn eager_game_on_transpose_bounds_secret_spread() {
    // Each leader's secret reaches every arc no later than the eager pebble
    // game starting at that leader on Dᵀ (the protocol can only be as fast
    // as its abstraction).
    for (digraph, seed) in [(generators::herlihy_three_party(), 31u64), (generators::cycle(5), 32)]
    {
        let setup =
            SwapSetup::generate(digraph.clone(), &fast_config(), &mut SimRng::from_seed(seed))
                .expect("valid");
        let leader = setup.spec.leaders[0];
        drop(setup);
        let transpose = digraph.transpose();
        let mut game = EagerPebbleGame::new(&transpose, leader);
        let eager_rounds = game.run_to_completion().expect("strongly connected");
        let (publish, trigger, _) = publication_rounds(digraph.clone(), seed);
        let phase_one_end = publish.iter().max().copied().unwrap();
        let last_trigger = trigger.iter().max().copied().unwrap();
        // Secrets spread in at most eager_rounds rounds after Phase One.
        assert!(
            last_trigger <= phase_one_end + eager_rounds + 1,
            "triggers took {} rounds after phase one; eager bound {}",
            last_trigger - phase_one_end,
            eager_rounds
        );
    }
}
