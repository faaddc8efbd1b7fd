//! Determinism regression: the entire pipeline — setup generation, key
//! material, contract deployment, the discrete-event run — is a pure
//! function of the master `SimRng` seed. Two runs from the same seed must
//! produce byte-identical `RunReport`s (outcomes, trigger times, trace,
//! metrics, storage), for every digraph family and under adversaries.
//!
//! This is the property every replayable table in `tests/paper.rs`
//! silently depends on; a nondeterministic collection iteration order or a
//! stray `HashMap` would surface here first. That the per-chain latency
//! model really moves the timeline is checked there, in
//! `per_chain_latency_differs_from_lockstep_but_agrees_on_outcomes`.

use atomic_swaps::core::runner::{RunConfig, RunReport};
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::timing::PerChainLatency;
use atomic_swaps::core::{Behavior, Engine, ProtocolKind};
use atomic_swaps::digraph::{generators, Digraph, VertexId};
use atomic_swaps::sim::SimRng;

fn fast_config() -> SetupConfig {
    SetupConfig { key_height: 4, ..SetupConfig::default() }
}

fn run_once(digraph: Digraph, seed: u64, config: &RunConfig) -> RunReport {
    let setup = SwapSetup::generate(digraph, &fast_config(), &mut SimRng::from_seed(seed))
        .expect("strongly connected digraphs are valid swaps");
    Engine::lockstep(setup, config.clone(), ProtocolKind::Hashkey).run()
}

/// Renders every field of the report; two reports are "byte-identical"
/// iff these strings are.
fn fingerprint(report: &RunReport) -> String {
    format!("{report:?}")
}

fn assert_deterministic(name: &str, make: impl Fn() -> Digraph, seed: u64, config: &RunConfig) {
    let first = fingerprint(&run_once(make(), seed, config));
    let second = fingerprint(&run_once(make(), seed, config));
    assert_eq!(first, second, "family `{name}` diverged across identically-seeded runs");
}

#[test]
fn conforming_runs_are_seed_deterministic_across_families() {
    let config = RunConfig::default();
    assert_deterministic("herlihy_three_party", generators::herlihy_three_party, 2018, &config);
    assert_deterministic("cycle_5", || generators::cycle(5), 7, &config);
    assert_deterministic("complete_4", || generators::complete(4), 11, &config);
    assert_deterministic("two_leader_triangle", generators::two_leader_triangle, 23, &config);
    assert_deterministic(
        "random_strongly_connected_6",
        || generators::random_strongly_connected(6, 0.3, &mut SimRng::from_seed(99)),
        41,
        &config,
    );
}

#[test]
fn adversarial_runs_are_seed_deterministic() {
    let mut config = RunConfig::default();
    config.behaviors.insert(VertexId::new(1), Behavior::Halt { at_round: 3 });
    config.behaviors.insert(VertexId::new(2), Behavior::WithholdSecret);
    assert_deterministic("cycle_4_adversarial", || generators::cycle(4), 13, &config);
    assert_deterministic("complete_4_adversarial", || generators::complete(4), 17, &config);
    assert_deterministic("flower_adversarial", || generators::flower(3, 2), 19, &config);
}

fn run_once_per_chain_latency(digraph: Digraph, seed: u64, config: &RunConfig) -> RunReport {
    // The same master seed drives setup generation *and* the latency draws,
    // so the whole run — including per-chain publish/confirm delays — is a
    // pure function of the seed.
    let rng = SimRng::from_seed(seed);
    let setup = SwapSetup::generate(digraph, &fast_config(), &mut rng.clone())
        .expect("strongly connected digraphs are valid swaps");
    let timing = PerChainLatency::sample(&setup, &rng);
    Engine::new(setup, config.clone(), ProtocolKind::Hashkey, timing).run()
}

fn assert_per_chain_latency_deterministic(
    name: &str,
    make: impl Fn() -> Digraph,
    seed: u64,
    config: &RunConfig,
) {
    let first = fingerprint(&run_once_per_chain_latency(make(), seed, config));
    let second = fingerprint(&run_once_per_chain_latency(make(), seed, config));
    assert_eq!(
        first, second,
        "family `{name}` diverged across identically-seeded per-chain-latency runs"
    );
}

#[test]
fn per_chain_latency_runs_are_seed_deterministic() {
    let config = RunConfig::default();
    assert_per_chain_latency_deterministic(
        "herlihy_three_party_latency",
        generators::herlihy_three_party,
        2018,
        &config,
    );
    assert_per_chain_latency_deterministic("cycle_5_latency", || generators::cycle(5), 7, &config);
    assert_per_chain_latency_deterministic(
        "complete_4_latency",
        || generators::complete(4),
        11,
        &config,
    );
    let mut adversarial = RunConfig::default();
    adversarial.behaviors.insert(VertexId::new(1), Behavior::Halt { at_round: 3 });
    adversarial.behaviors.insert(VertexId::new(2), Behavior::WithholdSecret);
    assert_per_chain_latency_deterministic(
        "flower_latency_adversarial",
        || generators::flower(3, 2),
        19,
        &adversarial,
    );
}

#[test]
fn different_seeds_produce_different_key_material() {
    // Guard against the opposite failure: seed-independent generation
    // would make the tests above vacuous. The run report itself is
    // symbolic (vertex/arc names and times), so the seed must surface in
    // the setup: key material and leader hashlocks have to differ.
    let gen = |seed| {
        SwapSetup::generate(generators::cycle(4), &fast_config(), &mut SimRng::from_seed(seed))
            .expect("valid swap")
    };
    let (a, b) = (gen(1), gen(2));
    assert_ne!(a.spec.hashlocks, b.spec.hashlocks, "hashlocks should depend on the seed");
    assert_ne!(
        format!("{:?}", a.keypairs[0].public_key()),
        format!("{:?}", b.keypairs[0].public_key()),
        "signing keys should depend on the seed"
    );
    // And the same seed reproduces the same setup, keys included.
    assert_eq!(a.spec.hashlocks, gen(1).spec.hashlocks);
}
