//! Cross-engine equivalence: the event-driven `Lockstep` engine must
//! reproduce the pre-refactor lockstep runner's `RunReport` byte-for-byte.
//!
//! The files under `tests/golden/` were recorded by running the seed
//! runner (the monolithic poll-everything round loop this engine replaced)
//! on the eight digraph/adversary combos of the determinism suite, with
//! the same seeds used here. Every seed-era observable — outcomes, arc
//! triggers and their instants, completion, settlement, metrics, storage
//! accounting, and the full trace — is rendered into the fingerprint, so
//! any drift in event ordering, transaction timing, trace wording, or
//! byte accounting fails loudly.
//!
//! (`RunMetrics::direct_transfers` postdates the recording, so it is not
//! part of the fingerprint; it is asserted to be zero separately — no
//! combo here uses coalition behavior.)

use atomic_swaps::core::runner::{RunConfig, RunReport, SwapRunner};
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::{Behavior, ProtocolKind, SwapInstance};
use atomic_swaps::digraph::{generators, Digraph, VertexId};
use atomic_swaps::market::LeaderStrategy;
use atomic_swaps::sim::SimRng;

fn fast_config() -> SetupConfig {
    SetupConfig {
        key_height: 4,
        leader_strategy: LeaderStrategy::MinimumExact,
        ..SetupConfig::default()
    }
}

/// Renders every seed-era field of the report in the exact format the
/// golden files were recorded with.
fn fingerprint(report: &RunReport) -> String {
    let mut s = String::new();
    s.push_str(&format!("outcomes: {:?}\n", report.outcomes));
    s.push_str(&format!("arc_triggered: {:?}\n", report.arc_triggered));
    s.push_str(&format!("triggered_at: {:?}\n", report.triggered_at));
    s.push_str(&format!("completion: {:?}\n", report.completion));
    s.push_str(&format!("settled: {:?}\n", report.settled));
    s.push_str(&format!("conforming: {:?}\n", report.conforming));
    s.push_str(&format!("abandoned: {:?}\n", report.abandoned));
    s.push_str(&format!("rounds: {}\n", report.metrics.rounds));
    s.push_str(&format!("contracts_published: {}\n", report.metrics.contracts_published));
    s.push_str(&format!("unlock_calls: {}\n", report.metrics.unlock_calls));
    s.push_str(&format!("unlock_bytes: {}\n", report.metrics.unlock_bytes));
    s.push_str(&format!("claim_calls: {}\n", report.metrics.claim_calls));
    s.push_str(&format!("refund_calls: {}\n", report.metrics.refund_calls));
    s.push_str(&format!("rejected_calls: {}\n", report.metrics.rejected_calls));
    s.push_str(&format!("announce_bytes: {}\n", report.metrics.announce_bytes));
    s.push_str(&format!("storage: {:?}\n", report.storage));
    for e in report.trace.entries() {
        s.push_str(&format!("trace: {:?}\n", e));
    }
    s
}

fn adversarial_config() -> RunConfig {
    let mut config = RunConfig::default();
    config.behaviors.insert(VertexId::new(1), Behavior::Halt { at_round: 3 });
    config.behaviors.insert(VertexId::new(2), Behavior::WithholdSecret);
    config
}

/// The eight determinism-suite combos, with the recorded seed-runner
/// fingerprints they must reproduce.
fn combos() -> Vec<(&'static str, Digraph, u64, RunConfig, &'static str)> {
    vec![
        (
            "herlihy_three_party",
            generators::herlihy_three_party(),
            2018,
            RunConfig::default(),
            include_str!("golden/herlihy_three_party.txt"),
        ),
        (
            "cycle_5",
            generators::cycle(5),
            7,
            RunConfig::default(),
            include_str!("golden/cycle_5.txt"),
        ),
        (
            "complete_4",
            generators::complete(4),
            11,
            RunConfig::default(),
            include_str!("golden/complete_4.txt"),
        ),
        (
            "two_leader_triangle",
            generators::two_leader_triangle(),
            23,
            RunConfig::default(),
            include_str!("golden/two_leader_triangle.txt"),
        ),
        (
            "random_strongly_connected_6",
            generators::random_strongly_connected(6, 0.3, &mut SimRng::from_seed(99)),
            41,
            RunConfig::default(),
            include_str!("golden/random_strongly_connected_6.txt"),
        ),
        (
            "cycle_4_adversarial",
            generators::cycle(4),
            13,
            adversarial_config(),
            include_str!("golden/cycle_4_adversarial.txt"),
        ),
        (
            "complete_4_adversarial",
            generators::complete(4),
            17,
            adversarial_config(),
            include_str!("golden/complete_4_adversarial.txt"),
        ),
        (
            "flower_3_2_adversarial",
            generators::flower(3, 2),
            19,
            adversarial_config(),
            include_str!("golden/flower_3_2_adversarial.txt"),
        ),
    ]
}

fn run_combo(digraph: Digraph, seed: u64, config: RunConfig) -> RunReport {
    let setup = SwapSetup::generate(digraph, &fast_config(), &mut SimRng::from_seed(seed))
        .expect("strongly connected digraphs are valid swaps");
    SwapRunner::new(setup, config).run()
}

#[test]
fn lockstep_engine_reproduces_seed_runner_byte_for_byte() {
    for (name, digraph, seed, config, golden) in combos() {
        let report = run_combo(digraph, seed, config);
        assert_eq!(
            fingerprint(&report),
            golden,
            "combo `{name}` diverged from the recorded seed-runner report"
        );
        assert_eq!(report.metrics.direct_transfers, 0, "combo `{name}`: no coalition here");
    }
}

/// Three scenarios that, until the reference modes were retired, only a
/// mode-vs-mode comparison pinned. Their fingerprints were recorded by the
/// last commit that still had the modes (where both modes of each pair
/// produced them), so the surviving path answers to the deleted one too.
#[test]
fn scenarios_once_pinned_by_mode_comparisons_match_their_goldens() {
    let mut withholding_leader = RunConfig::default();
    withholding_leader.behaviors.insert(VertexId::new(0), Behavior::WithholdSecret);
    let cases = [
        (
            "flower_3_3_htlc",
            generators::flower(3, 3),
            9,
            RunConfig::default(),
            ProtocolKind::Htlc,
            include_str!("golden/flower_3_3_htlc.txt"),
        ),
        (
            "herlihy_three_party_withholding_leader_hashkey",
            generators::herlihy_three_party(),
            12,
            withholding_leader.clone(),
            ProtocolKind::Hashkey,
            include_str!("golden/herlihy_three_party_withholding_leader_hashkey.txt"),
        ),
        (
            "herlihy_three_party_withholding_leader_htlc",
            generators::herlihy_three_party(),
            12,
            withholding_leader,
            ProtocolKind::Htlc,
            include_str!("golden/herlihy_three_party_withholding_leader_htlc.txt"),
        ),
    ];
    for (name, digraph, seed, config, protocol, golden) in cases {
        let setup = SwapSetup::generate(digraph, &fast_config(), &mut SimRng::from_seed(seed))
            .expect("strongly connected digraphs are valid swaps");
        let report = SwapInstance::new(0, setup, config).with_protocol(protocol).run_lockstep();
        assert_eq!(fingerprint(&report), golden, "scenario `{name}` diverged from its golden");
        assert!(report.no_conforming_underwater(), "scenario `{name}`");
    }
}
