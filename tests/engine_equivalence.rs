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
//! byte accounting fails loudly. The trace lines were written when the
//! engine recorded strings; the typed trace reproduces them through
//! `Trace::render`, which makes these files the renderer's oracle.
//!
//! (`RunMetrics::direct_transfers` postdates the recording, so it is not
//! part of the fingerprint; the seed combos assert it zero and the
//! coalition golden reads it off the trace.)

use atomic_swaps::core::runner::{RunConfig, RunReport, SwapRunner};
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::{Action, Behavior, ProtocolKind, SwapInstance, What};
use atomic_swaps::crypto::SigChain;
use atomic_swaps::digraph::{generators, Digraph, VertexId, VertexPath};
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
    for e in report.trace.events() {
        s.push_str(&format!("trace: {:?}\n", report.trace.render(e)));
    }
    s
}

/// The report reproduces its recorded fingerprint, and every call the
/// metrics count as rejected left its event.
fn assert_matches_golden(name: &str, report: &RunReport, golden: &str) {
    assert_eq!(fingerprint(report), golden, "`{name}` diverged from its recorded report");
    let rejected =
        report.trace.events().iter().filter(|e| matches!(e.what, What::Rejected { .. })).count();
    assert_eq!(report.metrics.rejected_calls, rejected as u64, "`{name}`: a silent rejection");
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
        assert_matches_golden(name, &report, golden);
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
        assert_matches_golden(name, &report, golden);
        assert!(report.no_conforming_underwater(), "scenario `{name}`");
    }
}

/// §1's three parties on the hashkey protocol: alice (the leader) leaks her
/// secret on the bulletin at round 0; bob publishes on schedule and then
/// plays a script of calls the contracts and the chain must refuse.
fn premature_reveal_and_refused_calls() -> (SwapSetup, RunConfig) {
    let digraph = generators::herlihy_three_party();
    let [alice, bob, carol] = ["alice", "bob", "carol"].map(|n| digraph.vertex_by_name(n).unwrap());
    let config = SetupConfig { leaders: Some(vec![alice]), ..fast_config() };
    let setup = SwapSetup::generate(digraph, &config, &mut SimRng::from_seed(29)).expect("valid");
    let d = &setup.spec.digraph;
    let (to_bob, to_carol) = (d.arcs_between(alice, bob)[0], d.arcs_between(bob, carol)[0]);
    let bobs_secret = setup.secrets[bob.index()];
    let sig =
        SigChain::sign_secret(&mut setup.keypairs[bob.index()].clone(), &bobs_secret).unwrap();
    let script = vec![
        (1, Action::Publish { arc: to_carol }),
        (2, Action::Claim { arc: to_bob }),
        (2, Action::Refund { arc: to_carol }),
        (
            2,
            Action::Unlock {
                arc: to_bob,
                index: 0,
                secret: bobs_secret,
                path: VertexPath::single(bob),
                sig,
            },
        ),
        (3, Action::DirectTransfer { arc: to_bob }),
    ];
    let mut run = RunConfig::default();
    run.behaviors.insert(alice, Behavior::PrematureReveal);
    run.behaviors.insert(bob, Behavior::Scripted { actions: script });
    (setup, run)
}

/// Lemma 3.4's coalition on §1's three parties: everyone bypasses the
/// contracts and hands the leaving asset over directly.
fn direct_coalition() -> (SwapSetup, RunConfig) {
    let digraph = generators::herlihy_three_party();
    let mut run = RunConfig::default();
    for v in digraph.vertices() {
        run.behaviors.insert(v, Behavior::Direct { skip_arcs: vec![] });
    }
    let setup =
        SwapSetup::generate(digraph, &fast_config(), &mut SimRng::from_seed(17)).expect("valid");
    (setup, run)
}

/// The three kinds no other golden reaches — `tx.rejected`,
/// `asset.direct_transfer`, `secret.announced` — recorded by the last
/// commit that wrote its trace as strings.
#[test]
fn rejections_direct_transfers_and_announcements_match_their_goldens() {
    let cases = [
        (
            "herlihy_three_party_premature_reveal_refused_calls",
            premature_reveal_and_refused_calls(),
            include_str!("golden/herlihy_three_party_premature_reveal_refused_calls.txt"),
        ),
        (
            "herlihy_three_party_direct_coalition",
            direct_coalition(),
            include_str!("golden/herlihy_three_party_direct_coalition.txt"),
        ),
    ];
    for (name, (setup, run), golden) in cases {
        let report = SwapRunner::new(setup, run).run();
        assert_matches_golden(name, &report, golden);
        // The fingerprint predates this counter; the trace holds it.
        let events = report.trace.events().iter();
        let direct = events.filter(|e| matches!(e.what, What::DirectTransfer { .. })).count();
        assert_eq!(report.metrics.direct_transfers, direct as u64, "{name}");
    }
}
