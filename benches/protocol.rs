//! Criterion benches for end-to-end protocol runs — the wall-clock cost of
//! simulating one full atomic swap, and two ablations of the paper's design:
//! single-leader timeouts vs general hashkeys, and the §4.5 broadcast
//! optimization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swap_core::runner::RunConfig;
use swap_core::setup::{SetupConfig, SwapSetup};
use swap_core::{Engine, ProtocolKind};
use swap_digraph::{generators, Digraph, FeedbackVertexSet};
use swap_sim::SimRng;

/// Height-5 keys (32 one-time signatures, enough for every leader count
/// here) and the greedy feedback vertex set as leaders.
fn provision(digraph: Digraph, seed: u64) -> SwapSetup {
    let leaders = FeedbackVertexSet::greedy(&digraph).into_vertices().into_iter().collect();
    let config = SetupConfig { key_height: 5, leaders: Some(leaders), ..SetupConfig::default() };
    SwapSetup::generate(digraph, &config, &mut SimRng::from_seed(seed)).expect("valid")
}

fn run_general(digraph: Digraph, broadcast: bool) {
    let mut setup = provision(digraph, 1);
    setup.spec.broadcast_arcs = broadcast;
    let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
    assert!(report.all_deal());
}

fn bench_full_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_run");
    group.sample_size(10);
    let cases: Vec<(String, Digraph)> = vec![
        ("cycle/3".into(), generators::herlihy_three_party()),
        ("cycle/5".into(), generators::cycle(5)),
        ("cycle/8".into(), generators::cycle(8)),
        ("two-leader/3".into(), generators::two_leader_triangle()),
        ("complete/4".into(), generators::complete(4)),
        ("star/5".into(), generators::star(5)),
    ];
    for (name, digraph) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(&name), &digraph, |b, d| {
            b.iter(|| run_general(d.clone(), false))
        });
    }
    group.finish();
}

fn bench_single_vs_multi(c: &mut Criterion) {
    // Ablation: §4.6 timeout-only protocol vs the general hashkey protocol
    // on the same single-leader digraphs.
    let mut group = c.benchmark_group("single_vs_multi");
    group.sample_size(10);
    for n in [3usize, 5, 8] {
        let digraph = generators::cycle(n);
        group.bench_with_input(BenchmarkId::new("htlc", n), &digraph, |b, d| {
            b.iter(|| {
                let setup = provision(d.clone(), 2);
                let report =
                    Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Htlc).run();
                assert!(report.all_deal());
            })
        });
        group.bench_with_input(BenchmarkId::new("hashkey", n), &digraph, |b, d| {
            b.iter(|| run_general(d.clone(), false))
        });
    }
    group.finish();
}

fn bench_broadcast_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("broadcast");
    group.sample_size(10);
    for n in [5usize, 8] {
        let digraph = generators::cycle(n);
        group.bench_with_input(BenchmarkId::new("plain", n), &digraph, |b, d| {
            b.iter(|| run_general(d.clone(), false))
        });
        group.bench_with_input(BenchmarkId::new("broadcast", n), &digraph, |b, d| {
            b.iter(|| run_general(d.clone(), true))
        });
    }
    group.finish();
}

fn bench_setup_cost(c: &mut Criterion) {
    // Provisioning cost alone (key generation dominates).
    let mut group = c.benchmark_group("setup");
    group.sample_size(10);
    for n in [3usize, 6] {
        let digraph = generators::cycle(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &digraph, |b, d| {
            b.iter(|| provision(d.clone(), 3))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_full_protocol,
    bench_single_vs_multi,
    bench_broadcast_ablation,
    bench_setup_cost
);
criterion_main!(benches);
