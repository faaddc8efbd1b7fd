//! Criterion benches for end-to-end protocol runs — the wall-clock cost of
//! simulating one full atomic swap, and two ablations of the paper's design:
//! single-leader timeouts vs general hashkeys, and the §4.5 broadcast
//! optimization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swap_bench::bench_setup_config;
use swap_core::runner::{RunConfig, SwapRunner};
use swap_core::setup::SwapSetup;
use swap_core::{ProtocolKind, SwapInstance};
use swap_digraph::{generators, Digraph};
use swap_sim::SimRng;

fn run_general(digraph: Digraph, broadcast: bool) {
    let mut setup = SwapSetup::generate(digraph, &bench_setup_config(), &mut SimRng::from_seed(1))
        .expect("valid");
    setup.spec.broadcast_arcs = broadcast;
    let report = SwapRunner::new(setup, RunConfig::default()).run();
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
                let setup = SwapSetup::generate(
                    d.clone(),
                    &bench_setup_config(),
                    &mut SimRng::from_seed(2),
                )
                .expect("valid");
                let report = SwapInstance::new(0, setup, RunConfig::default())
                    .with_protocol(ProtocolKind::Htlc)
                    .run_lockstep();
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
            b.iter(|| {
                SwapSetup::generate(d.clone(), &bench_setup_config(), &mut SimRng::from_seed(3))
                    .expect("valid")
            })
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
