//! Criterion benches for the event-driven runner.
//!
//! `runner/*` — end-to-end cost of one conforming swap across the
//! `cycle`/`complete`/`flower` families at n ∈ {8, 32, 128}. Setup (key
//! generation) is provisioned once per case and cloned per iteration so
//! the engine dominates the measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swap_core::runner::RunConfig;
use swap_core::setup::{SetupConfig, SwapSetup};
use swap_core::{Engine, ProtocolKind};
use swap_digraph::{generators, Digraph, FeedbackVertexSet};
use swap_sim::SimRng;

/// Height-5 keys and the greedy feedback vertex set as leaders (any size;
/// the exact search is branch-and-bound, for small digraphs).
fn provision(digraph: Digraph) -> SwapSetup {
    let leaders = FeedbackVertexSet::greedy(&digraph).into_vertices().into_iter().collect();
    let config = SetupConfig { key_height: 5, leaders: Some(leaders), ..SetupConfig::default() };
    SwapSetup::generate(digraph, &config, &mut SimRng::from_seed(0xB0B))
        .expect("valid swap digraph")
}

fn run(setup: &SwapSetup, config: &RunConfig) {
    let report = Engine::lockstep(setup.clone(), config.clone(), ProtocolKind::Hashkey).run();
    assert!(report.metrics.contracts_published > 0);
}

fn bench_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("runner");
    group.sample_size(3);
    let mut cases: Vec<(String, Digraph)> = Vec::new();
    for n in [8usize, 32, 128] {
        cases.push((format!("cycle/{n}"), generators::cycle(n)));
    }
    for n in [8usize, 32, 128] {
        // flower(4, n/4): four petals, n arcs, one leader (the center).
        cases.push((format!("flower/{n}"), generators::flower(4, n / 4)));
    }
    for n in [8usize, 32] {
        cases.push((format!("complete/{n}"), generators::complete(n)));
    }
    // Not a silent cap: complete(128) means 16256 arcs × 127 leaders ≈ 2M
    // signature-chain verifications — hours per iteration, so the family
    // tops out at complete(32) here.
    println!("runner/complete/128               skipped (2M sig verifications per run)");
    for (name, digraph) in cases {
        let setup = provision(digraph);
        let config = RunConfig::default();
        group.bench_with_input(BenchmarkId::from_parameter(&name), &setup, |b, s| {
            b.iter(|| run(s, &config))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_families);
criterion_main!(benches);
