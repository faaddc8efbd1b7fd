//! Criterion benches for the graph layer: the paper's longest-path
//! diameter, feedback-vertex-set search (exact vs greedy — the §5 remark
//! that minimum FVS is NP-complete), and path enumeration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swap_digraph::path::enumerate_paths;
use swap_digraph::{algo, generators, FeedbackVertexSet, VertexId};
use swap_sim::SimRng;

fn bench_diameter(c: &mut Criterion) {
    let mut group = c.benchmark_group("diameter_exact");
    for n in [6usize, 9, 12] {
        let d = generators::random_strongly_connected(n, 0.3, &mut SimRng::from_seed(1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &d, |b, d| {
            b.iter(|| algo::diameter_exact(std::hint::black_box(d)))
        });
    }
    group.finish();
}

fn bench_fvs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fvs");
    group.sample_size(10);
    // The shape the exchange elects a leader for once per cleared swap.
    let ring = generators::cycle(4);
    group.bench_with_input(BenchmarkId::new("exact_ring", 4), &ring, |b, d| {
        b.iter(|| FeedbackVertexSet::minimum(std::hint::black_box(d)))
    });
    for n in [6usize, 9, 12] {
        let d = generators::random_strongly_connected(n, 0.3, &mut SimRng::from_seed(2));
        group.bench_with_input(BenchmarkId::new("exact", n), &d, |b, d| {
            b.iter(|| FeedbackVertexSet::minimum(std::hint::black_box(d)))
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &d, |b, d| {
            b.iter(|| FeedbackVertexSet::greedy(std::hint::black_box(d)))
        });
    }
    group.finish();
}

fn bench_scc(c: &mut Criterion) {
    let mut group = c.benchmark_group("strongly_connected");
    for n in [10usize, 50, 200] {
        let d = generators::random_strongly_connected(n, 0.05, &mut SimRng::from_seed(3));
        group.bench_with_input(BenchmarkId::from_parameter(n), &d, |b, d| {
            b.iter(|| {
                assert!(d.is_strongly_connected());
            })
        });
    }
    group.finish();
}

fn bench_path_enumeration(c: &mut Criterion) {
    // Hashkey-path enumeration (Figure 7) on the worst case: complete
    // digraphs, where path counts explode factorially.
    let mut group = c.benchmark_group("enumerate_paths");
    for n in [4usize, 5, 6, 7] {
        let d = generators::complete(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &d, |b, d| {
            b.iter(|| enumerate_paths(d, VertexId::new(1), VertexId::new(0)).len())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_diameter, bench_fvs, bench_scc, bench_path_enumeration
}
criterion_main!(benches);
