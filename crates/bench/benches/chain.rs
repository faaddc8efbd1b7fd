//! Criterion benches for the transaction hot path: publish / call /
//! rollback micro-ops on one `Blockchain`, at two registry sizes.
//!
//! The chain carries a pre-minted registry of 10² or 10⁴ assets. A
//! *call* is a succeeding toggle (one escrow move + one sealed block); a
//! *rollback* is a call the contract rejects after validation fails,
//! which costs one undo-log check. The undo journal makes all three
//! O(ops in the transaction), so the two sizes should time alike; the
//! rigorous sweep (10²–10⁵ with the flatness gate) lives in experiment
//! E22.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swap_bench::churn::{rigged_chain, Churn, ChurnCall};
use swap_chain::AssetDescriptor;
use swap_crypto::{Address, Digest32};
use swap_sim::SimTime;

fn bench_chain_tx(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain");
    group.sample_size(10);
    let home = Address::from_digest(Digest32([1; 32]));
    for assets in [100usize, 10_000] {
        // publish: escrow a fresh asset + seal, on a fresh contract each
        // iteration (ids grow; per-iter cost stays flat).
        let (mut chain, _) = rigged_chain(home, assets);
        let mut tick = 10u64;
        group.bench_with_input(BenchmarkId::new("publish", assets), &assets, |b, _| {
            b.iter(|| {
                tick += 1;
                let now = SimTime::from_ticks(tick);
                let asset = chain.mint_asset(AssetDescriptor::unique("p"), home, now);
                chain
                    .publish_contract(Churn { asset, home, held: false }, home, now)
                    .expect("publishes")
            })
        });

        // call: one succeeding escrow toggle + seal.
        let (mut chain, id) = rigged_chain(home, assets);
        let mut tick = 10u64;
        group.bench_with_input(BenchmarkId::new("call", assets), &assets, |b, _| {
            b.iter(|| {
                tick += 1;
                chain
                    .call_contract(id, home, ChurnCall::Toggle, SimTime::from_ticks(tick), 16)
                    .map(<[_]>::len)
                    .expect("toggles")
            })
        });

        // rollback: a failing call — one undo-log check, nothing sealed.
        let (mut chain, id) = rigged_chain(home, assets);
        group.bench_with_input(BenchmarkId::new("rollback", assets), &assets, |b, _| {
            b.iter(|| {
                chain
                    .call_contract(id, home, ChurnCall::Fail, SimTime::from_ticks(5), 16)
                    .expect_err("rejects")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chain_tx);
criterion_main!(benches);
