//! Criterion benches for the clearing tier: one steady-state churn round
//! (submit a hot set, clear, settle) against prebuilt books of 1k and 10k
//! open offers, published from the production planner (`plan`, the
//! incremental index) and from its specification (`plan_full_rescan`).
//!
//! The book is a hot/cold split: the churn set forms mutual pairs and one
//! three-cycle each round, while an inert tail — offers whose kinds have
//! no counterparties — only sits in the open set. The full rescan
//! re-examines the whole tail every round, so its round time grows with
//! the book; the index walks only the active kinds, so its round time is
//! flat. The timing delta between the two rows of a size *is* the index's
//! win; the
//! rigorous sweep (through 10⁵, with a 10⁶ smoke and a ≥10× gate) lives
//! in experiment E20.
//!
//! Identities are minted via `MssPublicKey::from_root` — real addresses
//! without the O(2ʰ) keygen — so book setup stays negligible next to the
//! measured rounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swap_crypto::{Digest32, MssPublicKey, Secret};
use swap_market::{AssetKind, ClearPlan, ClearingService, Offer};
use swap_sim::{Delta, SimTime};

/// Draws one epoch's plan from the open book.
type Planner = fn(&ClearingService) -> ClearPlan;

/// Mutual two-cycle pairs per churn round (plus one 3-cycle).
const PAIRS: usize = 8;

/// A synthetic offer: key minted from the tag, hashlock preimage derived
/// from the tag, no signing ability (clearing never signs).
fn synth(tag: u64, gives: AssetKind, wants: AssetKind) -> Offer {
    let mut root = [0u8; 32];
    root[..8].copy_from_slice(&tag.to_le_bytes());
    root[8] = 0xBC;
    let mut preimage = [0u8; 32];
    preimage[..8].copy_from_slice(&tag.to_be_bytes());
    preimage[8] = 0xBC;
    Offer {
        key: MssPublicKey::from_root(Digest32(root), 20),
        hashlock: Secret::from_bytes(preimage).hashlock(),
        gives,
        wants,
    }
}

/// A service holding `tail` open offers that can never clear: their kinds
/// are given but never wanted, so every churn round leaves them behind.
fn tailed_service(tail: usize) -> (ClearingService, u64) {
    let mut svc = ClearingService::new();
    for i in 0..tail {
        let shared = 1_000_000_000 + (i % 1_000) as u64;
        svc.submit(synth(shared, AssetKind::new("tail-gives"), AssetKind::new("tail-wants")));
    }
    (svc, 0)
}

/// One steady-state round: submit the hot set, publish `planner`'s plan,
/// settle every emitted swap. The book returns to exactly the tail.
fn churn_round(svc: &mut ClearingService, planner: Planner, tag: &mut u64) {
    let mut fresh = |gives: AssetKind, wants: AssetKind| {
        *tag += 1;
        synth(*tag, gives, wants)
    };
    for p in 0..PAIRS {
        let (a, b) = (AssetKind::new(format!("hot{p}a")), AssetKind::new(format!("hot{p}b")));
        svc.submit(fresh(a.clone(), b.clone()));
        svc.submit(fresh(b, a));
    }
    for t in 0..3 {
        svc.submit(fresh(
            AssetKind::new(format!("tri{t}")),
            AssetKind::new(format!("tri{}", (t + 1) % 3)),
        ));
    }
    let plan = planner(svc);
    let swaps = svc.commit(plan, Delta::from_ticks(10), SimTime::ZERO).expect("churn clears");
    assert_eq!(swaps.len(), PAIRS + 1, "every pair and the tri-cycle match");
    for swap in &swaps {
        svc.settle_swap(swap.id).expect("fresh swap settles");
    }
}

fn bench_clearing_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("clearing");
    group.sample_size(10);
    for tail in [1_000usize, 10_000] {
        let planners: [(&str, Planner); 2] = [
            ("indexed", ClearingService::plan),
            ("full-rescan", ClearingService::plan_full_rescan),
        ];
        for (label, planner) in planners {
            let (mut svc, mut tag) = tailed_service(tail);
            group.bench_with_input(
                BenchmarkId::new(format!("churn/{tail}"), label),
                &planner,
                |b, &planner| b.iter(|| churn_round(&mut svc, planner, &mut tag)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_clearing_churn);
criterion_main!(benches);
