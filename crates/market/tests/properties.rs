//! Property tests for epoch clearing: over random offer books (with random
//! cancellations), cleared cycles are pairwise vertex-disjoint, every
//! matched offer is consumed exactly once, arc kinds follow the givers, and
//! matched offers never leak into later epochs.

use std::collections::BTreeSet;

use proptest::prelude::*;
use swap_crypto::{MssKeypair, Secret};
use swap_market::{AssetKind, ClearedSwap, ClearingService, Offer, OfferId, OfferStatus};
use swap_sim::{Delta, SimTime};

/// A random offer book: each entry is `(gives, wants)` drawn from a small
/// kind alphabet (dense books with many cycles), plus a bitmask of offers
/// to cancel before clearing.
fn arb_book() -> impl Strategy<Value = (Vec<(u8, u8)>, u32)> {
    (proptest::collection::vec((0u8..5, 0u8..5), 0..24), any::<u32>())
}

fn offer(index: usize, gives: u8, wants: u8) -> Offer {
    // Distinct per-index seeds keep every key unique, which spec assembly
    // requires.
    let kp = MssKeypair::from_seed_with_height([index as u8 + 1; 32], 2);
    Offer {
        key: kp.public_key(),
        hashlock: Secret::from_bytes([index as u8 + 100; 32]).hashlock(),
        gives: AssetKind::new(format!("k{gives}")),
        wants: AssetKind::new(format!("k{wants}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One epoch over a random book upholds every structural invariant.
    #[test]
    fn epoch_clearing_invariants((book, cancel_mask) in arb_book()) {
        let mut svc = ClearingService::new();
        let ids: Vec<OfferId> =
            book.iter().enumerate().map(|(i, &(g, w))| svc.submit(offer(i, g, w))).collect();
        let mut cancelled = BTreeSet::new();
        for (i, &id) in ids.iter().enumerate() {
            if cancel_mask & (1 << (i % 32)) != 0 {
                svc.cancel(id).unwrap();
                cancelled.insert(id);
            }
        }
        let swaps = svc.clear(Delta::from_ticks(10), SimTime::ZERO).unwrap();

        // Pairwise vertex-disjoint: no offer appears in two cleared swaps,
        // and no offer appears twice within one swap.
        let mut matched = BTreeSet::new();
        for swap in &swaps {
            for oid in &swap.offer_of_vertex {
                prop_assert!(matched.insert(*oid), "{} matched twice", oid);
            }
        }

        for swap in &swaps {
            let d = &swap.spec.digraph;
            // Cleared instances are simple trade cycles.
            prop_assert_eq!(d.vertex_count(), swap.offer_of_vertex.len());
            prop_assert_eq!(d.arc_count(), d.vertex_count());
            prop_assert!(d.is_strongly_connected());
            prop_assert_eq!(swap.arc_kinds.len(), d.arc_count());
            for arc in d.arcs() {
                let giver = svc.offer(swap.offer_of_vertex[arc.head.index()]).unwrap();
                let taker = svc.offer(swap.offer_of_vertex[arc.tail.index()]).unwrap();
                // Each arc carries exactly what its giver relinquishes,
                // which is exactly what its taker demanded.
                prop_assert_eq!(&swap.arc_kinds[arc.id.index()], &giver.gives);
                prop_assert_eq!(&swap.arc_kinds[arc.id.index()], &taker.wants);
            }
            // The published spec is valid and keyed by the matched offers.
            swap.spec.validate().unwrap();
            for (pos, oid) in swap.offer_of_vertex.iter().enumerate() {
                prop_assert_eq!(&swap.spec.keys[pos], &svc.offer(*oid).unwrap().key);
            }
        }

        // Lifecycle consistency: matched offers are Matched with this
        // epoch's swap id; cancelled ones stayed cancelled; the rest are
        // still open.
        for &id in &ids {
            let status = svc.status(id).unwrap();
            if cancelled.contains(&id) {
                prop_assert_eq!(status, OfferStatus::Cancelled);
                prop_assert!(!matched.contains(&id), "cancelled {} was matched", id);
            } else if matched.contains(&id) {
                prop_assert!(matches!(status, OfferStatus::Matched { epoch: 0, .. }));
            } else {
                prop_assert_eq!(status, OfferStatus::Open);
            }
        }
    }

    /// Matched offers are consumed exactly once, and clearing is
    /// *quiescent*: FIFO pairing restricted to the leftovers is unchanged,
    /// so a second epoch with no new offers can never find a new cycle.
    #[test]
    fn epochs_consume_matches_exactly_once((book, _) in arb_book()) {
        let mut svc = ClearingService::new();
        let ids: Vec<OfferId> =
            book.iter().enumerate().map(|(i, &(g, w))| svc.submit(offer(i, g, w))).collect();
        let first = svc.clear(Delta::from_ticks(10), SimTime::ZERO).unwrap();
        let first_matched: BTreeSet<OfferId> =
            first.iter().flat_map(|s| s.offer_of_vertex.iter().copied()).collect();
        let second = svc.clear(Delta::from_ticks(10), SimTime::from_ticks(100)).unwrap();
        prop_assert!(second.is_empty(), "re-clearing without new offers matched something");
        // Every matched offer is consumed; every other offer is still open.
        for &id in &ids {
            if first_matched.contains(&id) {
                prop_assert!(matches!(svc.status(id), Some(OfferStatus::Matched { epoch: 0, .. })));
            } else {
                prop_assert_eq!(svc.status(id), Some(OfferStatus::Open));
            }
        }
        prop_assert_eq!(svc.epoch(), 2);
    }
}

/// One clearing epoch, checked against the specification first: the indexed
/// plan and the full-rescan plan are each committed on a copy of the book
/// and must publish the same swaps (specs, ids, vertex maps — compared via
/// `Debug`) and leave the same book (statuses, deferred set, in-flight
/// membership). Only then does the real book commit the indexed plan.
fn checked_clear(svc: &mut ClearingService, now: SimTime) -> Vec<ClearedSwap> {
    let delta = Delta::from_ticks(10);
    let (mut indexed, mut rescan) = (svc.clone(), svc.clone());
    let published = indexed.commit(svc.plan(), delta, now).unwrap();
    let specified = rescan.commit(svc.plan_full_rescan(), delta, now).unwrap();
    assert_eq!(format!("{published:?}"), format!("{specified:?}"), "planners publish differently");
    assert_eq!(indexed.snapshot(), rescan.snapshot(), "planners leave different books");
    svc.clear(delta, now).unwrap()
}

proptest! {
    // Each case drives a service (plus two copies per clear) through four
    // epochs of real keygen-backed offers; fewer cases keep the suite's
    // wall time in budget.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `ClearingService::plan` agrees with the `plan_full_rescan`
    /// specification at every clear of an offer/cancel/clear/resolve
    /// stream, across epochs with same-party re-entry, live reservations, parked offers and their wake
    /// after settlement.
    #[test]
    fn indexed_plan_equals_full_rescan_at_every_clear(
        (book, cancel_mask) in arb_book(),
        resolve_mask in any::<u32>(),
    ) {
        let mut svc = ClearingService::new();
        let ids: Vec<OfferId> =
            book.iter().enumerate().map(|(i, &(g, w))| svc.submit(offer(i, g, w))).collect();
        for (i, &id) in ids.iter().enumerate() {
            if cancel_mask & (1 << (i % 32)) != 0 {
                svc.cancel(id).unwrap();
            }
        }
        let first = checked_clear(&mut svc, SimTime::ZERO);
        // Resolve only some swaps: the rest stay in flight, so the second
        // epoch clears under live reservations.
        for (k, swap) in first.iter().enumerate() {
            if resolve_mask & (1 << (k % 32)) != 0 {
                if k % 2 == 0 {
                    svc.settle_swap(swap.id).unwrap();
                } else {
                    svc.refund_swap(swap.id).unwrap();
                }
            }
        }
        // Second wave: every party returns with the mirrored trade —
        // reserved parties' offers must park and defer as the rescan says.
        for (i, &(g, w)) in book.iter().enumerate() {
            svc.submit(offer(i, w, g));
        }
        let second = checked_clear(&mut svc, SimTime::from_ticks(50));
        // Third wave, with the second epoch's swaps still in flight: a
        // party unmatched so far held two open offers, and if the second
        // epoch took one, its *commit* had to park the other — which fresh
        // counterparties now make worth matching, were it still indexed.
        for (i, &(g, w)) in book.iter().enumerate() {
            svc.submit(offer(100 + i, g, w));
        }
        let third = checked_clear(&mut svc, SimTime::from_ticks(70));
        // Release everything and clear once more: the deferred offers wake.
        for swap in first.iter().chain(&second).chain(&third) {
            let _ = svc.settle_swap(swap.id);
        }
        checked_clear(&mut svc, SimTime::from_ticks(90));
        prop_assert_eq!(svc.epoch(), 4);
    }
}
