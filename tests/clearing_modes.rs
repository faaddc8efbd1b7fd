//! Planner agreement at the exchange tier.
//!
//! Before every pipeline step — so before every clearing the exchange
//! admits — the book's production planner (`ClearingService::plan`, the
//! incremental index) is held to its specification
//! (`ClearingService::plan_full_rescan`): committed on copies of the live
//! book, the two plans must publish the same swaps and leave the same
//! book. The book rolls: a second wave re-enters the *same parties* with
//! mirrored trades while their first swaps are still executing, so every
//! wave-two offer parks under a live reservation and must wake after
//! settlement. That exercises the index's parked set, deferral
//! bookkeeping, and settlement-triggered re-admission end to end —
//! exactly the paths where an incremental matcher could drift from the
//! full rescan. The resulting `ExchangeReport` must also be byte-identical
//! — pinned via `Debug` — across 1/2/8 pool workers.

use atomic_swaps::core::exchange::{
    EpochStage, Exchange, ExchangeConfig, ExchangeParty, StepEvent,
};
use atomic_swaps::market::{AssetKind, ClearingService, OfferStatus};
use atomic_swaps::sim::{Delta, SimRng, SimTime};

/// Disjoint rings of the given sizes: party `p` of ring `c` gives
/// `r{c}k{p}` and wants `r{c}k{p+1}`.
fn ring_book(sizes: &[usize], rng: &mut SimRng) -> Vec<ExchangeParty> {
    let mut parties = Vec::new();
    for (c, &len) in sizes.iter().enumerate() {
        for p in 0..len {
            parties.push(ExchangeParty::generate(
                rng,
                4,
                AssetKind::new(format!("r{c}k{p}")),
                AssetKind::new(format!("r{c}k{}", (p + 1) % len)),
            ));
        }
    }
    parties
}

/// The same parties trading back: each keeps its identity and hashlock
/// but gives what it wanted and wants what it gave, so wave two forms
/// the reverse rings — matchable only once the parties' first swaps
/// resolve and release their reservations.
fn mirrored(parties: &[ExchangeParty]) -> Vec<ExchangeParty> {
    parties
        .iter()
        .map(|p| {
            let mut back = p.clone();
            std::mem::swap(&mut back.gives, &mut back.wants);
            back
        })
        .collect()
}

/// Holds the indexed planner to the full-rescan specification on the live
/// book: each plan is committed on its own copy, and the copies must
/// publish the same swaps (pinned via `Debug`) and end as the same book.
/// Returns how many swaps a clearing right now would publish.
fn assert_planners_agree(book: &ClearingService) -> usize {
    let (delta, now) = (Delta::from_ticks(10), SimTime::ZERO);
    let (mut indexed, mut rescan) = (book.clone(), book.clone());
    let published = indexed.commit(book.plan(), delta, now).expect("indexed plan commits");
    let specified = rescan.commit(book.plan_full_rescan(), delta, now).expect("rescan commits");
    assert_eq!(format!("{published:?}"), format!("{specified:?}"), "planners publish differently");
    assert_eq!(indexed.snapshot(), rescan.snapshot(), "planners leave different books");
    published.len()
}

/// One pipeline step, with the planners compared on the book it sees.
fn checked_step(exchange: &mut Exchange, agreed_swaps: &mut usize) -> StepEvent {
    let would_publish = assert_planners_agree(exchange.service());
    let event = exchange.step().expect("pipeline steps");
    if let StepEvent::StageEntered { stage: EpochStage::Clearing, .. } = event {
        *agreed_swaps += would_publish;
    }
    event
}

/// Drives the rolling book to quiescence and returns the full report
/// plus every offer's terminal status, both pinned via `Debug`.
fn drive(threads: usize) -> String {
    let mut exchange =
        Exchange::new(ExchangeConfig { threads, executing_slots: 2, ..Default::default() });
    let mut agreed_swaps = 0;
    let mut rng = SimRng::from_seed(0xC1EA);
    let wave_one = ring_book(&[2, 3, 4], &mut rng);
    let wave_two = mirrored(&wave_one);

    let mut ids = Vec::new();
    for p in wave_one {
        ids.push(exchange.submit(p));
    }
    // Admission + clearing completion: wave one moves into execution.
    for _ in 0..2 {
        checked_step(&mut exchange, &mut agreed_swaps);
    }
    assert!(
        exchange.stages().iter().any(|(_, s)| *s != EpochStage::Settling),
        "wave one is still in flight when wave two lands"
    );
    // Every wave-two party is reserved by its in-flight swap, so these
    // offers park; the epoch that admits them clears nothing.
    for p in wave_two {
        ids.push(exchange.submit(p));
    }
    assert!(
        !exchange.service().reserved_addresses().is_empty(),
        "wave two submits under live reservations"
    );
    while !matches!(checked_step(&mut exchange, &mut agreed_swaps), StepEvent::Quiescent) {}

    // The parked wave woke after settlement and cleared: every offer of
    // both waves settles, or the deferral path is broken.
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(
            exchange.service().status(*id),
            Some(OfferStatus::Settled),
            "offer {i} under {threads} workers"
        );
    }
    let statuses: Vec<_> = ids.iter().map(|id| exchange.service().status(*id)).collect();
    let report = exchange.into_report();
    assert_eq!(report.swaps_settled, 6, "both waves' rings settle");
    assert_eq!(agreed_swaps, 6, "every published swap was agreed on by both planners first");
    assert_eq!(report.stage_ticks.total(), report.wall_ticks);
    format!("{report:?}\n{statuses:?}")
}

/// The acceptance pin: the planners agree before every clear (inside
/// `drive`), and reports are byte-invariant across 1/2/8 pool workers.
#[test]
fn planners_agree_at_every_clear_and_reports_are_worker_invariant() {
    let baseline = drive(1);
    for threads in [2, 8] {
        assert_eq!(baseline, drive(threads), "{threads} workers");
    }
}
