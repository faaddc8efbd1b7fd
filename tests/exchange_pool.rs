//! The worker-pool execution tier's pinned guarantees:
//!
//! 1. **Determinism** — `ExchangeReport` is byte-invariant (via `Debug`)
//!    across 1/2/8/16 pool workers, on a skewed multi-wave book whose
//!    mixed cycle lengths force uneven per-swap costs (and therefore work
//!    stealing), under both protocol policies. Host workers change
//!    wall-clock only; the simulated trace — wall ticks, stage
//!    attribution, occupancy, per-swap reports — is identical. The bytes
//!    are also held to a fingerprint recorded before admission and
//!    tear-down moved into the pool jobs: where a swap's chains are
//!    created and its summary folded is invisible in the report.
//! 2. **Multi-slot execution** — with `executing_slots` of 2, 8 or 16, two
//!    epochs are observably resident in `Executing` at once,
//!    `executing_peak` records it, stage ticks still sum exactly to
//!    `wall_ticks`, a wider budget never lengthens the simulated wall, and
//!    the overlap strictly shortens it against a single-slot run of the
//!    same book.
//! 3. **Panic isolation** — a swap whose engine panics on its worker fails
//!    alone (`ExchangeError::WorkerPanicked`, offers refunded); sibling
//!    swaps of the same epoch settle normally and the pipeline keeps
//!    driving. The panicked swap reaches neither the ledger nor the
//!    report's running totals. (A panic inside *admission*, which no public
//!    knob can provoke, is covered by a unit test next to the job closure
//!    in `swap-core`'s `exchange.rs`.)

use std::collections::BTreeMap;

use atomic_swaps::core::exchange::{
    EpochStage, Exchange, ExchangeConfig, ExchangeError, ExchangeParty, ExchangeReport,
    ProtocolPolicy, StageCosts, StepEvent,
};
use atomic_swaps::core::runner::RunConfig;
use atomic_swaps::core::{Action, Behavior};
use atomic_swaps::crypto::sha256;
use atomic_swaps::digraph::{ArcId, VertexId};
use atomic_swaps::market::{AssetKind, OfferStatus};
use atomic_swaps::sim::SimRng;

/// A deterministic book of disjoint rings of the given sizes, drawn from
/// `rng`. Ring `c`'s kinds are namespaced by `tag` so successive waves
/// never trade with each other.
fn ring_book(sizes: &[usize], tag: &str, rng: &mut SimRng) -> Vec<ExchangeParty> {
    let mut parties = Vec::new();
    for (c, &len) in sizes.iter().enumerate() {
        for p in 0..len {
            parties.push(ExchangeParty::generate(
                rng,
                4,
                AssetKind::new(format!("{tag}r{c}k{p}")),
                AssetKind::new(format!("{tag}r{c}k{}", (p + 1) % len)),
            ));
        }
    }
    parties
}

/// Stage costs cheap enough that execution dominates, nonzero
/// so clearing/provisioning/settling are visible in the attribution.
fn costs() -> StageCosts {
    StageCosts {
        clearing_base: 10,
        clearing_per_examined: 1,
        clearing_per_cycle: 1,
        provisioning_base: 5,
        provisioning_per_party: 1,
        settling_base: 5,
        settling_per_swap: 1,
    }
}

/// Feeds `waves` of offers into a fresh exchange, stepping a few times
/// between waves so each wave clears as its own epoch (the book must be
/// consumed by clearing `k` before wave `k+1` lands in it), then drives to
/// quiescence. Every step decision is simulated-time-based, so the drive
/// is deterministic whatever the host pool does.
fn drive_waves(config: ExchangeConfig, waves: &[Vec<ExchangeParty>]) -> (ExchangeReport, usize) {
    let mut exchange = Exchange::new(config);
    let mut peak_observed = 0usize;
    for wave in waves {
        for p in wave {
            exchange.submit(p.clone());
        }
        // Admission + clearing completion: after these the book is
        // consumed and the clearing slot is free for the next wave.
        for _ in 0..2 {
            exchange.step().expect("pipeline steps");
            let executing =
                exchange.stages().iter().filter(|(_, s)| *s == EpochStage::Executing).count();
            peak_observed = peak_observed.max(executing);
        }
    }
    loop {
        match exchange.step().expect("pipeline steps") {
            StepEvent::Quiescent => break,
            _ => {
                let executing =
                    exchange.stages().iter().filter(|(_, s)| *s == EpochStage::Executing).count();
                peak_observed = peak_observed.max(executing);
            }
        }
    }
    (exchange.into_report(), peak_observed)
}

/// Three waves of mixed cycle lengths: per-swap runs differ by several Δ
/// rounds, so worker queues are skewed and idle workers must steal.
fn skewed_waves(seed: u64) -> Vec<Vec<ExchangeParty>> {
    let mut rng = SimRng::from_seed(seed);
    vec![
        ring_book(&[2, 5, 3], "a", &mut rng),
        ring_book(&[7, 2], "b", &mut rng),
        ring_book(&[4, 2, 3], "c", &mut rng),
    ]
}

/// SHA-256 of the skewed book's `ExchangeReport` (`Debug` bytes) under each
/// policy. `Auto` (every ring here settles on HTLCs) was recorded at the
/// commit before chain creation and tear-down moved onto the pool workers;
/// `ForceHashkey` again when the one-time keys became Winternitz chains and
/// its `contract_bytes`, `tx_bytes` and per-swap `unlock_bytes` shrank
/// (nothing else in the report moved).
const RECORDED_FINGERPRINTS: [(ProtocolPolicy, &str); 2] = [
    (ProtocolPolicy::Auto, "7e480ffbfe976dd1176c62dc9272dbb13a6107279c5f6ae37d678ca145cbf564"),
    (
        ProtocolPolicy::ForceHashkey,
        "05efd1d49ec3a216f733b4087ee8e2c93a8cf68223fe5c1e76ffebac212e83d1",
    ),
];

#[test]
fn report_byte_invariant_across_pool_workers() {
    for (policy, recorded) in RECORDED_FINGERPRINTS {
        let run = |threads: usize| {
            let config = ExchangeConfig {
                threads,
                executing_slots: 3,
                stage_costs: costs(),
                protocol: policy,
                ..Default::default()
            };
            let (report, _) = drive_waves(config, &skewed_waves(0x9E));
            assert_eq!(report.swaps_settled, 8, "threads={threads} policy={policy:?}");
            assert_eq!(report.stage_ticks.total(), report.wall_ticks);
            format!("{report:?}")
        };
        let baseline = run(1);
        assert_eq!(sha256(baseline.as_bytes()).to_hex(), recorded, "policy={policy:?}");
        for threads in [2, 8, 16] {
            assert_eq!(baseline, run(threads), "threads={threads} policy={policy:?}");
        }
    }
}

#[test]
fn multi_slot_executing_overlaps_epochs_and_attribution_still_sums() {
    let run = |slots: usize| {
        let config = ExchangeConfig {
            threads: 2,
            executing_slots: slots,
            stage_costs: costs(),
            ..Default::default()
        };
        drive_waves(config, &skewed_waves(0x5107))
    };
    // The book through a single execution slot: executions serialize.
    let (narrow, _) = run(1);
    assert_eq!(narrow.executing_peak, 1);
    assert_eq!(narrow.stage_ticks.total(), narrow.wall_ticks);

    let mut previous_wall = narrow.wall_ticks;
    for slots in [2, 8, 16] {
        let (wide, peak_observed) = run(slots);
        // Two epochs were *observably* resident in Executing at once — both
        // through the public stage view and through the report's peak.
        assert!(peak_observed >= 2, "slots={slots}: observed occupancy {peak_observed}");
        assert!(wide.executing_peak >= 2, "slots={slots}: report peak {}", wide.executing_peak);
        // Attribution stays exact while epochs overlap.
        assert_eq!(wide.stage_ticks.total(), wide.wall_ticks, "slots={slots}");
        // Residency integral: with overlap, epoch-ticks spent in Executing
        // exceed the frontier ticks attributed to it.
        assert!(wide.executing_resident_ticks > wide.stage_ticks.executing, "slots={slots}");
        // The same swaps settle, and a wider budget never lengthens the
        // simulated wall; the first extra slot strictly shortens it.
        assert_eq!(wide.swaps_settled, narrow.swaps_settled, "slots={slots}");
        assert_eq!(wide.swaps.len(), narrow.swaps.len(), "slots={slots}");
        assert!(
            wide.wall_ticks <= previous_wall && wide.wall_ticks < narrow.wall_ticks,
            "{slots} slots {} vs narrower {previous_wall} vs 1 slot {}",
            wide.wall_ticks,
            narrow.wall_ticks
        );
        previous_wall = wide.wall_ticks;
    }
}

#[test]
fn panicked_swap_fails_alone_and_siblings_settle() {
    // Vertex 3 exists only in the 4-cycle, and its script claims an arc
    // far out of the swap's range — the engine panics on the worker
    // mid-run. The 3-cycle shares the epoch and must be unharmed.
    let poison = Behavior::Scripted { actions: vec![(0, Action::Claim { arc: ArcId::new(77) })] };
    let mut behaviors = BTreeMap::new();
    behaviors.insert(VertexId::new(3), poison);
    let mut rng = SimRng::from_seed(0xBAD);
    let mut exchange = Exchange::new(ExchangeConfig {
        threads: 2,
        run: RunConfig { behaviors, ..Default::default() },
        ..Default::default()
    });
    let parties = ring_book(&[4, 3], "p", &mut rng);
    let ids: Vec<_> = parties.into_iter().map(|p| exchange.submit(p)).collect();

    let err = exchange.drive_until_quiescent().expect_err("the 4-cycle's engine panics");
    assert!(err.executed.is_empty(), "the panic resolves before anything settles");
    let ExchangeError::WorkerPanicked(swap) = err.error else {
        panic!("expected WorkerPanicked, got {:?}", err.error)
    };

    // The drive resumes: the surviving 3-cycle settles normally.
    let executed = exchange.drive_until_quiescent().expect("the survivor settles");
    assert_eq!(executed.len(), 1);
    assert!(executed[0].report.all_deal());

    let report = exchange.report();
    assert_eq!(report.swaps_cleared, 2);
    assert_eq!(report.swaps_settled, 1);
    assert_eq!(report.swaps_refunded, 1, "only the panicked swap refunds");
    assert_eq!(report.swaps.len(), 1, "the panicked swap has no run to summarize");
    assert_ne!(report.swaps[0].swap, swap, "the settled summary is the survivor's");
    assert_eq!(report.stage_ticks.total(), report.wall_ticks);

    // The 4-cycle's offers refunded; the 3-cycle's settled. Only the
    // 3-cycle's chains reached the ledger.
    for (i, id) in ids.iter().enumerate() {
        let expected = if i < 4 { OfferStatus::Refunded } else { OfferStatus::Settled };
        assert_eq!(exchange.service().status(*id), Some(expected), "offer {i}");
    }
    assert_eq!(exchange.ledger().len(), 3);
    assert!(exchange.ledger().verify_integrity());
    // Nor did the panicked swap touch the running totals: they are the
    // survivor's alone, and a scan of the ledger agrees.
    assert_eq!(report.storage, executed[0].report.storage);
    assert_eq!(report.storage, exchange.ledger().storage_report());
}
