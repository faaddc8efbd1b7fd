//! The exchange pipeline's three pinned guarantees:
//!
//! 1. **Equivalence** — a single cleared swap executed through the
//!    [`Exchange`] orchestrator produces a [`RunReport`] byte-identical
//!    (via `Debug`) to driving the [`Engine`] directly on the same
//!    provisioned setup. The pipeline adds orchestration, never semantics.
//! 2. **Determinism** — the same seed and the same offer book yield an
//!    identical [`ExchangeReport`] for 1, 2, and 8 worker threads. Sharding
//!    changes wall-clock only.
//! 3. **Running totals** — the report's storage and transaction counters,
//!    accumulated per retiring swap from what its worker computed, equal a
//!    full scan of the merged ledger after *every* settled epoch, under
//!    both protocols.
//!
//! These goldens drive the staged pipeline to quiescence
//! ([`Exchange::drive_until_quiescent`]): with the default zero stage
//! costs a single-epoch workload through the staged driver is
//! byte-identical to the historical blocking batch path, so the goldens
//! pin the same bytes the retired `run_epoch` shim once did. Stage-level
//! and multi-epoch coverage lives in `tests/pipeline_stages.rs`; worker
//! pool and multi-slot execution coverage in `tests/exchange_pool.rs`.

use atomic_swaps::core::exchange::{
    Exchange, ExchangeConfig, ExchangeParty, ProtocolPolicy, StepEvent,
};
use atomic_swaps::core::instance::SwapInstance;
use atomic_swaps::core::runner::RunConfig;
use atomic_swaps::core::{Engine, Lockstep, ProtocolKind};
use atomic_swaps::market::{AssetKind, ClearingService, OfferStatus};
use atomic_swaps::sim::{Delta, SimRng, SimTime};

/// A deterministic book of `cycles` disjoint rings of the given sizes.
fn ring_book(sizes: &[usize], seed: u64) -> Vec<ExchangeParty> {
    let mut rng = SimRng::from_seed(seed);
    let mut parties = Vec::new();
    for (c, &len) in sizes.iter().enumerate() {
        for p in 0..len {
            parties.push(ExchangeParty::generate(
                &mut rng,
                4,
                AssetKind::new(format!("r{c}k{p}")),
                AssetKind::new(format!("r{c}k{}", (p + 1) % len)),
            ));
        }
    }
    parties
}

#[test]
fn single_cleared_swap_via_exchange_equals_engine_direct() {
    let parties = ring_book(&[3], 0xE9);
    let delta = Delta::from_ticks(10);

    // Path A: the exchange pipeline.
    let mut exchange = Exchange::new(ExchangeConfig { delta, ..Default::default() });
    for p in &parties {
        exchange.submit(p.clone());
    }
    let mut executed = exchange.drive_until_quiescent().expect("epoch clears");
    assert_eq!(executed.len(), 1);
    let via_exchange = executed.remove(0);

    // Path B: the same clearing, provisioned by hand and driven through
    // the engine directly. The clearing service is deterministic, so both
    // paths see the same ClearedSwap.
    let mut service = ClearingService::new();
    for p in &parties {
        service.submit(p.offer());
    }
    let cleared = service.clear(delta, SimTime::ZERO).expect("clears").remove(0);
    assert_eq!(cleared.id, via_exchange.id);
    let keypairs =
        cleared.offer_of_vertex.iter().map(|o| parties[o.raw() as usize].keypair.clone()).collect();
    let secrets =
        cleared.offer_of_vertex.iter().map(|o| parties[o.raw() as usize].secret).collect();
    let instance = SwapInstance::from_cleared(
        &cleared,
        keypairs,
        secrets,
        SimTime::ZERO,
        RunConfig::default(),
    );
    let direct = Engine::from_instance(instance, Lockstep::new(delta)).run();

    // Byte-identical reports: outcomes, trigger times, traces, metrics,
    // storage — everything.
    assert_eq!(format!("{direct:?}"), format!("{:?}", via_exchange.report));
    assert!(direct.all_deal());
}

#[test]
fn exchange_report_invariant_under_worker_threads() {
    let run = |threads: usize| {
        let mut exchange = Exchange::new(ExchangeConfig { threads, ..Default::default() });
        for p in ring_book(&[2, 3, 2, 4, 3, 2, 5, 2], 0xD1) {
            exchange.submit(p);
        }
        let executed = exchange.drive_until_quiescent().expect("epoch clears");
        assert_eq!(executed.len(), 8, "threads={threads}");
        // Per-swap reports are also identical, not just the aggregate.
        let per_swap: Vec<String> =
            executed.iter().map(|s| format!("{}:{:?}", s.id, s.report)).collect();
        (format!("{:?}", exchange.report()), per_swap)
    };
    let (baseline_report, baseline_swaps) = run(1);
    for threads in [2, 8] {
        let (report, swaps) = run(threads);
        assert_eq!(baseline_report, report, "aggregate report differs at {threads} threads");
        assert_eq!(baseline_swaps, swaps, "per-swap reports differ at {threads} threads");
    }
}

#[test]
fn pipeline_resolves_offer_lifecycle_end_to_end() {
    let mut exchange = Exchange::new(ExchangeConfig { threads: 4, ..Default::default() });
    let ids: Vec<_> = ring_book(&[3, 2], 0xF2).into_iter().map(|p| exchange.submit(p)).collect();
    // A straggler with no counterparty, and a cancelled offer.
    let mut rng = SimRng::from_seed(0xF3);
    let straggler = exchange.submit(ExchangeParty::generate(
        &mut rng,
        4,
        AssetKind::new("straggler"),
        AssetKind::new("r0k0"),
    ));
    let cancelled = exchange.submit(ExchangeParty::generate(
        &mut rng,
        4,
        AssetKind::new("x"),
        AssetKind::new("y"),
    ));
    exchange.cancel(cancelled).expect("open offer cancels");

    let executed = exchange.drive_until_quiescent().expect("epoch clears");
    assert_eq!(executed.len(), 2);
    assert!(executed.iter().all(|s| s.report.all_deal() && s.report.settled));

    for id in ids {
        assert_eq!(exchange.service().status(id), Some(OfferStatus::Settled));
    }
    assert_eq!(exchange.service().status(straggler), Some(OfferStatus::Open));
    assert_eq!(exchange.service().status(cancelled), Some(OfferStatus::Cancelled));

    let report = exchange.report();
    assert_eq!(report.epochs, 1);
    assert_eq!(report.swaps_cleared, 2);
    assert_eq!(report.swaps_settled, 2);
    assert_eq!(report.swaps_refunded, 0);
    assert_eq!(report.offers_cancelled, 1);
    // 3 + 2 arcs, one chain each, merged into the global ledger.
    assert_eq!(exchange.ledger().len(), 5);
    assert!(exchange.ledger().verify_integrity());
}

/// The protocol-selection acceptance pin: a single-leader-feasible cleared
/// cycle executed via the `Exchange` provably runs on `AnyContract::Htlc`
/// contracts (per-swap protocol tag plus the ledger's actual contract
/// flavors), with strictly lower storage than the same cycle forced
/// through the general hashkey protocol.
#[test]
fn auto_selection_runs_cleared_cycles_on_htlcs_and_saves_storage() {
    let parties = ring_book(&[4], 0xAB);
    let run = |policy: ProtocolPolicy| {
        let mut exchange = Exchange::new(ExchangeConfig { protocol: policy, ..Default::default() });
        for p in &parties {
            exchange.submit(p.clone());
        }
        let executed = exchange.drive_until_quiescent().expect("epoch clears");
        assert_eq!(executed.len(), 1);
        assert!(executed[0].report.all_deal() && executed[0].report.settled);
        let mut htlc_contracts = 0usize;
        let mut swap_contracts = 0usize;
        for (_, chain) in exchange.ledger().iter() {
            for (_, contract) in chain.contracts() {
                if contract.as_htlc().is_some() {
                    htlc_contracts += 1;
                } else {
                    swap_contracts += 1;
                }
            }
        }
        (exchange.into_report(), htlc_contracts, swap_contracts)
    };

    let (auto_report, auto_htlc, auto_swap) = run(ProtocolPolicy::Auto);
    assert_eq!(auto_report.swaps.len(), 1);
    assert_eq!(auto_report.swaps[0].protocol, ProtocolKind::Htlc, "cycles auto-select HTLCs");
    assert_eq!((auto_htlc, auto_swap), (4, 0), "every arc's contract is an HTLC");

    let (forced_report, forced_htlc, forced_swap) = run(ProtocolPolicy::ForceHashkey);
    assert_eq!(forced_report.swaps[0].protocol, ProtocolKind::Hashkey);
    assert_eq!((forced_htlc, forced_swap), (0, 4), "forcing keeps the general contract");

    // §4.6's storage and message-size claims, measured at exchange scale.
    assert!(
        auto_report.storage.total_bytes() < forced_report.storage.total_bytes(),
        "htlc {} vs hashkey {}",
        auto_report.storage.total_bytes(),
        forced_report.storage.total_bytes()
    );
    assert!(
        auto_report.swaps[0].metrics.unlock_bytes < forced_report.swaps[0].metrics.unlock_bytes
    );
}

/// Mixed books: the exchange applies the per-cycle choice independently —
/// every simple cycle is single-leader feasible, so an auto epoch tags all
/// of them `htlc` while a forced epoch tags all `hashkey`, and both settle.
#[test]
fn protocol_choice_is_recorded_per_swap() {
    for (policy, expected) in [
        (ProtocolPolicy::Auto, ProtocolKind::Htlc),
        (ProtocolPolicy::ForceHashkey, ProtocolKind::Hashkey),
    ] {
        let mut exchange =
            Exchange::new(ExchangeConfig { protocol: policy, threads: 2, ..Default::default() });
        for p in ring_book(&[3, 5, 2], 0xCC) {
            exchange.submit(p);
        }
        let executed = exchange.drive_until_quiescent().expect("epoch clears");
        assert_eq!(executed.len(), 3);
        let report = exchange.report();
        assert_eq!(report.swaps_settled, 3);
        assert!(report.swaps.iter().all(|s| s.protocol == expected), "policy {policy:?}");
    }
}

/// `retire` keeps the report's storage and transaction counters as running
/// totals (each swap's worker-computed figures added on) instead of
/// re-scanning the ledger; the scan must agree after every settled epoch,
/// however the epochs overlapped.
#[test]
fn running_totals_equal_the_ledger_scan_after_every_epoch() {
    for policy in [ProtocolPolicy::Auto, ProtocolPolicy::ForceHashkey] {
        let mut exchange = Exchange::new(ExchangeConfig {
            protocol: policy,
            threads: 2,
            executing_slots: 2,
            ..Default::default()
        });
        let mut settled_epochs = 0;
        let mut check = |exchange: &Exchange, event: StepEvent| {
            if let StepEvent::EpochSettled { epoch, .. } = event {
                settled_epochs += 1;
                let (ledger, report) = (exchange.ledger(), exchange.report());
                assert_eq!(report.storage, ledger.storage_report(), "{policy:?} epoch {epoch}");
                let scan = |f: fn(&_) -> u64| ledger.iter().map(|(_, chain)| f(chain)).sum::<u64>();
                assert_eq!(report.tx_executed, scan(|c| c.txs_executed()), "{policy:?} {epoch}");
                assert_eq!(report.tx_rolled_back, scan(|c| c.txs_rolled_back()));
            }
        };
        // Three waves, each landing while the one before is still in the
        // pipeline, so retirements interleave with later epochs' stages.
        for (wave, sizes) in [&[3, 2, 4][..], &[5, 2], &[2, 3, 3]].into_iter().enumerate() {
            for p in ring_book(sizes, 0x570 + wave as u64) {
                exchange.submit(p);
            }
            for _ in 0..2 {
                let event = exchange.step().expect("pipeline steps");
                check(&exchange, event);
            }
        }
        loop {
            match exchange.step().expect("pipeline steps") {
                StepEvent::Quiescent => break,
                event => check(&exchange, event),
            }
        }
        assert_eq!(settled_epochs, 3, "{policy:?}");
        assert_eq!(exchange.report().swaps_settled, 8, "{policy:?}");
        assert!(exchange.report().storage.total_bytes() > 0);
    }
}
