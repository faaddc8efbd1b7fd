//! Crash-point sweep over the durable exchange's write-ahead log.
//!
//! An uncrashed, journaled run of a six-wave rolling book is the oracle.
//! Its synced WAL is then truncated at *every* record boundary (plus one
//! torn mid-record tail), each truncation is recovered with
//! [`Exchange::recover`], the driver finishes the remaining waves, and the
//! final [`ExchangeReport`] must be byte-identical to the oracle's — at
//! host worker counts 1, 2, and 8.
//!
//! The driver is deliberately *resumable*: which wave to inject next is
//! recomputed from the recovered report (offer counts and admitted
//! epochs), never carried over host state, so the continuation after a
//! crash issues exactly the commands the uncrashed run would have.
//!
//! A snapshot adds crash points of its own: the driver rotates the log,
//! then a writer thread writes, installs and retires. Each point is rebuilt
//! with the `swap-store` step functions the writer runs, in its order, and
//! recovered at 1 and 2 workers. Two fault cases check that a snapshot
//! that fails in the background reports its error at the next
//! `sync_journal` and leaves a store that still recovers.

use std::path::{Path, PathBuf};

use swap_core::exchange::{
    Exchange, ExchangeConfig, ExchangeReport, JournalConfig, PartySeed, StepEvent,
};
use swap_crypto::Secret;
use swap_market::AssetKind;
use swap_sim::SimRng;
use swap_store::{
    decode_frames, install_snapshot, load_latest_snapshot, read_wal, remove_older_snapshots,
    remove_retired_segment, write_snapshot_temp, Framed, Wal, WalRecord, RETIRED_WAL_FILE,
    WAL_FILE,
};

/// Ring sizes of the six waves — mixed 2/3/4-party cycles.
const WAVE_SIZES: [usize; 6] = [2, 3, 4, 2, 3, 4];

/// Never-matching offers the snapshot test rests under the waves.
const RESTING: usize = 128;

fn config(threads: usize) -> ExchangeConfig {
    ExchangeConfig { threads, executing_slots: 2, ..Default::default() }
}

fn journal(dir: &Path, snapshot_every: u64) -> JournalConfig {
    JournalConfig { snapshot_every, ..JournalConfig::new(dir) }
}

/// A fresh scratch directory under the test-private target tmpdir.
fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("crash-recovery").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale store removable");
    }
    std::fs::create_dir_all(&dir).expect("store dir creatable");
    dir
}

/// Wave `w`'s parties: one trade ring of [`WAVE_SIZES`]`[w]`
/// offers, derived from a per-wave seed so resubmission after recovery
/// rebuilds byte-identical parties.
fn wave_seeds(w: usize) -> Vec<PartySeed> {
    let len = WAVE_SIZES[w];
    let mut rng = SimRng::from_seed(0xC7A5 + w as u64);
    (0..len)
        .map(|p| PartySeed {
            seed: rng.bytes32(),
            key_height: 2,
            secret: Secret::random(&mut rng),
            gives: AssetKind::new(format!("w{w}k{p}")),
            wants: AssetKind::new(format!("w{w}k{}", (p + 1) % len)),
        })
        .collect()
}

/// How many waves the exchange has already been fed, recomputed from the
/// durable offer count (each wave's size is fixed, so the count identifies
/// the prefix).
fn waves_submitted(report: &ExchangeReport) -> usize {
    let mut total = 0u64;
    for (w, &size) in WAVE_SIZES.iter().enumerate() {
        total += size as u64;
        if report.offers_submitted < total {
            return w;
        }
    }
    WAVE_SIZES.len()
}

/// Drives the rolling book to quiescence, injecting wave `w` as soon as
/// epoch `w` has been admitted. Safe to call on a freshly recovered
/// exchange: the next wave is recomputed from the report, and a pending
/// trigger (epoch admitted pre-crash, injection lost with the tail) fires
/// before the first step — the same state point the uncrashed run injected
/// at.
fn drive_to_quiescence(exchange: &mut Exchange) {
    let next = waves_submitted(exchange.report());
    drive_from_wave(exchange, next);
}

/// [`drive_to_quiescence`] for a caller that knows the next wave itself,
/// because offers outside the waves make the offer count say nothing.
fn drive_from_wave(exchange: &mut Exchange, mut next: usize) {
    loop {
        if next < WAVE_SIZES.len() && exchange.report().epochs >= next as u64 {
            exchange.submit_seeded(wave_seeds(next));
            next += 1;
            continue;
        }
        if let StepEvent::Quiescent = exchange.step().expect("pipeline advances") {
            break;
        }
    }
    assert_eq!(next, WAVE_SIZES.len(), "every wave injected");
}

/// Runs the oracle: a journaled, snapshot-free (full-WAL) run to
/// quiescence. Returns the store directory's WAL bytes and the final
/// report.
fn oracle(base: &Path) -> (Vec<u8>, ExchangeReport) {
    let dir = base.join("oracle");
    let mut exchange =
        Exchange::with_journal(config(1), journal(&dir, 0)).expect("oracle store opens");
    drive_to_quiescence(&mut exchange);
    exchange.sync_journal().expect("oracle WAL syncs");
    let report = exchange.into_report();
    let expected: u64 = WAVE_SIZES.iter().map(|&s| s as u64).sum();
    assert_eq!(report.offers_submitted, expected);
    assert_eq!(report.swaps_settled, WAVE_SIZES.len() as u64);
    assert_eq!(report.swaps_refunded, 0);
    let wal = std::fs::read(dir.join(WAL_FILE)).expect("oracle WAL readable");
    (wal, report)
}

/// Truncates a copy of `wal` to `len` bytes in its own store directory,
/// recovers it at `threads` workers, finishes the run, and returns the
/// final report (plus replay stats via the assertion closure).
fn recover_truncated(base: &Path, wal: &[u8], len: usize, threads: usize) -> ExchangeReport {
    let dir = base.join(format!("cut{len}t{threads}"));
    std::fs::create_dir_all(&dir).expect("cut dir creatable");
    std::fs::write(dir.join(WAL_FILE), &wal[..len]).expect("truncated WAL writable");
    let recovered =
        Exchange::recover(config(threads), journal(&dir, 0)).expect("truncated store recovers");
    let mut exchange = recovered.exchange;
    drive_to_quiescence(&mut exchange);
    exchange.into_report()
}

#[test]
fn every_record_boundary_recovers_to_the_oracle_report() {
    let base = store_dir("sweep");
    let (wal, oracle_report) = oracle(&base);
    let scan = decode_frames(&wal).expect("oracle WAL decodes");
    assert!(!scan.torn, "a synced quiescent WAL has no torn tail");
    assert!(scan.frames.len() > 40, "the six-wave run logs a substantial WAL");

    // Every boundary: before the first record (genesis), after each
    // record. Thread counts rotate 1/2/8 across cut points so the sweep
    // also exercises pool-width independence.
    let boundaries: Vec<usize> =
        std::iter::once(0).chain(scan.frames.iter().map(|f| f.end)).collect();
    for (i, &cut) in boundaries.iter().enumerate() {
        let threads = [1, 2, 8][i % 3];
        let report = recover_truncated(&base, &wal, cut, threads);
        assert_eq!(report, oracle_report, "crash at byte {cut} ({threads} workers)");
    }
}

#[test]
fn a_fixed_crash_point_is_worker_count_invariant() {
    let base = store_dir("threads");
    let (wal, oracle_report) = oracle(&base);
    let scan = decode_frames(&wal).expect("oracle WAL decodes");
    let mid = scan.frames[scan.frames.len() / 2].end;
    for threads in [1, 2, 8] {
        let report = recover_truncated(&base, &wal, mid, threads);
        assert_eq!(report, oracle_report, "mid-log crash at {threads} workers");
    }
}

#[test]
fn a_torn_mid_record_tail_is_dropped_and_repaired_by_replay() {
    let base = store_dir("torn");
    let (wal, oracle_report) = oracle(&base);
    let scan = decode_frames(&wal).expect("oracle WAL decodes");
    // Cut *inside* the final frame: the tail is garbage, recovery must
    // drop it, re-run the last command, and re-log what was lost.
    let last_start = scan.frames[scan.frames.len() - 2].end;
    let cut = last_start + (scan.valid_len - last_start) / 2;
    assert!(cut > last_start && cut < scan.valid_len);

    let dir = base.join("cut-torn");
    std::fs::create_dir_all(&dir).expect("cut dir creatable");
    std::fs::write(dir.join(WAL_FILE), &wal[..cut]).expect("torn WAL writable");
    let recovered = Exchange::recover(config(2), journal(&dir, 0)).expect("torn store recovers");
    assert!(recovered.stats.torn_tail, "the mid-record cut is seen as a torn tail");
    let mut exchange = recovered.exchange;
    drive_to_quiescence(&mut exchange);
    assert_eq!(exchange.into_report(), oracle_report);

    // The repair re-appended the lost records: a second recovery of the
    // same store sees a whole log and the same state.
    let again = Exchange::recover(config(2), journal(&dir, 0)).expect("repaired store recovers");
    assert!(!again.stats.torn_tail, "replay re-logged the torn group");
    let mut exchange = again.exchange;
    drive_to_quiescence(&mut exchange);
    assert_eq!(exchange.into_report(), oracle_report);
}

#[test]
fn journaling_leaves_the_simulated_trace_untouched() {
    let base = store_dir("plain-vs-wal");
    let mut plain = Exchange::new(config(2));
    drive_to_quiescence(&mut plain);
    let (_, journaled) = oracle(&base);
    assert_eq!(plain.into_report(), journaled);
}

#[test]
fn snapshot_plus_tail_recovery_matches_the_uncrashed_run() {
    let base = store_dir("snapshot-tail");
    let dir = base.join("store");
    // Snapshot after every settled epoch: by quiescence the WAL has been
    // absorbed into a snapshot and reset.
    let mut exchange =
        Exchange::with_journal(config(1), journal(&dir, 1)).expect("journal store opens");
    // A resting book under the waves: offers for a kind nobody gives never
    // match, so every snapshot image carries them as open offers.
    let mut rng = SimRng::from_seed(0xD057);
    let resting: Vec<PartySeed> = (0..RESTING)
        .map(|i| PartySeed {
            seed: rng.bytes32(),
            key_height: 2,
            secret: Secret::random(&mut rng),
            gives: AssetKind::new(format!("dust{i}")),
            wants: AssetKind::new("void".to_string()),
        })
        .collect();
    exchange.submit_seeded(resting);
    drive_from_wave(&mut exchange, 0);
    assert_eq!(exchange.report().swaps_settled, WAVE_SIZES.len() as u64);
    // Feed one more wave on top of the snapshot, so the store holds
    // snapshot + command tail, and capture the crash point.
    exchange.submit_seeded(wave_seeds(0));
    exchange.sync_journal().expect("journal syncs");
    let crash_dir = base.join("crashed");
    std::fs::create_dir_all(&crash_dir).expect("crash dir creatable");
    for entry in std::fs::read_dir(&dir).expect("store dir listable") {
        let entry = entry.expect("store entry readable");
        std::fs::copy(entry.path(), crash_dir.join(entry.file_name()))
            .expect("store file copyable");
    }
    // The uncrashed run settles the extra wave too.
    while !matches!(exchange.step().expect("pipeline advances"), StepEvent::Quiescent) {}
    let oracle_report = exchange.into_report();

    let recovered =
        Exchange::recover(config(2), journal(&crash_dir, 1)).expect("snapshot store recovers");
    assert!(recovered.stats.snapshot_seq.is_some(), "recovery loaded the snapshot");
    assert!(recovered.stats.commands_replayed >= 1, "the extra wave replays from the tail");
    let mut exchange = recovered.exchange;
    assert_eq!(
        exchange.service().open_count(),
        RESTING + WAVE_SIZES[0],
        "the snapshot's resting offers and the tail's wave are open again"
    );
    while !matches!(exchange.step().expect("pipeline advances"), StepEvent::Quiescent) {}
    assert_eq!(exchange.into_report(), oracle_report);
}

#[test]
fn cancel_and_resubmit_commands_replay_faithfully() {
    let base = store_dir("cancel-resubmit");
    let dir = base.join("store");
    let mut exchange =
        Exchange::with_journal(config(1), journal(&dir, 0)).expect("journal store opens");
    // A 3-ring plus one dust offer; the dust is cancelled and its identity
    // re-enters with new terms that complete a 2-ring against a late offer.
    let submitted = exchange.submit_seeded(wave_seeds(1));
    let mut rng = SimRng::from_seed(0xCA9CE1);
    let dust = exchange.submit_seeded(vec![PartySeed {
        seed: rng.bytes32(),
        key_height: 2,
        secret: Secret::random(&mut rng),
        gives: AssetKind::new("x".to_string()),
        wants: AssetKind::new("y".to_string()),
    }]);
    let (dust_offer, dust_address) = dust[0];
    exchange.cancel(dust_offer).expect("resting dust offer cancels");
    exchange
        .resubmit(
            dust_address,
            Secret::random(&mut rng),
            AssetKind::new("y".to_string()),
            AssetKind::new("x".to_string()),
        )
        .expect("cancelled identity resubmits");
    exchange.submit_seeded(vec![PartySeed {
        seed: rng.bytes32(),
        key_height: 2,
        secret: Secret::random(&mut rng),
        gives: AssetKind::new("x".to_string()),
        wants: AssetKind::new("y".to_string()),
    }]);
    while !matches!(exchange.step().expect("pipeline advances"), StepEvent::Quiescent) {}
    exchange.sync_journal().expect("journal syncs");
    let oracle_report = exchange.into_report();
    assert_eq!(oracle_report.offers_cancelled, 1);
    assert_eq!(oracle_report.swaps_settled, 2, "the 3-ring and the resubmitted 2-ring settle");
    assert!(!submitted.is_empty());

    // Full-log recovery replays Cancel and Resubmit heads byte-for-byte.
    let recovered = Exchange::recover(config(2), journal(&dir, 0)).expect("store recovers");
    assert_eq!(*recovered.exchange.report(), oracle_report);
    let mut exchange = recovered.exchange;
    assert!(matches!(exchange.step().expect("pipeline advances"), StepEvent::Quiescent));
}

// ─── The snapshot protocol's crash points ────────────────────────────────

/// Waves 0 and 1 settle and the pipeline empties — a snapshot point — and
/// wave 2 is submitted on top, so a store holds a snapshot's worth of log
/// and a tail. With `snapshot`, the snapshot is taken at that point.
/// Returns the exchange with its log synced.
fn checkpoint_scenario(dir: &Path, snapshot: bool) -> Exchange {
    let mut exchange =
        Exchange::with_journal(config(1), journal(dir, 0)).expect("journal store opens");
    exchange.submit_seeded(wave_seeds(0));
    exchange.submit_seeded(wave_seeds(1));
    while !matches!(exchange.step().expect("pipeline advances"), StepEvent::Quiescent) {}
    if snapshot {
        exchange.snapshot_now().expect("the snapshot is written");
    }
    exchange.submit_seeded(wave_seeds(2));
    exchange.sync_journal().expect("journal syncs");
    exchange
}

/// Finishes [`checkpoint_scenario`] from wherever a store left it: drains
/// the pipeline, then feeds the remaining waves one at a time, each drained
/// before the next. Which wave is next is read off the report, so a
/// recovered exchange issues the commands the uncrashed one did.
fn finish_waves(exchange: &mut Exchange) {
    loop {
        while !matches!(exchange.step().expect("pipeline advances"), StepEvent::Quiescent) {}
        let next = waves_submitted(exchange.report());
        if next == WAVE_SIZES.len() {
            return;
        }
        exchange.submit_seeded(wave_seeds(next));
    }
}

/// Where the crash hits, in the order of the snapshot protocol: after the
/// driver's rotation, and after each writer step that changes the
/// directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum CrashPoint {
    /// Rotated; no temp file yet.
    Rotated,
    /// Rotated; the temp file half written.
    TempPartial,
    /// The temp file complete and synced, not renamed.
    TempComplete,
    /// The snapshot renamed into place; the retired segment still there.
    Installed,
    /// The writer finished: the retired segment deleted.
    Finished,
}

const CRASH_POINTS: [CrashPoint; 5] = [
    CrashPoint::Rotated,
    CrashPoint::TempPartial,
    CrashPoint::TempComplete,
    CrashPoint::Installed,
    CrashPoint::Finished,
];

/// The scenario's pieces a crashed store is rebuilt from.
struct Checkpoint {
    /// Every record the scenario logs, in order.
    log: Vec<Framed>,
    /// The last record the snapshot covers.
    seq: u64,
    /// The snapshot file's bytes: its frame, sealed.
    frame: Vec<u8>,
    /// The uncrashed run's final report.
    oracle: ExchangeReport,
}

impl Checkpoint {
    fn record(base: &Path) -> Checkpoint {
        let plain = base.join("plain");
        drop(checkpoint_scenario(&plain, false));
        let log = read_wal(&plain).expect("the log reads").frames;

        let snapped = base.join("snapped");
        let mut exchange = checkpoint_scenario(&snapped, true);
        let (seq, _) = load_latest_snapshot(&snapped).expect("loads").expect("a snapshot");
        let name = std::fs::read_dir(&snapped)
            .expect("store dir listable")
            .map(|entry| entry.expect("store entry readable").file_name())
            .find(|name| name.to_string_lossy().ends_with(".snap"))
            .expect("the snapshot file");
        let frame = std::fs::read(snapped.join(name)).expect("snapshot readable");
        // The log kept counting across the rotation: the live log holds
        // exactly the records after the snapshot, byte for byte.
        let cut = log.iter().find(|f| f.seq == seq).expect("the snapshot point is logged").end;
        let plain_bytes = std::fs::read(plain.join(WAL_FILE)).expect("plain log readable");
        let live_bytes = std::fs::read(snapped.join(WAL_FILE)).expect("live log readable");
        assert!(live_bytes == plain_bytes[cut..], "the rotated log continues the plain one");
        assert!(!snapped.join(RETIRED_WAL_FILE).exists(), "the writer retired the segment");

        finish_waves(&mut exchange);
        Checkpoint { log, seq, frame, oracle: exchange.into_report() }
    }

    fn records(&self, covered: bool) -> Vec<WalRecord> {
        let keep = |f: &&Framed| (f.seq <= self.seq) == covered;
        self.log.iter().filter(keep).map(|f| f.record.clone()).collect()
    }

    /// Rebuilds in `dir` the store a crash at `at` leaves: the driver
    /// half through the log's own API, then the writer's steps up to `at`
    /// through the step functions it calls.
    fn crash(&self, dir: &Path, at: CrashPoint) {
        std::fs::create_dir_all(dir).expect("crash dir creatable");
        let mut wal = Wal::create(dir, usize::MAX).expect("the log opens");
        wal.append_group(&self.records(true)).expect("the covered log appends");
        wal.rotate().expect("the log rotates");
        wal.append_group(&self.records(false)).expect("the tail appends");
        drop(wal);
        let whole =
            if at == CrashPoint::TempPartial { self.frame.len() / 2 } else { self.frame.len() };
        if at >= CrashPoint::TempPartial {
            write_snapshot_temp(dir, self.seq, &self.frame[..whole]).expect("temp file writes");
        }
        if at >= CrashPoint::Installed {
            install_snapshot(dir, self.seq).expect("snapshot installs");
            remove_older_snapshots(dir, self.seq).expect("older snapshots go");
        }
        if at >= CrashPoint::Finished {
            remove_retired_segment(dir).expect("the retired segment goes");
        }
    }
}

/// The sequence numbers of `dir`'s live log, asserted to be one record
/// each, consecutive from `first`.
fn assert_log_is_whole(dir: &Path, first: u64, len: usize) {
    let seqs: Vec<u64> = read_wal(dir).expect("log reads").frames.iter().map(|f| f.seq).collect();
    assert_eq!(seqs, (first..first + len as u64).collect::<Vec<_>>(), "no record lost or doubled");
}

#[test]
fn every_snapshot_crash_point_recovers_to_the_oracle_report() {
    let base = store_dir("snapshot-crash-points");
    let checkpoint = Checkpoint::record(&base);
    for at in CRASH_POINTS {
        for threads in [1, 2] {
            let dir = base.join(format!("{at:?}-t{threads}"));
            checkpoint.crash(&dir, at);
            let recovered = Exchange::recover(config(threads), journal(&dir, 0))
                .unwrap_or_else(|e| panic!("{at:?} at {threads} workers: {e}"));
            let installed = at >= CrashPoint::Installed;
            assert_eq!(recovered.stats.snapshot_seq, installed.then_some(checkpoint.seq));
            // One log file is left, holding every record the snapshot (if
            // any) does not cover.
            assert!(!dir.join(RETIRED_WAL_FILE).exists(), "{at:?}: a retired segment is left");
            let (first, len) = if installed {
                (checkpoint.seq + 1, checkpoint.records(false).len())
            } else {
                (0, checkpoint.log.len())
            };
            assert_log_is_whole(&dir, first, len);
            let mut exchange = recovered.exchange;
            finish_waves(&mut exchange);
            assert_eq!(exchange.into_report(), checkpoint.oracle, "{at:?} at {threads} workers");
        }
    }
}

#[test]
fn a_fold_crashed_before_it_deleted_the_segment_recovers_without_duplicates() {
    let base = store_dir("fold-crash");
    let checkpoint = Checkpoint::record(&base);
    let dir = base.join("store");
    checkpoint.crash(&dir, CrashPoint::Rotated);
    let retired = std::fs::read(dir.join(RETIRED_WAL_FILE)).expect("retired segment readable");

    // Recover: the uncovered segment folds ahead of the live log.
    let recovered = Exchange::recover(config(2), journal(&dir, 0)).expect("store recovers");
    assert_log_is_whole(&dir, 0, checkpoint.log.len());
    let mut exchange = recovered.exchange;
    for _ in 0..6 {
        exchange.step().expect("pipeline advances");
    }
    exchange.sync_journal().expect("journal syncs");
    drop(exchange);
    let logged = read_wal(&dir).expect("log reads").frames.len();

    // Crash again, as if that fold had renamed its log into place but not
    // yet deleted the segment: the segment is back beside a log that
    // already holds it.
    std::fs::write(dir.join(RETIRED_WAL_FILE), &retired).expect("segment restorable");
    let recovered = Exchange::recover(config(1), journal(&dir, 0)).expect("store recovers again");
    assert!(!dir.join(RETIRED_WAL_FILE).exists());
    assert_log_is_whole(&dir, 0, logged);
    assert_eq!(recovered.stats.records_replayed, logged as u64);
    let mut exchange = recovered.exchange;
    finish_waves(&mut exchange);
    assert_eq!(exchange.into_report(), checkpoint.oracle);
}

// ─── Snapshots that fail in the background ───────────────────────────────

/// Submits wave 0 and drives the exchange until its epoch has settled and
/// the pipeline is empty — with `snapshot_every: 1`, a snapshot point.
fn settle_wave_zero(exchange: &mut Exchange) {
    exchange.submit_seeded(wave_seeds(0));
    while !matches!(exchange.step().expect("pipeline advances"), StepEvent::Quiescent) {}
}

#[test]
fn a_failed_background_write_is_returned_and_the_store_still_recovers() {
    for threads in [1, 2] {
        let base = store_dir(&format!("writer-fails-t{threads}"));
        // The snapshot will cover the last record a twin run without
        // snapshots logs.
        let twin = base.join("twin");
        let mut exchange =
            Exchange::with_journal(config(threads), journal(&twin, 0)).expect("store opens");
        settle_wave_zero(&mut exchange);
        exchange.sync_journal().expect("journal syncs");
        let seq = read_wal(&twin).expect("log reads").frames.last().expect("logged").seq;

        let dir = base.join("store");
        let mut exchange =
            Exchange::with_journal(config(threads), journal(&dir, 1)).expect("store opens");
        // A directory squats on the snapshot's temp file: the writer
        // fails at its first file step.
        let squatter = dir.join(format!("snap-{seq:020}.snap.tmp"));
        std::fs::create_dir(&squatter).expect("squatter creatable");
        settle_wave_zero(&mut exchange);
        let failed = exchange.sync_journal();
        assert!(failed.is_err(), "the writer's error reaches sync_journal");
        exchange.sync_journal().expect("the error is returned once; the log syncs");
        // The rotated-out log is still there, and no snapshot covers it.
        assert!(dir.join(RETIRED_WAL_FILE).exists());
        assert_eq!(load_latest_snapshot(&dir).expect("store readable"), None);

        // Crash here: the retired segment and the live log hold every
        // record between them.
        let crashed = base.join("crashed");
        std::fs::create_dir_all(&crashed).expect("crash dir creatable");
        for name in [RETIRED_WAL_FILE, WAL_FILE] {
            std::fs::copy(dir.join(name), crashed.join(name)).expect("store file copyable");
        }
        let recovered =
            Exchange::recover(config(threads), journal(&crashed, 1)).expect("store recovers");
        assert_eq!(recovered.exchange.report(), exchange.report());
        assert_log_is_whole(&crashed, 0, seq as usize + 1);

        // Without the squatter the next snapshot succeeds. It does not
        // rotate over the uncovered segment: the live log keeps what it
        // logged since, and the snapshot covers both and deletes the
        // segment.
        std::fs::remove_dir(&squatter).expect("squatter removable");
        exchange.submit_seeded(wave_seeds(1));
        exchange.snapshot_now().expect("the next snapshot is written");
        exchange.sync_journal().expect("journal syncs");
        assert!(!dir.join(RETIRED_WAL_FILE).exists());
        let live = read_wal(&dir).expect("log reads").frames;
        assert_eq!(live.first().map(|f| f.seq), Some(seq + 1), "the live log was not rotated");
        let next = waves_submitted(exchange.report());
        drive_from_wave(&mut exchange, next);
        exchange.sync_journal().expect("the next snapshot is written");
        assert!(!dir.join(RETIRED_WAL_FILE).exists());
        let report = exchange.report().clone();
        drop(exchange);
        let recovered = Exchange::recover(config(threads), journal(&dir, 1)).expect("recovers");
        assert_eq!(*recovered.exchange.report(), report);
    }
}

#[test]
fn a_store_directory_removed_from_under_the_exchange_fails_the_next_sync() {
    let base = store_dir("dir-removed");
    let dir = base.join("store");
    let mut exchange = Exchange::with_journal(config(2), journal(&dir, 1)).expect("store opens");
    exchange.submit_seeded(wave_seeds(1));
    // Removed by moving it away, so what the exchange leaves in it can
    // still be read afterwards.
    let moved = base.join("moved");
    std::fs::rename(&dir, &moved).expect("store dir movable");
    // The snapshot is due; the pipeline neither panics nor stops.
    settle_wave_zero(&mut exchange);
    let failed = exchange.sync_journal();
    assert!(failed.is_err(), "the snapshot's error reaches sync_journal");
    exchange.sync_journal().expect("the error is returned once; the log syncs");
    let report = exchange.report().clone();
    drop(exchange);

    // The live log kept every record, and recovers to the live report.
    let logged = read_wal(&moved).expect("log reads").frames.len();
    let recovered = Exchange::recover(config(1), journal(&moved, 0)).expect("store recovers");
    assert_eq!(recovered.stats.snapshot_seq, None);
    assert_eq!(recovered.stats.records_replayed, logged as u64);
    assert_log_is_whole(&moved, 0, logged);
    assert_eq!(*recovered.exchange.report(), report);
}
