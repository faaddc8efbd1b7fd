//! Golden store fixture: pins the on-disk format (frame `VERSION` 1).
//!
//! `tests/golden/store-v1/` holds the store directory — one `snap-*.snap`
//! and an `exchange.wal` with a tail of records after the snapshot — that
//! [`scripted_run`] left behind, plus the `{:#?}` rendering of that run's
//! report. The log and the report are still the bytes recorded by the
//! commit *before* snapshot payloads were encoded straight from the domain
//! types; the snapshot has been rewritten once since, when the exchange's
//! config lost its reference-mode fields and the config digest stored in
//! the snapshot changed with it (its 32 digest bytes and the frame CRC
//! moved, nothing else). A store is a promise to a later build, so this
//! build must
//!
//! * write the same bytes when it repeats the run,
//! * recover the recorded report from the recorded bytes, and
//! * decode the recorded snapshot and encode it back unchanged.
//!
//! The fixture is only ever regenerated (`regenerate_fixture`, ignored by
//! default) for a deliberate format change — a new `swap_store` frame
//! `VERSION` — or when an input of the exchange's config digest changes
//! (the digest is inside the snapshot, and a recovery under a different
//! one is refused by design); never to quiet a failure of the three tests
//! above. The digest's inputs have changed twice: the reference-mode
//! fields above, and the signature scheme's name, added when the one-time
//! keys under the Merkle tree became Winternitz chains — a snapshot holds
//! each identity's leaf digests, and this time the log moved with the
//! snapshot (every Merkle root, and so every address in a logged command,
//! changed with the scheme) while the recorded report — HTLC swaps, which
//! sign nothing — came out byte-identical.
//!
//! `tests/golden/store-lamport/` keeps the snapshot and log `store-v1`
//! held until then. Its leaf digests commit to Lamport keys no build can
//! sign with any more, so the promise this build owes it is the opposite
//! one: refuse it ([`RecoverError::ConfigMismatch`]) rather than recover
//! identities whose signatures could never verify.

use std::path::{Path, PathBuf};

use swap_core::exchange::{
    Exchange, ExchangeConfig, ExchangeReport, JournalConfig, PartySeed, RecoverError,
};
use swap_crypto::Secret;
use swap_market::AssetKind;
use swap_sim::SimRng;
use swap_store::WAL_FILE;

const REPORT_FILE: &str = "report.txt";

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/store-v1")
}

fn lamport_fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/store-lamport")
}

fn config(threads: usize) -> ExchangeConfig {
    ExchangeConfig { threads, executing_slots: 2, ..Default::default() }
}

fn journal(dir: &Path) -> JournalConfig {
    JournalConfig { snapshot_every: 1, ..JournalConfig::new(dir) }
}

/// A fresh scratch directory under the test-private target tmpdir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden-store").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir removable");
    }
    std::fs::create_dir_all(&dir).expect("scratch dir creatable");
    dir
}

/// One trade ring of `len` parties, wave `w` of the run.
fn ring(rng: &mut SimRng, w: usize, len: usize) -> Vec<PartySeed> {
    (0..len)
        .map(|p| PartySeed {
            seed: rng.bytes32(),
            key_height: 3,
            secret: Secret::random(rng),
            gives: AssetKind::new(format!("w{w}k{p}")),
            wants: AssetKind::new(format!("w{w}k{}", (p + 1) % len)),
        })
        .collect()
}

/// The fixed-seed run the fixture records. Two waves settle, each followed
/// by a snapshot (`snapshot_every: 1`); then the log grows a tail the last
/// snapshot does not cover: a resting offer, its cancellation, the same
/// identity's resubmission, and a third ring left two steps into the
/// pipeline. Returns the exchange as a crash would find it, log synced.
fn scripted_run(dir: &Path) -> Exchange {
    let mut rng = SimRng::from_seed(0x60_1D_57_0E);
    let mut exchange = Exchange::with_journal(config(1), journal(dir)).expect("store opens");
    for (w, len) in [(0, 3), (1, 2)] {
        exchange.submit_seeded(ring(&mut rng, w, len));
        exchange.drive_until_quiescent().expect("the wave settles");
    }
    let rest = exchange.submit_seeded(vec![PartySeed {
        seed: rng.bytes32(),
        key_height: 3,
        secret: Secret::random(&mut rng),
        gives: AssetKind::new("dust"),
        wants: AssetKind::new("nothing"),
    }]);
    let (resting_offer, resting_address) = rest[0];
    exchange.cancel(resting_offer).expect("a resting offer cancels");
    exchange
        .resubmit(
            resting_address,
            Secret::random(&mut rng),
            AssetKind::new("nothing"),
            AssetKind::new("dust"),
        )
        .expect("a cancelled identity resubmits");
    exchange.submit_seeded(ring(&mut rng, 2, 2));
    for _ in 0..2 {
        exchange.step().expect("the pipeline advances");
    }
    exchange.sync_journal().expect("the log syncs");
    exchange
}

/// The store files in `dir`, by name, sorted.
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir listable")
        .map(|entry| entry.expect("store entry readable"))
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name == WAL_FILE || name.ends_with(".snap"))
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).expect("store file readable");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

fn recorded_report() -> String {
    std::fs::read_to_string(fixture_dir().join(REPORT_FILE)).expect("recorded report readable")
}

fn rendered(report: &ExchangeReport) -> String {
    format!("{report:#?}\n")
}

#[test]
fn this_build_writes_the_fixture_byte_for_byte() {
    let dir = scratch_dir("live");
    let exchange = scripted_run(&dir);
    assert_eq!(rendered(exchange.report()), recorded_report());
    let (live, recorded) = (store_files(&dir), store_files(&fixture_dir()));
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&live), names(&recorded));
    for ((name, live), (_, recorded)) in live.iter().zip(&recorded) {
        assert!(live == recorded, "{name} differs from the fixture");
    }
}

#[test]
fn recovery_reproduces_the_recorded_report() {
    let recorded = store_files(&fixture_dir());
    assert!(recorded.iter().any(|(name, _)| name.ends_with(".snap")), "fixture has a snapshot");
    assert!(
        recorded.iter().any(|(name, bytes)| name == WAL_FILE && !bytes.is_empty()),
        "fixture has a log tail"
    );
    for threads in [1, 2] {
        let dir = scratch_dir(&format!("recover{threads}"));
        for (name, bytes) in &recorded {
            std::fs::write(dir.join(name), bytes).expect("fixture file copyable");
        }
        let recovered =
            Exchange::recover(config(threads), journal(&dir)).expect("the fixture recovers");
        assert!(!recovered.stats.torn_tail);
        assert!(recovered.stats.snapshot_seq.is_some(), "recovery loaded the snapshot");
        assert!(recovered.stats.commands_replayed >= 6, "the tail replays");
        assert_eq!(rendered(recovered.exchange.report()), recorded_report());
    }
}

#[test]
fn a_store_written_under_the_lamport_scheme_is_refused() {
    let recorded = store_files(&lamport_fixture_dir());
    assert_eq!(recorded.len(), 2, "the old fixture is a snapshot and a log");
    for threads in [1, 2] {
        let dir = scratch_dir(&format!("lamport{threads}"));
        for (name, bytes) in &recorded {
            std::fs::write(dir.join(name), bytes).expect("fixture file copyable");
        }
        let refused = Exchange::recover(config(threads), journal(&dir));
        assert!(
            matches!(refused, Err(RecoverError::ConfigMismatch)),
            "threads {threads}: {:?}",
            refused.map(|recovered| recovered.stats)
        );
    }
}

#[test]
fn the_recorded_snapshot_decodes_and_encodes_back_unchanged() {
    let dir = scratch_dir("re-encode");
    let recorded = store_files(&fixture_dir());
    let (name, bytes) =
        recorded.iter().find(|(name, _)| name.ends_with(".snap")).expect("fixture has a snapshot");
    std::fs::write(dir.join(name), bytes).expect("fixture snapshot copyable");
    // With no log beside it, recovery's state is exactly the decoded
    // snapshot, and its next log record would follow the snapshot's — so a
    // snapshot taken right away covers the same sequence number, lands
    // under the same name, and must hold the same bytes.
    let mut exchange =
        Exchange::recover(config(1), journal(&dir)).expect("the snapshot alone recovers").exchange;
    exchange.snapshot_now().expect("the snapshot rewrites");
    let rewritten = std::fs::read(dir.join(name)).expect("rewritten snapshot readable");
    assert!(rewritten == *bytes, "{name} changed across decode and encode");
}

#[test]
#[ignore = "rewrites tests/golden/store-v1; see the module docs for when that is legitimate"]
fn regenerate_fixture() {
    let dir = fixture_dir();
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("old fixture removable");
    }
    let exchange = scripted_run(&dir);
    std::fs::write(dir.join(REPORT_FILE), rendered(exchange.report())).expect("report writable");
}
