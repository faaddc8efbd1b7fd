//! Snapshot *files*, and the writer that puts them in place behind the
//! driver.
//!
//! What a snapshot holds is the exchange's business — `swap-core`'s
//! `durability` module encodes the live state straight into the payload
//! and decodes it back; this module never looks inside. It owns the file
//! protocol only: a snapshot is a single [`crate::record::SNAPSHOT_KIND`]
//! frame in a file named `snap-<seq>.snap`, where `<seq>` is the
//! zero-padded sequence number of the last WAL record the snapshot covers
//! (and the frame's sequence number). [`load_latest_snapshot`] picks the
//! highest and hands back the CRC-checked `(seq, payload)`.
//!
//! A snapshot is taken in two halves ([`SnapshotWriter`]). The driver
//! encodes the frame into a buffer kept between snapshots and rotates the
//! log ([`Wal::rotate`]). A thread spawned for that one snapshot then runs
//! the writer's steps, in order:
//!
//! 1. [`seal_frame`](crate::record::seal_frame) — the CRC;
//! 2. [`write_snapshot_temp`] — `snap-<seq>.snap.tmp`, `fdatasync`ed;
//! 3. [`install_snapshot`] — rename into place, `fsync` the directory;
//! 4. [`remove_older_snapshots`];
//! 5. [`remove_retired_segment`] — the rotated-out log, then `fsync` the
//!    directory again;
//!
//! and hands the buffer back. A crash after any step leaves a store that
//! recovers to the same state: before step 3 the retired segment is the
//! log the older snapshot needs, after it the new snapshot covers the
//! segment.
//!
//! The writer paces its checksum — the one step that is all CPU — to an
//! eighth of a core (see `REST_PER_WORK`) until someone joins it; from
//! then on it runs flat out, since the joiner is waiting.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::codec::Encoder;
use crate::record::{begin_frame, decode_snapshot_frame, seal_frame_in_slices, SNAPSHOT_KIND};
use crate::wal::{remove_retired_segment, sync_dir, sync_retired_segment, Wal};

/// The writer checksums the frame this many bytes at a time.
const SLICE: usize = 64 * 1024;

/// After each slice the writer rests this many times as long as the slice
/// took, unless it is being joined: an eighth of a core. Measured beside a
/// pipeline that keeps both cores of a 2-core host busy
/// (`durable_deep_book`, 5 pairs against the snapshot on the driver): at
/// full speed the writer runs through the first epochs after each
/// snapshot and raised their p99 settle latency by a third to a half;
/// resting 5× still moved p99 +3 %…+19 %, 7× moved it −10 %…+2 %. Resting
/// longer leaves more of the writer to finish when the next snapshot or
/// `sync_journal` joins it, which the driver waits for.
const REST_PER_WORK: u32 = 7;

fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:020}.snap")
}

fn temp_name(seq: u64) -> String {
    format!("{}.tmp", snapshot_name(seq))
}

/// True for a snapshot file or a snapshot's temp file.
pub(crate) fn is_snapshot_file(name: &str) -> bool {
    name.starts_with("snap-") && (name.ends_with(".snap") || name.ends_with(".tmp"))
}

/// Writer step 2: writes the sealed snapshot `frame` covering the WAL
/// through `seq` to its temp file in `dir` and forces it to disk. A crash
/// here or before step 3 leaves a temp file recovery ignores.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_snapshot_temp(dir: &Path, seq: u64, frame: &[u8]) -> io::Result<()> {
    let mut f = std::fs::File::create(dir.join(temp_name(seq)))?;
    f.write_all(frame)?;
    f.sync_data()
}

/// Writer step 3: renames the temp file of the snapshot through `seq` into
/// place — atomically, so no reader ever sees half a snapshot under the
/// real name — and syncs the directory so the rename survives power loss.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn install_snapshot(dir: &Path, seq: u64) -> io::Result<()> {
    std::fs::rename(dir.join(temp_name(seq)), dir.join(snapshot_name(seq)))?;
    sync_dir(dir)
}

/// Writer step 4: deletes every snapshot file and leftover temp file in
/// `dir` but the snapshot through `seq` — newest-first recovery never needs
/// them once it is in place.
///
/// # Errors
///
/// Propagates filesystem errors, except a file that is already gone.
pub fn remove_older_snapshots(dir: &Path, seq: u64) -> io::Result<()> {
    let keep = snapshot_name(seq);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if is_snapshot_file(&name) && *name != *keep {
            match std::fs::remove_file(entry.path()) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
    }
    Ok(())
}

/// The writer thread's whole job on the snapshot frame through `seq`:
/// steps 1–5 of the module docs, stopping at the first error. Rests
/// between checksum slices until `hurry` disconnects.
fn write_behind(dir: &Path, seq: u64, frame: &mut Encoder, hurry: &Receiver<()>) -> io::Result<()> {
    let mut slice_began = Instant::now();
    seal_frame_in_slices(frame, 0, SLICE, || {
        // Returns at once when the joiner has dropped its sender.
        let _ = hurry.recv_timeout(slice_began.elapsed() * REST_PER_WORK);
        slice_began = Instant::now();
    });
    let installed = write_snapshot_temp(dir, seq, frame.as_bytes())
        .and_then(|()| install_snapshot(dir, seq))
        .and_then(|()| remove_older_snapshots(dir, seq));
    if installed.is_err() {
        // The retired segment may now be the only copy of its records:
        // make it as durable as `sync_journal` makes the live log. The
        // error returned is the step's; a failure here would only repeat it.
        let _ = sync_retired_segment(dir);
        return installed;
    }
    remove_retired_segment(dir)
}

/// What a [`SnapshotWriter`] has outstanding.
#[derive(Debug, Default)]
enum Outstanding {
    #[default]
    None,
    /// A writer thread, returning the frame buffer and how the write went;
    /// dropping `hurry` ends its rests.
    Writing { handle: JoinHandle<(Encoder, io::Result<()>)>, hurry: Sender<()> },
    /// The driver half failed before any thread started; the error waits
    /// for the next [`SnapshotWriter::join`] as a writer's would.
    Failed(io::Error),
}

/// Takes snapshots of a journaled store with the file work off the
/// driver: [`begin`](Self::begin) is the driver half, a thread spawned per
/// snapshot is the writer half (see the module docs), and
/// [`join`](Self::join) waits for it and returns its error.
///
/// Creating one spawns and allocates nothing; the frame buffer grows on
/// the first snapshot and is reused after. Dropping one joins the writer
/// in progress — its error then has no caller to go to, so callers that
/// care join first.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    /// The frame buffer, here between snapshots (empty while a writer
    /// holds it).
    frame: Encoder,
    outstanding: Outstanding,
    /// A retired segment may be on disk that no installed snapshot is
    /// known to cover: set by a rotation, cleared when a writer finishes.
    /// While set, [`begin`](Self::begin) does not rotate, so an uncovered
    /// segment is never replaced; the next writer's snapshot covers it and
    /// deletes it.
    retired: bool,
}

impl SnapshotWriter {
    /// The driver half of a snapshot covering `wal` through its last
    /// record: joins the previous snapshot, has `payload` encode the
    /// snapshot (given that record's sequence number) straight into the
    /// frame buffer behind a reserved header, rotates the log, and hands
    /// the buffer to a writer thread spawned for this one snapshot. A
    /// no-op on a log that holds no record yet.
    ///
    /// # Errors
    ///
    /// The previous snapshot's error, if it failed; this snapshot is then
    /// not begun. A failure of this snapshot's rotation is held for the
    /// next [`join`](Self::join) instead, like a writer's.
    pub fn begin(
        &mut self,
        wal: &mut Wal,
        payload: impl FnOnce(u64, &mut Encoder),
    ) -> io::Result<()> {
        self.join()?;
        let Some(seq) = wal.next_seq().checked_sub(1) else { return Ok(()) };
        self.frame.clear();
        begin_frame(&mut self.frame, SNAPSHOT_KIND, seq);
        payload(seq, &mut self.frame);
        if !self.retired {
            if let Err(e) = wal.rotate() {
                self.outstanding = Outstanding::Failed(e);
                return Ok(());
            }
            self.retired = true;
        }
        let dir = wal.dir().to_path_buf();
        let mut frame = std::mem::take(&mut self.frame);
        let (hurry, hurried) = mpsc::channel();
        let spawned = std::thread::Builder::new().name("snapshot-writer".into()).spawn(move || {
            let written = write_behind(&dir, seq, &mut frame, &hurried);
            (frame, written)
        });
        self.outstanding = match spawned {
            Ok(handle) => Outstanding::Writing { handle, hurry },
            Err(e) => Outstanding::Failed(e),
        };
        Ok(())
    }

    /// Waits for the snapshot in progress — ending its rests, so it runs
    /// at full speed — takes its frame buffer back for the next one, and
    /// returns how it went. `Ok` when nothing is outstanding; an error is
    /// returned once.
    ///
    /// # Errors
    ///
    /// The first error of the outstanding snapshot's rotation or writer
    /// steps. The store stays recoverable: a writer that fails before the
    /// snapshot covers the retired segment leaves the segment in place and
    /// synced.
    pub fn join(&mut self) -> io::Result<()> {
        match std::mem::replace(&mut self.outstanding, Outstanding::None) {
            Outstanding::None => Ok(()),
            Outstanding::Failed(e) => Err(e),
            Outstanding::Writing { handle, hurry } => {
                drop(hurry);
                let (frame, written) = handle.join().unwrap_or_else(|_| {
                    (Encoder::new(), Err(io::Error::other("the snapshot writer panicked")))
                });
                self.frame = frame;
                if written.is_ok() {
                    self.retired = false;
                }
                written
            }
        }
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// Loads the newest snapshot in `dir` as `(seq, payload)` — the frame's
/// sequence number and its checksummed payload bytes — or `None` if there
/// is none. The payload is the caller's to decode, and to cross-check
/// against `seq` if it repeats the sequence number inside.
///
/// # Errors
///
/// Filesystem errors, or a present-but-damaged newest snapshot (torn,
/// checksum mismatch, wrong frame kind) — never silently falls back past
/// a corrupt file, because snapshots are renamed into place whole and a
/// bad one means real damage.
pub fn load_latest_snapshot(dir: &Path) -> io::Result<Option<(u64, Vec<u8>)>> {
    let mut newest: Option<PathBuf> = None;
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name.starts_with("snap-") && name.ends_with(".snap") {
            // Zero-padded names sort by sequence number.
            if newest.as_ref().is_none_or(|n| {
                name.as_str() > n.file_name().unwrap_or_default().to_string_lossy().as_ref()
            }) {
                newest = Some(entry.path());
            }
        }
    }
    let Some(path) = newest else { return Ok(None) };
    let bytes = std::fs::read(&path)?;
    decode_snapshot_frame(&bytes)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalRecord;
    use crate::wal::{read_wal, RETIRED_WAL_FILE};

    /// Opaque payload bytes: this layer never interprets them.
    fn payload(seq: u64) -> Vec<u8> {
        (0..200u64).map(|i| (seq * 31 + i) as u8).collect()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swap-store-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Steps 1–4 on a frame around `payload(seq)`.
    fn write_snapshot(dir: &Path, seq: u64) {
        let mut frame = Encoder::new();
        begin_frame(&mut frame, SNAPSHOT_KIND, seq);
        frame.put_raw(&payload(seq));
        crate::record::seal_frame(&mut frame, 0);
        write_snapshot_temp(dir, seq, frame.as_bytes()).unwrap();
        install_snapshot(dir, seq).unwrap();
        remove_older_snapshots(dir, seq).unwrap();
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn write_then_load_latest() {
        let dir = tmp_dir("write-load");
        assert!(load_latest_snapshot(&dir).unwrap().is_none());
        write_snapshot(&dir, 10);
        write_snapshot(&dir, 25);
        let loaded = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded, (25, payload(25)));
        // The older snapshot was cleaned up by the newer write.
        assert_eq!(names(&dir), vec![snapshot_name(25)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_ignored_and_cleaned() {
        let dir = tmp_dir("tmp-left");
        write_snapshot(&dir, 5);
        // Simulate a crash between temp-write and rename of a later snap.
        std::fs::write(dir.join(temp_name(9)), b"half").unwrap();
        let loaded = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded.0, 5);
        write_snapshot(&dir, 12);
        assert!(!dir.join(temp_name(9)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_is_a_loud_error() {
        let dir = tmp_dir("corrupt");
        write_snapshot(&dir, 5);
        let mut bytes = std::fs::read(dir.join(snapshot_name(5))).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(dir.join(snapshot_name(5)), &bytes).unwrap();
        assert!(load_latest_snapshot(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_writer_installs_the_snapshot_and_retires_the_log() {
        let dir = tmp_dir("writer");
        let mut wal = Wal::create(&dir, 1).unwrap();
        let mut writer = SnapshotWriter::default();
        // Nothing logged: nothing to cover.
        writer.begin(&mut wal, |_, _| unreachable!("no snapshot of an empty log")).unwrap();
        writer.join().unwrap();
        assert_eq!(names(&dir), vec!["exchange.wal".to_string()]);

        let records: Vec<WalRecord> = (0..3).map(|offer| WalRecord::Cancel { offer }).collect();
        wal.append_group(&records).unwrap();
        writer.begin(&mut wal, |seq, e| e.put_raw(&payload(seq))).unwrap();
        // The driver half rotated the log before it returned.
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 0);
        writer.join().unwrap();
        assert_eq!(load_latest_snapshot(&dir).unwrap(), Some((2, payload(2))));
        assert_eq!(names(&dir), vec!["exchange.wal".to_string(), snapshot_name(2)]);

        // The buffer came back and is reused; the next snapshot replaces
        // this one.
        let capacity = writer.frame.buf.capacity();
        assert!(capacity > 0);
        wal.append_group(&records).unwrap();
        writer.begin(&mut wal, |seq, e| e.put_raw(&payload(seq))).unwrap();
        writer.join().unwrap();
        assert_eq!(writer.frame.buf.capacity(), capacity);
        assert_eq!(names(&dir), vec!["exchange.wal".to_string(), snapshot_name(5)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_writer_keeps_the_retired_segment_and_its_error() {
        let dir = tmp_dir("writer-fails");
        let mut wal = Wal::create(&dir, 1).unwrap();
        let mut writer = SnapshotWriter::default();
        let records: Vec<WalRecord> = (1..3).map(|offer| WalRecord::Cancel { offer }).collect();
        wal.append_group(&records).unwrap();
        // A directory squatting on an older snapshot's name: step 4 cannot
        // remove it.
        std::fs::create_dir(dir.join(snapshot_name(0))).unwrap();
        writer.begin(&mut wal, |seq, e| e.put_raw(&payload(seq))).unwrap();
        assert!(writer.join().is_err(), "the writer's error is returned");
        writer.join().unwrap();
        // Step 5 never ran: the segment is still there, and the next
        // snapshot does not rotate over it.
        assert!(dir.join(RETIRED_WAL_FILE).exists());
        wal.append_group(&[WalRecord::Cancel { offer: 3 }]).unwrap();
        std::fs::remove_dir(dir.join(snapshot_name(0))).unwrap();
        writer.begin(&mut wal, |seq, e| e.put_raw(&payload(seq))).unwrap();
        writer.join().unwrap();
        assert!(!dir.join(RETIRED_WAL_FILE).exists());
        assert_eq!(load_latest_snapshot(&dir).unwrap(), Some((2, payload(2))));
        // The live log kept its record; the snapshot covers it.
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
