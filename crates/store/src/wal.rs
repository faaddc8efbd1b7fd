//! The append-only write-ahead log with a group-commit buffer.
//!
//! [`Wal`] owns the live log file and the next sequence number. Records
//! are framed in place into a group buffer ([`crate::record::begin_frame`]
//! / [`crate::record::seal_frame`]) and flushed to the OS once the buffer
//! reaches the group-commit threshold (or on [`Wal::flush`]/drop);
//! [`Wal::sync`] additionally forces the data to disk, and is what
//! `Exchange::sync_journal` calls. The crash model is process crash:
//! anything flushed survives, and the file can end mid-record, which
//! [`read_wal`] tolerates.
//!
//! A snapshot does not truncate the log; it *rotates* it. [`Wal::rotate`]
//! renames the live file to [`RETIRED_WAL_FILE`] and continues in a fresh
//! one — sequence numbers keep counting — so the driver pays a rename, not
//! an `fdatasync`. The snapshot writer deletes the retired segment once the
//! snapshot covering it is in place ([`remove_retired_segment`]); until
//! then recovery reads it ahead of the live log, and
//! [`fold_retired_segment`] leaves one log file before appending resumes.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::Encoder;
use crate::record::{begin_frame, decode_frames, seal_frame, FrameScan, WalRecord};

/// File name of the live log inside a store directory.
pub const WAL_FILE: &str = "exchange.wal";

/// File name of the retired log segment: the live log a snapshot rotated
/// out, kept until that snapshot is in place.
pub const RETIRED_WAL_FILE: &str = "exchange.wal.retired";

/// Temp file a recovery builds the folded log in before renaming it over
/// the live log.
const FOLD_TMP_FILE: &str = "exchange.wal.tmp";

/// True for the log's own files: the live log, the retired segment, and a
/// fold's temp file.
pub(crate) fn is_log_file(name: &str) -> bool {
    name == WAL_FILE || name == RETIRED_WAL_FILE || name == FOLD_TMP_FILE
}

/// Append-side handle on a WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    dir: PathBuf,
    path: PathBuf,
    buf: Encoder,
    buffered: usize,
    group_commit: usize,
    next_seq: u64,
}

impl Wal {
    /// Creates (truncating any previous log) the WAL in `dir`, starting at
    /// sequence 0. Flushes to the OS every `group_commit` records
    /// (`0` behaves as `1`: every record flushes immediately).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(dir: &Path, group_commit: usize) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        Ok(Self::over(file, dir, path, group_commit, 0))
    }

    /// Opens an existing WAL for appending after recovery: truncates the
    /// file to `valid_len` (dropping a torn tail) and continues the
    /// sequence at `next_seq`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_append(
        dir: &Path,
        valid_len: u64,
        next_seq: u64,
        group_commit: usize,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        // Keep the valid prefix; `set_len` below drops only the torn tail.
        let file = OpenOptions::new().write(true).create(true).truncate(false).open(&path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(Self::over(file, dir, path, group_commit, next_seq))
    }

    fn over(file: File, dir: &Path, path: PathBuf, group_commit: usize, next_seq: u64) -> Self {
        let dir = dir.to_path_buf();
        Self { file, dir, path, buf: Encoder::new(), buffered: 0, group_commit, next_seq }
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The store directory the log lives in.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next appended record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends a group of records atomically with respect to buffering:
    /// either the whole group reaches the buffer or none of it does, so a
    /// flush boundary can never split a group. Flushes if the buffer
    /// reaches the group-commit threshold. Each record is framed straight
    /// into the buffer, its CRC taken there.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the flush.
    pub fn append_group(&mut self, records: &[WalRecord]) -> io::Result<()> {
        for rec in records {
            let start = begin_frame(&mut self.buf, rec.kind(), self.next_seq);
            rec.put_payload(&mut self.buf);
            seal_frame(&mut self.buf, start);
            self.next_seq += 1;
        }
        self.buffered += records.len();
        if self.buffered >= self.group_commit.max(1) {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes all buffered records to the OS.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(self.buf.as_bytes())?;
            self.buf.clear();
        }
        self.buffered = 0;
        Ok(())
    }

    /// Flushes and forces file data to disk (`fdatasync`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_data()
    }

    /// Retires the log a snapshot is about to cover: flushes it, renames it
    /// to [`RETIRED_WAL_FILE`] (replacing any earlier retired segment), and
    /// continues in a fresh, empty live file. The sequence number keeps
    /// counting — that is how replay knows which records a snapshot
    /// covers. Nothing is synced here: the snapshot writer's directory
    /// `fsync` after its own rename makes this rename durable too.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. On error the log appends where it did
    /// before: a failed fresh file renames the old one back.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.flush()?;
        let retired = self.dir.join(RETIRED_WAL_FILE);
        std::fs::rename(&self.path, &retired)?;
        match OpenOptions::new().write(true).create(true).truncate(true).open(&self.path) {
            Ok(file) => {
                self.file = file;
                Ok(())
            }
            Err(e) => {
                // If the rename back fails too, the live name is gone and
                // every later rotation fails on it, so no writer ever
                // deletes the file this log still appends to.
                let _ = std::fs::rename(&retired, &self.path);
                Err(e)
            }
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort: records accepted into the buffer should reach the
        // OS even on unwind, matching the process-crash durability model.
        let _ = self.flush();
    }
}

/// Reads and scans the WAL in `dir`. A missing file is an empty log, and
/// a torn final record is reported, not an error.
///
/// # Errors
///
/// Filesystem errors, or a checksum-valid frame this build cannot
/// interpret (see [`decode_frames`]).
pub fn read_wal(dir: &Path) -> io::Result<FrameScan> {
    scan(&read_or_empty(&dir.join(WAL_FILE))?)
}

fn read_or_empty(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(bytes)
}

fn scan(bytes: &[u8]) -> io::Result<FrameScan> {
    decode_frames(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Forces a directory's entries — creations, renames, deletions — to disk.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Forces the retired segment's data to disk, for a snapshot that will not
/// cover it after all.
pub(crate) fn sync_retired_segment(dir: &Path) -> io::Result<()> {
    File::open(dir.join(RETIRED_WAL_FILE))?.sync_data()
}

/// The snapshot writer's last step: deletes the retired segment, whose
/// records the snapshot it just installed covers, and syncs the directory.
/// A segment already gone is not an error.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn remove_retired_segment(dir: &Path) -> io::Result<()> {
    match std::fs::remove_file(dir.join(RETIRED_WAL_FILE)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    sync_dir(dir)
}

/// Recovery's first step on the log: leaves `dir` with one log file before
/// [`read_wal`] and [`Wal::open_append`] take over. A retired segment
/// (see [`Wal::rotate`]) is
///
/// * deleted when the snapshot recovery loaded — through sequence number
///   `covered` — covers its last record, or when the live log already
///   starts at or before that record (a fold that crashed before its
///   deletion);
/// * otherwise *folded*: its frames, then the live log's bytes, go to a
///   temp file that is synced and renamed over the live log, and only
///   then is the segment deleted.
///
/// Either way the directory is synced. Every step leaves a store this
/// function recovers the same way, so a crash mid-fold neither loses nor
/// duplicates a record.
///
/// # Errors
///
/// Filesystem errors; a retired segment that fails to decode, or that is
/// torn and not covered (a rotation flushes it whole, so a tear is damage,
/// and folding past it would leave a gap in the sequence).
pub fn fold_retired_segment(dir: &Path, covered: Option<u64>) -> io::Result<()> {
    let retired_path = dir.join(RETIRED_WAL_FILE);
    let retired = match std::fs::read(&retired_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let retired_scan = scan(&retired)?;
    let live_path = dir.join(WAL_FILE);
    let live = read_or_empty(&live_path)?;
    let last = retired_scan.frames.last().map(|f| f.seq);
    let live_first = scan(&live)?.frames.first().map(|f| f.seq);
    let superseded = match last {
        None => true,
        Some(last) => {
            covered.is_some_and(|seq| last <= seq) || live_first.is_some_and(|seq| seq <= last)
        }
    };
    if !superseded {
        if retired_scan.torn {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "the retired log segment is torn",
            ));
        }
        let tmp = dir.join(FOLD_TMP_FILE);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&retired[..retired_scan.valid_len])?;
            f.write_all(&live)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &live_path)?;
    }
    std::fs::remove_file(&retired_path)?;
    sync_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: u64) -> Vec<WalRecord> {
        (0..n).map(|i| WalRecord::Cancel { offer: i }).collect()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swap-store-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seqs(scan: &FrameScan) -> Vec<u64> {
        scan.frames.iter().map(|f| f.seq).collect()
    }

    #[test]
    fn append_read_round_trip() {
        let dir = tmp_dir("round-trip");
        let mut wal = Wal::create(&dir, 4).unwrap();
        for rec in records(10) {
            wal.append_group(std::slice::from_ref(&rec)).unwrap();
        }
        wal.flush().unwrap();
        let scan = read_wal(&dir).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.frames.len(), 10);
        for (i, f) in scan.frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.record, WalRecord::Cancel { offer: i as u64 });
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_buffers_until_threshold() {
        let dir = tmp_dir("group-commit");
        let mut wal = Wal::create(&dir, 4).unwrap();
        for rec in records(3) {
            wal.append_group(std::slice::from_ref(&rec)).unwrap();
        }
        // Below the threshold: nothing has reached the file yet.
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 0);
        wal.append_group(&records(1)).unwrap();
        // Fourth record crossed the threshold: all four flushed together.
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_flushes_buffered_records() {
        let dir = tmp_dir("drop-flush");
        {
            let mut wal = Wal::create(&dir, 1000).unwrap();
            wal.append_group(&records(5)).unwrap();
        }
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let dir = tmp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let scan = read_wal(&dir).unwrap();
        assert_eq!(scan.frames.len(), 0);
        assert!(!scan.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_append_drops_torn_tail_and_continues_seq() {
        let dir = tmp_dir("reopen");
        let mut wal = Wal::create(&dir, 1).unwrap();
        wal.append_group(&records(3)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Simulate a crash mid-append: tear the last record.
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let scan = read_wal(&dir).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.frames.len(), 2);
        let next_seq = scan.frames.last().unwrap().seq + 1;
        let mut wal = Wal::open_append(&dir, scan.valid_len as u64, next_seq, 1).unwrap();
        assert_eq!(wal.next_seq(), 2);
        wal.append_group(&[WalRecord::Cancel { offer: 99 }]).unwrap();
        wal.flush().unwrap();

        let scan = read_wal(&dir).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.frames[2].seq, 2);
        assert_eq!(scan.frames[2].record, WalRecord::Cancel { offer: 99 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotate_retires_the_log_and_seq_keeps_counting() {
        let dir = tmp_dir("rotate");
        let mut wal = Wal::create(&dir, 1000).unwrap();
        wal.append_group(&records(4)).unwrap();
        // Buffered records are flushed into the segment being retired.
        wal.rotate().unwrap();
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 0);
        wal.append_group(&[WalRecord::Cancel { offer: 7 }]).unwrap();
        wal.flush().unwrap();
        assert_eq!(seqs(&read_wal(&dir).unwrap()), vec![4]);
        let retired = scan(&std::fs::read(dir.join(RETIRED_WAL_FILE)).unwrap()).unwrap();
        assert_eq!(seqs(&retired), vec![0, 1, 2, 3]);
        remove_retired_segment(&dir).unwrap();
        assert!(!dir.join(RETIRED_WAL_FILE).exists());
        // Deleting it twice is not an error.
        remove_retired_segment(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store whose retired segment holds seqs 0..4 and whose live log
    /// holds 4..6.
    fn rotated_store(name: &str) -> PathBuf {
        let dir = tmp_dir(name);
        let mut wal = Wal::create(&dir, 1).unwrap();
        wal.append_group(&records(4)).unwrap();
        wal.rotate().unwrap();
        wal.append_group(&records(2)).unwrap();
        dir
    }

    #[test]
    fn an_uncovered_retired_segment_folds_ahead_of_the_live_log() {
        let dir = rotated_store("fold");
        let retired = std::fs::read(dir.join(RETIRED_WAL_FILE)).unwrap();
        // Covered only through seq 2: the segment's last record is not.
        fold_retired_segment(&dir, Some(2)).unwrap();
        assert!(!dir.join(RETIRED_WAL_FILE).exists());
        assert!(!dir.join(FOLD_TMP_FILE).exists());
        let folded = read_wal(&dir).unwrap();
        assert_eq!(seqs(&folded), vec![0, 1, 2, 3, 4, 5]);
        // A crash after the rename, before the deletion: the segment is
        // back beside a live log that already holds it — no duplicates.
        std::fs::write(dir.join(RETIRED_WAL_FILE), &retired).unwrap();
        fold_retired_segment(&dir, None).unwrap();
        assert!(!dir.join(RETIRED_WAL_FILE).exists());
        assert_eq!(seqs(&read_wal(&dir).unwrap()), vec![0, 1, 2, 3, 4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_covered_retired_segment_is_deleted() {
        let dir = rotated_store("covered");
        fold_retired_segment(&dir, Some(3)).unwrap();
        assert!(!dir.join(RETIRED_WAL_FILE).exists());
        assert_eq!(seqs(&read_wal(&dir).unwrap()), vec![4, 5]);
        // No segment at all: nothing to do.
        fold_retired_segment(&dir, None).unwrap();
        assert_eq!(seqs(&read_wal(&dir).unwrap()), vec![4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_uncovered_retired_segment_is_refused() {
        let dir = rotated_store("torn-retired");
        let path = dir.join(RETIRED_WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let refused = fold_retired_segment(&dir, None).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        // Nothing was touched.
        assert!(path.exists());
        assert_eq!(seqs(&read_wal(&dir).unwrap()), vec![4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn groups_never_split_across_a_flush_boundary() {
        let dir = tmp_dir("group-atomic");
        let mut wal = Wal::create(&dir, 4).unwrap();
        wal.append_group(&records(3)).unwrap();
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 0);
        // A 6-record group crosses the threshold: the whole group flushes
        // together with the 3 already buffered.
        wal.append_group(&records(6)).unwrap();
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
