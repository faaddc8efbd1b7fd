//! Snapshot *files*: one checksummed frame of opaque payload bytes.
//!
//! What a snapshot holds is the exchange's business — `swap-core`'s
//! `durability` module encodes the live state straight to the payload and
//! decodes it back; this module never looks inside. It owns the file
//! protocol only: a snapshot is a single [`crate::record::SNAPSHOT_KIND`]
//! frame in a file named `snap-<seq>.snap`, written temp-then-rename so a
//! crash can never leave a half-written file under the real name. `<seq>`
//! is the zero-padded sequence number of the last WAL record the snapshot
//! covers, and is also the frame's sequence number;
//! [`load_latest_snapshot`] picks the highest and hands back the
//! CRC-checked `(seq, payload)`.

use std::io;
use std::path::{Path, PathBuf};

use crate::record::{decode_snapshot_frame, encode_frame_raw, SNAPSHOT_KIND};

fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:020}.snap")
}

/// Writes `payload` to `dir` durably as the snapshot covering the WAL
/// through `last_seq`: temp file, sync, atomic rename, then deletes older
/// snapshot files (newest-first recovery never needs them). Returns the
/// snapshot's final path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_snapshot(dir: &Path, last_seq: u64, payload: &[u8]) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let bytes = encode_frame_raw(SNAPSHOT_KIND, last_seq, payload);
    let tmp = dir.join(format!("{}.tmp", snapshot_name(last_seq)));
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    let path = dir.join(snapshot_name(last_seq));
    std::fs::rename(&tmp, &path)?;
    // Older snapshots are redundant once the rename lands; delete them
    // last so a crash anywhere in this function leaves a loadable store.
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let is_old_snap = name.starts_with("snap-")
            && (name.ends_with(".snap") || name.ends_with(".tmp"))
            && *name != *path.file_name().unwrap_or_default().to_string_lossy();
        if is_old_snap {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(path)
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
            if newest.as_ref().map_or(true, |n| {
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

    /// Opaque payload bytes: this layer never interprets them.
    fn payload(seq: u64) -> Vec<u8> {
        (0..200u64).map(|i| (seq * 31 + i) as u8).collect()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swap-store-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_load_latest() {
        let dir = tmp_dir("write-load");
        assert!(load_latest_snapshot(&dir).unwrap().is_none());
        write_snapshot(&dir, 10, &payload(10)).unwrap();
        write_snapshot(&dir, 25, &payload(25)).unwrap();
        let loaded = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded, (25, payload(25)));
        // The older snapshot was cleaned up by the newer write.
        let snaps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".snap"))
            .collect();
        assert_eq!(snaps, vec![snapshot_name(25)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_ignored_and_cleaned() {
        let dir = tmp_dir("tmp-left");
        write_snapshot(&dir, 5, &payload(5)).unwrap();
        // Simulate a crash between temp-write and rename of a later snap.
        std::fs::write(dir.join("snap-00000000000000000009.snap.tmp"), b"half").unwrap();
        let loaded = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded.0, 5);
        write_snapshot(&dir, 12, &payload(12)).unwrap();
        assert!(!dir.join("snap-00000000000000000009.snap.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_is_a_loud_error() {
        let dir = tmp_dir("corrupt");
        write_snapshot(&dir, 5, &payload(5)).unwrap();
        let mut bytes = std::fs::read(dir.join(snapshot_name(5))).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(dir.join(snapshot_name(5)), &bytes).unwrap();
        assert!(load_latest_snapshot(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
