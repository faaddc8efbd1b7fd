//! Durability for the exchange pipeline: a dependency-free record codec,
//! an append-only write-ahead log (WAL), and whole-state snapshots.
//!
//! The workspace builds offline against a no-op `serde` stub (see
//! `vendor/README.md`), so everything here is hand-rolled. Beside the
//! store sits [`json`], the reader `benchmark/` parses `BENCHMARK.json`
//! and its own result lines with; it shares [`DecodeError`] with the codec
//! and nothing else.
//!
//! Three layers:
//!
//! * [`codec`] — primitive binary encoding: little-endian integers,
//!   length-prefixed strings and vectors, and the CRC32 every framed
//!   record is checksummed with.
//! * [`record`] + [`wal`] — the WAL: every exchange transition (offer
//!   submit/cancel, plan commit, stage transitions, settle/refund,
//!   identity mint/lease) as a versioned, length-prefixed, checksummed
//!   [`record::WalRecord`] frame, appended through a group-commit buffer
//!   ([`wal::Wal`]) and read back tolerating a torn final record
//!   ([`wal::read_wal`]).
//! * [`snapshot`] — snapshot *files*: one checksummed frame of opaque
//!   payload bytes, written temp-then-rename (atomic on POSIX) by a
//!   [`SnapshotWriter`] thread after the driver rotated the log
//!   ([`Wal::rotate`]), loaded newest-first.
//!
//! The store deliberately depends on **nothing**, so the durability
//! format cannot create dependency cycles and is testable in isolation.
//! A snapshot payload is opaque bytes here: the one module that knows its
//! layout is `swap-core`'s `durability`, which writes the exchange's live
//! state with this crate's [`Encoder`] and reads it back into validated
//! domain values with [`Decoder`]. The only typed records are the WAL's —
//! [`record::WalRecord`] with [`SeedRecord`], [`FailTag`], [`StageTag`],
//! holding raw 32-byte arrays, strings and `u8` tags — because a logged
//! command has no domain type to reuse. Their wire format is one table
//! row per kind in [`record`]: a new WAL field is an edit to the type and
//! to its row, and a field missing from the row does not compile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod json;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use codec::{crc32, DecodeError, Decoder, Encoder};
pub use record::{
    begin_frame, decode_frames, seal_frame, FailTag, FrameScan, Framed, SeedRecord, StageTag,
    WalRecord, SNAPSHOT_KIND,
};
pub use snapshot::{
    install_snapshot, load_latest_snapshot, remove_older_snapshots, write_snapshot_temp,
    SnapshotWriter,
};
pub use wal::{
    fold_retired_segment, read_wal, remove_retired_segment, Wal, RETIRED_WAL_FILE, WAL_FILE,
};

/// True for every file name the store writes into its directory: the live
/// log, the retired segment, a fold's temp file, snapshots and their temp
/// files.
pub fn is_store_file(name: &str) -> bool {
    wal::is_log_file(name) || snapshot::is_snapshot_file(name)
}
