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
//! * [`snapshot`] — snapshot *files* that truncate the log: one
//!   checksummed frame of opaque payload bytes, written temp-then-rename
//!   (atomic on POSIX), loaded newest-first.
//!
//! The store deliberately depends on **nothing**, so the durability
//! format cannot create dependency cycles and is testable in isolation.
//! A snapshot payload is opaque bytes here: the one module that knows its
//! layout is `swap-core`'s `durability`, which writes the exchange's live
//! state with this crate's [`Encoder`] and reads it back into validated
//! domain values with [`Decoder`]. The only typed records are the WAL's —
//! [`record::WalRecord`] with [`SeedRecord`], [`FailTag`], [`StageTag`],
//! holding raw 32-byte arrays, strings and `u8` tags — because a logged
//! command has no domain type to reuse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod json;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use codec::{crc32, DecodeError, Decoder, Encoder};
pub use record::{
    decode_frames, encode_frame, FailTag, FrameScan, Framed, SeedRecord, StageTag, WalRecord,
};
pub use snapshot::{load_latest_snapshot, write_snapshot};
pub use wal::{read_wal, Wal, WAL_FILE};
