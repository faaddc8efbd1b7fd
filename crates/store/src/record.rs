//! WAL record types and the on-disk frame format.
//!
//! Every exchange transition is one [`WalRecord`], written as one frame:
//!
//! ```text
//! [magic u16 = 0x5753 ("SW")] [version u16 = 1] [kind u16] [flags u16 = 0]
//! [seq u64] [len u32] [payload: len bytes] [crc32 u32 over header+payload]
//! ```
//!
//! All integers little-endian; the header is [`HEADER_LEN`] bytes. The
//! sequence number is monotone for the life of a store directory — it
//! keeps counting across log rotations, which is how recovery skips WAL
//! frames already covered by the snapshot it loaded. [`begin_frame`] and
//! [`seal_frame`] build a frame in place, in the buffer it is written
//! from; WAL records and snapshots are framed by the same two calls.
//!
//! [`decode_frames`] is the torn-tail-tolerant reader: it stops at the
//! first frame that is short, has a bad magic/version, or fails its CRC,
//! and reports how many bytes were valid. A crash can only ever tear the
//! *final* frame (appends are sequential), so everything before the stop
//! point is trustworthy.
//!
//! Each payload's format is stated once, in a table: `wal_kinds!` maps
//! every kind to its variant and that variant's fields in wire order, and
//! `tagged!` and `fields!` do the same for [`StageTag`], [`FailTag`] and
//! [`SeedRecord`]. A new WAL field is one edit to the type and one to its
//! row; a field missing from the row does not compile.

use crate::codec::{crc32, crc32_update, DecodeError, Decoder, Encoder};

/// Frame magic: `b"SW"` on disk (0x5753 little-endian).
pub const MAGIC: u16 = 0x5753;
/// Current frame format version.
pub const VERSION: u16 = 1;
/// Frame header length in bytes (magic..len inclusive).
pub const HEADER_LEN: usize = 20;
/// Frame kind reserved for snapshot files (never appears in a WAL).
pub const SNAPSHOT_KIND: u16 = 100;

/// Pipeline stage of an in-flight epoch, as a stable wire tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageTag {
    /// On-chain verification of the committed plan.
    Clearing,
    /// Identity/key provisioning for the epoch's swaps.
    Provisioning,
    /// Swap protocol execution on the worker pool.
    Executing,
    /// Settlement and ledger absorption.
    Settling,
}

/// One party of a seeded batch submit (mirrors `swap_core`'s `PartySeed`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedRecord {
    /// MSS keypair seed.
    pub seed: [u8; 32],
    /// Merkle tree height of the party's keypair.
    pub height: u8,
    /// The party's swap secret.
    pub secret: [u8; 32],
    /// Asset kind the party gives.
    pub gives: String,
    /// Asset kind the party wants.
    pub wants: String,
}

/// Why a `step()` failed, as a stable wire tag (mirrors `ExchangeError`
/// minus its non-deterministic inner error text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailTag {
    /// Plan construction failed.
    Clear,
    /// On-chain verification of a swap failed.
    Verify {
        /// The failing swap.
        swap: u64,
    },
    /// A pool worker panicked while executing a swap.
    WorkerPanicked {
        /// The swap whose worker panicked.
        swap: u64,
    },
    /// An identity ran out of one-time keys while provisioning.
    KeysExhausted {
        /// The swap being provisioned.
        swap: u64,
        /// The exhausted identity.
        address: [u8; 32],
    },
}

/// One logged exchange transition.
///
/// Two flavors share the log. **Command** records (`SubmitOffer`,
/// `SubmitSeeded`, `Resubmit`, `Cancel`, `StageEntered`, `EpochSettled`,
/// `StepFailed`) are authoritative: recovery re-runs the operation they
/// name. **Audit** records (the rest) are emitted by the code paths those
/// operations execute; recovery regenerates them and checks they match
/// what was logged, which pins replay determinism record by record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Command: a single party submitted an offer (seed-derived identity).
    SubmitOffer {
        /// MSS keypair seed of the party.
        seed: [u8; 32],
        /// Merkle tree height of the party's keypair.
        height: u8,
        /// Leaf cursor of the party's keypair at submit time.
        next_leaf: u64,
        /// The party's swap secret.
        secret: [u8; 32],
        /// Asset kind given.
        gives: String,
        /// Asset kind wanted.
        wants: String,
    },
    /// Command: a batch of parties submitted offers via the mint pipeline.
    SubmitSeeded {
        /// The batch, in submission order.
        seeds: Vec<SeedRecord>,
    },
    /// Command: a settled/refunded party re-entered the book.
    Resubmit {
        /// Identity address of the re-submitting party.
        address: [u8; 32],
        /// Fresh swap secret.
        secret: [u8; 32],
        /// Asset kind given.
        gives: String,
        /// Asset kind wanted.
        wants: String,
    },
    /// Command: an open offer was cancelled.
    Cancel {
        /// The cancelled offer.
        offer: u64,
    },
    /// Command: `step()` moved an epoch into a stage (including admission
    /// into `Clearing`).
    StageEntered {
        /// The epoch.
        epoch: u64,
        /// The stage entered.
        stage: StageTag,
        /// Simulation time of entry.
        at: u64,
    },
    /// Command: `step()` settled an epoch.
    EpochSettled {
        /// The epoch.
        epoch: u64,
        /// Simulation time of settlement.
        at: u64,
        /// The epoch's swaps, in id order.
        swaps: Vec<u64>,
    },
    /// Command: `step()` returned an error (teardown already applied).
    StepFailed {
        /// Why, as a stable tag.
        error: FailTag,
    },
    /// Audit: the clearing service committed a plan.
    PlanCommitted {
        /// Epoch the plan opened.
        epoch: u64,
        /// Cycles (swaps) in the plan.
        cycles: u64,
        /// Offers examined while planning.
        offers_examined: u64,
        /// Offers matched into cycles.
        offers_matched: u64,
    },
    /// Audit: a swap settled (all parties got their deal).
    SwapSettled {
        /// The swap.
        swap: u64,
    },
    /// Audit: a swap was refunded.
    SwapRefunded {
        /// The swap.
        swap: u64,
        /// True if the refund was due to key exhaustion.
        exhausted: bool,
    },
    /// Audit: a new identity registered with the book.
    IdentityRegistered {
        /// The identity's address.
        address: [u8; 32],
    },
    /// Audit: the mint pipeline produced a keypair.
    IdentityMinted {
        /// Mint ticket (collection order).
        ticket: u64,
        /// Address of the minted identity.
        address: [u8; 32],
    },
    /// Audit: an identity leased one-time leaves to a swap.
    LeavesLeased {
        /// The swap leasing keys.
        swap: u64,
        /// The leasing identity.
        address: [u8; 32],
        /// Number of leaves leased.
        count: u64,
    },
}

/// A value with a place in a WAL payload: how it is written and read back.
trait Field: Sized {
    fn put(&self, e: &mut Encoder);
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Implements [`Field`] for a type the codec writes and reads in one call.
macro_rules! primitive {
    ($($ty:ty: |$e:ident, $v:ident| $put:expr, $get:ident;)+) => {$(
        impl Field for $ty {
            fn put(&self, $e: &mut Encoder) {
                let $v = self;
                $put;
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                d.$get()
            }
        }
    )+};
}

primitive! {
    u8: |e, v| e.put_u8(*v), u8;
    bool: |e, v| e.put_bool(*v), bool;
    u64: |e, v| e.put_u64(*v), u64;
    [u8; 32]: |e, v| e.put_bytes32(v), bytes32;
    String: |e, v| e.put_str(v), str;
}

/// A vector travels as its length, then its items.
impl<T: Field> Field for Vec<T> {
    fn put(&self, e: &mut Encoder) {
        e.put_len(self.len());
        self.iter().for_each(|item| item.put(e));
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        (0..d.len_prefix()?).map(|_| T::get(d)).collect()
    }
}

/// Implements [`Field`] for a struct from its one field list, in wire
/// order. `put` destructures without `..`, so a field the struct gains and
/// the list lacks does not compile.
macro_rules! fields {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Field for $ty {
            fn put(&self, e: &mut Encoder) {
                let $ty { $($field),+ } = self;
                $(Field::put($field, e);)+
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Ok($ty { $($field: Field::get(d)?),+ })
            }
        }
    };
}

fields!(SeedRecord { seed, height, secret, gives, wants });

/// Implements [`Field`] for an enum from its one `tag => Variant { fields }`
/// table: a `u8` tag, then the fields in list order. A variant or field
/// missing from the table does not compile; `get` refuses other tags.
macro_rules! tagged {
    ($ty:ident { $($tag:literal => $variant:ident $({ $($field:ident),+ })?),+ $(,)? }) => {
        impl Field for $ty {
            fn put(&self, e: &mut Encoder) {
                match self {
                    $($ty::$variant $({ $($field),+ })? => {
                        e.put_u8($tag);
                        $($(Field::put($field, e);)+)?
                    })+
                }
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                match d.u8()? {
                    $($tag => Ok($ty::$variant $({ $($field: Field::get(d)?),+ })?),)+
                    tag => Err(DecodeError::BadTag(tag)),
                }
            }
        }
    };
}

tagged!(StageTag { 0 => Clearing, 1 => Provisioning, 2 => Executing, 3 => Settling });

tagged!(FailTag {
    0 => Clear,
    1 => Verify { swap },
    2 => WorkerPanicked { swap },
    3 => KeysExhausted { swap, address },
});

/// Implements the WAL codec of [`WalRecord`] from its one
/// `kind => Variant { fields }` table: the kind goes in the frame header,
/// the fields in list order make the payload. As with `tagged!`, a variant
/// or field missing from the table does not compile.
macro_rules! wal_kinds {
    ($($kind:literal => $variant:ident { $($field:ident),+ }),+ $(,)?) => {
        impl WalRecord {
            /// Stable wire kind of this record (goes in the frame header).
            pub fn kind(&self) -> u16 {
                match self {
                    $(WalRecord::$variant { .. } => $kind,)+
                }
            }

            /// True for records recovery re-runs (as opposed to audits it checks).
            pub fn is_command(&self) -> bool {
                self.kind() <= 7
            }

            /// Appends the payload to `e`: what [`Wal::append_group`] writes
            /// between [`begin_frame`] and [`seal_frame`].
            ///
            /// [`Wal::append_group`]: crate::Wal::append_group
            pub fn put_payload(&self, e: &mut Encoder) {
                match self {
                    $(WalRecord::$variant { $($field),+ } => {
                        $(Field::put($field, e);)+
                    })+
                }
            }

            /// Decodes a payload of the given `kind`; inverse of
            /// [`WalRecord::put_payload`].
            ///
            /// # Errors
            ///
            /// Any [`DecodeError`] for an unknown kind or a malformed or
            /// trailing-byte payload.
            pub fn decode_payload(kind: u16, payload: &[u8]) -> Result<Self, DecodeError> {
                let mut d = Decoder::new(payload);
                let record = match kind {
                    $($kind => WalRecord::$variant { $($field: Field::get(&mut d)?),+ },)+
                    unknown => return Err(DecodeError::BadKind(unknown)),
                };
                d.finish()?;
                Ok(record)
            }
        }
    };
}

wal_kinds! {
    1 => SubmitOffer { seed, height, next_leaf, secret, gives, wants },
    2 => SubmitSeeded { seeds },
    3 => Resubmit { address, secret, gives, wants },
    4 => Cancel { offer },
    5 => StageEntered { epoch, stage, at },
    6 => EpochSettled { epoch, at, swaps },
    7 => StepFailed { error },
    8 => PlanCommitted { epoch, cycles, offers_examined, offers_matched },
    9 => SwapSettled { swap },
    10 => SwapRefunded { swap, exhausted },
    11 => IdentityRegistered { address },
    12 => IdentityMinted { ticket, address },
    13 => LeavesLeased { swap, address, count },
}

/// Opens a frame at the end of `e`: writes its header with the payload
/// length still zero and returns the offset the frame starts at. The
/// caller encodes the payload into `e` next and closes the frame with
/// [`seal_frame`] — so a frame is built where it will be written from,
/// never in a buffer of its own and copied. The WAL frames each record
/// of a group this way, and a snapshot is one such frame.
pub fn begin_frame(e: &mut Encoder, kind: u16, seq: u64) -> usize {
    let start = e.len();
    e.put_u16(MAGIC);
    e.put_u16(VERSION);
    e.put_u16(kind);
    e.put_u16(0); // flags, reserved
    e.put_u64(seq);
    e.put_u32(0); // payload length, set by `seal_frame`
    start
}

/// Closes the frame [`begin_frame`] opened at `start`: everything encoded
/// since is its payload. Fills in the payload length and appends the CRC,
/// taken over the header and payload where they lie in `e`.
pub fn seal_frame(e: &mut Encoder, start: usize) {
    seal_frame_in_slices(e, start, usize::MAX, || {});
}

/// [`seal_frame`], with the CRC taken `slice` bytes at a time and
/// `between` called after each slice: how the snapshot writer keeps its
/// checksum from holding a core.
pub(crate) fn seal_frame_in_slices(
    e: &mut Encoder,
    start: usize,
    slice: usize,
    mut between: impl FnMut(),
) {
    let len = (e.len() - start - HEADER_LEN) as u32;
    e.buf[start + HEADER_LEN - 4..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let mut crc = 0;
    for piece in e.buf[start..].chunks(slice) {
        crc = crc32_update(crc, piece);
        between();
    }
    e.put_u32(crc);
}

/// One decoded frame before payload interpretation.
struct RawFrame {
    /// Record kind from the header.
    kind: u16,
    /// Sequence number from the header.
    seq: u64,
    /// Checksummed payload bytes.
    payload: Vec<u8>,
    /// Byte offset one past this frame's CRC (= prefix length that
    /// includes this frame).
    end: usize,
}

/// Reads one frame at `bytes[pos..]`. `Ok(None)` means the input ends
/// cleanly or tears here (short header, short payload, bad magic, bad
/// CRC); `Err` is reserved for a *future*-versioned frame with a valid
/// checksum, which must stop recovery loudly rather than silently.
fn decode_raw_frame(bytes: &[u8], pos: usize) -> Result<Option<RawFrame>, DecodeError> {
    let rest = &bytes[pos..];
    if rest.len() < HEADER_LEN + 4 {
        return Ok(None);
    }
    let mut d = Decoder::new(rest);
    let magic = d.u16().expect("header length checked");
    if magic != MAGIC {
        return Ok(None);
    }
    let version = d.u16().expect("header length checked");
    let kind = d.u16().expect("header length checked");
    let _flags = d.u16().expect("header length checked");
    let seq = d.u64().expect("header length checked");
    let len = d.u32().expect("header length checked") as usize;
    if rest.len() < HEADER_LEN + len + 4 {
        return Ok(None);
    }
    let framed = &rest[..HEADER_LEN + len];
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&rest[HEADER_LEN + len..HEADER_LEN + len + 4]);
    if crc32(framed) != u32::from_le_bytes(crc_bytes) {
        return Ok(None);
    }
    // Checksum is valid, so this is a real frame, not a torn tail: an
    // unsupported version is a hard error.
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    Ok(Some(RawFrame {
        kind,
        seq,
        payload: framed[HEADER_LEN..].to_vec(),
        end: pos + HEADER_LEN + len + 4,
    }))
}

/// One decoded WAL record plus its frame position.
#[derive(Debug, Clone, PartialEq)]
pub struct Framed {
    /// Sequence number.
    pub seq: u64,
    /// The record.
    pub record: WalRecord,
    /// Byte offset one past this record's frame — truncating the log to
    /// `end` keeps this record and drops everything after it.
    pub end: usize,
}

/// Result of scanning a WAL byte string.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameScan {
    /// All complete, checksum-valid records, in log order.
    pub frames: Vec<Framed>,
    /// Length of the valid prefix (equals `frames.last().end` or 0).
    pub valid_len: usize,
    /// True if bytes followed the valid prefix (a torn final record).
    pub torn: bool,
}

/// Scans WAL bytes into records, stopping at the first torn or invalid
/// frame.
///
/// # Errors
///
/// Only for a checksum-valid frame this build cannot interpret (future
/// format version, unknown kind, malformed payload) — real corruption
/// that truncation must not paper over.
pub fn decode_frames(bytes: &[u8]) -> Result<FrameScan, DecodeError> {
    let mut frames = Vec::new();
    let mut pos = 0;
    while let Some(raw) = decode_raw_frame(bytes, pos)? {
        let record = WalRecord::decode_payload(raw.kind, &raw.payload)?;
        pos = raw.end;
        frames.push(Framed { seq: raw.seq, record, end: raw.end });
    }
    Ok(FrameScan { frames, valid_len: pos, torn: pos != bytes.len() })
}

/// Reads the single snapshot frame (kind [`SNAPSHOT_KIND`]) a snapshot
/// file holds and returns `(seq, payload)`.
///
/// # Errors
///
/// Unlike the WAL, a snapshot file is written temp-then-rename and must
/// be complete: any tear, checksum failure, or wrong kind is an error.
pub fn decode_snapshot_frame(bytes: &[u8]) -> Result<(u64, Vec<u8>), DecodeError> {
    let raw = decode_raw_frame(bytes, 0)?.ok_or(DecodeError::BadChecksum)?;
    if raw.kind != SNAPSHOT_KIND {
        return Err(DecodeError::BadKind(raw.kind));
    }
    if raw.end != bytes.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok((raw.seq, raw.payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The framing [`begin_frame`] and [`seal_frame`] replaced, kept as
    /// their reference: the payload in a buffer of its own, copied behind
    /// a header, the CRC over the copy.
    fn reference_frame(kind: u16, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u16(MAGIC);
        e.put_u16(VERSION);
        e.put_u16(kind);
        e.put_u16(0);
        e.put_u64(seq);
        e.put_u32(payload.len() as u32);
        e.put_raw(payload);
        let mut bytes = e.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    fn payload(record: &WalRecord) -> Vec<u8> {
        let mut e = Encoder::new();
        record.put_payload(&mut e);
        e.into_bytes()
    }

    fn encode_frame(seq: u64, record: &WalRecord) -> Vec<u8> {
        reference_frame(record.kind(), seq, &payload(record))
    }

    #[test]
    fn in_place_frames_equal_the_reference_framing() {
        // Frames laid end to end in one buffer, as a WAL group is, after a
        // prefix so no frame starts at offset 0.
        let mut e = Encoder::new();
        e.put_raw(b"prefix");
        let mut expected = b"prefix".to_vec();
        for (i, rec) in sample_records().iter().enumerate() {
            let start = begin_frame(&mut e, rec.kind(), 40 + i as u64);
            rec.put_payload(&mut e);
            seal_frame(&mut e, start);
            expected.extend_from_slice(&encode_frame(40 + i as u64, rec));
        }
        assert_eq!(e.as_bytes(), expected.as_slice());
        // An empty payload, as a snapshot kind.
        let mut e = Encoder::new();
        let start = begin_frame(&mut e, SNAPSHOT_KIND, 9);
        seal_frame(&mut e, start);
        assert_eq!(e.into_bytes(), reference_frame(SNAPSHOT_KIND, 9, &[]));
    }

    pub(crate) fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::SubmitOffer {
                seed: [1; 32],
                height: 4,
                next_leaf: 3,
                secret: [2; 32],
                gives: "gold".into(),
                wants: "silver".into(),
            },
            WalRecord::SubmitSeeded {
                seeds: vec![
                    SeedRecord {
                        seed: [3; 32],
                        height: 2,
                        secret: [4; 32],
                        gives: "a".into(),
                        wants: "b".into(),
                    },
                    SeedRecord {
                        seed: [5; 32],
                        height: 5,
                        secret: [6; 32],
                        gives: "b".into(),
                        wants: "a".into(),
                    },
                ],
            },
            WalRecord::Resubmit {
                address: [7; 32],
                secret: [8; 32],
                gives: "x".into(),
                wants: "y".into(),
            },
            WalRecord::Cancel { offer: 42 },
            WalRecord::StageEntered { epoch: 3, stage: StageTag::Provisioning, at: 17 },
            WalRecord::EpochSettled { epoch: 3, at: 29, swaps: vec![5, 6, 7] },
            WalRecord::StepFailed { error: FailTag::KeysExhausted { swap: 9, address: [9; 32] } },
            WalRecord::PlanCommitted {
                epoch: 4,
                cycles: 2,
                offers_examined: 10,
                offers_matched: 5,
            },
            WalRecord::SwapSettled { swap: 11 },
            WalRecord::SwapRefunded { swap: 12, exhausted: true },
            WalRecord::IdentityRegistered { address: [10; 32] },
            WalRecord::IdentityMinted { ticket: 6, address: [11; 32] },
            WalRecord::LeavesLeased { swap: 13, address: [12; 32], count: 4 },
        ]
    }

    /// Every record kind of [`sample_records`], then one `StepFailed` per
    /// [`FailTag`] variant and one `StageEntered` per [`StageTag`] variant.
    fn known_answer_records() -> Vec<WalRecord> {
        let mut records = sample_records();
        records.extend(
            [
                FailTag::Clear,
                FailTag::Verify { swap: 21 },
                FailTag::WorkerPanicked { swap: 22 },
                FailTag::KeysExhausted { swap: 23, address: [13; 32] },
            ]
            .map(|error| WalRecord::StepFailed { error }),
        );
        records.extend(
            [StageTag::Clearing, StageTag::Provisioning, StageTag::Executing, StageTag::Settling]
                .map(|stage| WalRecord::StageEntered { epoch: 1, stage, at: 2 }),
        );
        records
    }

    /// `(kind, payload hex)` of each of [`known_answer_records`], as the
    /// hand-written codec wrote them: the WAL format any store on disk holds.
    const KNOWN_ANSWERS: [(u16, &str); 21] = [
        (
            1,
            concat!(
                "0101010101010101010101010101010101010101010101010101010101010101",
                "0403000000000000000202020202020202020202020202020202020202020202",
                "0202020202020202020400000000000000676f6c64060000000000000073696c",
                "766572",
            ),
        ),
        (
            2,
            concat!(
                "0200000000000000030303030303030303030303030303030303030303030303",
                "0303030303030303020404040404040404040404040404040404040404040404",
                "0404040404040404040100000000000000610100000000000000620505050505",
                "0505050505050505050505050505050505050505050505050505050506060606",
                "0606060606060606060606060606060606060606060606060606060601000000",
                "0000000062010000000000000061",
            ),
        ),
        (
            3,
            concat!(
                "0707070707070707070707070707070707070707070707070707070707070707",
                "0808080808080808080808080808080808080808080808080808080808080808",
                "010000000000000078010000000000000079",
            ),
        ),
        (4, "2a00000000000000"),
        (5, "0300000000000000011100000000000000"),
        (
            6,
            concat!(
                "03000000000000001d0000000000000003000000000000000500000000000000",
                "06000000000000000700000000000000",
            ),
        ),
        (
            7,
            concat!(
                "0309000000000000000909090909090909090909090909090909090909090909",
                "090909090909090909",
            ),
        ),
        (8, "040000000000000002000000000000000a000000000000000500000000000000"),
        (9, "0b00000000000000"),
        (10, "0c0000000000000001"),
        (11, "0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a"),
        (
            12,
            concat!(
                "06000000000000000b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
                "0b0b0b0b0b0b0b0b",
            ),
        ),
        (
            13,
            concat!(
                "0d000000000000000c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c",
                "0c0c0c0c0c0c0c0c0400000000000000",
            ),
        ),
        (7, "00"),
        (7, "011500000000000000"),
        (7, "021600000000000000"),
        (
            7,
            concat!(
                "0317000000000000000d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d",
                "0d0d0d0d0d0d0d0d0d",
            ),
        ),
        (5, "0100000000000000000200000000000000"),
        (5, "0100000000000000010200000000000000"),
        (5, "0100000000000000020200000000000000"),
        (5, "0100000000000000030200000000000000"),
    ];

    #[test]
    fn payload_bytes_match_the_known_answers() {
        let records = known_answer_records();
        assert_eq!(records.len(), KNOWN_ANSWERS.len());
        for (rec, &(kind, hex)) in records.iter().zip(&KNOWN_ANSWERS) {
            let mut e = Encoder::new();
            rec.put_payload(&mut e);
            let got: String = e.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!((rec.kind(), got.as_str()), (kind, hex), "{rec:?}");
        }
    }

    #[test]
    fn every_record_kind_round_trips() {
        for (i, rec) in sample_records().into_iter().enumerate() {
            let bytes = payload(&rec);
            let back = WalRecord::decode_payload(rec.kind(), &bytes)
                .unwrap_or_else(|e| panic!("record {i} failed to decode: {e}"));
            assert_eq!(back, rec, "record {i} changed across round trip");
            // Encode → decode → encode is byte-identical.
            assert_eq!(payload(&back), bytes, "record {i} re-encode differs");
        }
    }

    #[test]
    fn kinds_are_unique_and_stable() {
        let kinds: Vec<u16> = sample_records().iter().map(WalRecord::kind).collect();
        assert_eq!(kinds, (1..=13).collect::<Vec<u16>>());
        let commands = sample_records().iter().filter(|r| r.is_command()).count();
        assert_eq!(commands, 7);
    }

    #[test]
    fn frame_stream_round_trips() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64, rec));
        }
        let scan = decode_frames(&bytes).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.frames.len(), records.len());
        for (i, f) in scan.frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.record, records[i]);
        }
        // `end` offsets partition the byte string exactly.
        assert_eq!(scan.frames.last().unwrap().end, bytes.len());
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_cut() {
        let records = sample_records();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, rec) in records.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64, rec));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let scan = decode_frames(&bytes[..cut]).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.frames.len(), whole, "cut at {cut}");
            assert_eq!(scan.valid_len, boundaries[whole], "cut at {cut}");
            assert_eq!(scan.torn, cut != boundaries[whole], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64, rec));
        }
        let first_end = decode_frames(&bytes).unwrap().frames[0].end;
        // Flip one payload byte of the second frame: its CRC now fails, so
        // the scan keeps frame 0 and reports the rest as a torn tail.
        bytes[first_end + HEADER_LEN] ^= 0xFF;
        let scan = decode_frames(&bytes).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, first_end);
        assert!(scan.torn);
    }

    #[test]
    fn future_version_is_a_hard_error() {
        let rec = WalRecord::Cancel { offer: 1 };
        let payload = payload(&rec);
        let mut e = Encoder::new();
        e.put_u16(MAGIC);
        e.put_u16(VERSION + 1);
        e.put_u16(rec.kind());
        e.put_u16(0);
        e.put_u64(0);
        e.put_u32(payload.len() as u32);
        e.put_raw(&payload);
        let mut bytes = e.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frames(&bytes), Err(DecodeError::BadVersion(VERSION + 1)));
    }

    #[test]
    fn snapshot_frame_round_trips_and_rejects_tears() {
        let payload = b"snapshot payload".to_vec();
        let bytes = reference_frame(SNAPSHOT_KIND, 77, &payload);
        assert_eq!(decode_snapshot_frame(&bytes).unwrap(), (77, payload.clone()));
        // A torn snapshot is an error, never silently accepted.
        assert!(decode_snapshot_frame(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_snapshot_frame(&extra).is_err());
        // Wrong kind (a WAL record) is rejected too.
        let wal = encode_frame(0, &WalRecord::Cancel { offer: 1 });
        assert!(decode_snapshot_frame(&wal).is_err());
    }
}
