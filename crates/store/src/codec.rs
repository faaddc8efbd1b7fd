//! Primitive binary codec: little-endian integers, length-prefixed
//! strings, 32-byte arrays, and the CRC32 used to checksum every frame.
//!
//! [`Encoder`] appends to an owned buffer; [`Decoder`] walks a borrowed
//! slice with a cursor and returns typed [`DecodeError`]s instead of
//! panicking, so a truncated or corrupt log surfaces as data, not as a
//! crash during recovery.

use std::fmt;

/// Everything that can go wrong while decoding a record or snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value being read was complete.
    UnexpectedEnd,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A frame's CRC32 did not match its header + payload bytes.
    BadChecksum,
    /// A frame did not start with the `b"SW"` magic.
    BadMagic,
    /// A frame's format version is newer than this decoder understands.
    BadVersion(u16),
    /// A record kind code had no corresponding record type.
    BadKind(u16),
    /// A string's bytes were not valid UTF-8.
    BadUtf8,
    /// A length prefix was implausibly large for the remaining input.
    BadLength(u64),
    /// Decoding finished with unconsumed bytes left over.
    TrailingBytes,
    /// Every field decoded, but together they break a condition the
    /// decoded type must hold (named by the message).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "input ended mid-value"),
            DecodeError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            DecodeError::BadChecksum => write!(f, "frame checksum mismatch"),
            DecodeError::BadMagic => write!(f, "bad frame magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown record kind {k}"),
            DecodeError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            DecodeError::BadLength(n) => write!(f, "length prefix {n} exceeds remaining input"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after value"),
            DecodeError::Invalid(why) => write!(f, "inconsistent value: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends primitive values to a byte buffer in the store's wire format.
///
/// The buffer outlives what is encoded into it: [`Encoder::clear`] keeps
/// its capacity, so the WAL's group buffer and the snapshot frame are each
/// one allocation that is reused, not rebuilt.
#[derive(Debug, Default)]
pub struct Encoder {
    /// Crate-visible so [`crate::record`] can patch a frame header in place.
    pub(crate) buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drops everything encoded so far, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Number of bytes encoded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u16` little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a fixed 32-byte array verbatim (no length prefix).
    #[inline]
    pub fn put_bytes32(&mut self, v: &[u8; 32]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes verbatim (no length prefix).
    #[inline]
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u64` length prefix followed by the string's UTF-8 bytes.
    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a `u64` element count; the caller then encodes each element.
    #[inline]
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Appends `Some`/`None` as a bool tag; the caller encodes the payload
    /// after a `true` tag.
    #[inline]
    pub fn put_option_tag(&mut self, some: bool) {
        self.put_bool(some);
    }
}

/// Cursor over a byte slice reading values back in the store's wire format.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf` with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns [`DecodeError::TrailingBytes`] unless the input is exhausted.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a fixed 32-byte array.
    pub fn bytes32(&mut self) -> Result<[u8; 32], DecodeError> {
        let b = self.take(32)?;
        let mut a = [0u8; 32];
        a.copy_from_slice(b);
        Ok(a)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len_prefix()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a `u64` element count, validated against the remaining input
    /// (each element needs at least one byte, so a count larger than the
    /// remaining byte count is corrupt, not merely ambitious).
    pub fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(DecodeError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Reads an `Option` tag written by [`Encoder::put_option_tag`].
    pub fn option_tag(&mut self) -> Result<bool, DecodeError> {
        self.bool()
    }
}

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables for [`POLY`]: `[0]` is the classic byte-at-a-time
/// table, and `[k][b]` is the CRC of byte `b` followed by `k` zero bytes —
/// so eight input bytes fold in with eight independent lookups instead of
/// eight dependent ones.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// `a · b` modulo [`POLY`], both polynomials in the reflected bit order
/// (the top bit is `x^0`).
const fn mul_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// `[k]` is `x^(2^k)` modulo [`POLY`].
const fn x_pow_2k_table() -> [u32; 64] {
    let mut table = [0u32; 64];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 64 {
        table[k] = p;
        p = mul_mod_poly(p, p);
        k += 1;
    }
    table
}

static X_POW_2K: [u32; 64] = x_pow_2k_table();

/// `x^(8·len)` modulo [`POLY`]: multiplying a CRC by it appends `len` zero
/// bytes to what the CRC covers.
fn shift_by_bytes(len: usize) -> u32 {
    let mut bits = (len as u64) << 3;
    let mut p = 1u32 << 31; // x^0
    let mut k = 0;
    while bits != 0 {
        if bits & 1 != 0 {
            p = mul_mod_poly(X_POW_2K[k], p);
        }
        bits >>= 1;
        k += 1;
    }
    p
}

/// One slicing-by-8 step: folds eight bytes into the running register.
#[inline(always)]
fn fold8(c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let lo = c ^ u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][(lo >> 8 & 0xFF) as usize]
        ^ t[5][(lo >> 16 & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][bytes[4] as usize]
        ^ t[2][bytes[5] as usize]
        ^ t[1][bytes[6] as usize]
        ^ t[0][bytes[7] as usize]
}

/// Independent lanes a long input is checksummed in: each step's lookups
/// wait on the step before, so one lane leaves the core idle between
/// them, and four interleaved lanes fill those gaps.
const LANES: usize = 4;

/// Below this many bytes per lane, one lane is faster than splitting.
const MIN_LANE: usize = 256;

/// CRC32 (IEEE 802.3 polynomial, the `cksum`/zlib variant) of `data`.
/// Half of every snapshot write and load is this function: long inputs go
/// through four interleaved slicing-by-8 lanes, joined by polynomial
/// arithmetic (3× the single-lane speed on a 4.3 MB snapshot).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends `crc`, the [`crc32`] of some bytes, to the CRC32 of those bytes
/// followed by `data` — so a large buffer can be checksummed a slice at a
/// time.
pub(crate) fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let lane = data.len() / (LANES * 8) * 8;
    if lane < MIN_LANE {
        return crc32_serial(crc, data);
    }
    let mut regs = [!0u32; LANES];
    regs[0] = !crc;
    for i in (0..lane).step_by(8) {
        for (l, reg) in regs.iter_mut().enumerate() {
            *reg = fold8(*reg, &data[l * lane + i..l * lane + i + 8]);
        }
    }
    // Lane `l` continues the bytes before it: shift what they sum to past
    // the lane's length, then add the lane's own CRC.
    let shift = shift_by_bytes(lane);
    let joined = regs[1..].iter().fold(!regs[0], |acc, reg| mul_mod_poly(shift, acc) ^ !reg);
    crc32_serial(joined, &data[LANES * lane..])
}

/// [`crc32_update`] in one lane, eight bytes per step, with a
/// byte-at-a-time tail.
fn crc32_serial(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        c = fold8(c, chunk);
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced, kept as its reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        /// Slicing-by-8 equals the bytewise loop at random lengths
        /// 0..=4100, with the 8-byte window starting at each of the eight
        /// offsets into the buffer and ending at each of eight tails.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4101),
        ) {
            for start in 0..8.min(data.len() + 1) {
                let window = &data[start..];
                for cut in 0..8.min(window.len() + 1) {
                    let slice = &window[..window.len() - cut];
                    proptest::prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
                }
            }
        }

        /// Checksumming in two pieces, split anywhere, is checksumming the
        /// whole.
        #[test]
        fn crc32_update_continues_a_checksum(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            split in 0usize..301,
        ) {
            let split = split.min(data.len());
            let (head, tail) = data.split_at(split);
            proptest::prop_assert_eq!(crc32_update(crc32(head), tail), crc32(&data));
        }
    }

    #[test]
    fn long_inputs_split_into_lanes_match_the_bytewise_reference() {
        // Lengths around the lane threshold and a snapshot-sized one, each
        // also continued from a nonzero CRC.
        let data: Vec<u8> =
            (0..300_007u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect();
        let threshold = LANES * MIN_LANE;
        for len in [threshold - 1, threshold, threshold + 7, threshold + 8, 65_536, data.len()] {
            let slice = &data[..len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "length {len}");
            let (head, tail) = slice.split_at(len / 3);
            assert_eq!(crc32_update(crc32(head), tail), crc32_bytewise(slice), "length {len}");
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_bool(true);
        e.put_bool(false);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 7);
        e.put_bytes32(&[9u8; 32]);
        e.put_str("hashkey ☃");
        e.put_len(3);
        let bytes = e.into_bytes();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 7);
        assert_eq!(d.bytes32().unwrap(), [9u8; 32]);
        assert_eq!(d.str().unwrap(), "hashkey ☃");
        assert_eq!(d.u64().unwrap(), 3);
        d.finish().unwrap();
    }

    #[test]
    fn short_input_is_unexpected_end_not_panic() {
        let mut d = Decoder::new(&[1, 2, 3]);
        assert_eq!(d.u64(), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn bogus_length_prefix_is_rejected() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX); // absurd string length
        e.put_raw(b"abc");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.str(), Err(DecodeError::BadLength(u64::MAX)));
    }

    #[test]
    fn bad_bool_tag_is_rejected() {
        let mut d = Decoder::new(&[7]);
        assert_eq!(d.bool(), Err(DecodeError::BadTag(7)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        d.u8().unwrap();
        assert_eq!(d.finish(), Err(DecodeError::TrailingBytes));
    }
}
