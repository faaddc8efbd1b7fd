//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The sanctioned dependency list has no hashing crate, and the whole swap
//! protocol rests on hashlocks, so the primitive lives here with the NIST
//! example vectors as tests. Every hash in the workspace goes through one
//! of two compression entry points, each picking its kernel at run time
//! from what the CPU reports (no Cargo feature, environment variable or
//! config field chooses).
//!
//! * `compress_block` takes one block: on the x86-64 SHA extensions where
//!   present, and everywhere else the scalar rounds, unrolled with
//!   rotating register roles, which are also the reference the tests
//!   compare every other kernel against. Streaming hashes and Merkle
//!   nodes run on it.
//! * The crate-private `compress_x16` takes sixteen independent blocks,
//!   word-major (one array per word, one lane per block), each into its
//!   own state. On AVX-512F it runs the scalar rounds over sixteen 32-bit
//!   lanes at once. Without it, the sixteen lanes go through eight calls
//!   of the crate-private `compress_pair`, which interleaves two blocks'
//!   rounds on the SHA extensions (so neither waits out the other's
//!   instruction latency) and runs them one after the other elsewhere.
//!   Every Winternitz walk (keygen, signing, verification) and the HMAC
//!   derives of its chain heads run on it.
//!
//! Fixed input shapes skip buffering: a message that shares one block with
//! its padding (an HMAC derive, a Winternitz chain step) is finished in
//! place by the crate-private `finish_block`, and two digests side by side
//! get the double-compression entry point [`sha256_pair`].

use std::fmt;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

use serde::{Deserialize, Serialize};

/// A 256-bit digest — the output of [`sha256`] and the base unit of every
/// hash-derived identity in the workspace (hashlocks, addresses, Merkle
/// nodes).
///
/// # Example
///
/// ```
/// use swap_crypto::sha256;
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Digest32(pub [u8; 32]);

impl Digest32 {
    /// The all-zero digest (useful as a genesis placeholder, never a real
    /// hash output in practice).
    pub const ZERO: Digest32 = Digest32([0u8; 32]);

    /// The raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(NIBBLES[usize::from(b >> 4)] as char);
            s.push(NIBBLES[usize::from(b & 0x0f)] as char);
        }
        s
    }

    /// A short 8-hex-character prefix for logs.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl fmt::Debug for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest32({}…)", self.short())
    }
}

impl fmt::Display for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Digest32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest32 {
    fn from(b: [u8; 32]) -> Self {
        Digest32(b)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One SHA-256 round with explicit register roles. The caller rotates the
/// role assignment instead of the registers themselves (the classic
/// unrolling trick), so each round is two adds into fixed locals rather
/// than an eight-way shuffle.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {{
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($kw);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    }};
}

/// `block`'s sixteen big-endian words in native order — the form
/// [`compress_pair`] takes a block in.
const fn block_words(block: &[u8; 64]) -> [u32; 16] {
    let mut w = [0u32; 16];
    let mut i = 0;
    while i < 16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
        i += 1;
    }
    w
}

/// The message schedule of a block given as its sixteen native words:
/// expanded into the full 64.
const fn expand(words: &[u32; 16]) -> [u32; 64] {
    let mut w = [0u32; 64];
    let mut i = 0;
    while i < 16 {
        w[i] = words[i];
        i += 1;
    }
    while i < 64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        i += 1;
    }
    w
}

/// `block`'s message schedule. `const` so a fixed block (the padding block
/// of every 64-byte message) has its schedule computed at compile time.
const fn schedule_of(block: &[u8; 64]) -> [u32; 64] {
    expand(&block_words(block))
}

/// The padding block every exactly-64-byte message ends with: `0x80`,
/// zeros, bit length 512.
const PAD64_BLOCK: [u8; 64] = {
    let mut block = [0u8; 64];
    block[0] = 0x80;
    block[62] = 0x02;
    block
};

/// [`PAD64_BLOCK`]'s schedule — the scalar kernel skips the expansion
/// entirely for [`sha256_pair`]'s second compression.
const PAD64_SCHEDULE: [u32; 64] = schedule_of(&PAD64_BLOCK);

/// The 64 rounds over an already expanded schedule, unrolled 8-at-a-time
/// with rotating register roles.
fn compress_words(state: &mut [u32; 8], w: &[u32; 64]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    let mut i = 0;
    while i < 64 {
        round!(a, b, c, d, e, f, g, h, K[i].wrapping_add(w[i]));
        round!(h, a, b, c, d, e, f, g, K[i + 1].wrapping_add(w[i + 1]));
        round!(g, h, a, b, c, d, e, f, K[i + 2].wrapping_add(w[i + 2]));
        round!(f, g, h, a, b, c, d, e, K[i + 3].wrapping_add(w[i + 3]));
        round!(e, f, g, h, a, b, c, d, K[i + 4].wrapping_add(w[i + 4]));
        round!(d, e, f, g, h, a, b, c, K[i + 5].wrapping_add(w[i + 5]));
        round!(c, d, e, f, g, h, a, b, K[i + 6].wrapping_add(w[i + 6]));
        round!(b, c, d, e, f, g, h, a, K[i + 7].wrapping_add(w[i + 7]));
        i += 8;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The scalar kernel: expands `block`'s message schedule and runs the 64
/// rounds. The only kernel on a CPU without SHA extensions, and the
/// reference the hardware one is tested against.
pub(crate) fn compress_block_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    compress_words(state, &schedule_of(block));
}

/// One compression of `block` into `state`, on whichever kernel this CPU
/// has. Every hash in the workspace bottoms out here.
#[inline]
pub(crate) fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::compress_block(state, block) {
        return;
    }
    compress_block_scalar(state, block);
}

/// Two independent compressions: `words[i]` (a block as its sixteen
/// native words, see [`block_words`]) into `states[i]`. On the SHA
/// extensions the two run interleaved, for little more than the time of
/// one. [`compress_x16`]'s fallback.
#[inline]
pub(crate) fn compress_pair(states: &mut [[u32; 8]; 2], words: &[[u32; 16]; 2]) {
    #[cfg(target_arch = "x86_64")]
    if x86::compress_pair(states, words) {
        return;
    }
    compress_pair_scalar(states, words);
}

/// [`compress_pair`] on a CPU without SHA extensions: the two scalar
/// compressions one after the other.
fn compress_pair_scalar(states: &mut [[u32; 8]; 2], words: &[[u32; 16]; 2]) {
    for (state, words) in states.iter_mut().zip(words) {
        compress_words(state, &expand(words));
    }
}

/// Sixteen independent compressions, word-major: lane `i` compresses the
/// block `words[0][i], …, words[15][i]` (native words, see
/// [`block_words`]) into the state `states[0][i], …, states[7][i]`. On
/// AVX-512F the lanes are the 32-bit lanes of one vector per word, for
/// about twice the throughput of the SHA-NI pair; without it they go two
/// at a time through [`compress_pair`]. A lane a caller has no block for
/// still computes; its result is the caller's to drop.
#[inline]
pub(crate) fn compress_x16(states: &mut [[u32; 16]; 8], words: &[[u32; 16]; 16]) {
    #[cfg(target_arch = "x86_64")]
    if x86::compress_x16(states, words) {
        return;
    }
    compress_x16_pairs(states, words);
}

/// [`compress_x16`] on a CPU without AVX-512F: lanes `2p` and `2p + 1`
/// gathered out of the word-major layout, compressed by one
/// [`compress_pair`] (SHA-NI or scalar), and scattered back.
fn compress_x16_pairs(states: &mut [[u32; 16]; 8], words: &[[u32; 16]; 16]) {
    for lane in (0..16).step_by(2) {
        let mut pair: [[u32; 8]; 2] =
            core::array::from_fn(|l| core::array::from_fn(|k| states[k][lane + l]));
        let pair_words = core::array::from_fn(|l| core::array::from_fn(|k| words[k][lane + l]));
        compress_pair(&mut pair, &pair_words);
        for (l, state) in pair.iter().enumerate() {
            for (k, &word) in state.iter().enumerate() {
                states[k][lane + l] = word;
            }
        }
    }
}

/// [`compress_block`] of [`PAD64_BLOCK`].
#[inline]
fn compress_pad64(state: &mut [u32; 8]) {
    #[cfg(target_arch = "x86_64")]
    if x86::compress_block(state, &PAD64_BLOCK) {
        return;
    }
    compress_words(state, &PAD64_SCHEDULE);
}

/// A final state's digest: its eight words, big-endian.
#[inline]
pub(crate) fn state_to_digest(state: &[u32; 8]) -> Digest32 {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest32(out)
}

/// The inverse of [`state_to_digest`]: a digest's eight big-endian words,
/// the form a chain value takes as the next block's first half.
#[inline]
pub(crate) fn digest_words(digest: &Digest32) -> [u32; 8] {
    core::array::from_fn(|i| {
        let b = &digest.0[4 * i..4 * i + 4];
        u32::from_be_bytes([b[0], b[1], b[2], b[3]])
    })
}

/// The longest message tail that still shares a block with its padding:
/// 64 bytes less the `0x80` marker and the 8-byte bit length.
pub(crate) const MAX_FINAL_TAIL: usize = 55;

/// Finishes a message of `total_len` bytes of which all but the last
/// `tail_len ≤ MAX_FINAL_TAIL` are already compressed into `state`, the
/// tail sitting at the front of the otherwise zero `block`: pads in place
/// and compresses once, with no hasher state.
#[inline]
pub(crate) fn finish_block(
    mut state: [u32; 8],
    mut block: [u8; 64],
    tail_len: usize,
    total_len: u64,
) -> Digest32 {
    pad_in_place(&mut block, tail_len, total_len);
    compress_block(&mut state, &block);
    state_to_digest(&state)
}

/// [`finish_block`]'s padding alone: `block` with the marker and the bit
/// length written in, as the native words [`compress_pair`] takes.
#[inline]
pub(crate) fn padded_words(mut block: [u8; 64], tail_len: usize, total_len: u64) -> [u32; 16] {
    pad_in_place(&mut block, tail_len, total_len);
    block_words(&block)
}

/// Writes the `0x80` marker after the `tail_len`-byte tail and the bit
/// length of a `total_len`-byte message at the end of `block`.
#[inline]
fn pad_in_place(block: &mut [u8; 64], tail_len: usize, total_len: u64) {
    debug_assert!(tail_len <= MAX_FINAL_TAIL && block[tail_len..].iter().all(|&b| b == 0));
    block[tail_len] = 0x80;
    block[56..].copy_from_slice(&(8 * total_len).to_be_bytes());
}

/// `SHA-256(left || right)` for two 32-byte digests in exactly two
/// compressions: one over the data block, one over the fixed padding
/// block (whose schedule the scalar kernel has precomputed). This is the
/// shape of untagged binary-tree node combination.
pub fn sha256_pair(left: &Digest32, right: &Digest32) -> Digest32 {
    let mut state = H0;
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(left.as_bytes());
    block[32..].copy_from_slice(right.as_bytes());
    compress_block(&mut state, &block);
    compress_pad64(&mut state);
    state_to_digest(&state)
}

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use swap_crypto::sha256::{sha256, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0u8; 64], buffered: 0, total_len: 0 }
    }

    /// Resumes hashing from a captured midstate. `total_len` must be the
    /// number of message bytes already compressed into `state` (a multiple
    /// of 64). This is what lets [`crate::hmac::HmacEngine`] pay for its
    /// padded-key blocks once per key instead of once per MAC.
    pub(crate) fn from_midstate(state: [u32; 8], total_len: u64) -> Sha256 {
        debug_assert_eq!(total_len % 64, 0);
        Sha256 { state, buffer: [0u8; 64], buffered: 0, total_len }
    }

    /// The current compression state; only meaningful at a block boundary.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buffered, 0, "midstate capture requires a block boundary");
        self.state
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len =
            self.total_len.checked_add(data.len() as u64).expect("SHA-256 input exceeds u64 bytes");
        let mut input = data;
        if self.buffered > 0 {
            let want = 64 - self.buffered;
            let take = want.min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                compress_block(&mut self.state, &block);
                self.buffered = 0;
            }
        }
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            compress_block(&mut self.state, block.try_into().expect("chunks_exact(64)"));
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffered = tail.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest32 {
        let bit_len = self.total_len * 8;
        // Padding: 0x80, zeros, 8-byte big-endian bit length — built as
        // whole blocks rather than byte-at-a-time.
        let mut block = [0u8; 64];
        block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        block[self.buffered] = 0x80;
        if self.buffered >= 56 {
            compress_block(&mut self.state, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_block(&mut self.state, &block);
        state_to_digest(&self.state)
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest32 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of the concatenation of several byte slices, without allocating.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest32 {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Domain-separated hash: `SHA-256(tag_len || tag || data)`. Tags keep the
/// workspace's many hash uses (hashlocks, tree nodes, signatures, addresses)
/// from colliding with each other.
pub fn tagged_hash(tag: &str, data: &[u8]) -> Digest32 {
    let tag_bytes = tag.as_bytes();
    let len = [tag_bytes.len() as u8];
    sha256_concat(&[&len, tag_bytes, data])
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 example vectors plus RFC test strings.
    const VECTORS: &[(&[u8], &str)] = &[
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (b"The quick brown fox jumps over the lazy dog",
         "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"),
    ];

    /// Parses exactly 64 hex digits (`[0-9a-fA-F]`, nothing else — no
    /// sign, no whitespace, no non-ASCII): [`Digest32::to_hex`]'s inverse.
    fn from_hex(hex: &str) -> Option<Digest32> {
        fn nibble(c: u8) -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                b'A'..=b'F' => Some(c - b'A' + 10),
                _ => None,
            }
        }
        let hex = hex.as_bytes();
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (byte, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
            *byte = nibble(pair[0])? << 4 | nibble(pair[1])?;
        }
        Some(Digest32(out))
    }

    type Kernel = fn(&mut [u32; 8], &[u8; 64]);
    type PairKernel = fn(&mut [[u32; 8]; 2], &[[u32; 16]; 2]);
    type X16Kernel = fn(&mut [[u32; 16]; 8], &[[u32; 16]; 16]);

    /// The scalar kernel, and the dispatched one if it is a different
    /// kernel on this CPU. When it is not, says so where the test runner
    /// shows it (`--nocapture`): a differential run that only compared the
    /// scalar kernel with itself must not look like a pass of both.
    fn kernels(test: &str) -> Vec<(&'static str, Kernel)> {
        #[cfg(target_arch = "x86_64")]
        if x86::compress_block(&mut [0; 8], &[0; 64]) {
            return vec![("scalar", compress_block_scalar), ("sha-ni", compress_block)];
        }
        eprintln!(
            "{test}: hardware arm SKIPPED — no SHA extensions on this CPU, scalar kernel only"
        );
        vec![("scalar", compress_block_scalar)]
    }

    /// The pair fallback of [`compress_x16`], and the AVX-512 kernel if
    /// this CPU has it; when it does not, says so as [`kernels`] does.
    fn x16_kernels(test: &str) -> Vec<(&'static str, X16Kernel)> {
        #[cfg(target_arch = "x86_64")]
        if x86::compress_x16(&mut [[0; 16]; 8], &[[0; 16]; 16]) {
            return vec![("pairs", compress_x16_pairs), ("avx-512", compress_x16)];
        }
        eprintln!("{test}: hardware arm SKIPPED — no AVX-512F on this CPU, pair fallback only");
        vec![("pairs", compress_x16_pairs)]
    }

    /// FIPS 180-4 padding written out independently of [`Sha256`], over a
    /// chosen kernel.
    fn hash_with(kernel: Kernel, msg: &[u8]) -> Digest32 {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(8 * msg.len() as u64).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            kernel(&mut state, block.try_into().unwrap());
        }
        state_to_digest(&state)
    }

    #[test]
    fn nist_vectors() {
        let kernels = kernels("nist_vectors");
        for (input, expected) in VECTORS {
            assert_eq!(sha256(input).to_hex(), *expected, "input {input:?}");
            for (name, kernel) in &kernels {
                assert_eq!(
                    hash_with(*kernel, input).to_hex(),
                    *expected,
                    "{name}, input {input:?}"
                );
            }
        }
    }

    #[test]
    fn million_a() {
        // FIPS 180-4: one million repetitions of 'a'.
        const EXPECTED: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(h.finalize().to_hex(), EXPECTED);
        let message = vec![b'a'; 1_000_000];
        for (name, kernel) in kernels("million_a") {
            assert_eq!(hash_with(kernel, &message).to_hex(), EXPECTED, "{name}");
        }
    }

    #[test]
    fn kernels_agree_on_every_message_length_to_257() {
        let kernels = kernels("kernels_agree_on_every_message_length_to_257");
        let msg: Vec<u8> = (0..257u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=msg.len() {
            let expected = hash_with(compress_block_scalar, &msg[..len]);
            assert_eq!(sha256(&msg[..len]), expected, "streaming hasher, len {len}");
            for (name, kernel) in &kernels {
                assert_eq!(hash_with(*kernel, &msg[..len]), expected, "{name}, len {len}");
            }
        }
    }

    proptest::proptest! {
        /// One compression from an arbitrary chaining state (not just
        /// `H0`) over an arbitrary block: the dispatched kernel equals the
        /// scalar reference word for word.
        #[test]
        fn dispatched_compression_equals_scalar(
            state in proptest::prelude::any::<[u32; 8]>(),
            block in proptest::prelude::any::<[u8; 64]>(),
        ) {
            static REPORT_SKIP: std::sync::Once = std::sync::Once::new();
            REPORT_SKIP.call_once(|| drop(kernels("dispatched_compression_equals_scalar")));
            let (mut dispatched, mut scalar) = (state, state);
            compress_block(&mut dispatched, &block);
            compress_block_scalar(&mut scalar, &block);
            proptest::prop_assert_eq!(dispatched, scalar);
        }

        /// Two compressions on the pair entry point — the dispatched one
        /// (interleaved on SHA-NI) and the scalar fallback — each equal two
        /// [`compress_block_scalar`] calls, lane for lane. Each lane starts
        /// from an arbitrary state, `H0`, or the midstate after one
        /// arbitrary block (an HMAC key pad's shape), independently.
        #[test]
        fn pair_kernel_equals_two_scalar_compressions(
            random in proptest::prelude::any::<[[u32; 8]; 2]>(),
            pads in proptest::prelude::any::<[[u8; 64]; 2]>(),
            kinds in proptest::prelude::any::<[u8; 2]>(),
            words in proptest::prelude::any::<[[u32; 16]; 2]>(),
        ) {
            static REPORT_SKIP: std::sync::Once = std::sync::Once::new();
            REPORT_SKIP.call_once(|| drop(kernels("pair_kernel_equals_two_scalar_compressions")));
            let states: [[u32; 8]; 2] = core::array::from_fn(|lane| match kinds[lane] % 3 {
                0 => random[lane],
                1 => H0,
                _ => {
                    let mut midstate = H0;
                    compress_block_scalar(&mut midstate, &pads[lane]);
                    midstate
                }
            });
            // Lanes that differ in both halves: a kernel that mixed one lane's
            // state with the other's words, or swapped the lanes, cannot pass.
            proptest::prop_assume!(states[0] != states[1] && words[0] != words[1]);
            let mut expected = states;
            for (state, words) in expected.iter_mut().zip(&words) {
                let mut block = [0u8; 64];
                for (bytes, word) in block.chunks_exact_mut(4).zip(words) {
                    bytes.copy_from_slice(&word.to_be_bytes());
                }
                proptest::prop_assert_eq!(block_words(&block), *words);
                compress_block_scalar(state, &block);
            }
            let kernels: [(&str, PairKernel); 2] =
                [("dispatched", compress_pair), ("scalar", compress_pair_scalar)];
            for (name, kernel) in kernels {
                let mut got = states;
                kernel(&mut got, &words);
                proptest::prop_assert_eq!(got, expected, "{}", name);
            }
        }
    }

    fn all_distinct<T: PartialEq>(items: &[T]) -> bool {
        items.iter().enumerate().all(|(i, x)| items[..i].iter().all(|y| y != x))
    }

    proptest::proptest! {
        /// Sixteen compressions on the word-major entry point — the
        /// AVX-512 kernel where the CPU has it, and the pair fallback
        /// everywhere — equal sixteen [`compress_block_scalar`] calls, lane
        /// for lane. One lane starts from `H0`, each other one from an
        /// arbitrary state or the midstate after an arbitrary block; no two
        /// lanes share a state or a block, so a kernel that mixed lanes,
        /// or transposed the layout, cannot pass.
        #[test]
        fn x16_kernel_equals_sixteen_scalar_compressions(
            random in proptest::prelude::any::<[[u32; 8]; 16]>(),
            pads in proptest::prelude::any::<[[u8; 64]; 16]>(),
            midstate in proptest::prelude::any::<[bool; 16]>(),
            h0_lane in 0usize..16,
            blocks in proptest::prelude::any::<[[u8; 64]; 16]>(),
        ) {
            static REPORT_SKIP: std::sync::Once = std::sync::Once::new();
            REPORT_SKIP.call_once(|| drop(x16_kernels("x16_kernel_equals_sixteen_scalar_compressions")));
            let lane_states: [[u32; 8]; 16] = core::array::from_fn(|lane| {
                if lane == h0_lane {
                    H0
                } else if midstate[lane] {
                    let mut state = H0;
                    compress_block_scalar(&mut state, &pads[lane]);
                    state
                } else {
                    random[lane]
                }
            });
            proptest::prop_assume!(all_distinct(&lane_states) && all_distinct(&blocks));
            let mut expected = lane_states;
            for (state, block) in expected.iter_mut().zip(&blocks) {
                compress_block_scalar(state, block);
            }
            let states: [[u32; 16]; 8] =
                core::array::from_fn(|k| core::array::from_fn(|lane| lane_states[lane][k]));
            let words: [[u32; 16]; 16] = core::array::from_fn(|k| {
                core::array::from_fn(|lane| block_words(&blocks[lane])[k])
            });
            for (name, kernel) in x16_kernels("x16_kernel_equals_sixteen_scalar_compressions") {
                let mut got = states;
                kernel(&mut got, &words);
                for (lane, expected) in expected.iter().enumerate() {
                    let lane_got: [u32; 8] = core::array::from_fn(|k| got[k][lane]);
                    proptest::prop_assert_eq!(lane_got, *expected, "{}, lane {}", name, lane);
                }
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let msg: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let expected = sha256(&msg);
        for split in 0..msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Padding edge cases: 55, 56, 63, 64, 65 bytes.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let msg = vec![0x5au8; len];
            let d1 = sha256(&msg);
            let mut h = Sha256::new();
            for b in &msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn concat_helper() {
        assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    #[test]
    fn tagged_hash_domain_separates() {
        let a = tagged_hash("hashlock", b"data");
        let b = tagged_hash("address", b"data");
        assert_ne!(a, b);
        // And differs from untagged.
        assert_ne!(a, sha256(b"data"));
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(from_hex(&d.to_hex()), Some(d));
        assert_eq!(from_hex("xy"), None);
        assert_eq!(from_hex(&"g".repeat(64)), None);
        assert_eq!(from_hex(&d.to_hex().to_uppercase()), Some(d));
        assert_eq!(Digest32([0x0f; 32]).to_hex(), "0f".repeat(32));
    }

    #[test]
    fn from_hex_rejects_non_ascii_without_panicking() {
        // 64 bytes, but byte 1..3 is one two-byte char: slicing the str at
        // [2 * i..2 * i + 2] used to panic on the char boundary.
        let hex = format!("a\u{e9}{}", "a".repeat(61));
        assert_eq!(hex.len(), 64);
        assert_eq!(from_hex(&hex), None);
    }

    #[test]
    fn from_hex_rejects_signs() {
        // `u8::from_str_radix("+1", 16)` is `Ok(1)`.
        assert_eq!(from_hex(&"+1".repeat(32)), None);
        assert_eq!(from_hex(&"-0".repeat(32)), None);
        assert_eq!(from_hex(&" 1".repeat(32)), None);
    }

    #[test]
    fn digest_display_and_debug() {
        let d = sha256(b"abc");
        assert_eq!(d.to_string().len(), 64);
        assert!(format!("{d:?}").contains("ba7816bf"));
        assert_eq!(d.short().len(), 8);
    }

    #[test]
    fn zero_digest() {
        assert_eq!(Digest32::ZERO.as_bytes(), &[0u8; 32]);
        assert_ne!(sha256(b""), Digest32::ZERO);
    }

    #[test]
    fn pair_matches_streaming_concat() {
        let l = sha256(b"left");
        let r = sha256(b"right");
        assert_eq!(sha256_pair(&l, &r), sha256_concat(&[l.as_bytes(), r.as_bytes()]));
        assert_eq!(sha256_pair(&Digest32::ZERO, &Digest32::ZERO), sha256(&[0u8; 64]));
    }

    #[test]
    fn midstate_resume_matches_oneshot() {
        let msg: Vec<u8> = (0..192u8).collect();
        let mut h = Sha256::new();
        h.update(&msg[..128]);
        let mut resumed = Sha256::from_midstate(h.midstate(), 128);
        resumed.update(&msg[128..]);
        assert_eq!(resumed.finalize(), sha256(&msg));
    }

    #[test]
    fn from_array() {
        let arr = [9u8; 32];
        let d: Digest32 = arr.into();
        assert_eq!(d.as_bytes(), &arr);
        assert_eq!(d.as_ref(), &arr[..]);
    }
}
