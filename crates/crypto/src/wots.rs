//! Winternitz one-time signatures (W-OTS, `w = 16`) over 256-bit message
//! digests.
//!
//! The message is read as 64 base-16 digits, followed by the 3 digits of
//! the checksum `Σ(15 − dᵢ)` (at most `64·15 = 960 < 16³`): 67 digits, one
//! hash chain of length 15 each. The secret key is the 67 chain heads, the
//! public key the 67 chain tops, and a signature reveals, per digit `d`,
//! the chain value `d` steps above the head; a verifier walks the remaining
//! `15 − d` steps and must land on the tops. Raising a message digit (the
//! only direction a forger can walk a revealed value) lowers the checksum,
//! so some checksum digit would have to go *down* — which needs a preimage.
//! Security rests only on SHA-256 — no number theory, which keeps this
//! crate's trust base equal to the hashlock primitive itself.
//!
//! One chain step is one compression of `x ‖ chain ‖ position ‖ tag`, so
//! equal values at different chains or positions never share a
//! computation. A signature is `67 × 32 = 2 144` bytes.
//!
//! The steps of one chain are serial, but the chains are independent, and
//! every walk runs sixteen of them at once on the crate-private
//! `sha256::compress_x16` kernel. Sixteen steps are one kernel call over
//! the word-major blocks of the chains' next steps. A step's output state
//! is, word for word, the next step's chain value, so a walk copies the
//! eight state rows into the first half of the next blocks whole and
//! moves every lane one position up. A value becomes a [`Digest32`] only
//! at its chain's end.
//!
//! * **Keygen** walks every chain from its head to its top. The
//!   crate-private `public_keys` covers a whole range of keys, the
//!   `67 × count` chains in order, sixteen at a time: the sixteen heads
//!   are HMAC derives in two kernel calls (inner, then outer), then all
//!   sixteen chains take their fifteen steps together. The tops of
//!   sixteen keys at a time go into a buffer laid out as those keys' fold
//!   blocks, one key per lane, and the sixteen folds run on the same
//!   kernel. [`public_key`] is the range of one key.
//! * **Signing and verification** walk each chain from one digit to
//!   another, so their chains have uneven lengths. One lane scheduler
//!   serves both. It starts the chains longest walk first, and on the
//!   step a lane's chain ends it takes that chain's value out of the lane
//!   and puts the next chain in; only these refills touch a single lane.
//!   Over 2 000 random digests, longest-first keeps 96.7 % of the lanes
//!   busy, against 80 % in index order. A signature's 67 heads are
//!   derived in five sixteen-lane HMAC calls, the last one's 13 spare
//!   lanes dropped.
//!
//! Where the CPU has no AVX-512F, `compress_x16` runs as eight two-lane
//! calls, idle lanes included. There a signature costs ≈ 676
//! compressions and a verification ≈ 523 on average, against 639 and 511
//! for a two-lane scheduler: ≈ 6 % and ≈ 2.5 % more. A chain's value
//! does not depend on the lane that walks it, so every key and signature
//! is the same on every kernel.
//!
//! A key pair must sign **at most one** message; the [`mss`](crate::mss)
//! module lifts these one-time keys into a many-time identity.

use serde::{Deserialize, Serialize};

use crate::hmac::HmacEngine;
use crate::sha256::{
    compress_x16, digest_words, padded_words, state_to_digest, Digest32, Sha256, H0,
};

/// Hash chains per key: 64 message digits plus 3 checksum digits.
pub const CHAINS: usize = 67;

/// Base-16 digits of a 256-bit message.
const MESSAGE_DIGITS: usize = 64;

/// The highest digit, i.e. steps from a chain's head to its top (`w − 1`).
const TOP: u8 = 15;

/// Domain tag closing every chain-step block.
const STEP_TAG: &[u8] = b"swap/wots16/v1";

/// Bytes of a chain-step message: value, chain, position, tag — one block
/// together with its padding.
const STEP_LEN: usize = 32 + 2 + STEP_TAG.len();

/// Label of the chain-head derivation.
const HEAD_LABEL: &str = "wots/sk";

/// Chain values as the state words of their last step (a head as its
/// HMAC's): what the lane scheduler walks.
type ChainStates = [[u32; 8]; CHAINS];

/// Lanes of `compress_x16`: chains walked, or keys folded, at once.
const LANES: usize = 16;

/// Blocks of a key's fold: its 67 tops two to a block, the last top
/// sharing the final block with the padding.
const FOLD_BLOCKS: usize = CHAINS.div_ceil(2);

/// A W-OTS one-time secret key.
///
/// The 67 chain heads are **not stored**: the key holds only the seed's
/// [`HmacEngine`] and the key index, and re-derives
/// `head[j] = HMAC(seed, "wots/sk" || be64(index·67 + j))` at sign time.
/// That makes keygen public-hash-only (no secret-side materialization or
/// allocation) and keeps a resident keypair at two hash midstates.
#[derive(Clone)]
pub struct WotsSecretKey {
    engine: HmacEngine,
    index: u64,
}

impl std::fmt::Debug for WotsSecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WotsSecretKey(<redacted>)")
    }
}

/// A W-OTS signature: per digit, the chain value that many steps above the
/// chain's head.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WotsSignature {
    values: Vec<Digest32>,
}

impl WotsSignature {
    /// Wire size in bytes: 67 × 32.
    pub const ENCODED_LEN: usize = CHAINS * 32;

    /// Byte size of this signature as transmitted.
    pub fn byte_len(&self) -> usize {
        Self::ENCODED_LEN
    }

    /// Folds the signature contents into a digest, used when an outer party
    /// signs *this signature* in a hashkey chain.
    pub fn digest(&self) -> Digest32 {
        fold(self.values.iter().copied())
    }

    /// Reconstructs the compressed one-time public key digest this signature
    /// commits to for `message` — digits **and checksum** recomputed from
    /// the message, every chain walked its remaining steps — or `None` if
    /// the signature is structurally invalid. Verification is "reconstruct,
    /// then compare to the trusted key digest".
    pub fn reconstruct_pk_digest(&self, message: &Digest32) -> Option<Digest32> {
        if self.values.len() != CHAINS {
            return None;
        }
        let mut values: ChainStates = core::array::from_fn(|j| digest_words(&self.values[j]));
        walk_chains(&mut values, &digits(message), &[TOP; CHAINS]);
        Some(fold(values.iter().map(state_to_digest)))
    }
}

/// The secret half of key `index` of the seed behind `engine`, with no
/// hashing at all — used by the Merkle scheme at sign time, where the
/// leaf's public digest already sits in the published tree. Distinct
/// `(seed, index)` pairs yield independent keys, which is how the Merkle
/// scheme derives its leaf keys.
pub fn secret_key(engine: &HmacEngine, index: u64) -> WotsSecretKey {
    WotsSecretKey { engine: engine.clone(), index }
}

/// Computes the compressed public key digest for `(seed, index)` — the
/// Merkle-leaf content: SHA-256 of the 67 chain tops, each head derived and
/// walked without materializing the secret side.
pub fn public_key(engine: &HmacEngine, index: u64) -> Digest32 {
    public_keys(engine, index, 1)[0]
}

/// [`public_key`] of each key `first..first + count`, in order. The range's
/// chains are walked in order, sixteen to a `compress_x16` call (a batch
/// can straddle two keys); the last batch's spare lanes walk chains past
/// the range and are dropped. Keys are folded sixteen at a time: a group's
/// tops are written into its fold blocks as they come, one key per lane,
/// so the buffer holds sixteen keys, whatever `count` is.
pub(crate) fn public_keys(engine: &HmacEngine, first: u64, count: u64) -> Vec<Digest32> {
    let mut keys = Vec::with_capacity(count as usize);
    // Word-major fold blocks of up to sixteen keys: block `b` holds tops
    // `2b` and `2b + 1`, and the last block holds top 66, the marker and
    // the bit length of 67 tops.
    let mut folds = vec![[[0u32; LANES]; 16]; FOLD_BLOCKS];
    folds[FOLD_BLOCKS - 1][8] = [0x8000_0000; LANES];
    folds[FOLD_BLOCKS - 1][15] = [(8 * 32 * CHAINS) as u32; LANES];
    for group in (first..first + count).step_by(LANES) {
        let chains = (first + count - group).min(LANES as u64) as usize * CHAINS;
        for batch in (0..chains).step_by(LANES) {
            let tops = walk_x16(engine, group * CHAINS as u64 + batch as u64, batch % CHAINS);
            for lane in 0..LANES.min(chains - batch) {
                let (key, j) = ((batch + lane) / CHAINS, (batch + lane) % CHAINS);
                let half = &mut folds[j / 2][8 * (j % 2)..];
                for (word, top) in half.iter_mut().zip(&tops) {
                    word[key] = top[lane];
                }
            }
        }
        let mut states = H0.map(|word| [word; LANES]);
        for block in &folds {
            compress_x16(&mut states, block);
        }
        keys.extend((0..chains / CHAINS).map(|key| state_to_digest(&states.map(|word| word[key]))));
    }
    keys
}

/// Sixteen chains walked from head to top, lane `i` being the chain whose
/// head index (see [`heads`]) is `head + i` and which sits at position
/// `(j + i) mod 67` in its key: the tops, word-major.
fn walk_x16(engine: &HmacEngine, head: u64, j: usize) -> [[u32; LANES]; 8] {
    let mut values = engine.derive_x16(HEAD_LABEL, head);
    let mut words = step_template().map(|word| [word; LANES]);
    let chain_words: [u32; LANES] =
        core::array::from_fn(|lane| words[8][lane] | (((j + lane) % CHAINS) as u32) << 24);
    for position in 0..TOP {
        words[..8].copy_from_slice(&values);
        words[8] = chain_words.map(|word| word | u32::from(position) << 16);
        values = H0.map(|word| [word; LANES]);
        compress_x16(&mut values, &words);
    }
    values
}

/// Signs a 256-bit message digest, consuming the one-time key.
///
/// Taking the key by value enforces one-time use at the type level: a
/// `WotsSecretKey` cannot be signed with twice without cloning, and
/// cloning to re-sign is a deliberate (and greppable) act. The chain heads
/// are derived here, on demand — signing is the first (and only) time they
/// exist in memory.
pub fn sign(key: WotsSecretKey, message: &Digest32) -> WotsSignature {
    let mut values = heads(&key.engine, key.index);
    walk_chains(&mut values, &[0; CHAINS], &digits(message));
    WotsSignature { values: values.iter().map(state_to_digest).collect() }
}

/// Verifies `sig` on `message` against a compressed public key digest.
pub fn verify(sig: &WotsSignature, message: &Digest32, pk_digest: &Digest32) -> bool {
    sig.reconstruct_pk_digest(message) == Some(*pk_digest)
}

/// The heads (position 0) of key `index`'s chains, chain `j` being
/// `HMAC(seed, "wots/sk" || be64(index·67 + j))`: derived on demand,
/// sixteen at a time. The last call's spare lanes are the next key's
/// first heads, dropped.
fn heads(engine: &HmacEngine, index: u64) -> ChainStates {
    let mut heads = [[0u32; 8]; CHAINS];
    let first = index * CHAINS as u64;
    for (batch, j) in heads.chunks_mut(LANES).zip((first..).step_by(LANES)) {
        let derived = engine.derive_x16(HEAD_LABEL, j);
        for (lane, head) in batch.iter_mut().enumerate() {
            *head = derived.map(|word| word[lane]);
        }
    }
    heads
}

/// Walks every chain `j` from `values[j]` at position `from[j]` up to
/// position `to[j]` (a chain with `from[j] >= to[j]` stays as it is),
/// sixteen chains at a time. The chains start longest walk first; on the
/// step a lane's chain ends, its value leaves the lane and the next chain
/// enters. Once no chain waits, a finished lane idles: it keeps
/// computing, and its results are dropped.
fn walk_chains(values: &mut ChainStates, from: &[u8; CHAINS], to: &[u8; CHAINS]) {
    let steps = |j: usize| usize::from(to[j].saturating_sub(from[j]));
    // The live chains, longest walk first and in index order within one
    // length: a counting sort, `next[len]` being where the next chain of
    // `len` steps goes.
    let mut count = [0; TOP as usize + 1];
    for j in 0..CHAINS {
        count[steps(j)] += 1;
    }
    let (mut next, mut live) = ([0; TOP as usize + 1], 0);
    for len in (1..=TOP as usize).rev() {
        next[len] = live;
        live += count[len];
    }
    let mut order = [0; CHAINS];
    for j in (0..CHAINS).filter(|&j| steps(j) > 0) {
        order[next[steps(j)]] = j;
        next[steps(j)] += 1;
    }
    let mut waiting = order[..live].iter().copied();
    let template = step_template();
    let mut blocks = template.map(|word| [word; LANES]);
    // Puts the next waiting chain, if any, into `lane`: its value, chain
    // and start position; returns the chain and its steps.
    let mut enter = |blocks: &mut [[u32; LANES]; 16], values: &ChainStates, lane: usize| {
        let j = waiting.next()?;
        for (row, word) in blocks.iter_mut().zip(values[j]) {
            row[lane] = word;
        }
        blocks[8][lane] = template[8] | u32::from_be_bytes([j as u8, from[j], 0, 0]);
        Some((j, steps(j)))
    };
    // Per lane, its chain and the steps the chain has left.
    let mut lanes: [_; LANES] = core::array::from_fn(|lane| enter(&mut blocks, values, lane));
    while lanes.iter().any(Option::is_some) {
        let mut states = H0.map(|word| [word; LANES]);
        compress_x16(&mut states, &blocks);
        // Every lane's output state is its chain's next value: the first
        // half of the lane's next block, one position up.
        blocks[..8].copy_from_slice(&states);
        for word in &mut blocks[8] {
            *word += 1 << 16;
        }
        for (lane, chain) in lanes.iter_mut().enumerate() {
            let Some((j, left)) = chain else { continue };
            *left -= 1;
            if *left == 0 {
                values[*j] = states.map(|word| word[lane]);
                *chain = enter(&mut blocks, values, lane);
            }
        }
    }
}

/// A step's padded block with the value (words 0..8), the chain and the
/// position (the top half of word 8) still zero.
fn step_template() -> [u32; 16] {
    let mut template = [0u8; 64];
    template[34..STEP_LEN].copy_from_slice(STEP_TAG);
    padded_words(template, STEP_LEN, STEP_LEN as u64)
}

/// SHA-256 of chain values laid end to end — the public-key fold (over the
/// 67 tops) and the signature digest (over the revealed values).
fn fold(values: impl Iterator<Item = Digest32>) -> Digest32 {
    let mut h = Sha256::new();
    for value in values {
        h.update(value.as_bytes());
    }
    h.finalize()
}

/// The 67 digits signed for `message`: its 64 nibbles, high nibble first,
/// then the checksum `Σ(15 − dᵢ)` as 3 base-16 digits, most significant
/// first.
fn digits(message: &Digest32) -> [u8; CHAINS] {
    let mut digits = [0u8; CHAINS];
    for (pair, byte) in digits.chunks_exact_mut(2).zip(message.as_bytes()) {
        pair[0] = byte >> 4;
        pair[1] = byte & 0x0f;
    }
    let checksum: u32 = digits[..MESSAGE_DIGITS].iter().map(|&d| u32::from(TOP - d)).sum();
    digits[MESSAGE_DIGITS] = (checksum >> 8) as u8;
    digits[MESSAGE_DIGITS + 1] = (checksum >> 4) as u8 & 0x0f;
    digits[MESSAGE_DIGITS + 2] = checksum as u8 & 0x0f;
    digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{finish_block, sha256};

    /// Key `index` of `seed`: the secret key and the compressed public key
    /// digest.
    fn keygen(seed: &[u8; 32], index: u64) -> (WotsSecretKey, Digest32) {
        let engine = HmacEngine::new(seed);
        (secret_key(&engine, index), public_key(&engine, index))
    }

    /// The reference the lane scheduler is held to: chain `j` walked alone
    /// from `value` at position `from` up to position `to`, one byte block
    /// and one single-block compression a step.
    fn walk(mut value: Digest32, j: usize, from: u8, to: u8) -> Digest32 {
        for position in from..to {
            let mut block = [0u8; 64];
            block[..32].copy_from_slice(value.as_bytes());
            block[32] = j as u8;
            block[33] = position;
            block[34..STEP_LEN].copy_from_slice(STEP_TAG);
            value = finish_block(H0, block, STEP_LEN, STEP_LEN as u64);
        }
        value
    }

    /// The reference [`public_keys`] is held to: key `index`'s public
    /// digest with every head derived alone by [`HmacEngine::derive`],
    /// every chain walked alone by [`walk`], and the tops folded.
    fn public_key_one_chain_at_a_time(engine: &HmacEngine, index: u64) -> Digest32 {
        fold((0..CHAINS).map(|j| {
            let head = engine.derive(HEAD_LABEL, index * CHAINS as u64 + j as u64);
            walk(head, j, 0, TOP)
        }))
    }

    fn msg(text: &[u8]) -> Digest32 {
        sha256(text)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (sk, pk) = keygen(&[42u8; 32], 0);
        let m = msg(b"hello");
        let sig = sign(sk, &m);
        assert!(verify(&sig, &m, &pk));
        assert_eq!(sig.reconstruct_pk_digest(&m), Some(pk));
    }

    #[test]
    fn wrong_message_rejected() {
        let (sk, pk) = keygen(&[1u8; 32], 0);
        let sig = sign(sk, &msg(b"pay bob 5"));
        assert!(!verify(&sig, &msg(b"pay mallory 500"), &pk));
    }

    #[test]
    fn wrong_key_and_wrong_leaf_index_rejected() {
        let (sk, pk) = keygen(&[1u8; 32], 0);
        let (_, other_seed) = keygen(&[2u8; 32], 0);
        let (_, other_index) = keygen(&[1u8; 32], 1);
        assert_ne!(pk, other_index);
        let m = msg(b"x");
        let sig = sign(sk, &m);
        assert!(verify(&sig, &m, &pk));
        assert!(!verify(&sig, &m, &other_seed));
        assert!(!verify(&sig, &m, &other_index));
    }

    #[test]
    fn keygen_deterministic_and_engine_shared() {
        let seed = [7u8; 32];
        let engine = HmacEngine::new(&seed);
        for index in 0..3u64 {
            assert_eq!(keygen(&seed, index).1, keygen(&seed, index).1);
            assert_eq!(keygen(&seed, index).1, public_key(&engine, index));
        }
    }

    #[test]
    fn wrong_chain_count_rejected() {
        let (sk, pk) = keygen(&[5u8; 32], 0);
        let m = msg(b"msg");
        let sig = sign(sk, &m);
        let mut short = sig.clone();
        short.values.pop();
        assert_eq!(short.values.len(), 66);
        assert_eq!(short.reconstruct_pk_digest(&m), None);
        assert!(!verify(&short, &m, &pk));
        let mut long = sig.clone();
        long.values.push(sha256(b"extra"));
        assert_eq!(long.values.len(), 68);
        assert!(!verify(&long, &m, &pk));
        assert_ne!(long.digest(), sig.digest());
    }

    #[test]
    fn tampered_chain_value_rejected_at_every_kind_of_position() {
        let (sk, pk) = keygen(&[5u8; 32], 0);
        let m = msg(b"msg");
        let sig = sign(sk, &m);
        // First message digit, a middle one, last checksum digit.
        for j in [0, 33, 66] {
            let mut tampered = sig.clone();
            tampered.values[j] = sha256(b"tamper");
            assert!(!verify(&tampered, &m, &pk), "chain {j}");
            assert_ne!(tampered.digest(), sig.digest(), "chain {j}");
        }
    }

    #[test]
    fn chain_steps_are_separated_by_chain_and_position() {
        let x = sha256(b"x");
        let base = walk(x, 0, 0, 1);
        assert_ne!(base, walk(x, 1, 0, 1));
        assert_ne!(base, walk(x, 0, 1, 2));
        assert_eq!(walk(x, 0, 3, 3), x);
        assert_eq!(walk(walk(x, 9, 0, 6), 9, 6, TOP), walk(x, 9, 0, TOP));
    }

    #[test]
    fn digits_known_answers() {
        // All-zero message: every digit 0, checksum 64·15 = 960 = 0x3c0.
        let zero = digits(&Digest32::ZERO);
        assert!(zero[..MESSAGE_DIGITS].iter().all(|&d| d == 0));
        assert_eq!(zero[MESSAGE_DIGITS..], [0x3, 0xc, 0x0]);
        // All-ones message: every digit 15, checksum 0.
        let ones = digits(&Digest32([0xff; 32]));
        assert!(ones[..MESSAGE_DIGITS].iter().all(|&d| d == TOP));
        assert_eq!(ones[MESSAGE_DIGITS..], [0, 0, 0]);
        // High nibble first.
        let mut bytes = [0u8; 32];
        bytes[0] = 0xa5;
        let d = digits(&Digest32(bytes));
        assert_eq!((d[0], d[1]), (0xa, 0x5));
        assert_eq!(d[MESSAGE_DIGITS..], [0x3, 0xb, 0x1]);
    }

    proptest::proptest! {
        /// Checksum soundness: for `m ≠ m′` some digit of `digits(m′)` —
        /// checksum digits included — is strictly below the same digit of
        /// `digits(m)`, so the best forgery from a signature on `m`
        /// (advance every chain that only needs to go up, leave the rest)
        /// still lacks a preimage and fails.
        #[test]
        fn checksum_leaves_every_other_message_a_digit_short(
            seed in proptest::prelude::any::<[u8; 32]>(),
            a in proptest::prelude::any::<[u8; 32]>(),
            b in proptest::prelude::any::<[u8; 32]>(),
            near in proptest::prelude::any::<bool>(),
            at in 0usize..32,
        ) {
            // Half the cases differ in one byte only — the neighbours a
            // forger would pick — the rest are independent.
            let (m, mut other) = (Digest32(a), Digest32(b));
            if near {
                other = m;
                other.0[at] = b[at];
            }
            proptest::prop_assume!(m != other);
            let (d, d_other) = (digits(&m), digits(&other));
            proptest::prop_assert!((0..CHAINS).any(|j| d_other[j] < d[j]));

            let (sk, pk) = keygen(&seed, 0);
            let sig = sign(sk, &m);
            let values = (0..CHAINS)
                .map(|j| walk(sig.values[j], j, d[j], d_other[j].max(d[j])))
                .collect();
            let forged = WotsSignature { values };
            proptest::prop_assert!(verify(&sig, &m, &pk));
            proptest::prop_assert!(!verify(&forged, &other, &pk));
            proptest::prop_assert!(!verify(&sig, &other, &pk));
        }
    }

    proptest::proptest! {
        /// Batched keygen equals minting each key alone, one chain at a
        /// time. Every count but 16 leaves the last batch of sixteen chains
        /// partial (`67 · count mod 16 ≠ 0`), batches straddle keys, and 17
        /// puts a one-key group after a full one, whose tops still sit in
        /// the other fifteen lanes of the fold buffer.
        #[test]
        fn batched_keygen_equals_walking_one_chain_at_a_time(
            seed in proptest::prelude::any::<[u8; 32]>(),
            first in 0u64..1 << 16,
            pick in 0usize..6,
        ) {
            let count = [1u64, 2, 3, 5, 16, 17][pick];
            let engine = HmacEngine::new(&seed);
            let keys = public_keys(&engine, first, count);
            proptest::prop_assert_eq!(keys.len() as u64, count);
            for (key, index) in keys.iter().zip(first..) {
                let expected = public_key_one_chain_at_a_time(&engine, index);
                proptest::prop_assert_eq!(*key, expected, "key {}", index);
            }
        }
    }

    /// Every height a test or a workload mints, from one leaf (a lone,
    /// partial group of sixteen keys) through 64 (four full groups): each
    /// leaf of an MSS keypair, minted by one batched call, is the leaf of
    /// its key minted alone, one chain at a time.
    #[test]
    fn mss_leaf_digests_equal_the_per_leaf_reference() {
        use crate::merkle::leaf_hash;
        use crate::MssKeypair;
        let seed = [0x5eu8; 32];
        let engine = HmacEngine::new(&seed);
        for height in 0..=6 {
            let expected: Vec<Digest32> = (0..1u64 << height)
                .map(|i| leaf_hash(public_key_one_chain_at_a_time(&engine, i).as_bytes()))
                .collect();
            let leaves = MssKeypair::from_seed_with_height(seed, height).leaf_digests();
            assert_eq!(leaves, expected, "height {height}");
        }
    }

    /// Live-chain counts the lane scheduler must get right: none, one, a
    /// partial first fill, exactly sixteen lanes, one chain waiting for a
    /// refill, and all but one or all of a key's chains.
    const LIVE_COUNTS: [usize; 7] = [0, 1, 15, 16, 17, 66, 67];

    /// One `(from, to)` shape per case the lane scheduler must get right,
    /// built from random nibbles: chain `j` is live when `from[j] < to[j]`.
    /// Which chains a shape makes live rotates with `pick`.
    fn scheduler_shapes(
        lo: &[u8; CHAINS],
        hi: &[u8; CHAINS],
        pick: usize,
    ) -> Vec<(String, [u8; CHAINS], [u8; CHAINS])> {
        let nibble = |x: u8| x & TOP;
        let from_lo = lo.map(nibble);
        // The chain `k`-th in the rotation `pick` picks.
        let nth = |k: usize| (pick % CHAINS + k) % CHAINS;
        // A live chain from `lo` (below the top) up at least one step.
        let up = |j: usize| {
            let from = lo[j] % TOP;
            (from, from + 1 + hi[j] % (TOP - from))
        };
        let mut shapes = vec![(
            "random".to_string(),
            core::array::from_fn(|j| nibble(lo[j]).min(nibble(hi[j]))),
            core::array::from_fn(|j| nibble(lo[j]).max(nibble(hi[j]))),
        )];
        for live in LIVE_COUNTS {
            let (mut from, mut to) = (from_lo, from_lo);
            for j in (0..live).map(nth) {
                (from[j], to[j]) = up(j);
            }
            shapes.push((format!("{live} live chains"), from, to));
        }
        // Every chain `len` steps long: all sixteen lanes end on one step
        // and are refilled on it, four times over.
        let len = 1 + hi[0] % TOP;
        let together = lo.map(|x| x % (TOP + 1 - len));
        shapes.push((
            "all sixteen lanes end on one step".into(),
            together,
            together.map(|x| x + len),
        ));
        // Fifteen chains of 15 steps and one of `short` fill the lanes;
        // the seventeenth chain, `shorter`, enters the short chain's lane
        // on the step that chain ends, while the other fifteen walk on.
        let short = 1 + hi[1] % (TOP - 1);
        let shorter = 1 + hi[2] % short;
        let (mut from, mut to) = ([0; CHAINS], [0; CHAINS]);
        for k in 0..15 {
            to[nth(k)] = TOP;
        }
        (from[nth(15)], to[nth(15)]) = (TOP - short, TOP);
        to[nth(16)] = shorter;
        shapes.push(("a lane refilled mid-walk".into(), from, to));
        for (name, from, to) in [
            ("sign, all-0 digits", [0; CHAINS], [0; CHAINS]),
            ("verify, all-0 digits", [0; CHAINS], [TOP; CHAINS]),
            ("sign, all-15 digits", [0; CHAINS], [TOP; CHAINS]),
            ("verify, all-15 digits", [TOP; CHAINS], [TOP; CHAINS]),
        ] {
            shapes.push((name.into(), from, to));
        }
        // The extreme digests' real shapes: all-0 signs the checksum's 3
        // and 12 and verifies all 67 chains; all-15 signs 64 chains of 15
        // and verifies the checksum's three.
        for message in [[0x00; 32], [0xff; 32]] {
            let d = digits(&Digest32(message));
            let name = format!("{:02x}", message[0]);
            shapes.push((format!("sign, all-{name} digest"), [0; CHAINS], d));
            shapes.push((format!("verify, all-{name} digest"), d, [TOP; CHAINS]));
        }
        shapes
    }

    proptest::proptest! {
        /// The lane scheduler walks every chain exactly as `walk` does one
        /// chain at a time, whatever mix of chain lengths the lanes are
        /// refilled from.
        #[test]
        fn lane_scheduler_equals_walking_one_chain_at_a_time(
            seed in proptest::prelude::any::<[u8; 32]>(),
            lo in proptest::prelude::any::<[u8; CHAINS]>(),
            hi in proptest::prelude::any::<[u8; CHAINS]>(),
            pick in proptest::prelude::any::<usize>(),
        ) {
            let start = heads(&HmacEngine::new(&seed), 0);
            for (shape, from, to) in scheduler_shapes(&lo, &hi, pick) {
                let mut values = start;
                walk_chains(&mut values, &from, &to);
                for j in 0..CHAINS {
                    let expected = walk(state_to_digest(&start[j]), j, from[j], to[j]);
                    proptest::prop_assert_eq!(
                        state_to_digest(&values[j]), expected, "{}, chain {}", shape, j
                    );
                }
            }
        }
    }

    #[test]
    fn scheduler_shapes_are_what_they_say() {
        let lo = core::array::from_fn(|j| (j * 37) as u8);
        for hi in [[0; CHAINS], [200; CHAINS], core::array::from_fn(|j| (j * 53) as u8)] {
            for pick in [0, 66, 1000] {
                let shapes = scheduler_shapes(&lo, &hi, pick);
                // The live chains' lengths, longest first.
                let lengths = |name: &str| {
                    let (_, from, to) = shapes.iter().find(|(shape, ..)| shape == name).unwrap();
                    assert!((0..CHAINS).all(|j| from[j] <= to[j] && to[j] <= TOP), "{name}");
                    let mut lengths: Vec<u8> =
                        (0..CHAINS).map(|j| to[j] - from[j]).filter(|&len| len > 0).collect();
                    lengths.sort_unstable_by(|a, b| b.cmp(a));
                    lengths
                };
                for live in LIVE_COUNTS {
                    assert_eq!(lengths(&format!("{live} live chains")).len(), live);
                }
                let together = lengths("all sixteen lanes end on one step");
                assert_eq!(together.len(), CHAINS);
                assert!(together.iter().all(|&len| len == together[0]));
                let refilled = lengths("a lane refilled mid-walk");
                assert_eq!(refilled.len(), 17);
                assert_eq!(refilled[..15], [TOP; 15]);
                assert!(refilled[15] < TOP && refilled[16] <= refilled[15]);
                assert_eq!(lengths("sign, all-0 digits"), []);
                assert_eq!(lengths("verify, all-15 digits"), []);
                assert_eq!(lengths("verify, all-0 digits"), [TOP; CHAINS]);
                assert_eq!(lengths("sign, all-15 digits"), [TOP; CHAINS]);
                assert_eq!(lengths("sign, all-00 digest"), [12, 3]);
                let mut verify_zero = vec![TOP; 65];
                verify_zero.extend([12, 3]);
                assert_eq!(lengths("verify, all-00 digest"), verify_zero);
                assert_eq!(lengths("sign, all-ff digest"), [TOP; 64]);
                assert_eq!(lengths("verify, all-ff digest"), [TOP; 3]);
            }
        }
    }

    #[test]
    fn byte_len_constant() {
        let (sk, _) = keygen(&[5u8; 32], 0);
        let sig = sign(sk, &msg(b"m"));
        assert_eq!(sig.byte_len(), WotsSignature::ENCODED_LEN);
        assert_eq!(sig.byte_len(), 2144);
    }

    #[test]
    fn secret_key_debug_redacted() {
        let (sk, _) = keygen(&[1u8; 32], 0);
        assert_eq!(format!("{sk:?}"), "WotsSecretKey(<redacted>)");
    }

    #[test]
    fn lazy_derivation_matches_materialized_reference() {
        // Pin the lazy scheme against an eager one that materialises all
        // 67 heads with one-at-a-time derives and steps with the streaming
        // hasher: the public key digest and a signature must be
        // byte-identical.
        let seed = [3u8; 32];
        let engine = HmacEngine::new(&seed);
        let index = 5u64;
        let step = |x: Digest32, j: usize, position: u8| {
            let mut h = Sha256::new();
            h.update(x.as_bytes());
            h.update(&[j as u8, position]);
            h.update(STEP_TAG);
            h.finalize()
        };
        let heads: Vec<Digest32> =
            (0..CHAINS).map(|j| engine.derive("wots/sk", index * 67 + j as u64)).collect();
        let mut tops = Sha256::new();
        for (j, head) in heads.iter().enumerate() {
            tops.update((0..TOP).fold(*head, |x, k| step(x, j, k)).as_bytes());
        }
        let (sk, pk) = keygen(&seed, index);
        assert_eq!(pk, tops.finalize());
        let m = msg(b"pinned");
        let sig = sign(sk, &m);
        for (j, head) in heads.iter().enumerate() {
            let expected = (0..digits(&m)[j]).fold(*head, |x, k| step(x, j, k));
            assert_eq!(sig.values[j], expected, "chain {j}");
        }
        assert!(verify(&sig, &m, &pk));
    }
}
