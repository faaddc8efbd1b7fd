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
//! A key pair must sign **at most one** message; the [`mss`](crate::mss)
//! module lifts these one-time keys into a many-time identity.

use serde::{Deserialize, Serialize};

use crate::hmac::HmacEngine;
use crate::sha256::{finish_block, Digest32, Sha256, H0};

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
        let digits = digits(message);
        Some(fold((0..CHAINS).map(|j| walk(self.values[j], j, digits[j], TOP))))
    }
}

/// Generates a key pair deterministically from `seed` and a key index: the
/// secret key and the compressed public key digest.
///
/// Distinct `(seed, index)` pairs yield independent keys, which is how the
/// Merkle scheme derives its leaf keys. Callers generating many keys from
/// one seed should build the [`HmacEngine`] once and use [`secret_key`] and
/// [`public_key`].
pub fn keygen(seed: &[u8; 32], index: u64) -> (WotsSecretKey, Digest32) {
    let engine = HmacEngine::new(seed);
    let pk = public_key(&engine, index);
    (secret_key(&engine, index), pk)
}

/// The secret half alone, with no hashing at all — used by the Merkle
/// scheme at sign time, where the leaf's public digest already sits in the
/// published tree.
pub fn secret_key(engine: &HmacEngine, index: u64) -> WotsSecretKey {
    WotsSecretKey { engine: engine.clone(), index }
}

/// Computes the compressed public key digest for `(seed, index)` — the
/// Merkle-leaf content: SHA-256 of the 67 chain tops, each head derived and
/// walked without materializing the secret side.
pub fn public_key(engine: &HmacEngine, index: u64) -> Digest32 {
    fold((0..CHAINS).map(|j| walk(head(engine, index, j), j, 0, TOP)))
}

/// Signs a 256-bit message digest, consuming the one-time key.
///
/// Taking the key by value enforces one-time use at the type level: a
/// `WotsSecretKey` cannot be signed with twice without cloning, and
/// cloning to re-sign is a deliberate (and greppable) act. The chain heads
/// are derived here, on demand — signing is the first (and only) time they
/// exist in memory.
pub fn sign(key: WotsSecretKey, message: &Digest32) -> WotsSignature {
    let digits = digits(message);
    let values =
        (0..CHAINS).map(|j| walk(head(&key.engine, key.index, j), j, 0, digits[j])).collect();
    WotsSignature { values }
}

/// Verifies `sig` on `message` against a compressed public key digest.
pub fn verify(sig: &WotsSignature, message: &Digest32, pk_digest: &Digest32) -> bool {
    sig.reconstruct_pk_digest(message) == Some(*pk_digest)
}

/// Head (position 0) of chain `j` of key `index` — derived on demand.
fn head(engine: &HmacEngine, index: u64, j: usize) -> Digest32 {
    engine.derive("wots/sk", index * CHAINS as u64 + j as u64)
}

/// Walks chain `j` from `value` at position `from` up to position `to`.
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
    use crate::sha256::sha256;

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
        // 67 heads with `derive_key` and steps with the streaming hasher:
        // the public key digest and a signature must be byte-identical.
        use crate::hmac::derive_key;
        let seed = [3u8; 32];
        let index = 5u64;
        let step = |x: Digest32, j: usize, position: u8| {
            let mut h = Sha256::new();
            h.update(x.as_bytes());
            h.update(&[j as u8, position]);
            h.update(STEP_TAG);
            h.finalize()
        };
        let heads: Vec<Digest32> =
            (0..CHAINS).map(|j| derive_key(&seed, "wots/sk", index * 67 + j as u64)).collect();
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
