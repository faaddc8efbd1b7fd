//! Lamport one-time signatures over 256-bit message digests.
//!
//! The classic hash-based scheme: the secret key is 256 pairs of random
//! 32-byte values, the public key is their hashes, and a signature reveals
//! one value per message bit. Security rests only on the preimage resistance
//! of SHA-256 — no number theory, which keeps this crate's trust base equal
//! to the hashlock primitive itself.
//!
//! A key pair must sign **at most one** message; the [`mss`](crate::mss)
//! module lifts these one-time keys into a many-time identity.

use serde::{Deserialize, Serialize};

use crate::hmac::HmacEngine;
use crate::sha256::{sha256_32, Digest32, Sha256};

/// Bits per message digest, i.e. value pairs per key.
pub const BITS: usize = 256;

/// A Lamport one-time secret key.
///
/// The 2·256 secret values are **not stored**: the key holds only the
/// seed's [`HmacEngine`] and the key index, and re-derives
/// `values[i][b] = HMAC(seed, "lamport/v{b}" || be64(index·256 + i))` at
/// sign time. That makes keygen public-hash-only (no secret-side
/// materialization or allocation) and shrinks a resident keypair from
/// ~16 KiB of secrets to two hash midstates.
#[derive(Clone)]
pub struct LamportSecretKey {
    engine: HmacEngine,
    index: u64,
}

impl LamportSecretKey {
    /// Secret value for message bit `i` equal to `bit` — derived on demand.
    fn value(&self, i: usize, bit: usize) -> Digest32 {
        let label = if bit == 0 { "lamport/v0" } else { "lamport/v1" };
        self.engine.derive(label, self.index * BITS as u64 + i as u64)
    }
}

impl std::fmt::Debug for LamportSecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LamportSecretKey(<redacted>)")
    }
}

/// A Lamport one-time public key, pre-compressed to the single digest in
/// which one-time keys appear as Merkle leaves (the fold of the 2·256
/// per-value hashes; the individual hashes are never stored — a verifier
/// reconstructs them from the signature itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LamportPublicKey {
    digest: Digest32,
}

impl LamportPublicKey {
    /// The compressed public key digest.
    pub fn digest(&self) -> Digest32 {
        self.digest
    }
}

/// A Lamport signature: per message bit, the revealed secret value plus the
/// complementary public hash (so a verifier can reconstruct the compressed
/// public key digest without out-of-band key blocks).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LamportSignature {
    /// Revealed secret value for each message bit.
    revealed: Vec<Digest32>,
    /// Public hash of the *unrevealed* partner value for each bit.
    complement: Vec<Digest32>,
}

impl LamportSignature {
    /// Wire size in bytes: 2 × 256 × 32.
    pub const ENCODED_LEN: usize = 2 * BITS * 32;

    /// Byte size of this signature as transmitted.
    pub fn byte_len(&self) -> usize {
        Self::ENCODED_LEN
    }

    /// Folds the signature contents into a digest, used when an outer party
    /// signs *this signature* in a hashkey chain.
    pub fn digest(&self) -> Digest32 {
        let mut h = Sha256::new();
        for d in &self.revealed {
            h.update(d.as_bytes());
        }
        for d in &self.complement {
            h.update(d.as_bytes());
        }
        h.finalize()
    }

    /// Reconstructs the compressed one-time public key digest this signature
    /// commits to for `message`, or `None` if the signature is structurally
    /// invalid. Verification is "reconstruct, then compare to the trusted
    /// key digest".
    pub fn reconstruct_pk_digest(&self, message: &Digest32) -> Option<Digest32> {
        if self.revealed.len() != BITS || self.complement.len() != BITS {
            return None;
        }
        let mut h = Sha256::new();
        for i in 0..BITS {
            let revealed_hash = sha256_32(self.revealed[i].as_bytes());
            if bit_of(message, i) == 0 {
                fold_pair(&mut h, &revealed_hash, &self.complement[i]);
            } else {
                fold_pair(&mut h, &self.complement[i], &revealed_hash);
            }
        }
        Some(h.finalize())
    }
}

/// Generates a key pair deterministically from `seed` and a key index.
///
/// Distinct `(seed, index)` pairs yield independent keys, which is how the
/// Merkle scheme derives its leaf keys. Callers generating many keys from
/// one seed should build the [`HmacEngine`] once and use [`keygen_with`].
pub fn keygen(seed: &[u8; 32], index: u64) -> (LamportSecretKey, LamportPublicKey) {
    keygen_with(&HmacEngine::new(seed), index)
}

/// [`keygen`] with the seed's HMAC engine pre-built, so the padded-key
/// compressions amortize over every leaf of a Merkle tree.
pub fn keygen_with(engine: &HmacEngine, index: u64) -> (LamportSecretKey, LamportPublicKey) {
    let pk = public_key_with(engine, index);
    (LamportSecretKey { engine: engine.clone(), index }, pk)
}

/// The secret half alone, with no public-side hashing at all — used by the
/// Merkle scheme at sign time, where the leaf's public digest already sits
/// in the published tree.
pub fn secret_key_with(engine: &HmacEngine, index: u64) -> LamportSecretKey {
    LamportSecretKey { engine: engine.clone(), index }
}

/// Computes only the compressed public key digest for `(seed, index)` —
/// the Merkle-leaf content — streaming the 2·256 per-value hashes straight
/// into the fold without materializing either side of the key.
pub fn public_key_with(engine: &HmacEngine, index: u64) -> LamportPublicKey {
    let base = index * BITS as u64;
    let mut h = Sha256::new();
    for i in 0..BITS as u64 {
        let v0 = engine.derive("lamport/v0", base + i);
        let v1 = engine.derive("lamport/v1", base + i);
        fold_pair(&mut h, &sha256_32(v0.as_bytes()), &sha256_32(v1.as_bytes()));
    }
    LamportPublicKey { digest: h.finalize() }
}

/// Feeds one message bit's `h0 ‖ h1` into the public-key fold
/// `SHA-256(h0[0] ‖ h1[0] ‖ h0[1] ‖ …)` as a whole 64-byte block, so the
/// hasher compresses it where it stands and never buffers.
fn fold_pair(fold: &mut Sha256, h0: &Digest32, h1: &Digest32) {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(h0.as_bytes());
    block[32..].copy_from_slice(h1.as_bytes());
    fold.update(&block);
}

/// Signs a 256-bit message digest, consuming the one-time key.
///
/// Taking the key by value enforces one-time use at the type level: a
/// `LamportSecretKey` cannot be signed with twice without cloning, and
/// cloning to re-sign is a deliberate (and greppable) act. The secret
/// values are derived here, on demand — signing is the first (and only)
/// time they exist in memory.
pub fn sign(key: LamportSecretKey, message: &Digest32) -> LamportSignature {
    let mut revealed = Vec::with_capacity(BITS);
    let mut complement = Vec::with_capacity(BITS);
    for i in 0..BITS {
        let bit = bit_of(message, i);
        revealed.push(key.value(i, bit));
        complement.push(sha256_32(key.value(i, 1 - bit).as_bytes()));
    }
    LamportSignature { revealed, complement }
}

/// Verifies `sig` on `message` against a compressed public key digest.
///
/// Reconstructs the full public key from the revealed values (hashing them)
/// and the complementary hashes, compresses it, and compares with
/// `pk_digest`.
pub fn verify(sig: &LamportSignature, message: &Digest32, pk_digest: &Digest32) -> bool {
    sig.reconstruct_pk_digest(message) == Some(*pk_digest)
}

/// Bit `i` of a digest, MSB-first within each byte.
fn bit_of(d: &Digest32, i: usize) -> usize {
    let byte = d.as_bytes()[i / 8];
    ((byte >> (7 - (i % 8))) & 1) as usize
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
        let seed = [42u8; 32];
        let (sk, pk) = keygen(&seed, 0);
        let m = msg(b"hello");
        let sig = sign(sk, &m);
        assert!(verify(&sig, &m, &pk.digest()));
    }

    #[test]
    fn wrong_message_rejected() {
        let (sk, pk) = keygen(&[1u8; 32], 0);
        let sig = sign(sk, &msg(b"pay bob 5"));
        assert!(!verify(&sig, &msg(b"pay mallory 500"), &pk.digest()));
    }

    #[test]
    fn wrong_key_rejected() {
        let (sk, _) = keygen(&[1u8; 32], 0);
        let (_, pk2) = keygen(&[2u8; 32], 0);
        let m = msg(b"x");
        let sig = sign(sk, &m);
        assert!(!verify(&sig, &m, &pk2.digest()));
    }

    #[test]
    fn distinct_indices_yield_distinct_keys() {
        let seed = [9u8; 32];
        let (_, pk0) = keygen(&seed, 0);
        let (_, pk1) = keygen(&seed, 1);
        assert_ne!(pk0.digest(), pk1.digest());
    }

    #[test]
    fn keygen_deterministic() {
        let seed = [7u8; 32];
        let (_, a) = keygen(&seed, 3);
        let (_, b) = keygen(&seed, 3);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn tampered_signature_rejected() {
        let (sk, pk) = keygen(&[5u8; 32], 0);
        let m = msg(b"msg");
        let mut sig = sign(sk, &m);
        sig.revealed[17] = sha256(b"tamper");
        assert!(!verify(&sig, &m, &pk.digest()));
    }

    #[test]
    fn tampered_complement_rejected() {
        let (sk, pk) = keygen(&[5u8; 32], 0);
        let m = msg(b"msg");
        let mut sig = sign(sk, &m);
        sig.complement[200] = sha256(b"tamper");
        assert!(!verify(&sig, &m, &pk.digest()));
    }

    #[test]
    fn truncated_signature_rejected() {
        let (sk, pk) = keygen(&[5u8; 32], 0);
        let m = msg(b"msg");
        let mut sig = sign(sk, &m);
        sig.revealed.pop();
        assert!(!verify(&sig, &m, &pk.digest()));
    }

    #[test]
    fn signature_digest_is_content_sensitive() {
        let (sk, _) = keygen(&[5u8; 32], 0);
        let m = msg(b"msg");
        let sig = sign(sk, &m);
        let d1 = sig.digest();
        let mut tampered = sig.clone();
        tampered.revealed[0] = sha256(b"other");
        assert_ne!(d1, tampered.digest());
    }

    #[test]
    fn byte_len_constant() {
        let (sk, _) = keygen(&[5u8; 32], 0);
        let sig = sign(sk, &msg(b"m"));
        assert_eq!(sig.byte_len(), LamportSignature::ENCODED_LEN);
        assert_eq!(sig.byte_len(), 16384);
    }

    #[test]
    fn secret_key_debug_redacted() {
        let (sk, _) = keygen(&[1u8; 32], 0);
        assert_eq!(format!("{sk:?}"), "LamportSecretKey(<redacted>)");
    }

    #[test]
    fn lazy_derivation_matches_materialized_reference() {
        // Pin the lazy scheme against an eager re-derivation of every
        // secret value with the original `derive_key` calls: the public
        // key digest and a signature must be byte-identical to what the
        // materializing implementation produced.
        use crate::hmac::derive_key;
        let seed = [3u8; 32];
        let index = 5u64;
        let (sk, pk) = keygen(&seed, index);
        let mut fold = Sha256::new();
        let mut eager = Vec::with_capacity(BITS);
        for i in 0..BITS {
            let v0 = derive_key(&seed, "lamport/v0", index * BITS as u64 + i as u64);
            let v1 = derive_key(&seed, "lamport/v1", index * BITS as u64 + i as u64);
            fold.update(sha256(v0.as_bytes()).as_bytes());
            fold.update(sha256(v1.as_bytes()).as_bytes());
            eager.push([v0, v1]);
        }
        assert_eq!(pk.digest(), fold.finalize());
        let m = msg(b"pinned");
        let sig = sign(sk, &m);
        for (i, pair) in eager.iter().enumerate() {
            let bit = bit_of(&m, i);
            assert_eq!(sig.revealed[i], pair[bit], "revealed value {i}");
            assert_eq!(sig.complement[i], sha256(pair[1 - bit].as_bytes()), "complement {i}");
        }
        assert!(verify(&sig, &m, &pk.digest()));
    }

    #[test]
    fn shared_engine_keygen_matches_seed_keygen() {
        let seed = [11u8; 32];
        let engine = HmacEngine::new(&seed);
        for index in 0..4u64 {
            let (_, a) = keygen(&seed, index);
            let (_, b) = keygen_with(&engine, index);
            assert_eq!(a.digest(), b.digest());
            assert_eq!(public_key_with(&engine, index).digest(), a.digest());
        }
    }

    #[test]
    fn bit_extraction_msb_first() {
        let mut b = [0u8; 32];
        b[0] = 0b1000_0000;
        b[1] = 0b0000_0001;
        let d = Digest32(b);
        assert_eq!(bit_of(&d, 0), 1);
        assert_eq!(bit_of(&d, 1), 0);
        assert_eq!(bit_of(&d, 15), 1);
    }
}
