//! HMAC-SHA256 (RFC 2104), used for deterministic key derivation in the
//! Winternitz/Merkle signature machinery and for seeding per-party randomness.

use crate::sha256::{
    compress_x16, digest_words, finish_block, padded_words, Digest32, Sha256, MAX_FINAL_TAIL,
};

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// A keyed HMAC-SHA256 engine with the padded-key blocks pre-compressed.
///
/// A one-shot HMAC spends two of its four compressions (for short
/// messages) absorbing `key ⊕ ipad` and `key ⊕ opad` — the same two blocks
/// every time the key repeats. MSS key generation computes hundreds of
/// thousands of HMACs under *one* key (the tree seed), so the engine
/// captures both midstates once at construction and each subsequent MAC
/// costs only the message-side compressions: two total for the
/// `label || be64(index)` derivations, down from four, with no per-call
/// allocation — and [`derive`](Self::derive) builds those two blocks in
/// place instead of going through the streaming hasher.
#[derive(Debug, Clone)]
pub struct HmacEngine {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacEngine {
    /// Prepares the engine for `key` (keys longer than the block size are
    /// hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> HmacEngine {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            let kh = crate::sha256::sha256(key);
            key_block[..32].copy_from_slice(kh.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut pad = [0u8; BLOCK];
        for (p, k) in pad.iter_mut().zip(key_block.iter()) {
            *p = k ^ IPAD;
        }
        let mut inner = Sha256::new();
        inner.update(&pad);
        for (p, k) in pad.iter_mut().zip(key_block.iter()) {
            *p = k ^ OPAD;
        }
        let mut outer = Sha256::new();
        outer.update(&pad);
        HmacEngine { inner: inner.midstate(), outer: outer.midstate() }
    }

    /// `HMAC(key, parts[0] || parts[1] || …)` from the captured midstates.
    pub(crate) fn mac_parts(&self, parts: &[&[u8]]) -> Digest32 {
        let mut inner = Sha256::from_midstate(self.inner, BLOCK as u64);
        for p in parts {
            inner.update(p);
        }
        self.outer_hash(&inner.finalize())
    }

    /// The labeled, indexed subkey `HMAC(key, label || be64(index))`: the
    /// single derivation primitive behind every deterministic key tree in
    /// the workspace, without re-absorbing the key pads. A label of up to
    /// 47 bytes (every label in the workspace) leaves the inner message in
    /// one block with its padding, so the MAC is exactly two compressions
    /// with no hasher state in between; longer labels take the streaming
    /// hasher.
    pub fn derive(&self, label: &str, index: u64) -> Digest32 {
        let Some((block, len)) = Self::inner_tail(label, index) else {
            return self.mac_parts(&[label.as_bytes(), &index.to_be_bytes()]);
        };
        self.outer_hash(&finish_block(self.inner, block, len, (BLOCK + len) as u64))
    }

    /// [`derive`](Self::derive) at the sixteen indices `first..first + 16`,
    /// as the subkeys' digest words in [`compress_x16`]'s word-major layout
    /// (lane `i` is index `first + i`): the sixteen inner compressions from
    /// the captured ipad midstate in one [`compress_x16`] call, then the
    /// sixteen outer ones in another.
    pub(crate) fn derive_x16(&self, label: &str, first: u64) -> [[u32; 16]; 8] {
        let mut inner_words = [[0u32; 16]; 16];
        for lane in 0..16 {
            let index = first + lane as u64;
            let Some((block, len)) = Self::inner_tail(label, index) else {
                let derived: [_; 16] = core::array::from_fn(|lane| {
                    digest_words(&self.derive(label, first + lane as u64))
                });
                return core::array::from_fn(|k| derived.map(|words| words[k]));
            };
            let words = padded_words(block, len, (BLOCK + len) as u64);
            for (inner_word, word) in inner_words.iter_mut().zip(words) {
                inner_word[lane] = word;
            }
        }
        let mut inner = self.inner.map(|word| [word; 16]);
        compress_x16(&mut inner, &inner_words);
        // The outer message is the inner digest, its state words as they
        // stand, then the marker and the bit length of key block + 32, the
        // same in every lane.
        let mut outer_words = [[0u32; 16]; 16];
        outer_words[..8].copy_from_slice(&inner);
        outer_words[8] = [0x8000_0000; 16];
        outer_words[15] = [8 * (BLOCK + 32) as u32; 16];
        let mut outer = self.outer.map(|word| [word; 16]);
        compress_x16(&mut outer, &outer_words);
        outer
    }

    /// The inner message `label || be64(index)` at the front of an
    /// otherwise zero block, with its length — or `None` if it does not
    /// share one block with its padding.
    fn inner_tail(label: &str, index: u64) -> Option<([u8; BLOCK], usize)> {
        let label = label.as_bytes();
        let len = label.len() + 8;
        if len > MAX_FINAL_TAIL {
            return None;
        }
        let mut block = [0u8; BLOCK];
        block[..label.len()].copy_from_slice(label);
        block[label.len()..len].copy_from_slice(&index.to_be_bytes());
        Some((block, len))
    }

    /// The outer hash `H((key ⊕ opad) || inner_digest)`: always one block
    /// past the captured midstate.
    fn outer_hash(&self, inner_digest: &Digest32) -> Digest32 {
        let mut block = [0u8; BLOCK];
        block[..32].copy_from_slice(inner_digest.as_bytes());
        finish_block(self.outer, block, 32, (BLOCK + 32) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::state_to_digest;

    /// `HMAC-SHA256(key, message)` in one shot.
    fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest32 {
        HmacEngine::new(key).mac_parts(&[message])
    }

    /// `HMAC(key, label || be64(index))` from a fresh engine.
    fn derive_key(key: &[u8], label: &str, index: u64) -> Digest32 {
        HmacEngine::new(key).derive(label, index)
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            mac.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            mac.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let mac = hmac_sha256(&key, &msg);
        assert_eq!(
            mac.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1..=25).collect();
        let msg = [0xcdu8; 50];
        let mac = hmac_sha256(&key, &msg);
        assert_eq!(
            mac.to_hex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        // 131-byte key: exercises the hash-the-key path.
        let key = [0xaau8; 131];
        let mac = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            mac.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_message() {
        let key = [0xaau8; 131];
        let msg: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let mac = hmac_sha256(&key, msg);
        assert_eq!(
            mac.to_hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn engine_reuse_matches_fresh_macs() {
        let engine = HmacEngine::new(b"master seed");
        for i in 0..10u64 {
            assert_eq!(engine.derive("ots", i), derive_key(b"master seed", "ots", i));
        }
        let msg = b"what do ya want for nothing?";
        assert_eq!(
            HmacEngine::new(b"Jefe").mac_parts(&[&msg[..7], &msg[7..]]),
            hmac_sha256(b"Jefe", msg)
        );
    }

    #[test]
    fn derive_equals_mac_parts_across_the_single_block_boundary() {
        // Labels of 0..=47 bytes take the in-place single-block path,
        // 48..=60 fall back to the streaming one (which the RFC 4231
        // vectors above pin).
        let engine = HmacEngine::new(&[0x5au8; 32]);
        let long = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
        for len in 0..=60 {
            let label = &long[..len];
            for index in [0u64, 1, 0x0123_4567_89ab_cdef, u64::MAX] {
                let expected = engine.mac_parts(&[label.as_bytes(), &index.to_be_bytes()]);
                assert_eq!(engine.derive(label, index), expected, "label len {len}");
            }
        }
    }

    #[test]
    fn derive_x16_equals_sixteen_derives() {
        // Both sides of the single-block boundary (the kernel, and the
        // fallback to sixteen `derive`s), and indices whose big-endian
        // bytes carry across every word of the inner block.
        let engine = HmacEngine::new(&[0x3cu8; 32]);
        for label in ["wots/sk", "", &"x".repeat(47), &"y".repeat(48)] {
            for first in [0u64, 0xff_fff8, 0x0123_4567_89ab_cdef, u64::MAX - 15] {
                let x16 = engine.derive_x16(label, first);
                for (lane, index) in (first..=first + 15).enumerate() {
                    let words: [u32; 8] = core::array::from_fn(|k| x16[k][lane]);
                    let expected = engine.derive(label, index);
                    assert_eq!(state_to_digest(&words), expected, "{label:?} {index}");
                }
            }
        }
    }

    #[test]
    fn derive_key_is_deterministic_and_separated() {
        let k = b"master seed";
        let a = derive_key(k, "ots", 0);
        let b = derive_key(k, "ots", 0);
        assert_eq!(a, b);
        assert_ne!(derive_key(k, "ots", 1), a);
        assert_ne!(derive_key(k, "tree", 0), a);
        assert_ne!(derive_key(b"other", "ots", 0), a);
    }
}
