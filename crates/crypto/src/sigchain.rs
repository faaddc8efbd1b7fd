//! Nested hashkey signature chains (§4.1 of the paper).
//!
//! A hashkey for hashlock `h` on arc `(u, v)` is a triple `(s, p, σ)` where
//! `p = (u₀, …, u_k)` is a path from the counterparty `u₀ = v` to the leader
//! `u_k` who generated `s`, and
//!
//! ```text
//! σ = sig(··· sig(s, u_k) ···, u₀)
//! ```
//!
//! — the leader signs the secret, then each party along the path (walking
//! outward) signs the previous signature. A [`SigChain`] stores these links
//! innermost-first, so `links[0]` is the leader's signature and
//! `links[k]` belongs to `u₀`.
//!
//! # Each link is verified once
//!
//! [`SigChain::extend`] shares the inherited links by `Arc`, so along a
//! path every contract is handed the *same* signature objects its
//! predecessors already checked, under the same keys over the same
//! messages. [`SigChain::verify`] therefore asks each link through the
//! per-signature proof memo (see [`mss`](crate::mss)): a link answers at
//! once when the `(message, key)` statement equals the one it was already
//! proven under, and runs the full MSS verification otherwise. An unlock
//! with path `p` then costs one full verification — the newest link — plus
//! `|p|` 32-byte comparisons, instead of `|p| + 1` verifications and as
//! many 2.1 KiB body hashes.
//!
//! There is no cache to size, key or evict: the memo lives in the link and
//! dies with its last `Arc`. Soundness is the two rules stated in
//! [`mss`](crate::mss) — a hit needs the whole statement to be equal, and
//! signed contents never change under a set cell — so a warmed link
//! replayed under another vertex's key, another secret or after a
//! different predecessor misses and is judged by the full check. The
//! message a link is checked against is recomputed here from the secret
//! and the preceding link's digest on every call; nothing about the
//! *chain* is remembered, only facts about single signatures. Failures are
//! never recorded, so a rejected presentation leaves every cell as it was.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::mss::{KeysExhaustedError, MssKeypair, MssPublicKey, MssSignature};
use crate::secret::Secret;
use crate::sha256::{tagged_hash, Digest32};

const LEADER_MSG_TAG: &str = "swap/sigchain/leader/v1";
const WRAP_MSG_TAG: &str = "swap/sigchain/wrap/v1";

/// An on-chain party address: a tagged hash of the party's public key.
///
/// # Example
///
/// ```
/// use swap_crypto::MssKeypair;
/// let kp = MssKeypair::from_seed_with_height([1u8; 32], 2);
/// let addr = kp.public_key().address();
/// assert_eq!(addr, kp.public_key().address()); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Address(Digest32);

impl Address {
    /// Wraps an already-computed digest as an address.
    pub const fn from_digest(d: Digest32) -> Self {
        Address(d)
    }

    /// The underlying digest.
    pub const fn digest(&self) -> &Digest32 {
        &self.0
    }

    /// Byte size as stored on-chain.
    pub const ENCODED_LEN: usize = 32;
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0.short())
    }
}

/// Why a [`SigChain`] failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigChainError {
    /// The chain's link count differs from the path's vertex count.
    LengthMismatch {
        /// Number of links in the chain.
        links: usize,
        /// Number of vertexes in the path.
        path_vertices: usize,
    },
    /// A link failed signature verification.
    BadSignature {
        /// Zero-based position, innermost (leader) first.
        position: usize,
    },
    /// A signer ran out of one-time keys while extending the chain.
    Exhausted(KeysExhaustedError),
}

impl fmt::Display for SigChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigChainError::LengthMismatch { links, path_vertices } => {
                write!(f, "chain has {links} links but path has {path_vertices} vertexes")
            }
            SigChainError::BadSignature { position } => {
                write!(f, "signature at chain position {position} is invalid")
            }
            SigChainError::Exhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SigChainError {}

impl From<KeysExhaustedError> for SigChainError {
    fn from(e: KeysExhaustedError) -> Self {
        SigChainError::Exhausted(e)
    }
}

/// The nested signature `σ` of a hashkey, innermost (leader) link first.
///
/// # Example
///
/// ```
/// use swap_crypto::{MssKeypair, Secret, SigChain};
/// let mut leader = MssKeypair::from_seed_with_height([1u8; 32], 2);
/// let mut relay = MssKeypair::from_seed_with_height([2u8; 32], 2);
/// let s = Secret::from_bytes([9u8; 32]);
///
/// // Leader signs the secret; the relay wraps the leader's signature.
/// let chain = SigChain::sign_secret(&mut leader, &s).unwrap();
/// let chain = chain.extend(&mut relay).unwrap();
///
/// // Path order is (counterparty .. leader) = (relay, leader).
/// let keys = [relay.public_key(), leader.public_key()];
/// assert!(chain.verify(&s, &keys).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SigChain {
    /// Links behind `Arc` so extension shares them with the source chain
    /// instead of deep-copying ~2.1 KiB of signature per inherited link.
    links: Vec<Arc<MssSignature>>,
}

impl SigChain {
    /// Starts a chain: the leader signs `sig(s, u_k)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the leader's one-time keys are exhausted.
    pub fn sign_secret(leader: &mut MssKeypair, secret: &Secret) -> Result<Self, SigChainError> {
        let msg = leader_message(secret);
        let link = leader.sign(&msg)?;
        Ok(SigChain { links: vec![Arc::new(link)] })
    }

    /// Extends the chain one hop outward: party `v` computes
    /// `sig(σ_prev, v)`, matching the paper's `unlock(s, v + p, sig(σ, v))`
    /// step. The inherited links are shared with `self` (reference-count
    /// bumps), so extension copies O(1) signature bytes regardless of chain
    /// length.
    ///
    /// # Errors
    ///
    /// Returns an error if the signer's one-time keys are exhausted.
    pub fn extend(&self, signer: &mut MssKeypair) -> Result<Self, SigChainError> {
        let msg = wrap_message(self.links.last().expect("chains are non-empty"));
        let link = signer.sign(&msg)?;
        let mut links = Vec::with_capacity(self.links.len() + 1);
        links.extend(self.links.iter().cloned());
        links.push(Arc::new(link));
        Ok(SigChain { links })
    }

    /// The links, innermost (leader) first. Exposed so callers can assert
    /// structural sharing (`Arc::ptr_eq`) and meter real payload sizes.
    pub fn links(&self) -> &[Arc<MssSignature>] {
        &self.links
    }

    /// Verifies the chain against `secret` and the path's public keys.
    ///
    /// `path_keys` is in *path order* `(u₀, …, u_k)`: counterparty first,
    /// leader last — the same order as the hashkey's path argument, so the
    /// contract can zip path vertexes with registered keys directly.
    ///
    /// # Errors
    ///
    /// Returns [`SigChainError::LengthMismatch`] or the first
    /// [`SigChainError::BadSignature`] encountered (checked innermost-out).
    pub fn verify(&self, secret: &Secret, path_keys: &[MssPublicKey]) -> Result<(), SigChainError> {
        if self.links.len() != path_keys.len() {
            return Err(SigChainError::LengthMismatch {
                links: self.links.len(),
                path_vertices: path_keys.len(),
            });
        }
        // links[0] = leader = path_keys[last]; links[i] = path_keys[k - i].
        for (i, (link, key)) in self.links.iter().zip(path_keys.iter().rev()).enumerate() {
            // Each message derives from the link *before*, so the last
            // link's body is never hashed here.
            let expected_msg = match i.checked_sub(1) {
                None => leader_message(secret),
                Some(prev) => wrap_message(&self.links[prev]),
            };
            if !link.verified_by(key, &expected_msg) {
                return Err(SigChainError::BadSignature { position: i });
            }
        }
        Ok(())
    }

    /// Number of links (path vertexes covered).
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Chains are never empty; this exists for clippy-friendliness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total wire size in bytes.
    pub fn byte_len(&self) -> usize {
        self.links.iter().map(|l| l.byte_len()).sum()
    }
}

fn leader_message(secret: &Secret) -> Digest32 {
    tagged_hash(LEADER_MSG_TAG, secret.reveal())
}

fn wrap_message(prev: &MssSignature) -> Digest32 {
    tagged_hash(WRAP_MSG_TAG, prev.digest().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(seed: u8) -> MssKeypair {
        MssKeypair::from_seed_with_height([seed; 32], 3)
    }

    #[test]
    fn leader_only_chain() {
        let mut leader = kp(1);
        let s = Secret::from_bytes([7u8; 32]);
        let chain = SigChain::sign_secret(&mut leader, &s).unwrap();
        assert_eq!(chain.len(), 1);
        assert!(!chain.is_empty());
        // Degenerate path (leader unlocking its own entering arc).
        assert!(chain.verify(&s, &[leader.public_key()]).is_ok());
    }

    #[test]
    fn three_hop_chain_verifies_in_path_order() {
        let mut leader = kp(1);
        let mut mid = kp(2);
        let mut outer = kp(3);
        let s = Secret::from_bytes([9u8; 32]);
        let chain = SigChain::sign_secret(&mut leader, &s)
            .unwrap()
            .extend(&mut mid)
            .unwrap()
            .extend(&mut outer)
            .unwrap();
        assert_eq!(chain.len(), 3);
        // Path (outer, mid, leader).
        let keys = [outer.public_key(), mid.public_key(), leader.public_key()];
        assert!(chain.verify(&s, &keys).is_ok());
    }

    #[test]
    fn wrong_secret_rejected() {
        let mut leader = kp(1);
        let s = Secret::from_bytes([9u8; 32]);
        let chain = SigChain::sign_secret(&mut leader, &s).unwrap();
        let wrong = Secret::from_bytes([10u8; 32]);
        assert_eq!(
            chain.verify(&wrong, &[leader.public_key()]),
            Err(SigChainError::BadSignature { position: 0 })
        );
    }

    #[test]
    fn shuffled_keys_rejected() {
        let mut leader = kp(1);
        let mut mid = kp(2);
        let s = Secret::from_bytes([9u8; 32]);
        let chain = SigChain::sign_secret(&mut leader, &s).unwrap().extend(&mut mid).unwrap();
        // Keys in the wrong order (leader first).
        let err = chain.verify(&s, &[leader.public_key(), mid.public_key()]).unwrap_err();
        assert!(matches!(err, SigChainError::BadSignature { .. }));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut leader = kp(1);
        let s = Secret::from_bytes([9u8; 32]);
        let chain = SigChain::sign_secret(&mut leader, &s).unwrap();
        let err = chain.verify(&s, &[leader.public_key(), kp(2).public_key()]).unwrap_err();
        assert_eq!(err, SigChainError::LengthMismatch { links: 1, path_vertices: 2 });
        assert!(err.to_string().contains("1 links"));
    }

    #[test]
    fn impostor_extension_detected() {
        // Mallory extends the chain but the path claims Bob signed.
        let mut leader = kp(1);
        let mut mallory = kp(66);
        let bob = kp(2);
        let s = Secret::from_bytes([9u8; 32]);
        let chain = SigChain::sign_secret(&mut leader, &s).unwrap().extend(&mut mallory).unwrap();
        let err = chain.verify(&s, &[bob.public_key(), leader.public_key()]).unwrap_err();
        assert_eq!(err, SigChainError::BadSignature { position: 1 });
    }

    #[test]
    fn middle_link_tamper_detected() {
        let mut leader = kp(1);
        let mut mid = kp(2);
        let mut outer = kp(3);
        let s = Secret::from_bytes([9u8; 32]);
        let good = SigChain::sign_secret(&mut leader, &s)
            .unwrap()
            .extend(&mut mid)
            .unwrap()
            .extend(&mut outer)
            .unwrap();
        // Replace the middle link with a signature over something else.
        let mut evil_mid = kp(2);
        let decoy = SigChain::sign_secret(&mut evil_mid, &Secret::from_bytes([1u8; 32])).unwrap();
        let mut tampered = good.clone();
        tampered.links[1] = decoy.links[0].clone();
        let keys = [outer.public_key(), mid.public_key(), leader.public_key()];
        let err = tampered.verify(&s, &keys).unwrap_err();
        assert!(matches!(err, SigChainError::BadSignature { position } if position >= 1));
    }

    #[test]
    fn byte_len_grows_per_link() {
        let mut leader = kp(1);
        let mut mid = kp(2);
        let s = Secret::from_bytes([9u8; 32]);
        let one = SigChain::sign_secret(&mut leader, &s).unwrap();
        let two = one.extend(&mut mid).unwrap();
        assert!(two.byte_len() > one.byte_len());
        assert_eq!(two.byte_len(), one.byte_len() * 2);
    }

    #[test]
    fn extension_shares_inherited_links() {
        // Extending must bump refcounts on the inherited links, never
        // deep-copy them.
        let mut leader = kp(1);
        let mut mid = kp(2);
        let mut outer = kp(3);
        let s = Secret::from_bytes([9u8; 32]);
        let base = SigChain::sign_secret(&mut leader, &s).unwrap();
        let two = base.extend(&mut mid).unwrap();
        let three = two.extend(&mut outer).unwrap();
        assert!(Arc::ptr_eq(&base.links()[0], &two.links()[0]));
        for (i, link) in two.links().iter().enumerate() {
            assert!(Arc::ptr_eq(link, &three.links()[i]), "link {i} deep-copied");
        }
    }

    /// A deep copy: fresh `Arc`s around cloned signatures, so every memo
    /// cell is empty however warm `chain` is.
    fn cold(chain: &SigChain) -> SigChain {
        SigChain { links: chain.links.iter().map(|l| Arc::new(MssSignature::clone(l))).collect() }
    }

    /// The oracle: `verify` as it was before the memo — every link through
    /// the full [`MssPublicKey::verify`], every body hashed — run on a
    /// [`cold`] copy so it neither reads nor warms a cell of `chain`.
    fn verify_uncached(
        chain: &SigChain,
        secret: &Secret,
        path_keys: &[MssPublicKey],
    ) -> Result<(), SigChainError> {
        let links = cold(chain).links;
        if links.len() != path_keys.len() {
            return Err(SigChainError::LengthMismatch {
                links: links.len(),
                path_vertices: path_keys.len(),
            });
        }
        let k = path_keys.len() - 1;
        let mut expected_msg = leader_message(secret);
        for (i, link) in links.iter().enumerate() {
            if !path_keys[k - i].verify(&expected_msg, link) {
                return Err(SigChainError::BadSignature { position: i });
            }
            expected_msg = wrap_message(link);
        }
        Ok(())
    }

    fn fully_warm(chain: &SigChain) -> bool {
        chain.links.iter().all(|l| l.proven().is_some())
    }

    #[test]
    fn failed_verification_sets_no_cell() {
        let mut leader = kp(1);
        let mut mallory = kp(66);
        let bob = kp(2);
        let s = Secret::from_bytes([9u8; 32]);
        let wrong = Secret::from_bytes([10u8; 32]);
        let one = SigChain::sign_secret(&mut leader, &s).unwrap();
        assert!(one.verify(&wrong, &[leader.public_key()]).is_err());
        assert!(one.verify(&s, &[bob.public_key()]).is_err());
        assert!(one.links[0].proven().is_none() && !one.links[0].digest_is_cached());
        // The failing link of a longer chain stays untouched too, while the
        // link before it — which did verify — is recorded.
        let two = one.extend(&mut mallory).unwrap();
        let err = two.verify(&s, &[bob.public_key(), leader.public_key()]).unwrap_err();
        assert_eq!(err, SigChainError::BadSignature { position: 1 });
        assert!(two.links[1].proven().is_none() && !two.links[1].digest_is_cached());
        assert!(two.links[0].proven().is_some());
        // Nothing was poisoned: the legitimate statements verify afterwards.
        assert!(one.verify(&s, &[leader.public_key()]).is_ok());
        assert!(two.verify(&s, &[mallory.public_key(), leader.public_key()]).is_ok());
        assert!(fully_warm(&two));
    }

    #[test]
    fn warmed_link_under_another_statement_is_fully_checked() {
        let mut leader = kp(1);
        let mut mid = kp(2);
        let s = Secret::from_bytes([9u8; 32]);
        let chain = SigChain::sign_secret(&mut leader, &s).unwrap().extend(&mut mid).unwrap();
        let keys = [mid.public_key(), leader.public_key()];
        assert!(chain.verify(&s, &keys).is_ok());
        let recorded: Vec<_> = chain.links.iter().map(|l| *l.proven().unwrap()).collect();
        // Another message for link 0 (wrong secret), another key for link 0
        // (an outsider named as leader), another key for link 1.
        let wrong = Secret::from_bytes([10u8; 32]);
        let outsider = kp(3).public_key();
        assert_eq!(chain.verify(&wrong, &keys), Err(SigChainError::BadSignature { position: 0 }));
        assert_eq!(
            chain.verify(&s, &[mid.public_key(), outsider]),
            Err(SigChainError::BadSignature { position: 0 })
        );
        assert_eq!(
            chain.verify(&s, &[outsider, leader.public_key()]),
            Err(SigChainError::BadSignature { position: 1 })
        );
        // Another *message* for the warmed link 1: the same object behind a
        // different predecessor.
        let mut leader2 = kp(1);
        let other = SigChain::sign_secret(&mut leader2, &wrong).unwrap();
        assert!(other.verify(&wrong, &keys[1..]).is_ok());
        let spliced = SigChain { links: vec![other.links[0].clone(), chain.links[1].clone()] };
        assert_eq!(spliced.verify(&wrong, &keys), Err(SigChainError::BadSignature { position: 1 }));
        // The rejections recorded nothing new and the real statement holds.
        let after: Vec<_> = chain.links.iter().map(|l| *l.proven().unwrap()).collect();
        assert_eq!(recorded, after);
        assert!(chain.verify(&s, &keys).is_ok());
    }

    #[test]
    fn clone_and_equality_ignore_the_cells() {
        let s = Secret::from_bytes([9u8; 32]);
        let build = || {
            let (mut leader, mut mid) = (kp(1), kp(2));
            SigChain::sign_secret(&mut leader, &s).unwrap().extend(&mut mid).unwrap()
        };
        let (warm, fresh) = (build(), build());
        assert!(warm.verify(&s, &[kp(2).public_key(), kp(1).public_key()]).is_ok());
        assert!(fully_warm(&warm) && !fully_warm(&fresh));
        assert_eq!(warm, fresh);
        assert_eq!(warm.byte_len(), fresh.byte_len());
        assert_eq!(warm.links[1].digest(), fresh.links[1].digest());
        // Cloning the chain shares the links, cells included; cloning a
        // signature copies the signed contents and nothing else.
        assert!(fully_warm(&warm.clone()));
        let copy = MssSignature::clone(&warm.links[0]);
        assert_eq!(copy, *warm.links[0]);
        assert!(warm.links[0].digest_is_cached());
        assert!(copy.proven().is_none() && !copy.digest_is_cached());
    }

    #[test]
    fn each_link_body_is_hashed_once() {
        let (mut leader, mut mid, mut outer) = (kp(1), kp(2), kp(3));
        let s = Secret::from_bytes([9u8; 32]);
        let cached =
            |c: &SigChain| -> Vec<bool> { c.links.iter().map(|l| l.digest_is_cached()).collect() };
        // verify → extend: verifying never hashes the last link; extending
        // hashes it, and the later verify reads that cell.
        let one = SigChain::sign_secret(&mut leader, &s).unwrap();
        assert!(one.verify(&s, &[leader.public_key()]).is_ok());
        assert_eq!(cached(&one), [false]);
        let two = one.extend(&mut mid).unwrap();
        assert_eq!(cached(&two), [true, false]);
        assert!(two.verify(&s, &[mid.public_key(), leader.public_key()]).is_ok());
        assert_eq!(cached(&two), [true, false]);
        // extend → verify, on a chain nobody verified in between.
        let three = two.extend(&mut outer).unwrap();
        assert_eq!(cached(&three), [true, true, false]);
        let keys = [outer.public_key(), mid.public_key(), leader.public_key()];
        assert!(three.verify(&s, &keys).is_ok());
        assert_eq!(cached(&three), [true, true, false]);
        // What the cells hold is the digest of the body.
        for (warm, cold) in three.links.iter().zip(&cold(&three).links) {
            assert!(!cold.digest_is_cached());
            assert_eq!(warm.digest(), cold.digest());
        }
    }

    /// Signers for the property below, minted once: a case clones the
    /// handles it needs (an `Arc` bump) and signs from leaf 0 again.
    fn signer_pool() -> &'static [MssKeypair] {
        static POOL: std::sync::OnceLock<Vec<MssKeypair>> = std::sync::OnceLock::new();
        POOL.get_or_init(|| (1..=6).map(kp).collect())
    }

    fn chain_over(signers: &mut [MssKeypair], secret: &Secret) -> SigChain {
        let (leader, rest) = signers.split_first_mut().expect("at least a leader");
        let mut chain = SigChain::sign_secret(leader, secret).unwrap();
        for signer in rest {
            chain = chain.extend(signer).unwrap();
        }
        chain
    }

    proptest::proptest! {
        /// The memo is the full check: on a chain of 1–5 links with one
        /// mutation (or none), `verify` returns exactly what the
        /// un-memoised loop returns — cold, and again once the honest
        /// chains have warmed every cell the mutant shares with them.
        #[test]
        fn verify_equals_uncached_oracle(
            len in 1usize..6,
            mutation in 0usize..6,
            at in proptest::prelude::any::<u64>(),
        ) {
            let pool = signer_pool();
            let (s, s2) = (Secret::from_bytes([9u8; 32]), Secret::from_bytes([10u8; 32]));
            // Signers innermost-first, as the links are; keys in path order.
            let mut signers = pool[..len].to_vec();
            let good_keys: Vec<_> = signers.iter().rev().map(|k| k.public_key()).collect();
            let good = chain_over(&mut signers, &s);
            let other = chain_over(&mut signers, &s2);
            let mut outsider = pool[5].clone();
            let pos = (at % len as u64) as usize;

            let (mut links, mut keys, mut secret) = (good.links.clone(), good_keys.clone(), s);
            let expected_err = match mutation {
                // A link swapped for another signer's, over the right message.
                0 => {
                    let msg = match pos.checked_sub(1) {
                        None => leader_message(&s),
                        Some(prev) => wrap_message(&MssSignature::clone(&links[prev])),
                    };
                    links[pos] = Arc::new(outsider.sign(&msg).unwrap());
                    Some(SigChainError::BadSignature { position: pos })
                }
                // Keys permuted (a lone key is replaced instead).
                1 => {
                    if len == 1 {
                        keys[0] = outsider.public_key();
                    } else {
                        keys.rotate_left(1 + pos % (len - 1));
                    }
                    Some(SigChainError::BadSignature { position: 0 })
                }
                2 => {
                    secret = s2;
                    Some(SigChainError::BadSignature { position: 0 })
                }
                // A link of the other chain — same signer, same leaf, another
                // secret underneath — spliced in.
                3 => {
                    links[pos] = other.links[pos].clone();
                    Some(SigChainError::BadSignature { position: pos })
                }
                4 => {
                    // One key too many, or — when there is one to drop —
                    // one too few.
                    if at.is_multiple_of(2) || len == 1 {
                        keys.push(outsider.public_key());
                    } else {
                        keys.pop();
                    }
                    Some(SigChainError::LengthMismatch { links: len, path_vertices: keys.len() })
                }
                _ => None,
            };
            let mutant = SigChain { links };
            let expected = verify_uncached(&mutant, &secret, &keys);
            proptest::prop_assert_eq!(expected.clone().err(), expected_err);
            proptest::prop_assert!(!fully_warm(&good) && !fully_warm(&other));

            proptest::prop_assert_eq!(cold(&mutant).verify(&secret, &keys), expected.clone());

            proptest::prop_assert!(good.verify(&s, &good_keys).is_ok());
            proptest::prop_assert!(other.verify(&s2, &good_keys).is_ok());
            proptest::prop_assert!(fully_warm(&good) && fully_warm(&other));
            proptest::prop_assert_eq!(mutant.verify(&secret, &keys), expected.clone());
            // And again, now that the mutant's own passing links are warm.
            proptest::prop_assert_eq!(mutant.verify(&secret, &keys), expected);
            proptest::prop_assert!(good.verify(&s, &good_keys).is_ok());
        }
    }

    #[test]
    fn exhaustion_bubbles_up() {
        let mut tiny = MssKeypair::from_seed_with_height([1u8; 32], 0);
        let s = Secret::from_bytes([9u8; 32]);
        let _ = SigChain::sign_secret(&mut tiny, &s).unwrap();
        let err = SigChain::sign_secret(&mut tiny, &s).unwrap_err();
        assert!(matches!(err, SigChainError::Exhausted(_)));
    }

    #[test]
    fn address_display() {
        let addr = kp(5).public_key().address();
        assert!(addr.to_string().starts_with('@'));
        assert_eq!(Address::ENCODED_LEN, 32);
        assert_eq!(addr.digest().as_bytes().len(), 32);
    }
}
