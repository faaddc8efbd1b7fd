//! A Merkle signature scheme (MSS): many-time identities from one-time keys.
//!
//! Each party derives `2^h` Winternitz ([`wots`], `w = 16`)
//! one-time key pairs from a seed and publishes only the Merkle root of
//! their public key digests. Signature `i` consists of the W-OTS signature
//! under leaf key `i` — from which a verifier reconstructs that leaf's
//! public key digest — and a Merkle inclusion proof. This is the
//! `sig(x, v)` primitive of the paper (§2.2) — hash-based end to end,
//! matching the hashlock trust assumptions.
//!
//! Minting an identity is the one cost paid for all `2^h` leaves at once,
//! so [`MssKeypair::from_seed_with_height`] asks the one-time scheme for
//! the whole range of leaf keys in one call: the crate-private
//! `wots::public_keys` walks their `67 · 2^h` chains sixteen at a time and
//! folds the keys sixteen at a time, on the crate-private
//! `sha256::compress_x16` kernel. Signing derives one leaf's key on demand.
//!
//! # The per-signature proof memo
//!
//! A hashkey's links travel along a path and every contract on it checks
//! all of them, so the same immutable signature object is asked the same
//! question — "do you verify under key `k` over message `m`?" — once per
//! arc. An [`MssSignature`] therefore carries two private write-once cells
//! next to its signed contents:
//!
//! * its own [`digest`](MssSignature::digest) (the 2.1 KiB W-OTS body is
//!   hashed the first time anyone asks, then read back), and
//! * the one `(message, public key)` statement it has been **proven**
//!   under by a full [`MssPublicKey::verify`].
//!
//! [`SigChain::verify`](crate::SigChain::verify) asks through the
//! crate-private `verified_by`, which answers from the second cell only on
//! a hit and otherwise runs the full check. Two rules make that sound:
//!
//! 1. **A hit is equality of the whole statement.** Both the message and
//!    the key must equal the recorded pair; the same object presented under
//!    another vertex's key, another secret or another predecessor link
//!    misses, takes the full path and fails exactly as it always did.
//! 2. **Signed contents are immutable once a cell may be set.** The fields
//!    are private, nothing hands out `&mut` to them, and `Clone` yields a
//!    value with *empty* cells — so a memo can never describe bytes other
//!    than the ones it was computed over. (In-crate tamper tests build a
//!    fresh value; they never edit a warmed one.)
//!
//! Only successes are recorded. A failure says nothing reusable — the next
//! question may be a different statement that holds — and caching it would
//! let one bad presentation poison a link the honest parties still need.
//! [`MssPublicKey::verify`] itself stays the un-memoised full check: it is
//! what a miss runs, what `debug_assert!` re-runs on every hit (so the
//! debug-profile test suite keeps the full check as a per-step oracle), and
//! what callers outside a chain get. The cells are excluded from `==`,
//! [`byte_len`](MssSignature::byte_len) and the digest itself, so nothing a
//! contract meters or stores can see them.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::hmac::HmacEngine;
use crate::merkle::{leaf_hash, MerkleProof, MerkleTree};
use crate::sha256::{tagged_hash, Digest32, Sha256};
use crate::wots::{self, WotsSignature};

const ADDRESS_TAG: &str = "swap/address/v1";

/// Names the one-time scheme under the tree and its hash. Stored leaf
/// digests ([`MssKeypair::from_parts`]) are only meaningful to the scheme
/// that derived them, so anything that persists them must bind this.
pub const SCHEME: &str = "mss/wots16-sha256";

/// The tallest tree a keypair may have (65 536 leaves) and a public key
/// may claim.
const MAX_HEIGHT: u32 = 16;

/// Default tree height: `2^6 = 64` signatures per identity, plenty for any
/// single swap while keeping keygen fast in tests.
pub const DEFAULT_HEIGHT: u32 = 6;

/// A party's signing identity: the seed's HMAC engine, the Merkle tree
/// over one-time public key digests, and a leaf window enforcing one-time
/// discipline.
///
/// The tree is behind an `Arc`: [`lease`](MssKeypair::lease) carves a
/// half-open window of unused leaves into a cheap second handle that
/// shares the tree, which is how an identity registry hands each swap its
/// own slice of one identity without ever copying the `2^h`-leaf tree or
/// letting two swaps sign with the same leaf.
#[derive(Debug, Clone)]
pub struct MssKeypair {
    seed: [u8; 32],
    engine: HmacEngine,
    tree: Arc<MerkleTree>,
    next_leaf: u64,
    limit: u64,
    height: u32,
}

/// The public half: the Merkle root over one-time public key digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MssPublicKey {
    root: Digest32,
    height: u32,
}

/// A complete MSS signature, plus the two memo cells described in the
/// [module docs](self): what has already been computed and proven about
/// these exact bytes.
#[derive(Debug, Serialize, Deserialize)]
pub struct MssSignature {
    leaf_index: u64,
    ots: WotsSignature,
    proof: MerkleProof,
    /// [`digest`](Self::digest), once computed.
    #[serde(skip)]
    digest: OnceLock<Digest32>,
    /// The `(message, key)` statement a full verification has accepted.
    #[serde(skip)]
    proven: OnceLock<(Digest32, MssPublicKey)>,
}

/// A clone is a new object about which nothing has been proven yet: it
/// copies the signed contents and starts with empty memo cells.
impl Clone for MssSignature {
    fn clone(&self) -> Self {
        Self::new(self.leaf_index, self.ots.clone(), self.proof.clone())
    }
}

/// Equality is over the signed contents only, never the memo cells.
impl PartialEq for MssSignature {
    fn eq(&self, other: &Self) -> bool {
        self.leaf_index == other.leaf_index && self.ots == other.ots && self.proof == other.proof
    }
}

impl Eq for MssSignature {}

/// Error: all `2^h` one-time keys have been used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeysExhaustedError {
    /// The height of the exhausted key pair.
    pub height: u32,
}

impl std::fmt::Display for KeysExhaustedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all 2^{} one-time keys have been used", self.height)
    }
}

impl std::error::Error for KeysExhaustedError {}

impl MssKeypair {
    /// Derives a key pair of the default height from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        Self::from_seed_with_height(seed, DEFAULT_HEIGHT)
    }

    /// Derives a key pair with `2^height` one-time keys, minted in one
    /// batched call (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `height > 16` (65 536 leaves) — keygen cost is `O(2^h)`
    /// hashing and anything larger is a configuration error in this
    /// simulation context.
    pub fn from_seed_with_height(seed: [u8; 32], height: u32) -> Self {
        assert!(height <= MAX_HEIGHT, "MSS height {height} too large");
        let leaf_count = 1u64 << height;
        let engine = HmacEngine::new(&seed);
        let leaves: Vec<Digest32> = wots::public_keys(&engine, 0, leaf_count)
            .iter()
            .map(|key| leaf_hash(key.as_bytes()))
            .collect();
        let tree = Arc::new(MerkleTree::from_leaves(leaves).expect("leaf_count >= 1"));
        MssKeypair { seed, engine, tree, next_leaf: 0, limit: leaf_count, height }
    }

    /// Rebuilds a keypair from its seed and previously computed leaf
    /// digests, skipping the `O(2^h)` W-OTS keygen — the expensive part
    /// of [`from_seed_with_height`](Self::from_seed_with_height). This is
    /// the snapshot-recovery path: the store persists `(seed, height,
    /// leaves, next_leaf)` and gets back a keypair whose tree, signatures,
    /// and leaf cursor are identical to the original's.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty, its length is not `2^height`, or
    /// `next_leaf` exceeds the leaf count — all of which mean the caller's
    /// stored state is corrupt, which the caller must rule out first (a
    /// checksum cannot: `swap-core`'s snapshot decoder checks all three).
    pub fn from_parts(seed: [u8; 32], height: u32, leaves: Vec<Digest32>, next_leaf: u64) -> Self {
        assert!(height <= MAX_HEIGHT, "MSS height {height} too large");
        let leaf_count = 1u64 << height;
        assert_eq!(leaves.len() as u64, leaf_count, "leaf count must be 2^height");
        assert!(next_leaf <= leaf_count, "leaf cursor past the tree");
        let engine = HmacEngine::new(&seed);
        let tree = Arc::new(MerkleTree::from_leaves(leaves).expect("leaf_count >= 1"));
        MssKeypair { seed, engine, tree, next_leaf, limit: leaf_count, height }
    }

    /// The seed this keypair derives from.
    pub const fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The leaf digests of the Merkle tree, in index order — together with
    /// [`seed`](Self::seed) and [`next_leaf`](Self::next_leaf) this is the
    /// complete durable state of a master keypair (see
    /// [`from_parts`](Self::from_parts)).
    pub fn leaf_digests(&self) -> Vec<Digest32> {
        (0..self.tree.leaf_count()).filter_map(|i| self.tree.leaf(i).copied()).collect()
    }

    /// Fast-forwards the leaf cursor to `next_leaf`, for WAL replay of
    /// lease operations already reflected in the stored cursor.
    ///
    /// # Panics
    ///
    /// Panics if the cursor would move backwards or past the limit.
    pub fn with_leaf_cursor(mut self, next_leaf: u64) -> Self {
        assert!(
            next_leaf >= self.next_leaf && next_leaf <= self.limit,
            "leaf cursor {next_leaf} outside [{}, {}]",
            self.next_leaf,
            self.limit
        );
        self.next_leaf = next_leaf;
        self
    }

    /// The public key.
    pub fn public_key(&self) -> MssPublicKey {
        MssPublicKey { root: *self.tree.root(), height: self.height }
    }

    /// How many signatures remain in this handle's leaf window.
    pub fn remaining(&self) -> u64 {
        self.limit - self.next_leaf
    }

    /// The next leaf index this handle would sign with.
    pub fn next_leaf(&self) -> u64 {
        self.next_leaf
    }

    /// One past the last leaf index this handle may sign with (`2^h` for a
    /// freshly minted keypair, smaller for a [`lease`](MssKeypair::lease)).
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// The tree height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Splits off a handle over the next `count` unused leaves and advances
    /// this handle past them. The lease shares the Merkle tree (an `Arc`
    /// bump, not a copy) and the derivation engine; its `sign` runs out —
    /// with the usual checked [`KeysExhaustedError`] — after exactly
    /// `count` signatures. Windows never overlap, so leases handed to
    /// concurrently executing swaps keep the global one-leaf-one-signature
    /// invariant by construction.
    ///
    /// # Errors
    ///
    /// Returns [`KeysExhaustedError`] if fewer than `count` leaves remain;
    /// this handle is left unchanged.
    pub fn lease(&mut self, count: u64) -> Result<MssKeypair, KeysExhaustedError> {
        if self.remaining() < count {
            return Err(KeysExhaustedError { height: self.height });
        }
        let lease = MssKeypair {
            seed: self.seed,
            engine: self.engine.clone(),
            tree: Arc::clone(&self.tree),
            next_leaf: self.next_leaf,
            limit: self.next_leaf + count,
            height: self.height,
        };
        self.next_leaf += count;
        Ok(lease)
    }

    /// Signs a 256-bit message digest with the next unused one-time key.
    ///
    /// # Errors
    ///
    /// Returns [`KeysExhaustedError`] once the handle's leaf window — all
    /// `2^h` keys for a minted keypair, the leased slice for a lease — is
    /// spent.
    pub fn sign(&mut self, message: &Digest32) -> Result<MssSignature, KeysExhaustedError> {
        if self.next_leaf >= self.limit {
            return Err(KeysExhaustedError { height: self.height });
        }
        let index = self.next_leaf;
        self.next_leaf += 1;
        let ots = wots::sign(wots::secret_key(&self.engine, index), message);
        let proof = self.tree.prove(index as usize).expect("index < leaf count");
        Ok(MssSignature::new(index, ots, proof))
    }
}

impl MssPublicKey {
    /// Verifies `sig` over `message`.
    ///
    /// Checks: (0) this key's claimed height is one a keypair can have and
    /// the proof is exactly that deep — [`from_root`](Self::from_root) takes
    /// any height, and a proof shorter than the claim would let leaf indices
    /// that agree in their low bits share one path; (1) the W-OTS signature
    /// reconstructs some one-time public key digest, and (2) that digest
    /// sits at `sig.leaf_index` under this identity's Merkle root.
    pub fn verify(&self, message: &Digest32, sig: &MssSignature) -> bool {
        if self.height > MAX_HEIGHT
            || sig.proof.depth() != self.height as usize
            || sig.leaf_index >= (1u64 << self.height)
        {
            return false;
        }
        // Reconstruct the claimed one-time pk digest from the signature.
        let Some(claimed_pk_digest) = sig.ots.reconstruct_pk_digest(message) else {
            return false;
        };
        let leaf = leaf_hash(claimed_pk_digest.as_bytes());
        sig.proof.index() == sig.leaf_index as usize && sig.proof.verify(&leaf, &self.root)
    }

    /// Mints a public key directly from a Merkle root, without deriving
    /// the underlying one-time keys. The resulting identity has a valid
    /// [`address`](Self::address) but **cannot sign** — no keypair knows
    /// its leaves. Intended for simulation-scale order books (10⁵–10⁶
    /// distinct parties), where running the O(2ʰ) keygen per party is
    /// infeasible and only addresses/spec assembly are exercised.
    pub const fn from_root(root: Digest32, height: u32) -> Self {
        MssPublicKey { root, height }
    }

    /// The on-chain address of this identity: a tagged hash of the root.
    pub fn address(&self) -> crate::sigchain::Address {
        crate::sigchain::Address::from_digest(tagged_hash(ADDRESS_TAG, self.root.as_bytes()))
    }

    /// The raw Merkle root.
    pub const fn root(&self) -> &Digest32 {
        &self.root
    }

    /// The tree height.
    pub const fn height(&self) -> u32 {
        self.height
    }
}

impl MssSignature {
    /// A signature with empty memo cells.
    fn new(leaf_index: u64, ots: WotsSignature, proof: MerkleProof) -> Self {
        MssSignature { leaf_index, ots, proof, digest: OnceLock::new(), proven: OnceLock::new() }
    }

    /// Whether this signature verifies under `key` over `message`,
    /// answered from the proof memo when — and only when — the whole
    /// statement equals the recorded one; anything else runs the full
    /// [`MssPublicKey::verify`] and records the pair if it succeeds. A
    /// failure records nothing.
    pub(crate) fn verified_by(&self, key: &MssPublicKey, message: &Digest32) -> bool {
        if self.proven.get().is_some_and(|(m, k)| m == message && k == key) {
            debug_assert!(key.verify(message, self), "proof memo disagrees with the full check");
            return true;
        }
        let ok = key.verify(message, self);
        if ok {
            // Losing the race to another verifier of the same object is
            // fine: whatever sits in the cell was proven too.
            let _ = self.proven.set((*message, *key));
        }
        ok
    }

    /// The one-time key index used.
    pub fn leaf_index(&self) -> u64 {
        self.leaf_index
    }

    /// Wire size in bytes.
    pub fn byte_len(&self) -> usize {
        8 + self.ots.byte_len() + self.proof.byte_len()
    }

    /// Digest of the whole signature, used when an outer hashkey chain link
    /// signs this one. Hashes the body on the first call and reads the
    /// digest cell afterwards.
    pub fn digest(&self) -> Digest32 {
        *self.digest.get_or_init(|| {
            let mut h = Sha256::new();
            h.update(&self.leaf_index.to_be_bytes());
            h.update(self.ots.digest().as_bytes());
            h.update(&(self.proof.index() as u64).to_be_bytes());
            for sibling in self.proof.siblings() {
                h.update(sibling.as_bytes());
            }
            h.finalize()
        })
    }

    /// Whether the digest cell is set — lets the chain tests assert that a
    /// body was hashed (once) without timing anything.
    #[cfg(test)]
    pub(crate) fn digest_is_cached(&self) -> bool {
        self.digest.get().is_some()
    }

    /// The recorded proof statement, if any.
    #[cfg(test)]
    pub(crate) fn proven(&self) -> Option<&(Digest32, MssPublicKey)> {
        self.proven.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn pair() -> MssKeypair {
        MssKeypair::from_seed_with_height([3u8; 32], 3)
    }

    /// Known answers computed outside this crate, by
    /// `scripts/mss_known_answers.py` (the scheme written out over
    /// Python's `hashlib`/`hmac`): a kernel, derive or chain-step bug that
    /// is merely self-consistent would re-key every identity in the world
    /// and still sign and verify happily.
    #[test]
    fn key_material_known_answers() {
        let mut kp = MssKeypair::from_seed_with_height([9u8; 32], 6);
        let pk = kp.public_key();
        assert_eq!(
            pk.root().to_hex(),
            "bcd89775b6f71f14488e9377711531485141bc40434b34a2b03d68326f4d4ea9"
        );
        assert_eq!(
            pk.address().digest().to_hex(),
            "0762d4a3c222f6fd999b87d70f2f58b1f280c7f630d3fdfdefe40d4895cb7599"
        );
        let sig = kp.sign(&sha256(&[0])).unwrap();
        assert_eq!(sig.leaf_index(), 0);
        assert_eq!(
            sig.digest().to_hex(),
            "ae61cbddf3f1e519891f82e6dd6099e19a136cff3eee2486aeca9bf4069c2e7a"
        );
        assert!(pk.verify(&sha256(&[0]), &sig));
        // Leaf 1 over the two extreme digests: all-zero digits (the signer
        // walks the 2 nonzero checksum chains, the verifier all 67) and
        // all-15 digits (the signer walks 64 chains of 15 steps, which all
        // end on one step, and the verifier the 3 checksum chains).
        for (message, expected) in [
            ([0x00; 32], "e25c8af1ea3dd69065dc6497ef14811bb7ec199c580155f754f7633785aa1d81"),
            ([0xff; 32], "5694763d8de3406cd51faa3a7097b81a77cad639495e8db3c667d9ec6f360627"),
        ] {
            let message = Digest32(message);
            let sig = kp.clone().sign(&message).unwrap();
            assert_eq!(sig.leaf_index(), 1);
            assert_eq!(sig.digest().to_hex(), expected, "{message:?}");
            assert!(pk.verify(&message, &sig), "{message:?}");
        }
    }

    /// A key is caller-supplied (`from_root` takes any height): one
    /// claiming a height no keypair can have is refused, not shifted by.
    #[test]
    fn oversized_claimed_height_is_rejected_without_panicking() {
        let mut kp = pair();
        let m = sha256(b"m");
        let sig = kp.sign(&m).unwrap();
        for height in [17, 63, 64, u32::MAX] {
            let claimed = MssPublicKey::from_root(*kp.public_key().root(), height);
            assert!(!claimed.verify(&m, &sig), "height {height}");
            assert!(!sig.verified_by(&claimed, &m), "height {height}");
        }
    }

    /// The proof's depth is tied to the key's height: the same root under
    /// a taller or shorter claimed tree accepts nothing.
    #[test]
    fn proof_depth_must_equal_the_claimed_height() {
        let mut kp = MssKeypair::from_seed_with_height([3u8; 32], 2);
        let pk = kp.public_key();
        let m = sha256(b"m");
        let sig = kp.sign(&m).unwrap();
        assert!(pk.verify(&m, &sig));
        for height in [0, 1, 3, 9, 16] {
            let claimed = MssPublicKey::from_root(*pk.root(), height);
            assert!(!claimed.verify(&m, &sig), "height {height}");
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut kp = pair();
        let pk = kp.public_key();
        let m = sha256(b"hello");
        let sig = kp.sign(&m).unwrap();
        assert!(pk.verify(&m, &sig));
    }

    #[test]
    fn multiple_signatures_distinct_leaves() {
        let mut kp = pair();
        let pk = kp.public_key();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..8u64 {
            let m = sha256(&i.to_be_bytes());
            let sig = kp.sign(&m).unwrap();
            assert!(pk.verify(&m, &sig), "sig {i}");
            assert!(seen.insert(sig.leaf_index()), "leaf reuse at {i}");
        }
        assert_eq!(kp.remaining(), 0);
    }

    #[test]
    fn exhaustion_reported() {
        let mut kp = MssKeypair::from_seed_with_height([1u8; 32], 1);
        let m = sha256(b"x");
        kp.sign(&m).unwrap();
        kp.sign(&m).unwrap();
        let err = kp.sign(&m).unwrap_err();
        assert_eq!(err, KeysExhaustedError { height: 1 });
        assert!(err.to_string().contains("2^1"));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut kp = pair();
        let pk = kp.public_key();
        let sig = kp.sign(&sha256(b"real")).unwrap();
        assert!(!pk.verify(&sha256(b"forged"), &sig));
    }

    #[test]
    fn wrong_identity_rejected() {
        let mut kp = pair();
        let other = MssKeypair::from_seed_with_height([4u8; 32], 3).public_key();
        let m = sha256(b"m");
        let sig = kp.sign(&m).unwrap();
        assert!(!other.verify(&m, &sig));
    }

    #[test]
    fn out_of_range_leaf_rejected() {
        let mut kp = pair();
        let pk = kp.public_key();
        let m = sha256(b"m");
        let sig = kp.sign(&m).unwrap();
        let tampered = MssSignature::new(1 << 3, sig.ots.clone(), sig.proof.clone());
        assert!(!pk.verify(&m, &tampered));
        assert!(!tampered.verified_by(&pk, &m));
    }

    #[test]
    fn public_key_deterministic() {
        let a = MssKeypair::from_seed_with_height([8u8; 32], 2).public_key();
        let b = MssKeypair::from_seed_with_height([8u8; 32], 2).public_key();
        assert_eq!(a, b);
        assert_eq!(a.address(), b.address());
        assert_eq!(a.height(), 2);
    }

    #[test]
    fn addresses_differ_per_identity() {
        let a = MssKeypair::from_seed_with_height([8u8; 32], 2).public_key();
        let b = MssKeypair::from_seed_with_height([9u8; 32], 2).public_key();
        assert_ne!(a.address(), b.address());
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn signature_sizes() {
        let mut kp = pair();
        let sig = kp.sign(&sha256(b"m")).unwrap();
        // 8 (index) + 2144 (W-OTS) + (8 + 32*3) (proof at height 3).
        assert_eq!(sig.byte_len(), 8 + 2144 + 8 + 96);
    }

    #[test]
    fn signature_digests_differ() {
        let mut kp = pair();
        let s1 = kp.sign(&sha256(b"a")).unwrap();
        let s2 = kp.sign(&sha256(b"b")).unwrap();
        assert_ne!(s1.digest(), s2.digest());
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_height_rejected() {
        let _ = MssKeypair::from_seed_with_height([0u8; 32], 17);
    }

    #[test]
    fn leases_carve_disjoint_windows() {
        let mut kp = pair();
        let pk = kp.public_key();
        let mut a = kp.lease(3).unwrap();
        let mut b = kp.lease(2).unwrap();
        assert_eq!((a.next_leaf(), a.limit()), (0, 3));
        assert_eq!((b.next_leaf(), b.limit()), (3, 5));
        assert_eq!(kp.remaining(), 3);
        let mut seen = std::collections::BTreeSet::new();
        for (i, use_a) in [true, false, true, false, true].into_iter().enumerate() {
            let m = sha256(&(i as u64).to_be_bytes());
            let handle = if use_a { &mut a } else { &mut b };
            let sig = handle.sign(&m).unwrap();
            assert!(pk.verify(&m, &sig), "lease sig {i}");
            assert!(seen.insert(sig.leaf_index()), "leaf reuse at {i}");
        }
        // Both leases are now spent; exhaustion is the checked error.
        assert_eq!(a.sign(&sha256(b"x")).unwrap_err(), KeysExhaustedError { height: 3 });
        assert_eq!(b.sign(&sha256(b"x")).unwrap_err(), KeysExhaustedError { height: 3 });
        // The parent still owns its remaining window.
        let sig = kp.sign(&sha256(b"tail")).unwrap();
        assert_eq!(sig.leaf_index(), 5);
    }

    #[test]
    fn oversized_lease_rejected_and_parent_unchanged() {
        let mut kp = MssKeypair::from_seed_with_height([6u8; 32], 1);
        assert_eq!(kp.lease(3).unwrap_err(), KeysExhaustedError { height: 1 });
        assert_eq!(kp.remaining(), 2);
        assert!(kp.lease(2).is_ok());
        assert_eq!(kp.remaining(), 0);
        assert_eq!(kp.lease(1).unwrap_err(), KeysExhaustedError { height: 1 });
    }

    #[test]
    fn from_parts_rebuilds_identical_keypair() {
        let mut original = pair();
        let m = sha256(b"before snapshot");
        let s0 = original.sign(&m).unwrap();
        let s1 = original.sign(&m).unwrap();
        let rebuilt = MssKeypair::from_parts(
            *original.seed(),
            original.height(),
            original.leaf_digests(),
            original.next_leaf(),
        );
        assert_eq!(rebuilt.public_key(), original.public_key());
        assert_eq!(rebuilt.next_leaf(), original.next_leaf());
        assert_eq!(rebuilt.remaining(), original.remaining());
        // Both continue with the same leaves and identical signatures.
        let m2 = sha256(b"after recovery");
        let mut rebuilt = rebuilt;
        assert_eq!(rebuilt.sign(&m2).unwrap(), original.sign(&m2).unwrap());
        // And the recovered signatures verify alongside pre-snapshot ones.
        let pk = rebuilt.public_key();
        assert!(pk.verify(&m, &s0) && pk.verify(&m, &s1));
    }

    #[test]
    fn leaf_cursor_fast_forward() {
        let kp = pair().with_leaf_cursor(5);
        assert_eq!(kp.next_leaf(), 5);
        assert_eq!(kp.remaining(), 3);
        let mut sequential = pair();
        for _ in 0..5 {
            sequential.sign(&sha256(b"skip")).unwrap();
        }
        let mut kp = kp;
        assert_eq!(kp.sign(&sha256(b"m")).unwrap(), sequential.sign(&sha256(b"m")).unwrap());
    }

    #[test]
    #[should_panic(expected = "leaf cursor")]
    fn leaf_cursor_cannot_rewind() {
        let _ = pair().with_leaf_cursor(3).with_leaf_cursor(1);
    }

    #[test]
    fn leased_signatures_match_sequential_signing() {
        // A lease signs with exactly the leaves the parent would have used.
        let m = sha256(b"same message");
        let mut sequential = pair();
        let s0 = sequential.sign(&m).unwrap();
        let s1 = sequential.sign(&m).unwrap();
        let mut parent = pair();
        let mut lease = parent.lease(2).unwrap();
        assert_eq!(lease.sign(&m).unwrap(), s0);
        assert_eq!(lease.sign(&m).unwrap(), s1);
    }
}
