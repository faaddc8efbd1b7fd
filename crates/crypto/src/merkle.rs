//! Merkle trees with inclusion proofs.
//!
//! Used in two places: the [`mss`](crate::mss) signature scheme (leaves are
//! one-time public keys, the root is the party's identity) and the chain
//! substrate (block transaction roots).

use serde::{Deserialize, Serialize};

use crate::sha256::{sha256_concat, tagged_hash, Digest32};

const LEAF_TAG: &str = "swap/merkle/leaf/v1";
const NODE_TAG: &str = "swap/merkle/node/v1";

/// Hashes a leaf payload (domain-separated from interior nodes, preventing
/// second-preimage tree attacks).
pub fn leaf_hash(data: &[u8]) -> Digest32 {
    tagged_hash(LEAF_TAG, data)
}

/// Hashes two child nodes into a parent.
pub(crate) fn node_hash(left: &Digest32, right: &Digest32) -> Digest32 {
    let tag = NODE_TAG.as_bytes();
    let len = [tag.len() as u8];
    sha256_concat(&[&len, tag, left.as_bytes(), right.as_bytes()])
}

/// A full Merkle tree over a non-empty list of leaf payload hashes.
///
/// Odd layers duplicate their last node (Bitcoin-style), so any leaf count
/// works. The tree stores every level, making proof extraction O(log n).
///
/// # Example
///
/// ```
/// use swap_crypto::merkle::{leaf_hash, MerkleTree};
/// let leaves: Vec<_> = (0u8..5).map(|i| leaf_hash(&[i])).collect();
/// let tree = MerkleTree::from_leaves(leaves.clone()).unwrap();
/// let proof = tree.prove(3).unwrap();
/// assert!(proof.verify(&leaves[3], tree.root()));
/// assert!(!proof.verify(&leaves[2], tree.root()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleTree {
    /// `levels[0]` = leaves, last level = `[root]`.
    levels: Vec<Vec<Digest32>>,
}

/// Error constructing a tree from an empty leaf list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyTreeError;

impl std::fmt::Display for EmptyTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a merkle tree needs at least one leaf")
    }
}

impl std::error::Error for EmptyTreeError {}

impl MerkleTree {
    /// Builds a tree over already-hashed leaves.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyTreeError`] if `leaves` is empty.
    pub fn from_leaves(leaves: Vec<Digest32>) -> Result<Self, EmptyTreeError> {
        if leaves.is_empty() {
            return Err(EmptyTreeError);
        }
        let mut levels = vec![leaves];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                let right = pair.get(1).unwrap_or(left);
                next.push(node_hash(left, right));
            }
            levels.push(next);
        }
        Ok(MerkleTree { levels })
    }

    /// The root commitment.
    pub fn root(&self) -> &Digest32 {
        &self.levels.last().expect("nonempty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// The leaf hash at `index`, if in range.
    pub fn leaf(&self, index: usize) -> Option<&Digest32> {
        self.levels[0].get(index)
    }

    /// Produces an inclusion proof for the leaf at `index`.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_index = i ^ 1;
            let sibling = level.get(sibling_index).unwrap_or(&level[i]);
            siblings.push(*sibling);
            i /= 2;
        }
        Some(MerkleProof { index, siblings })
    }
}

/// An inclusion proof: the sibling hashes along the path to the root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleProof {
    index: usize,
    siblings: Vec<Digest32>,
}

impl MerkleProof {
    /// The proven leaf index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The sibling hashes along the path to the root, bottom-up.
    pub fn siblings(&self) -> &[Digest32] {
        &self.siblings
    }

    /// Proof depth (tree height).
    pub fn depth(&self) -> usize {
        self.siblings.len()
    }

    /// Byte size of the proof as transmitted (32 bytes per sibling + 8 for
    /// the index).
    pub fn byte_len(&self) -> usize {
        8 + 32 * self.siblings.len()
    }

    /// Verifies that `leaf` is at `self.index()` under `root`.
    pub fn verify(&self, leaf: &Digest32, root: &Digest32) -> bool {
        let mut acc = *leaf;
        let mut i = self.index;
        for sibling in &self.siblings {
            acc = if i.is_multiple_of(2) {
                node_hash(&acc, sibling)
            } else {
                node_hash(sibling, &acc)
            };
            i /= 2;
        }
        acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn leaves(n: usize) -> Vec<Digest32> {
        (0..n).map(|i| leaf_hash(&(i as u64).to_be_bytes())).collect()
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(MerkleTree::from_leaves(vec![]), Err(EmptyTreeError));
        assert!(EmptyTreeError.to_string().contains("at least one"));
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        let tree = MerkleTree::from_leaves(l.clone()).unwrap();
        assert_eq!(tree.root(), &l[0]);
        assert_eq!(tree.leaf_count(), 1);
        let proof = tree.prove(0).unwrap();
        assert_eq!(proof.depth(), 0);
        assert!(proof.verify(&l[0], tree.root()));
    }

    #[test]
    fn proofs_verify_for_all_sizes_and_indices() {
        for n in 1..=17 {
            let l = leaves(n);
            let tree = MerkleTree::from_leaves(l.clone()).unwrap();
            for (i, leaf) in l.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(proof.verify(leaf, tree.root()), "n={n} i={i}");
                assert_eq!(proof.index(), i);
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l.clone()).unwrap();
        let proof = tree.prove(2).unwrap();
        assert!(!proof.verify(&l[3], tree.root()));
        assert!(!proof.verify(&Digest32::ZERO, tree.root()));
    }

    #[test]
    fn wrong_root_fails() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l.clone()).unwrap();
        let proof = tree.prove(2).unwrap();
        assert!(!proof.verify(&l[2], &sha256(b"not the root")));
    }

    #[test]
    fn tampered_sibling_fails() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l.clone()).unwrap();
        let mut proof = tree.prove(5).unwrap();
        proof.siblings[1] = sha256(b"evil");
        assert!(!proof.verify(&l[5], tree.root()));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let tree = MerkleTree::from_leaves(leaves(4)).unwrap();
        assert!(tree.prove(4).is_none());
        assert!(tree.leaf(4).is_none());
        assert!(tree.leaf(3).is_some());
    }

    #[test]
    fn roots_differ_when_any_leaf_differs() {
        let a = MerkleTree::from_leaves(leaves(6)).unwrap();
        let mut l = leaves(6);
        l[4] = leaf_hash(b"changed");
        let b = MerkleTree::from_leaves(l).unwrap();
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn leaf_and_node_hashing_domain_separated() {
        let payload = [1u8; 64];
        let as_leaf = leaf_hash(&payload);
        let halves = (Digest32([1u8; 32]), Digest32([1u8; 32]));
        let as_node = node_hash(&halves.0, &halves.1);
        assert_ne!(as_leaf, as_node);
    }

    #[test]
    fn proof_byte_len() {
        let tree = MerkleTree::from_leaves(leaves(8)).unwrap();
        let proof = tree.prove(0).unwrap();
        assert_eq!(proof.depth(), 3);
        assert_eq!(proof.byte_len(), 8 + 96);
    }

    #[test]
    fn odd_layer_duplication_consistent() {
        // 3 leaves: the right branch duplicates; proofs must still verify.
        let l = leaves(3);
        let tree = MerkleTree::from_leaves(l.clone()).unwrap();
        let proof = tree.prove(2).unwrap();
        assert!(proof.verify(&l[2], tree.root()));
    }
}
