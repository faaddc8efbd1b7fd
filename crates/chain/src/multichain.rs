//! Multiple blockchains: one per swap arc.
//!
//! The paper treats "blockchain and arc interchangeably" (§3): each proposed
//! transfer lives on its own shared blockchain. [`ChainSet`] is the handful
//! of independent ledgers a swap runs across, addressed by [`ChainId`].

use std::fmt;

use serde::{Deserialize, Serialize};
use swap_sim::SimTime;

use crate::chain::{Blockchain, StorageReport};
use crate::contract::ContractLogic;

/// Identifies one blockchain in a [`ChainSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChainId(u32);

impl ChainId {
    /// Creates a chain id.
    pub const fn new(v: u32) -> Self {
        ChainId(v)
    }

    /// The raw value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ChainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chain{}", self.0)
    }
}

/// A set of independent blockchains sharing a contract logic type.
///
/// Ids are dense — the `n`th created (or absorbed) chain is `ChainId(n)` —
/// so the set stores chains in a `Vec` indexed directly by id: O(1)
/// unchecked access, and [`ChainSet::absorb`] is a reserve-and-move append
/// instead of a per-chain re-keyed map insert.
///
/// Typical setup (`C` is your [`ContractLogic`] type): create the set,
/// `create_chain` per arc, then drive each chain's `publish_contract` /
/// `call_contract` through [`ChainSet::get_mut`]. `swap-core`'s
/// provisioning (`SwapSetup`) and the crate tests are worked examples.
#[derive(Debug, Clone, Default)]
pub struct ChainSet<C: ContractLogic> {
    chains: Vec<Blockchain<C>>,
}

impl<C: ContractLogic> ChainSet<C> {
    /// Creates an empty set.
    pub fn new() -> Self {
        ChainSet { chains: Vec::new() }
    }

    /// Creates a new chain, returning its id.
    pub fn create_chain(&mut self, name: impl Into<String>, genesis_time: SimTime) -> ChainId {
        let id = ChainId::new(self.chains.len() as u32);
        self.chains.push(Blockchain::new(name, genesis_time));
        id
    }

    /// Read access to one chain.
    pub fn get(&self, id: ChainId) -> Option<&Blockchain<C>> {
        self.chains.get(id.raw() as usize)
    }

    /// Write access to one chain (to submit transactions).
    pub fn get_mut(&mut self, id: ChainId) -> Option<&mut Blockchain<C>> {
        self.chains.get_mut(id.raw() as usize)
    }

    /// Iterator over `(id, chain)`.
    pub fn iter(&self) -> impl Iterator<Item = (ChainId, &Blockchain<C>)> {
        self.chains.iter().enumerate().map(|(i, c)| (ChainId::new(i as u32), c))
    }

    /// Number of chains.
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// Absorbs every chain of `other` into this set, renumbering them with
    /// fresh ids, and returns the `(old, new)` id mapping in `other`'s
    /// iteration order.
    ///
    /// This is the merge half of concurrent execution: each worker runs a
    /// swap on a [`ChainSet`] it exclusively owns, and the orchestrator
    /// folds those sets back into one global ledger view afterwards. Because
    /// ids are dense, renumbering is pure address arithmetic: one reserve
    /// plus a move of `other`'s chains — amortized O(chains moved), no
    /// per-chain re-keying or copying. Block histories, contracts, and
    /// assets are untouched, so integrity verification and storage
    /// accounting survive the merge.
    pub fn absorb(&mut self, mut other: ChainSet<C>) -> Vec<(ChainId, ChainId)> {
        let base = self.chains.len() as u32;
        let mapping = (0..other.chains.len() as u32)
            .map(|i| (ChainId::new(i), ChainId::new(base + i)))
            .collect();
        self.chains.reserve(other.chains.len());
        self.chains.append(&mut other.chains);
        mapping
    }

    /// Aggregated storage across all chains — "bits stored on all
    /// blockchains", the exact phrase of Theorem 4.10.
    pub fn storage_report(&self) -> StorageReport {
        self.chains
            .iter()
            .map(Blockchain::storage_report)
            .fold(StorageReport::default(), |acc, r| acc.merge(&r))
    }

    /// Whether every chain passes integrity verification.
    pub fn verify_integrity(&self) -> bool {
        self.chains.iter().all(Blockchain::verify_integrity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asset::AssetDescriptor;
    use crate::contract::ExecCtx;
    use swap_crypto::{Address, Digest32};

    #[derive(Debug, Clone)]
    struct Nop;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct NopError;
    impl fmt::Display for NopError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "nop")
        }
    }
    impl std::error::Error for NopError {}

    impl ContractLogic for Nop {
        type Call = ();
        type Event = ();
        type Error = NopError;
        fn on_publish(&mut self, _ctx: &mut ExecCtx<'_>) -> Result<Vec<()>, NopError> {
            Ok(vec![])
        }
        fn apply(&mut self, _call: (), _ctx: &mut ExecCtx<'_>) -> Result<Vec<()>, NopError> {
            Ok(vec![])
        }
        fn storage_bytes(&self) -> usize {
            10
        }
        fn is_terminated(&self) -> bool {
            false
        }
    }

    fn addr(b: u8) -> Address {
        Address::from_digest(Digest32([b; 32]))
    }

    #[test]
    fn create_and_access_chains() {
        let mut set: ChainSet<Nop> = ChainSet::new();
        assert!(set.is_empty());
        let a = set.create_chain("bitcoin", SimTime::ZERO);
        let b = set.create_chain("altcoin", SimTime::ZERO);
        assert_ne!(a, b);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(a).unwrap().name(), "bitcoin");
        assert_eq!(set.get(b).unwrap().name(), "altcoin");
        assert!(set.get(ChainId::new(99)).is_none());
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    fn storage_aggregates_across_chains() {
        let mut set: ChainSet<Nop> = ChainSet::new();
        let a = set.create_chain("a", SimTime::ZERO);
        let b = set.create_chain("b", SimTime::ZERO);
        set.get_mut(a).unwrap().publish_contract(Nop, addr(1), SimTime::from_ticks(1)).unwrap();
        set.get_mut(b).unwrap().mint_asset(
            AssetDescriptor::unique("t"),
            addr(1),
            SimTime::from_ticks(1),
        );
        let report = set.storage_report();
        assert_eq!(report.contract_bytes, 10);
        assert!(report.asset_bytes > 0);
        assert!(report.blocks >= 4); // 2 genesis + 2 txs
    }

    #[test]
    fn integrity_across_chains() {
        let mut set: ChainSet<Nop> = ChainSet::new();
        set.create_chain("a", SimTime::ZERO);
        set.create_chain("b", SimTime::ZERO);
        assert!(set.verify_integrity());
    }

    #[test]
    fn absorb_renumbers_and_preserves_state() {
        let mut left: ChainSet<Nop> = ChainSet::new();
        let a = left.create_chain("a", SimTime::ZERO);
        left.get_mut(a).unwrap().publish_contract(Nop, addr(1), SimTime::from_ticks(1)).unwrap();

        let mut right: ChainSet<Nop> = ChainSet::new();
        let b = right.create_chain("b", SimTime::ZERO);
        let c = right.create_chain("c", SimTime::ZERO);
        right.get_mut(b).unwrap().publish_contract(Nop, addr(2), SimTime::from_ticks(2)).unwrap();
        right.get_mut(c).unwrap().mint_asset(
            AssetDescriptor::unique("t"),
            addr(3),
            SimTime::from_ticks(3),
        );
        let left_report = left.storage_report();
        let right_report = right.storage_report();

        let mapping = left.absorb(right);
        assert_eq!(mapping.len(), 2);
        // Fresh, collision-free ids in `other`'s iteration order.
        assert_eq!(mapping[0].0, b);
        assert_eq!(mapping[1].0, c);
        assert_eq!(left.len(), 3);
        assert_ne!(mapping[0].1, a);
        assert_ne!(mapping[1].1, a);
        assert_ne!(mapping[0].1, mapping[1].1);
        // Chain state crossed over untouched.
        assert_eq!(left.get(mapping[0].1).unwrap().name(), "b");
        assert_eq!(left.get(mapping[1].1).unwrap().name(), "c");
        assert!(left.verify_integrity());
        // Storage is the exact sum of the two sides.
        let merged = left.storage_report();
        assert_eq!(merged, left_report.merge(&right_report));
        // Chains created after the merge keep getting fresh ids.
        let d = left.create_chain("d", SimTime::ZERO);
        assert_eq!(left.len(), 4);
        assert_ne!(d, a);
        assert!(mapping.iter().all(|&(_, new)| new != d));
    }

    #[test]
    fn chain_id_display() {
        assert_eq!(ChainId::new(2).to_string(), "chain2");
        assert_eq!(ChainId::new(2).raw(), 2);
    }
}
