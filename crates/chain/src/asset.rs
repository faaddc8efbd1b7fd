//! Assets and ownership.
//!
//! An asset is anything a blockchain records title to — "a unit of
//! cryptocurrency or an automobile title" (§2.2). Each asset lives on
//! exactly one chain and has exactly one owner at a time: a party address or
//! a contract holding it in escrow.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use swap_crypto::Address;

use crate::contract::ContractId;

/// Identifies an asset within one chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AssetId(u64);

impl AssetId {
    /// Creates an asset id.
    pub const fn new(v: u64) -> Self {
        AssetId(v)
    }

    /// The raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for AssetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asset{}", self.0)
    }
}

/// What an asset is: a label plus a quantity (1 for unique titles).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssetDescriptor {
    /// Human-readable kind, e.g. `"altcoin"`, `"cadillac-title"`.
    pub kind: String,
    /// Number of units (1 for non-fungible titles).
    pub units: u64,
}

impl AssetDescriptor {
    /// Creates a descriptor.
    pub fn new(kind: impl Into<String>, units: u64) -> Self {
        AssetDescriptor { kind: kind.into(), units }
    }

    /// A one-unit (title-like) asset.
    pub fn unique(kind: impl Into<String>) -> Self {
        Self::new(kind, 1)
    }
}

/// Who currently controls an asset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Owner {
    /// A party, by address.
    Party(Address),
    /// A contract holding the asset in escrow.
    Escrow(ContractId),
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Owner::Party(a) => write!(f, "{a}"),
            Owner::Escrow(c) => write!(f, "escrow:{c}"),
        }
    }
}

/// Errors from asset operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssetError {
    /// The asset does not exist on this chain.
    Unknown(AssetId),
    /// The operation requires a different current owner.
    NotOwner {
        /// The asset involved.
        asset: AssetId,
        /// Who actually owns it.
        actual: Owner,
    },
}

impl fmt::Display for AssetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssetError::Unknown(a) => write!(f, "unknown asset {a}"),
            AssetError::NotOwner { asset, actual } => {
                write!(f, "{asset} is owned by {actual}, not the caller")
            }
        }
    }
}

impl std::error::Error for AssetError {}

/// One reversible ownership mutation, recorded by the registry's
/// [`UndoJournal`] while a journaled transaction executes. Each variant
/// captures exactly the *previous* owner, so popping ops in reverse order
/// restores the pre-transaction ledger without cloning it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalOp {
    /// A party's asset moved into escrow; revert hands it back to `owner`.
    Escrow {
        /// The asset that moved.
        asset: AssetId,
        /// The party that owned it before the escrow.
        owner: Address,
    },
    /// An escrowed asset was released (claimed or refunded); revert returns
    /// it to `escrow`.
    Release {
        /// The asset that moved.
        asset: AssetId,
        /// The contract that held it before the release.
        escrow: ContractId,
    },
    /// A direct party-to-party move; revert hands it back to `owner`.
    Transfer {
        /// The asset that moved.
        asset: AssetId,
        /// The party that owned it before the transfer.
        owner: Address,
    },
}

impl JournalOp {
    /// The owner this op's revert restores.
    fn previous_owner(self) -> (AssetId, Owner) {
        match self {
            JournalOp::Escrow { asset, owner } => (asset, Owner::Party(owner)),
            JournalOp::Release { asset, escrow } => (asset, Owner::Escrow(escrow)),
            JournalOp::Transfer { asset, owner } => (asset, Owner::Party(owner)),
        }
    }
}

/// The registry's undo log: a reusable `Vec` of [`JournalOp`]s that records
/// every ownership change made between [`AssetRegistry::begin_journal`] and
/// the matching commit/rollback.
///
/// This is the allocation-free half of transaction rollback (see
/// `swap_chain::Blockchain`): a transaction that succeeds pays one
/// `Vec::push` per transfer into a buffer whose capacity is reused across
/// transactions, and a transaction that fails pays one pop-and-restore per
/// transfer — in both cases O(ops in the transaction), independent of how
/// many assets the registry holds. The journal is always empty outside a
/// transaction, so registry equality and cloning are unaffected by it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UndoJournal {
    ops: Vec<JournalOp>,
    active: bool,
}

/// The per-chain asset ledger: mints assets and tracks every ownership
/// change.
///
/// # Example
///
/// ```
/// use swap_chain::{AssetDescriptor, AssetRegistry, Owner};
/// use swap_crypto::{Address, Digest32};
///
/// let alice = Address::from_digest(Digest32([1u8; 32]));
/// let bob = Address::from_digest(Digest32([2u8; 32]));
/// let mut reg = AssetRegistry::new();
/// let coin = reg.mint(AssetDescriptor::new("altcoin", 100), alice);
/// assert_eq!(reg.owner(coin), Some(Owner::Party(alice)));
/// reg.transfer_from(coin, Owner::Party(alice), Owner::Party(bob)).unwrap();
/// assert_eq!(reg.owner(coin), Some(Owner::Party(bob)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssetRegistry {
    records: BTreeMap<AssetId, AssetRecord>,
    next_id: u64,
    journal: UndoJournal,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct AssetRecord {
    descriptor: AssetDescriptor,
    owner: Owner,
}

impl AssetRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints a new asset owned by `owner`, returning its id.
    ///
    /// Minting is a chain-level faucet operation, never performed inside a
    /// contract hook, so it is not journaled (and must not run while a
    /// journal is open — contracts only get [`AssetRegistry::transfer_from`]
    /// semantics).
    pub fn mint(&mut self, descriptor: AssetDescriptor, owner: Address) -> AssetId {
        debug_assert!(!self.journal.active, "mint inside a journaled transaction");
        let id = AssetId::new(self.next_id);
        self.next_id += 1;
        self.records.insert(id, AssetRecord { descriptor, owner: Owner::Party(owner) });
        id
    }

    /// Opens the undo journal: every subsequent ownership change is
    /// recorded until [`commit_journal`](AssetRegistry::commit_journal) or
    /// [`rollback_journal`](AssetRegistry::rollback_journal) closes it.
    /// Journals do not nest.
    pub fn begin_journal(&mut self) {
        debug_assert!(!self.journal.active, "journal already open");
        debug_assert!(self.journal.ops.is_empty(), "journal not drained");
        self.journal.active = true;
    }

    /// Closes the journal keeping every change, returning how many
    /// ownership changes the transaction made. The op buffer is cleared but
    /// keeps its capacity, so steady-state transactions allocate nothing.
    pub fn commit_journal(&mut self) -> usize {
        debug_assert!(self.journal.active, "no journal open");
        let ops = self.journal.ops.len();
        self.journal.ops.clear();
        self.journal.active = false;
        ops
    }

    /// Closes the journal reverting every recorded change, newest first,
    /// restoring the registry to its state at
    /// [`begin_journal`](AssetRegistry::begin_journal). Returns how many
    /// ops were reverted.
    pub fn rollback_journal(&mut self) -> usize {
        debug_assert!(self.journal.active, "no journal open");
        let mut reverted = 0;
        while let Some(op) = self.journal.ops.pop() {
            let (asset, previous) = op.previous_owner();
            let record = self.records.get_mut(&asset).expect("journaled asset exists");
            record.owner = previous;
            reverted += 1;
        }
        self.journal.active = false;
        reverted
    }

    /// The current owner of `asset`, if it exists.
    pub fn owner(&self, asset: AssetId) -> Option<Owner> {
        self.records.get(&asset).map(|r| r.owner)
    }

    /// The descriptor of `asset`, if it exists.
    pub fn descriptor(&self, asset: AssetId) -> Option<&AssetDescriptor> {
        self.records.get(&asset).map(|r| &r.descriptor)
    }

    /// Transfers `asset` from `expected_owner` to `new_owner`.
    ///
    /// # Errors
    ///
    /// Fails with [`AssetError::Unknown`] for missing assets and
    /// [`AssetError::NotOwner`] when `expected_owner` does not match — the
    /// compare-and-swap style rules out races and forged transfers.
    pub fn transfer_from(
        &mut self,
        asset: AssetId,
        expected_owner: Owner,
        new_owner: Owner,
    ) -> Result<(), AssetError> {
        let record = self.records.get_mut(&asset).ok_or(AssetError::Unknown(asset))?;
        if record.owner != expected_owner {
            return Err(AssetError::NotOwner { asset, actual: record.owner });
        }
        let previous = record.owner;
        record.owner = new_owner;
        if self.journal.active {
            self.journal.ops.push(match previous {
                Owner::Party(owner) => match new_owner {
                    Owner::Escrow(_) => JournalOp::Escrow { asset, owner },
                    Owner::Party(_) => JournalOp::Transfer { asset, owner },
                },
                Owner::Escrow(escrow) => JournalOp::Release { asset, escrow },
            });
        }
        Ok(())
    }

    /// Number of minted assets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no assets exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Approximate bytes stored for the registry (for storage metering).
    pub fn storage_bytes(&self) -> usize {
        self.records.values().map(|r| 8 + r.descriptor.kind.len() + 8 + 33).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_crypto::Digest32;

    fn addr(b: u8) -> Address {
        Address::from_digest(Digest32([b; 32]))
    }

    #[test]
    fn mint_assigns_sequential_ids() {
        let mut reg = AssetRegistry::new();
        let a = reg.mint(AssetDescriptor::unique("title"), addr(1));
        let b = reg.mint(AssetDescriptor::new("coin", 5), addr(1));
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        assert_eq!(reg.descriptor(a).unwrap().units, 1);
        assert_eq!(reg.descriptor(b).unwrap().units, 5);
    }

    #[test]
    fn transfer_happy_path() {
        let mut reg = AssetRegistry::new();
        let coin = reg.mint(AssetDescriptor::new("btc", 1), addr(1));
        reg.transfer_from(coin, Owner::Party(addr(1)), Owner::Party(addr(2))).unwrap();
        assert_eq!(reg.owner(coin), Some(Owner::Party(addr(2))));
    }

    #[test]
    fn transfer_wrong_owner_rejected() {
        let mut reg = AssetRegistry::new();
        let coin = reg.mint(AssetDescriptor::new("btc", 1), addr(1));
        let err =
            reg.transfer_from(coin, Owner::Party(addr(2)), Owner::Party(addr(3))).unwrap_err();
        assert!(matches!(err, AssetError::NotOwner { .. }));
        // Ownership unchanged.
        assert_eq!(reg.owner(coin), Some(Owner::Party(addr(1))));
    }

    #[test]
    fn transfer_unknown_asset_rejected() {
        let mut reg = AssetRegistry::new();
        let err = reg
            .transfer_from(AssetId::new(99), Owner::Party(addr(1)), Owner::Party(addr(2)))
            .unwrap_err();
        assert_eq!(err, AssetError::Unknown(AssetId::new(99)));
        assert!(err.to_string().contains("asset99"));
    }

    #[test]
    fn escrow_roundtrip() {
        let mut reg = AssetRegistry::new();
        let car = reg.mint(AssetDescriptor::unique("cadillac"), addr(1));
        let contract = ContractId::new(7);
        reg.transfer_from(car, Owner::Party(addr(1)), Owner::Escrow(contract)).unwrap();
        assert_eq!(reg.owner(car), Some(Owner::Escrow(contract)));
        // Only the escrow owner matches now.
        assert!(reg.transfer_from(car, Owner::Party(addr(1)), Owner::Party(addr(2))).is_err());
        reg.transfer_from(car, Owner::Escrow(contract), Owner::Party(addr(2))).unwrap();
        assert_eq!(reg.owner(car), Some(Owner::Party(addr(2))));
    }

    #[test]
    fn storage_bytes_nonzero() {
        let mut reg = AssetRegistry::new();
        assert_eq!(reg.storage_bytes(), 0);
        reg.mint(AssetDescriptor::unique("title"), addr(1));
        assert!(reg.storage_bytes() > 0);
    }

    #[test]
    fn journal_rollback_restores_every_owner() {
        let mut reg = AssetRegistry::new();
        let car = reg.mint(AssetDescriptor::unique("car"), addr(1));
        let coin = reg.mint(AssetDescriptor::new("coin", 5), addr(2));
        let contract = ContractId::new(3);
        let before = reg.clone();

        reg.begin_journal();
        reg.transfer_from(car, Owner::Party(addr(1)), Owner::Escrow(contract)).unwrap();
        reg.transfer_from(coin, Owner::Party(addr(2)), Owner::Party(addr(3))).unwrap();
        reg.transfer_from(car, Owner::Escrow(contract), Owner::Party(addr(9))).unwrap();
        assert_eq!(reg.owner(car), Some(Owner::Party(addr(9))));
        assert_eq!(reg.rollback_journal(), 3);

        assert_eq!(reg, before, "rollback must restore the exact pre-transaction registry");
        assert_eq!(reg.owner(car), Some(Owner::Party(addr(1))));
        assert_eq!(reg.owner(coin), Some(Owner::Party(addr(2))));
    }

    #[test]
    fn journal_commit_keeps_changes_and_drains() {
        let mut reg = AssetRegistry::new();
        let car = reg.mint(AssetDescriptor::unique("car"), addr(1));
        reg.begin_journal();
        reg.transfer_from(car, Owner::Party(addr(1)), Owner::Escrow(ContractId::new(0))).unwrap();
        assert_eq!(reg.commit_journal(), 1);
        assert_eq!(reg.owner(car), Some(Owner::Escrow(ContractId::new(0))));
        // The drained journal leaves the registry equal to an unjournaled
        // twin — mode-agnostic equality is what pins Journal vs Snapshot.
        let mut twin = AssetRegistry::new();
        let t = twin.mint(AssetDescriptor::unique("car"), addr(1));
        twin.transfer_from(t, Owner::Party(addr(1)), Owner::Escrow(ContractId::new(0))).unwrap();
        assert_eq!(reg, twin);
    }

    #[test]
    fn journal_inactive_records_nothing() {
        let mut reg = AssetRegistry::new();
        let car = reg.mint(AssetDescriptor::unique("car"), addr(1));
        reg.transfer_from(car, Owner::Party(addr(1)), Owner::Party(addr(2))).unwrap();
        reg.begin_journal();
        assert_eq!(reg.commit_journal(), 0, "pre-journal transfers are not recorded");
    }

    #[test]
    fn owner_display() {
        assert!(Owner::Party(addr(1)).to_string().starts_with('@'));
        assert!(Owner::Escrow(ContractId::new(3)).to_string().contains("escrow"));
    }
}
