//! The contract-hosting interface.
//!
//! A smart contract here is "a script published on the blockchain that
//! establishes and enforces conditions necessary to transfer an asset"
//! (§1). The ledger is generic over a [`ContractLogic`] implementation:
//! `swap-contract` provides the paper's hashed-timelock swap contract, and
//! tests use small toy contracts. The chain enforces the blockchain-level
//! guarantees (irrevocability, public readability, atomic state
//! transitions); the logic decides what calls mean.

use std::fmt;

use serde::{Deserialize, Serialize};
use swap_crypto::Address;
use swap_sim::SimTime;

use crate::asset::AssetRegistry;

/// Identifies a published contract within one chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContractId(u64);

impl ContractId {
    /// Creates a contract id.
    pub const fn new(v: u64) -> Self {
        ContractId(v)
    }

    /// The raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ContractId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "contract{}", self.0)
    }
}

/// Everything a contract may touch while executing: who called it, when,
/// its own identity, and the chain's asset registry (for escrow moves).
///
/// Execution is atomic: a failed call leaves no trace. Asset moves made
/// before the failure are undone by the registry's undo journal, so
/// contract authors can bail with an error at any point — but must follow
/// the validate-then-commit rule on their *own* state (see
/// [`ContractLogic`]).
#[derive(Debug)]
pub struct ExecCtx<'a> {
    /// The transaction sender.
    pub caller: Address,
    /// Chain time at execution.
    pub now: SimTime,
    /// The executing contract's own id.
    pub this: ContractId,
    /// The chain's asset registry.
    pub assets: &'a mut AssetRegistry,
}

/// Deterministic contract state machines hosted by a [`Blockchain`].
///
/// Implementations must be pure state machines over `(state, call, ctx)`:
/// no interior mutability, no ambient time — everything comes through
/// [`ExecCtx`]. That is what makes the simulated ledgers tamper-proof in
/// the sense the paper needs: replaying the transaction log always
/// reproduces the same state.
///
/// # Validate, then commit
///
/// Hooks must perform **all** validation (and return any error) *before*
/// mutating `self`: first check every precondition, then perform asset
/// moves and state writes that can no longer fail. This is what lets the
/// ledger skip cloning contract state — a hook that errors is guaranteed
/// not to have touched `self`, and any asset moves it did make are
/// reverted by the registry's undo journal. The ledger does not enforce
/// the rule; each implementation's tests do, by comparing the whole chain
/// before and after every rejected transaction.
///
/// [`Blockchain`]: crate::Blockchain
pub trait ContractLogic: Clone + fmt::Debug {
    /// The call (method + arguments) type.
    type Call: Clone + fmt::Debug;
    /// Events emitted for observers.
    type Event: Clone + fmt::Debug;
    /// Rejection reasons.
    type Error: std::error::Error + Clone;

    /// Runs when the contract is published. Typically escrows the asset the
    /// contract controls. Returning an error aborts publication entirely.
    /// Must validate before mutating (see the trait-level rule).
    ///
    /// # Errors
    ///
    /// Implementation-defined; a publication that errors is not recorded.
    fn on_publish(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Vec<Self::Event>, Self::Error>;

    /// Applies a call. State changes and asset moves are atomic: if this
    /// returns an error the ledger restores the pre-call state. Must
    /// validate before mutating (see the trait-level rule).
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn apply(
        &mut self,
        call: Self::Call,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Vec<Self::Event>, Self::Error>;

    /// Bytes of persistent storage this contract occupies on-chain — the
    /// quantity Theorem 4.10 sums over all contracts.
    fn storage_bytes(&self) -> usize;

    /// Whether the contract has reached a terminal state (claimed or
    /// refunded). Terminal contracts reject further calls at the ledger
    /// level.
    fn is_terminated(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_id_display_and_raw() {
        let id = ContractId::new(5);
        assert_eq!(id.to_string(), "contract5");
        assert_eq!(id.raw(), 5);
        assert!(ContractId::new(1) < ContractId::new(2));
    }
}
