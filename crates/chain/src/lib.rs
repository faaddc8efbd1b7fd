//! Simulated blockchains for the atomic swap system.
//!
//! The paper's analysis is deliberately "independent of the particular
//! blockchain algorithm" (§2.2): all it requires of a blockchain is that it
//! is a distributed service where clients publish transactions to a
//! publicly-readable, tamper-proof ledger, that published contracts are
//! irrevocable, and that a publish-then-confirm round trip fits in Δ. This
//! crate supplies exactly that contract-hosting ledger abstraction:
//!
//! * [`Blockchain`] — an append-only, hash-chained ledger of sealed blocks,
//!   generic over the [`ContractLogic`] it hosts; everything on it is
//!   publicly readable and timestamped with [`swap_sim::SimTime`],
//! * [`AssetRegistry`] — per-chain asset ownership, including *escrow to a
//!   contract* (a published swap contract "assumes temporary control" of the
//!   asset, §4.1),
//! * [`ChainSet`] — one blockchain per swap arc, as the paper assumes,
//! * storage metering — byte counts per contract/transaction/block feeding
//!   the Theorem 4.10 space-complexity experiment.
//!
//! Tamper-evidence is real: blocks chain by hash and
//! [`Blockchain::verify_integrity`] re-derives every link.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asset;
pub mod block;
pub mod chain;
pub mod contract;
pub mod multichain;

pub use asset::{AssetDescriptor, AssetId, AssetRegistry, JournalOp, Owner, UndoJournal};
pub use chain::{Blockchain, StorageReport, TxError, TxTag};
pub use contract::{ContractId, ContractLogic, ExecCtx};
pub use multichain::{ChainId, ChainSet};
