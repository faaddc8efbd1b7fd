//! The market-clearing service (§4.2 of the paper).
//!
//! "For simplicity, assume the swap digraph is constructed by a (possibly
//! centralized) market-clearing service. … The clearing service is **not a
//! trusted party**, because the parties can check the consistency of the
//! clearing service's responses."
//!
//! This crate implements both halves of that sentence:
//!
//! * [`ClearingService`] — collects [`Offer`]s (each party's hashlock plus
//!   what it gives and wants), matches them into disjoint swap cycles (the
//!   "clearing problem" the paper references to Kaplan's barter-exchange
//!   work), elects leaders via feedback-vertex-set computation, and
//!   publishes one [`ClearedSwap`] per cycle group;
//! * [`verify_cleared_swap`] — the *party-side* consistency check: before
//!   participating, a party confirms the published spec is structurally
//!   valid, that its own identity, hashlock, and offered asset kinds appear
//!   exactly as submitted, and that the start time leaves the required Δ
//!   slack.
//!
//! # The offer lifecycle
//!
//! The service runs a *continuous* market, not a one-shot matching. Every
//! offer carries an [`OfferStatus`] and moves through a strict lifecycle:
//!
//! `Open` → (`cancel`) `Cancelled`, or → (`clear`) `Matched { epoch, swap }`
//! → (`settle_swap` / `refund_swap`) `Settled` / `Refunded`.
//!
//! [`ClearingService::clear`] runs one *epoch*: it matches only the
//! currently open offers and **consumes** every offer it matches — a
//! matched offer can never re-enter a later epoch's book, and a cancelled
//! offer can never be matched at all. Unmatched offers roll over, so a
//! straggler eventually clears when a counterparty shows up. Each cleared
//! cycle gets a service-wide unique [`SwapId`]; an execution layer (see
//! `swap-core`'s `Exchange`) drives the cleared swaps and reports back via
//! [`ClearingService::settle_swap`] / [`ClearingService::refund_swap`].
//!
//! Matching runs from an **incremental clearing index**: per-kind
//! price-time giver and wanter queues maintained on every lifecycle delta,
//! and a parked set for reserved parties, so an epoch costs O(matchable
//! region) instead of O(open book). The original whole-book matcher stays
//! as the executable specification,
//! [`ClearingService::plan_full_rescan`]; property tests hold the indexed
//! planner to it before every clear. [`ClearStats`] reports the measured
//! work (offers examined, cycles emitted) of each epoch, and the
//! [`ClearingService::plan`] / [`ClearingService::commit`] split lets an
//! execution layer price an epoch before publishing it.
//!
//! [`SpecBuilder`] is the lower-level brick: given any digraph and identity
//! table it assembles a validated [`swap_contract::SwapSpec`], electing the
//! exact minimum feedback vertex set as leaders unless the caller names
//! them. The protocol runner and benches use it to set up swaps over
//! arbitrary digraph families.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod clearing;
pub mod verify;

pub use builder::{BuildError, SpecBuilder};
pub use clearing::{
    AssetKind, BookEntry, BookSnapshot, CancelError, ClearError, ClearPlan, ClearStats,
    ClearedSwap, ClearingService, LifecycleError, Offer, OfferId, OfferStatus, SwapId,
};
pub use verify::{verify_cleared_swap, VerifyError};
