//! Hashed timelock swap contracts — the on-chain half of Herlihy's protocol.
//!
//! Three contract flavors, all hosted on [`swap_chain::Blockchain`]:
//!
//! * [`HtlcContract`] — the classic two-party hashed timelock contract of
//!   §1 and §4.6: one hashlock, one absolute timeout. Used by the worked
//!   three-way swap of Figures 1–2 and by the single-leader protocol, where
//!   plain timeouts replace hashkeys entirely.
//! * [`SwapContract`] — the general multi-leader contract of Figures 4–5:
//!   a *vector* of hashlocks (one per leader), unlocked by *hashkeys*
//!   `(s, p, σ)` whose timeout `(diam(D) + |p|)·Δ` depends on the presented
//!   path, with nested signature chains proving provenance.
//! * [`AnyContract`] — an enum over both, so one simulated chain can host
//!   either flavor.
//!
//! The `SwapContract` implementation follows the paper's pseudocode
//! line-for-line where it is precise, and documents the one place it is
//! not: the `refund` predicate (Figure 5, line 37) reads "any hashlock
//! unlocked and timed out", which we implement as *"some hashlock can no
//! longer be unlocked"* — a hashlock is dead once every candidate hashkey
//! for it has timed out, i.e. after `start + 2·diam(D)·Δ` (every path
//! satisfies `|p| ≤ diam(D)`). That is the reading consistent with
//! Theorem 4.9's proof and with the claim that conforming parties' assets
//! "will be refunded by `T + 2·diam(D)·Δ`".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod any;
pub mod htlc;
pub mod spec;
pub mod swap;
pub mod testkit;

pub use any::{AnyCall, AnyContract, AnyError};
pub use htlc::{HtlcCall, HtlcContract, HtlcError};
pub use spec::SwapSpec;
pub use swap::{SwapCall, SwapContract, SwapError, UnlockRecord};
