//! `atomic-swaps`: a complete, runnable reproduction of Maurice Herlihy's
//! *Atomic Cross-Chain Swaps* (PODC 2018).
//!
//! A cross-chain swap is a directed graph `D` whose vertexes are parties
//! and whose arcs are proposed asset transfers, each living on its own
//! blockchain. For any strongly connected `D` and any feedback vertex set
//! `L` of *leaders*, the paper gives an atomic swap protocol built from
//! hashed timelock contracts generalized with *hashkeys* — and proves no
//! protocol exists outside those conditions. This workspace implements all
//! of it, from SHA-256 up:
//!
//! | layer | crate |
//! |---|---|
//! | discrete-event simulation, the Δ timing model | [`sim`] |
//! | swap digraphs, feedback vertex sets, generators | [`digraph`] |
//! | SHA-256, Merkle trees, Winternitz/Merkle signatures, hashkey chains | [`crypto`] |
//! | simulated blockchains, assets, escrow, storage metering | [`chain`] |
//! | the Figures 4–5 swap contract and classic HTLCs | [`contract`] |
//! | the untrusted market-clearing service (§4.2) | [`market`] |
//! | the protocol itself: runners, adversaries, outcomes | [`core`] |
//!
//! # Quick start
//!
//! ```
//! use atomic_swaps::core::runner::RunConfig;
//! use atomic_swaps::core::{Engine, ProtocolKind};
//! use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
//! use atomic_swaps::digraph::generators;
//! use atomic_swaps::sim::SimRng;
//!
//! // Alice trades alt-coins to Bob, Bob bitcoin to Carol, Carol her
//! // Cadillac title to Alice (§1 of the paper).
//! let digraph = generators::herlihy_three_party();
//! let setup = SwapSetup::generate(
//!     digraph,
//!     &SetupConfig::default(),
//!     &mut SimRng::from_seed(2018),
//! )?;
//! let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
//! assert!(report.all_deal());
//! # Ok::<(), atomic_swaps::market::BuildError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `tests/paper.rs` for the
//! per-theorem/per-figure validation harness (E1–E16; `cargo test --release
//! --test paper -- --nocapture` prints its paper-vs-measured tables). The
//! paper's analyses that the harness checks the engine against — the §4.4
//! pebble games, the Theorem 4.12 waits-for digraph, the Figure 6
//! feasibility check, the Figure 7 hashkey paths and the §5 recurrent
//! session — live beside it in `tests/paper/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use swap_chain as chain;
pub use swap_contract as contract;
pub use swap_core as core;
pub use swap_crypto as crypto;
pub use swap_digraph as digraph;
pub use swap_market as market;
pub use swap_sim as sim;
