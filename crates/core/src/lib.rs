//! Herlihy's atomic cross-chain swap protocol (PODC 2018) — the paper's
//! primary contribution, executable end to end on simulated blockchains.
//!
//! # What's here
//!
//! * [`setup`] — provisioning: keys, secrets, validated [`SwapSpec`]s, one
//!   chain and one asset per arc ([`SwapSetup`]).
//! * [`party`] — party state machines: the conforming §4.5 protocol
//!   (Phase One contract propagation, Phase Two hashkey dissemination) and
//!   a suite of deviating [`Behavior`]s (halts, secret withholding,
//!   premature reveals, coalition bypasses, fully scripted adversaries).
//! * [`engine`] — the one way to run a swap ([`engine::Engine`]): a setup,
//!   a config and a [`ProtocolKind`] in, a [`RunReport`] out. Party
//!   wake-ups, transaction execution, and visibility boundaries are
//!   scheduled events over [`swap_sim::Simulation`], with snapshot-delta
//!   caching keyed on chain state-versions; [`engine::Engine::lockstep`]
//!   times them by the paper's Δ-rounds.
//! * [`event`] — what a swap did, in types ([`SwapEvent`], [`What`]): the
//!   paper's closed list of publish / unlock / claim / refund / reveal /
//!   trigger / direct transfer / announce, plus every refused call; ids in,
//!   strings only at render ([`Trace::render`]).
//! * [`protocol`] — the protocol axis: the general §4.5 hashkey protocol
//!   and the §4.6 single-leader HTLC protocol as strategies over the one
//!   engine, named per swap by the closed [`protocol::ProtocolKind`].
//! * [`instance`] — the provisioning/execution split the exchange ships to
//!   its pool: a [`instance::ProvisionedSwap`] (cleared spec, key material,
//!   config, protocol) is admitted onto a timeline as an
//!   [`instance::AdmittedSwap`] and executed where it was admitted.
//! * [`identity`] — the per-address identity registry
//!   ([`identity::IdentityStore`]): one master MSS keypair per address,
//!   minted at first submit and leased leaf-by-leaf to successive swaps,
//!   with checked exhaustion.
//! * [`exchange`] — the pipeline above single swaps: offers stream into the
//!   untrusted clearing service, epochs clear them into disjoint cycles,
//!   and up to [`exchange::ExchangeConfig::executing_slots`] epochs' swaps
//!   execute concurrently on a persistent worker pool with a
//!   deterministic swap-id-ordered merge ([`exchange::Exchange`],
//!   [`exchange::ExchangeReport`]). A durable exchange
//!   ([`exchange::Exchange::with_journal`]) write-ahead-logs every
//!   lifecycle transition to a `swap-store` WAL with periodic snapshots,
//!   and [`exchange::Exchange::recover`] rebuilds a byte-identical
//!   exchange after a crash.
//! * [`pool`] — the execution tier under the exchange: a long-lived
//!   [`pool::WorkerPool`] with one run queue, panic-isolated jobs and
//!   results returned over a channel.
//! * [`timing`] — pluggable [`timing::TimingModel`]s: the paper's
//!   [`timing::Lockstep`] Δ-rounds and [`timing::PerChainLatency`]
//!   (per-chain publish/confirm delays under a dominating Δ).
//! * [`runner`] — what a run takes and gives back: [`RunConfig`] and the
//!   [`RunReport`] with outcomes, per-arc trigger times, the typed
//!   [`Trace`], and storage/communication metrics.
//! * [`outcome`] — the Figure 3 outcome lattice ([`Outcome`]).
//! * [`single_leader`] — the §4.6 Lemma 4.13 timeout assignment and the
//!   Figure 6 feasibility analysis (the protocol itself runs as
//!   [`ProtocolKind::Htlc`]).
//! * [`hashkey`] — Figure 7 hashkey-path enumeration.
//! * [`recurrent`] — the §5 recurrent-swap extension (next-round hashlocks
//!   distributed during Phase Two).
//! * [`waitsfor`] — the Theorem 4.12 waits-for digraph analysis (who is
//!   blocked on whom in Phase One, and when that is a deadlock).
//!
//! # Quick start
//!
//! ```
//! use swap_core::runner::RunConfig;
//! use swap_core::setup::{SetupConfig, SwapSetup};
//! use swap_core::{Engine, ProtocolKind};
//! use swap_digraph::generators;
//! use swap_sim::SimRng;
//!
//! // Alice, Bob, and Carol's three-way swap (§1 of the paper).
//! let digraph = generators::herlihy_three_party();
//! let setup = SwapSetup::generate(
//!     digraph,
//!     &SetupConfig::default(),
//!     &mut SimRng::from_seed(42),
//! )
//! .expect("valid swap");
//! let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
//! assert!(report.all_deal()); // everyone swapped
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durability;

pub mod engine;
pub mod event;
pub mod exchange;
pub mod hashkey;
pub mod identity;
pub mod instance;
pub mod outcome;
pub mod party;
pub mod pool;
pub mod protocol;
pub mod recurrent;
pub mod runner;
pub mod setup;
pub mod single_leader;
pub mod timing;
pub mod waitsfor;

pub use engine::Engine;
pub use event::{Actor, SwapEvent, Trace, What};
pub use exchange::{
    DriveError, EpochStage, Exchange, ExchangeConfig, ExchangeError, ExchangeParty, ExchangeReport,
    ExecutedSwap, JournalConfig, PartySeed, ProtocolPolicy, RecoverError, Recovered, RecoveryStats,
    StageCosts, StageTicks, StepEvent, SwapSummary,
};
pub use identity::{IdentityStore, LeaseError};
pub use instance::{AdmittedSwap, ProvisionedSwap, SwapRunOutput};
pub use outcome::Outcome;
pub use party::{Action, Behavior};
pub use pool::{Completed, JobPanic, WorkerPool};
pub use protocol::ProtocolKind;
pub use runner::{RunConfig, RunMetrics, RunReport};
pub use setup::{SetupConfig, SwapSetup};
pub use single_leader::{
    assign_timeouts, single_leader_of, timeout_assignment_feasible, TimeoutError,
};
pub use timing::{Lockstep, PerChainLatency, TimingModel};

// Re-exported so downstream users need only this crate for common flows.
pub use swap_contract::{SwapContract, SwapSpec};
