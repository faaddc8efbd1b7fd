//! The exchange pipeline: continuous clearing feeding multi-epoch parallel
//! execution on a persistent worker pool.
//!
//! The paper assumes "the swap digraph is constructed by a (possibly
//! centralized) market-clearing service" (§4.2) and then analyzes *one*
//! swap. [`Exchange`] is the layer above: a continuous market whose top
//! surface is a **stage-based pipeline**, not a blocking batch call. Each
//! epoch moves through the [`EpochStage`] state machine
//!
//! ```text
//!   Clearing ──▶ Provisioning ──▶ Executing ──▶ Settling ──▶ (retired)
//! ```
//!
//! The clearing, provisioning, and settling slots hold one epoch each, but
//! **`Executing` holds up to [`ExchangeConfig::executing_slots`] epochs at
//! once**: cleared cycles are party- and chain-disjoint across epochs (the
//! clearing reservation set guarantees it), so nothing in the theory
//! forces execution to serialize per epoch. Epoch `k+1`'s clearing and
//! provisioning run while epoch `k` executes, and with more than one
//! execution slot epoch `k+1`'s *execution* overlaps it too.
//! [`submit`](Exchange::submit) and [`cancel`](Exchange::cancel) are
//! accepted at any time — an offer submitted mid-epoch lands in the next
//! clearing delta instead of waiting for settlement — and
//! [`step`](Exchange::step) advances the pipeline by exactly one stage
//! transition ([`Exchange::drive_until_quiescent`] loops it dry).
//!
//! The four stages:
//!
//! 1. **Clearing.** A new epoch is admitted whenever the clearing slot is
//!    free and the book has submissions no clearing has seen. The untrusted
//!    [`ClearingService`] consumes the open book into disjoint trade
//!    cycles, *skipping offers whose parties are reserved by in-flight
//!    swaps* ([`ClearingService::reserved_addresses`]).
//! 2. **Provisioning.** Every cleared slot is re-verified against the
//!    party's original offer ([`swap_market::verify_cleared_swap`] — the
//!    service is untrusted), then each cycle *leases* its signing material
//!    from the identity registry ([`crate::identity::IdentityStore`]):
//!    every party's master keypair — minted once, at first submit — hands
//!    the swap a disjoint window of unused one-time leaves, so the `2^h`
//!    keygen is amortized across swaps and no `(address, leaf)` pair ever
//!    signs twice. An identity with too few leaves left fails only its own
//!    swap ([`ExchangeError::KeysExhausted`], its offers refunded, a
//!    checked path); siblings provision into [`ProvisionedSwap`]s and the
//!    protocol is chosen per cycle (under [`ProtocolPolicy::Auto`], §4.6
//!    single-leader HTLCs when feasible, the general §4.5 hashkey protocol
//!    otherwise). Identities can also be minted *by* the exchange, on the
//!    worker pool, overlapping execution
//!    ([`Exchange::submit_seeded`]).
//! 3. **Executing.** The moment an execution slot frees up, the entry
//!    instant is fixed and each of the epoch's provisioned swaps is
//!    **queued onto the long-lived [`WorkerPool`]** shared by every epoch
//!    in flight. Everything that belongs to one swap happens in its job,
//!    on whichever worker runs it: the swap is stamped onto the timeline
//!    ([`ProvisionedSwap::admit_for_queue`] creates its chains and rebases its start
//!    to `entry + Δ`), the engine runs, and the run is torn down — its
//!    [`SwapSummary`] and transaction counters folded, its spec and leased
//!    keys dropped — so only what the driver keeps comes back over the
//!    channel. The merge is swap-id-ordered, so the [`ExchangeReport`] is
//!    byte-identical for 1, 2, or N pool workers
//!    ([`ExchangeConfig::threads`] is a host wall-clock knob, never a
//!    semantic one). A job that panics — in admission or in the engine —
//!    is caught at the worker boundary: only that swap fails
//!    ([`ExchangeError::WorkerPanicked`], its offers refunded) and every
//!    sibling's finished result still settles.
//! 4. **Settling.** Offers resolve (settle on all-`Deal`, refund
//!    otherwise), every swap's chains move into the global ledger
//!    ([`ChainSet::absorb`]) and its storage is added to the report's
//!    running total, and the epoch retires. Epochs retire in admission
//!    order even when their executions overlapped.
//!
//! The thread driving [`step`](Exchange::step) does only the work that is
//! serial by nature — the book, the identity registry, the lifecycle, the
//! merge — and a step costs what its own epoch costs: nothing in it scans
//! the ledger or the swaps of earlier epochs.
//!
//! # Simulated time and per-stage attribution
//!
//! Stages cost simulated ticks ([`StageCosts`]; zero by default, so
//! single-epoch workloads behave exactly like the historical batch path).
//! Epochs advance in order through the exclusive slots, which yields the
//! classic pipeline recurrence: a stage starts at the later of its own
//! epoch's previous-stage completion and the moment a slot frees up. An
//! epoch's simulated execution wall is its slowest swap's run — a function
//! of the deterministic per-swap reports alone, never of host scheduling —
//! so the pipeline's simulated trace is identical however many pool
//! workers raced over the jobs. Every advance of the pipeline frontier is
//! attributed to the stage that completed across it
//! ([`ExchangeReport::stage_ticks`]), and the attribution sums exactly to
//! [`ExchangeReport::wall_ticks`] even while several epochs execute at
//! once: each frontier advance is charged to exactly one completing stage.
//! Executing-stage *occupancy* is tracked alongside
//! ([`ExchangeReport::executing_peak`],
//! [`ExchangeReport::executing_resident_ticks`]) — the observable form of
//! multi-epoch overlap.
//!
//! # Durability
//!
//! An exchange created with [`Exchange::with_journal`] write-ahead-logs
//! every public operation to a `swap-store` WAL before returning from it.
//! Each operation appends one **record group**: a single authoritative
//! *command* record first (the operation and its inputs — enough to re-run
//! it), followed by the *audit* records of everything the operation did to
//! the offer/swap lifecycle (plan commits, settlements, refunds, identity
//! registrations, leaf leases). All lifecycle mutations funnel through five
//! private methods (`Exchange::apply_submit`, `apply_resubmit`,
//! `apply_cancel`, `apply_settle`, `apply_refund`), so
//! the audit trail cannot silently miss a mutation path. Periodic snapshots at
//! pipeline-empty points rotate the log, and a writer thread puts the
//! snapshot in place and deletes the rotated-out segment behind the driver
//! (see [`Exchange::with_journal`]); [`Exchange::recover`] loads the
//! latest snapshot, replays the WAL tail in *lockstep* — each command is
//! re-run and the records it regenerates are compared one-to-one against
//! the log, so divergence is detected at the exact record — and resumes
//! with a byte-identical [`ExchangeReport`].

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::io;
use std::path::PathBuf;

use swap_chain::{ChainSet, StorageReport};
use swap_contract::AnyContract;
use swap_crypto::{Address, Digest32, MssKeypair, Secret};
use swap_digraph::VertexId;
use swap_market::{
    verify_cleared_swap, AssetKind, CancelError, ClearError, ClearedSwap, ClearingService, Offer,
    OfferId, SwapId, VerifyError,
};
use swap_sim::{Delta, SimDuration, SimRng, SimTime};
use swap_store::{
    fold_retired_segment, is_store_file, load_latest_snapshot, read_wal, SeedRecord,
    SnapshotWriter, Wal, WalRecord,
};

use crate::durability::{config_digest, fail_tag, from_bytes, stage_tag, Snapshot, Wire};
use crate::identity::IdentityStore;
use crate::instance::{ProvisionedSwap, SwapRunOutput};
use crate::pool::{Completed, WorkerPool};
use crate::protocol::ProtocolKind;
use crate::runner::{RunConfig, RunMetrics, RunReport};
use crate::setup::SwapSetup;

/// Configuration for an [`Exchange`].
#[derive(Debug, Clone)]
pub struct ExchangeConfig {
    /// The synchrony parameter Δ every cleared swap runs under.
    pub delta: Delta,
    /// Host worker threads in the long-lived execution pool (clamped to
    /// ≥ 1). Results are invariant under this knob; only host wall-clock
    /// changes.
    pub threads: usize,
    /// How many epochs may be concurrently resident in
    /// [`EpochStage::Executing`] (clamped to ≥ 1). This is the *simulated*
    /// execution-parallelism budget: with one slot epochs execute strictly
    /// in series (the historical pipeline); with `k` slots up to `k`
    /// epochs' swaps run side by side on the shared worker pool and the
    /// simulated frontier reflects the overlap. Unlike
    /// [`threads`](ExchangeConfig::threads) this knob *does* change the
    /// simulated trace (wall ticks, occupancy) — deterministically, the
    /// same for every host worker count.
    pub executing_slots: usize,
    /// Per-swap run configuration template (behaviors are keyed by vertex
    /// id within each swap, so they apply to every cleared swap alike —
    /// useful for adversarial sweeps).
    pub run: RunConfig,
    /// How the exchange picks the protocol executing each cleared cycle.
    pub protocol: ProtocolPolicy,
    /// Simulated cost of the non-execution pipeline stages. Zero by
    /// default: stage latencies are negligible next to protocol rounds at
    /// small book sizes, and zero costs keep single-epoch workloads
    /// byte-identical to the historical batch path. Tests set them to pin
    /// the pipelining win (`tests/pipeline_stages.rs`, `exchange_pool.rs`)
    /// and, the clearing coefficients being driven by *measured* per-clear
    /// work, the index's (`stage_costs_are_attributed_and_sum_to_wall`).
    pub stage_costs: StageCosts,
}

/// Per-cycle protocol selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolPolicy {
    /// Pick the cheapest feasible protocol per cleared cycle: §4.6
    /// single-leader HTLCs when the timeout assignment exists (the common
    /// case — every simple trade cycle qualifies), the general §4.5
    /// hashkey protocol otherwise. The choice lands in
    /// [`SwapSummary::protocol`].
    #[default]
    Auto,
    /// Run everything on the general hashkey protocol (the pre-selection
    /// behavior; useful as a benchmark baseline).
    ForceHashkey,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            delta: Delta::from_ticks(10),
            threads: 1,
            executing_slots: 1,
            run: RunConfig::default(),
            protocol: ProtocolPolicy::Auto,
            stage_costs: StageCosts::default(),
        }
    }
}

/// The pipeline's per-epoch state machine. Every admitted epoch moves
/// through the stages strictly in order:
///
/// ```text
/// Clearing ──▶ Provisioning ──▶ Executing ──▶ Settling ──▶ (retired)
/// ```
///
/// One epoch occupies each of `Clearing`, `Provisioning`, and `Settling`;
/// `Executing` holds up to [`ExchangeConfig::executing_slots`] epochs at
/// once. Epochs advance (and retire) in admission order — so epoch `k+1`
/// clears and provisions while epoch `k` executes, and with multiple
/// execution slots their executions overlap too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EpochStage {
    /// The clearing service is consuming the open book into trade cycles.
    Clearing,
    /// Cleared slots verified party-side; key material and protocol choice
    /// captured per cycle ([`ProvisionedSwap`]).
    Provisioning,
    /// All of the epoch's swaps are queued on the shared worker pool —
    /// admitted, run and torn down there, concurrently with each other and
    /// with every other executing epoch's swaps.
    Executing,
    /// Offers resolving and the swaps' chains merging into the global
    /// ledger.
    Settling,
}

impl EpochStage {
    /// All stages, in pipeline order.
    pub const ALL: [EpochStage; 4] = [
        EpochStage::Clearing,
        EpochStage::Provisioning,
        EpochStage::Executing,
        EpochStage::Settling,
    ];

    /// The stage after this one; `None` after [`EpochStage::Settling`]
    /// (the epoch retires).
    pub fn next(self) -> Option<EpochStage> {
        match self {
            EpochStage::Clearing => Some(EpochStage::Provisioning),
            EpochStage::Provisioning => Some(EpochStage::Executing),
            EpochStage::Executing => Some(EpochStage::Settling),
            EpochStage::Settling => None,
        }
    }

    fn index(self) -> usize {
        match self {
            EpochStage::Clearing => 0,
            EpochStage::Provisioning => 1,
            EpochStage::Executing => 2,
            EpochStage::Settling => 3,
        }
    }
}

impl fmt::Display for EpochStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochStage::Clearing => write!(f, "clearing"),
            EpochStage::Provisioning => write!(f, "provisioning"),
            EpochStage::Executing => write!(f, "executing"),
            EpochStage::Settling => write!(f, "settling"),
        }
    }
}

/// Simulated tick costs of the non-execution stages (the execution stage's
/// duration is the slowest in-flight swap's run, exactly as before). Each
/// stage costs `base + per_item × items`:
///
/// * clearing: per offer the matcher *actually examined* and per cycle it
///   emitted — **measured** from the clearing service's
///   [`swap_market::ClearStats`] for the epoch, not from a synthetic book
///   size: the indexed planner examines only the matchable region, so an
///   inert resting book costs nothing,
/// * provisioning: per *party* across the epoch's cleared cycles,
/// * settling: per *swap* the epoch resolves.
///
/// All zero by default (see [`ExchangeConfig::stage_costs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCosts {
    /// Fixed ticks per clearing stage.
    pub clearing_base: u64,
    /// Ticks per offer the epoch's matcher examined (measured:
    /// [`swap_market::ClearStats::offers_examined`]).
    pub clearing_per_examined: u64,
    /// Ticks per cycle the epoch's clearing emitted (measured:
    /// [`swap_market::ClearStats::cycles_emitted`]).
    pub clearing_per_cycle: u64,
    /// Fixed ticks per provisioning stage.
    pub provisioning_base: u64,
    /// Ticks per party across the epoch's cleared swaps.
    pub provisioning_per_party: u64,
    /// Fixed ticks per settling stage.
    pub settling_base: u64,
    /// Ticks per swap the epoch resolves.
    pub settling_per_swap: u64,
}

/// Wall-tick attribution per pipeline stage: every advance of the pipeline
/// frontier is charged to the stage whose completion carried it, so the
/// four counters sum exactly to [`ExchangeReport::wall_ticks`]. Under
/// batch driving each epoch pays clearing + provisioning + executing +
/// settling in full; under pipelined driving the non-execution stages of
/// epoch `k+1` hide beneath epoch `k`'s execution and contribute (almost)
/// nothing — which is precisely the observable form of the overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTicks {
    /// Frontier ticks spent completing clearing stages.
    pub clearing: u64,
    /// Frontier ticks spent completing provisioning stages.
    pub provisioning: u64,
    /// Frontier ticks spent completing execution stages.
    pub executing: u64,
    /// Frontier ticks spent completing settling stages.
    pub settling: u64,
}

impl StageTicks {
    /// Sum over the four stages; always equals the report's `wall_ticks`.
    pub fn total(&self) -> u64 {
        self.clearing + self.provisioning + self.executing + self.settling
    }

    fn charge(&mut self, stage: EpochStage, ticks: u64) {
        match stage {
            EpochStage::Clearing => self.clearing += ticks,
            EpochStage::Provisioning => self.provisioning += ticks,
            EpochStage::Executing => self.executing += ticks,
            EpochStage::Settling => self.settling += ticks,
        }
    }
}

/// What one [`Exchange::step`] call did.
#[derive(Debug)]
pub enum StepEvent {
    /// An epoch entered `stage` at simulated time `at` (entering
    /// [`EpochStage::Clearing`] is the admission of a new epoch).
    StageEntered {
        /// The epoch that advanced.
        epoch: u64,
        /// The stage it entered.
        stage: EpochStage,
        /// The simulated instant it entered.
        at: SimTime,
    },
    /// An epoch finished settling and retired: its offers are resolved,
    /// its chains absorbed, and its swaps' full reports are here, in
    /// swap-id order.
    EpochSettled {
        /// The retired epoch.
        epoch: u64,
        /// The simulated instant settlement completed.
        at: SimTime,
        /// The epoch's executed swaps, ascending swap id.
        executed: Vec<ExecutedSwap>,
    },
    /// Nothing to do: no epoch is in flight and no submission has arrived
    /// since the last clearing.
    Quiescent,
}

/// A simulation-side market participant: key material plus trade terms.
/// (Real deployments would hold only the public half; the simulation owns
/// every party, so it keeps the signing keys and secrets it needs to drive
/// them through the protocol.)
#[derive(Debug, Clone)]
pub struct ExchangeParty {
    /// The party's signing keypair.
    pub keypair: MssKeypair,
    /// The party's secret (hashlock preimage, §4.2: every party sends one).
    pub secret: Secret,
    /// The asset kind the party relinquishes.
    pub gives: AssetKind,
    /// The asset kind the party demands.
    pub wants: AssetKind,
}

/// Seed-level material for a party whose identity the *exchange* mints:
/// [`Exchange::submit_seeded`] queues the `2^h` one-time keygen onto the
/// worker pool instead of paying it on the caller's thread.
#[derive(Debug, Clone)]
pub struct PartySeed {
    /// Seed for the party's deterministic MSS keypair.
    pub seed: [u8; 32],
    /// Merkle tree height: the identity can sign `2^h` times, total.
    pub key_height: u32,
    /// The party's secret (hashlock preimage, §4.2).
    pub secret: Secret,
    /// The asset kind the party relinquishes.
    pub gives: AssetKind,
    /// The asset kind the party demands.
    pub wants: AssetKind,
}

impl ExchangeParty {
    /// Generates a party with deterministic key material drawn from `rng`.
    pub fn generate(
        rng: &mut SimRng,
        key_height: u32,
        gives: AssetKind,
        wants: AssetKind,
    ) -> ExchangeParty {
        let keypair = MssKeypair::from_seed_with_height(rng.bytes32(), key_height);
        let secret = Secret::random(rng);
        ExchangeParty { keypair, secret, gives, wants }
    }

    /// The offer this party submits to the clearing service.
    pub fn offer(&self) -> Offer {
        Offer {
            key: self.keypair.public_key(),
            hashlock: self.secret.hashlock(),
            gives: self.gives.clone(),
            wants: self.wants.clone(),
        }
    }
}

/// Errors from advancing the pipeline ([`Exchange::step`] and friends).
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeError {
    /// The clearing service failed to assemble a matched cycle.
    Clear(ClearError),
    /// A published swap failed a party's consistency re-check — the
    /// untrusted service misbehaved, and nothing was escrowed.
    Verify {
        /// The swap that failed verification.
        swap: SwapId,
        /// The vertex whose party detected the inconsistency.
        vertex: VertexId,
        /// What the party detected.
        error: VerifyError,
    },
    /// A swap's engine panicked on a pool worker. The panic was caught at
    /// the worker boundary, so only this swap failed — its offers are
    /// refunded, every sibling swap's finished result still settles, and
    /// further `step` calls keep driving the pipeline. (If several swaps
    /// of one epoch panicked, the lowest swap id is reported; all of them
    /// are refunded.)
    WorkerPanicked(SwapId),
    /// A swap was refunded at provisioning because a party's identity had
    /// fewer unused one-time leaves than the swap's signing budget. The
    /// refund is checked — no leaves were consumed, sibling swaps
    /// provision and settle normally, and further `step` calls keep
    /// driving the pipeline. (If several swaps of one epoch hit
    /// exhaustion, the lowest swap id is reported; all of them are
    /// refunded.)
    KeysExhausted {
        /// The refunded swap.
        swap: SwapId,
        /// The address whose identity ran out of one-time leaves.
        address: Address,
    },
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::Clear(e) => write!(f, "{e}"),
            ExchangeError::Verify { swap, vertex, error } => {
                write!(f, "party at vertex {vertex} rejected {swap}: {error}")
            }
            ExchangeError::WorkerPanicked(swap) => {
                write!(f, "{swap}'s engine panicked on a pool worker; its offers were refunded")
            }
            ExchangeError::KeysExhausted { swap, address } => {
                write!(
                    f,
                    "{swap} needs more one-time keys than identity {address} has left; \
                     its offers were refunded"
                )
            }
        }
    }
}

impl std::error::Error for ExchangeError {}

impl From<ClearError> for ExchangeError {
    fn from(e: ClearError) -> Self {
        ExchangeError::Clear(e)
    }
}

/// Error from [`Exchange::drive_until_quiescent`]: the pipeline error plus
/// every swap that had already settled during the drive — partial results
/// are returned, never dropped.
#[derive(Debug)]
pub struct DriveError {
    /// The error the failing step raised.
    pub error: ExchangeError,
    /// Swaps settled by this drive before the error struck (each retiring
    /// epoch's swaps in ascending swap-id order).
    pub executed: Vec<ExecutedSwap>,
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)?;
        if !self.executed.is_empty() {
            write!(f, " ({} swap(s) had already settled)", self.executed.len())?;
        }
        Ok(())
    }
}

impl std::error::Error for DriveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Configuration of a durable exchange's journal (see
/// [`Exchange::with_journal`] and [`Exchange::recover`]).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding the write-ahead log ([`swap_store::WAL_FILE`])
    /// and snapshots (`snap-*.snap`).
    pub dir: PathBuf,
    /// Records buffered before the WAL flushes to the OS (group commit).
    /// `0` behaves as `1` (write-through). Buffered records survive a
    /// clean drop but can be lost to a crash — the recovery protocol
    /// tolerates exactly that: a lost suffix of whole records, plus at
    /// most one torn record at the end.
    pub group_commit: usize,
    /// Settled epochs between snapshots; `0` disables snapshotting (the
    /// WAL then grows without bound and recovery replays from genesis).
    /// Snapshots are only taken at pipeline-empty points, so a busy
    /// pipeline may stretch the interval.
    pub snapshot_every: u64,
}

impl JournalConfig {
    /// A journal in `dir` with the default group-commit buffer (64
    /// records) and snapshot interval (every 8 settled epochs).
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig { dir: dir.into(), group_commit: 64, snapshot_every: 8 }
    }
}

/// Why [`Exchange::recover`] refused a store.
#[derive(Debug)]
pub enum RecoverError {
    /// Filesystem or store-layer failure (including a checksum-valid
    /// record this build cannot interpret).
    Io(io::Error),
    /// The store was written under a different *semantic* configuration
    /// (`threads` excluded — it never changes results). Replaying a log
    /// against changed clearing rules would diverge silently; refusing is
    /// the only safe answer.
    ConfigMismatch,
    /// Lockstep replay produced a record different from the logged one at
    /// `seq`: the store and the code disagree about what the exchange did.
    Diverged {
        /// Sequence number of the first mismatching record.
        seq: u64,
    },
    /// The record at `seq` cannot occupy its position (an audit record
    /// where a command head must be, or a command that no longer applies)
    /// — the checksums passed, so the store was truncated or tampered
    /// with at record granularity.
    Corrupt {
        /// Sequence number of the offending record.
        seq: u64,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "store i/o failed: {e}"),
            RecoverError::ConfigMismatch => {
                write!(f, "the store was written under a different exchange configuration")
            }
            RecoverError::Diverged { seq } => {
                write!(f, "replay diverged from the log at record {seq}")
            }
            RecoverError::Corrupt { seq } => {
                write!(f, "record {seq} cannot occupy its position in the log")
            }
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// What [`Exchange::recover`] did to rebuild the exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Sequence number the loaded snapshot covered through, if one was
    /// loaded (records at or before it were skipped).
    pub snapshot_seq: Option<u64>,
    /// WAL-tail records replayed and verified against the log.
    pub records_replayed: u64,
    /// Command records among those (each re-ran one public operation).
    pub commands_replayed: u64,
    /// Whether the log ended in a torn (partially written) record — the
    /// expected signature of a crash mid-write, dropped on recovery.
    pub torn_tail: bool,
}

/// A recovered exchange plus what it took to rebuild it.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt exchange, journaling onward into the same store.
    pub exchange: Exchange,
    /// Replay statistics.
    pub stats: RecoveryStats,
}

/// Where journaled record groups go.
#[derive(Debug)]
enum JournalSink {
    /// Live: groups append to the write-ahead log.
    Wal(Wal),
    /// Recovery: groups collect in memory for lockstep comparison against
    /// the log.
    Capture(Vec<WalRecord>),
}

/// The journaling state of a durable exchange.
#[derive(Debug)]
struct Journal {
    sink: JournalSink,
    /// The snapshot being written behind the driver, and the frame buffer
    /// kept between snapshots.
    writer: SnapshotWriter,
    snapshot_every: u64,
    /// Epochs settled since the last snapshot.
    settled_since_snapshot: u64,
    /// Audit records of the operation in progress; committed right after
    /// its command head, as one group.
    pending: Vec<WalRecord>,
}

impl Journal {
    fn new(sink: JournalSink, config: &JournalConfig) -> Journal {
        Journal {
            sink,
            writer: SnapshotWriter::default(),
            snapshot_every: config.snapshot_every,
            settled_since_snapshot: 0,
            pending: Vec::new(),
        }
    }
}

/// One swap the pipeline executed, with its full per-run report.
#[derive(Debug)]
pub struct ExecutedSwap {
    /// The market-issued swap id.
    pub id: SwapId,
    /// The epoch whose clearing produced the swap.
    pub epoch: u64,
    /// The complete protocol run report.
    pub report: RunReport,
}

/// The aggregate per-swap line of an [`ExchangeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapSummary {
    /// The market-issued swap id.
    pub swap: SwapId,
    /// The epoch whose clearing produced the swap.
    pub epoch: u64,
    /// Parties (vertices) in the cycle.
    pub parties: usize,
    /// Elected leaders.
    pub leaders: usize,
    /// The protocol that executed the swap (per-cycle auto-selection, or
    /// the forced baseline — see [`ProtocolPolicy`]).
    pub protocol: ProtocolKind,
    /// Whether every published contract reached a terminal state.
    pub settled: bool,
    /// Whether every party ended in `Deal` (the offers settled iff so).
    pub all_deal: bool,
    /// Rounds the run took.
    pub rounds: u64,
    /// The run's counters.
    pub metrics: RunMetrics,
}

/// The exchange pipeline's top-level observable: aggregate counters over
/// every epoch so far, plus one [`SwapSummary`] per executed swap in
/// swap-id order. Deterministic — invariant under
/// [`ExchangeConfig::threads`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExchangeReport {
    /// Clearing epochs admitted.
    pub epochs: u64,
    /// Offers submitted.
    pub offers_submitted: u64,
    /// Offers cancelled before matching.
    pub offers_cancelled: u64,
    /// Swaps cleared (and executed).
    pub swaps_cleared: u64,
    /// Swaps whose offers settled (every party ended in `Deal`).
    pub swaps_settled: u64,
    /// Swaps whose offers were refunded.
    pub swaps_refunded: u64,
    /// Swaps refunded at provisioning because a party's identity ran out
    /// of one-time leaves (a subset of `swaps_refunded`).
    pub swaps_exhausted: u64,
    /// First-touch identities registered in the identity store (each owns
    /// one master MSS keypair, leased leaf-by-leaf to its swaps).
    pub identities_registered: u64,
    /// Identity minting jobs the exchange ran on the worker pool
    /// ([`Exchange::submit_seeded`]).
    pub identities_minted: u64,
    /// Of those, jobs queued while at least one epoch occupied
    /// [`EpochStage::Executing`] — keygen that overlapped swap execution
    /// instead of blocking the pipeline's thread.
    pub mints_overlapping_execution: u64,
    /// One-time leaves leased to provisioned swaps so far.
    pub leaves_leased: u64,
    /// Total simulated wall ticks the pipeline frontier advanced. Within an
    /// epoch, concurrent in-flight swaps share one execution wall (the
    /// slowest swap's); across epochs, overlapped stages share the
    /// frontier, so pipelined driving strictly undercuts batch driving
    /// whenever the non-execution stages cost anything.
    pub wall_ticks: u64,
    /// Where the wall ticks went, stage by stage; sums to `wall_ticks`
    /// even while several epochs execute at once (each frontier advance is
    /// charged to exactly one completing stage).
    pub stage_ticks: StageTicks,
    /// The most epochs ever concurrently resident in
    /// [`EpochStage::Executing`] (bounded by
    /// [`ExchangeConfig::executing_slots`]).
    pub executing_peak: u64,
    /// Epoch-ticks of `Executing` residency: every frontier advance of
    /// `dt` ticks contributes `dt × (epochs then executing)`. Divided by
    /// `wall_ticks` this is the stage's average occupancy — the
    /// observable form of multi-epoch execution overlap.
    pub executing_resident_ticks: u64,
    /// Transactions sealed across every chain of every executed swap —
    /// deterministic, so rollback traffic is pinnable across worker
    /// counts.
    pub tx_executed: u64,
    /// Transactions whose contract hook failed after starting to execute,
    /// forcing a rollback (mempool-style rejections excluded) — the
    /// denominator the undo journal optimizes.
    pub tx_rolled_back: u64,
    /// Merged storage across every chain of every executed swap —
    /// Theorem 4.10's "bits stored on all blockchains", at exchange scale.
    pub storage: swap_chain::StorageReport,
    /// One line per executed swap, ordered by swap id.
    pub swaps: Vec<SwapSummary>,
}

/// Tag of one job queued on the shared worker pool.
#[derive(Debug, Clone, Copy)]
enum JobTag {
    /// A provisioned swap's engine run, tagged `(epoch, swap)`.
    Swap(u64, SwapId),
    /// A first-touch identity minting job ([`Exchange::submit_seeded`]),
    /// tagged by mint ticket.
    Mint(u64),
}

/// Result of one pool job.
#[derive(Debug)]
enum JobOutput {
    /// A finished swap run.
    Swap(Box<SwapResult>),
    /// A minted identity keypair.
    Mint(MssKeypair),
}

/// What a swap's pool job hands back to the driver: only what the driver
/// keeps. Everything else of the run — the spec, the leased keypairs, the
/// secrets — was dropped on the worker that ran it.
#[derive(Debug)]
struct SwapResult {
    /// The swap's line of the [`ExchangeReport`].
    summary: SwapSummary,
    /// Transactions sealed across the swap's chains.
    tx_executed: u64,
    /// Of those, transactions rolled back after starting to execute.
    tx_rolled_back: u64,
    /// The swap's chains, for the global ledger.
    chains: ChainSet<AnyContract>,
    /// The full run report, handed on in [`StepEvent::EpochSettled`].
    report: RunReport,
}

impl SwapResult {
    /// A swap's whole life on its worker, from the time-agnostic
    /// [`ProvisionedSwap`] to the slim result: admission at `entry`
    /// (chains and assets created, start rebased to `entry + Δ`), the
    /// engine run, and the tear-down — the summary folded, the per-chain
    /// transaction counters summed, and the spec and key material dropped
    /// here rather than on the driver.
    fn run(provisioned: ProvisionedSwap, entry: SimTime) -> SwapResult {
        let SwapRunOutput { swap, epoch, protocol, report, setup } =
            provisioned.admit_for_queue(entry).execute();
        let SwapSetup { spec, chains, .. } = setup;
        let summary = SwapSummary {
            swap,
            epoch,
            parties: spec.digraph.vertex_count(),
            leaders: spec.leaders.len(),
            protocol,
            settled: report.settled,
            all_deal: report.all_deal(),
            rounds: report.metrics.rounds,
            metrics: report.metrics,
        };
        let (tx_executed, tx_rolled_back) = chains.iter().fold((0, 0), |(done, undone), (_, c)| {
            (done + c.txs_executed(), undone + c.txs_rolled_back())
        });
        SwapResult { summary, tx_executed, tx_rolled_back, chains, report }
    }
}

/// Stage-to-stage payload of one in-flight epoch.
#[derive(Debug)]
enum EpochWork {
    /// Clearing output, awaiting verification + provisioning.
    Cleared(Vec<ClearedSwap>),
    /// Provisioned swaps, awaiting an execution slot.
    Provisioned(Vec<ProvisionedSwap>),
    /// The epoch's swaps are queued on the worker pool. While any result
    /// is outstanding, the epoch's `completes_at` is only a *lower bound*
    /// (Δ — the shortest possible run); [`Exchange::resolve_execution`]
    /// collects the results and installs the true wall.
    Queued {
        /// When the epoch entered `Executing` (and its jobs were queued).
        entered: SimTime,
        /// Results not yet received from the pool.
        pending: usize,
        /// Results received so far (arrival order; sorted at resolution).
        outcomes: Vec<SwapResult>,
        /// Swaps whose job panicked on its worker.
        panicked: Vec<SwapId>,
    },
    /// Execution results resolved and merged, awaiting settlement.
    Executed(Vec<SwapResult>),
    /// Placeholder while a transition consumes the payload.
    Taken,
}

/// One epoch somewhere in the pipeline.
#[derive(Debug)]
struct InFlightEpoch {
    epoch: u64,
    stage: EpochStage,
    /// When the current stage's simulated work completes. For an epoch in
    /// [`EpochWork::Queued`] state this is a lower bound until resolution.
    completes_at: SimTime,
    work: EpochWork,
}

/// The orchestrator: offers in, a pipeline of concurrent atomic-swap
/// epochs out.
///
/// # Example
///
/// ```
/// use swap_core::exchange::{Exchange, ExchangeConfig, ExchangeParty};
/// use swap_market::AssetKind;
/// use swap_sim::SimRng;
///
/// let mut rng = SimRng::from_seed(9);
/// let mut exchange = Exchange::new(ExchangeConfig { threads: 2, ..Default::default() });
/// for (gives, wants) in [("btc", "eth"), ("eth", "btc"), ("usd", "gbp"), ("gbp", "usd")] {
///     exchange.submit(ExchangeParty::generate(
///         &mut rng,
///         4,
///         AssetKind::new(gives),
///         AssetKind::new(wants),
///     ));
/// }
/// let executed = exchange.drive_until_quiescent().unwrap();
/// assert_eq!(executed.len(), 2);
/// assert!(executed.iter().all(|s| s.report.all_deal()));
/// assert_eq!(exchange.report().swaps_settled, 2);
/// ```
#[derive(Debug)]
pub struct Exchange {
    config: ExchangeConfig,
    service: ClearingService,
    /// Hashlock material per submitted offer: the owning identity's
    /// address (the signing keys live in `identities`) plus the offer's
    /// secret, needed to drive the offer's party through the protocol once
    /// it is matched.
    material: BTreeMap<OfferId, (Address, Secret)>,
    /// The identity registry: one master MSS keypair per address, minted
    /// at first submit and leased leaf-by-leaf to successive swaps.
    identities: IdentityStore,
    /// The pipeline frontier: the simulated instant of the latest completed
    /// stage transition.
    now: SimTime,
    /// Epochs currently in the pipeline, admission order (front = oldest).
    in_flight: VecDeque<InFlightEpoch>,
    /// When each stage slot was last vacated (indexed by stage).
    vacated: [SimTime; 4],
    /// The simulated instant of the latest book change (submission or
    /// withdrawal) no clearing has seen; `None` while the book is clean.
    dirty_since: Option<SimTime>,
    /// The long-lived execution tier: every admitted swap of every
    /// executing epoch is queued here, tagged `(epoch, swap)`.
    pool: WorkerPool<JobTag, JobOutput>,
    /// Minted identities received from the pool, keyed by mint ticket,
    /// parked until [`Exchange::submit_seeded`] collects them in
    /// submission order.
    minted: BTreeMap<u64, MssKeypair>,
    /// Next mint-job ticket.
    mint_ticket: u64,
    /// The merged global ledger: every executed swap's chains, absorbed.
    ledger: ChainSet<AnyContract>,
    /// Storage totals of ledgers retired *before* this process — loaded
    /// from a snapshot. The live report's storage is always
    /// `archived_storage + ledger.storage_report()`, so recovery does not
    /// need to serialize (or replay into) the ledger itself. `retire`
    /// keeps that sum as a running total and only asserts it against the
    /// scan in debug builds.
    archived_storage: StorageReport,
    /// The journal, when this exchange is durable (see
    /// [`Exchange::with_journal`]).
    journal: Option<Journal>,
    report: ExchangeReport,
}

impl Exchange {
    /// Creates an exchange with an empty book at `t = 0`. The execution
    /// worker pool ([`ExchangeConfig::threads`] threads) is spawned here
    /// and lives as long as the exchange.
    pub fn new(config: ExchangeConfig) -> Exchange {
        let service = ClearingService::new();
        let pool = WorkerPool::new(config.threads);
        Exchange {
            config,
            service,
            material: BTreeMap::new(),
            identities: IdentityStore::new(),
            now: SimTime::ZERO,
            in_flight: VecDeque::new(),
            vacated: [SimTime::ZERO; 4],
            dirty_since: None,
            pool,
            minted: BTreeMap::new(),
            mint_ticket: 0,
            ledger: ChainSet::new(),
            archived_storage: StorageReport::default(),
            journal: None,
            report: ExchangeReport::default(),
        }
    }

    /// Submits a party's offer to the book, returning its id. Accepted at
    /// any time: an offer submitted while epochs are in flight is picked up
    /// by the *next* clearing delta — it does not wait for settlement.
    ///
    /// The party's address is registered in the identity store on first
    /// touch; a party resubmitting under the same address keeps its
    /// existing identity (and its consumed-leaf state), so re-submission
    /// can never rewind the one-time-key counter into leaf reuse.
    pub fn submit(&mut self, party: ExchangeParty) -> OfferId {
        let head = WalRecord::SubmitOffer {
            seed: *party.keypair.seed(),
            height: party.keypair.height() as u8,
            next_leaf: party.keypair.next_leaf(),
            secret: *party.secret.reveal(),
            gives: party.gives.0.clone(),
            wants: party.wants.0.clone(),
        };
        let id = self.apply_submit(party);
        self.journal_commit(head);
        id
    }

    /// Submits a batch of parties whose identities the *exchange* mints,
    /// on the worker pool.
    ///
    /// Minting a height-`h` identity derives `2^h` Winternitz one-time keys —
    /// by far the most expensive operation in the pipeline. Queueing the
    /// keygen jobs here lets them run on idle pool workers *while
    /// previously admitted epochs execute*: in a rolling book, the next
    /// wave's keygen hides entirely under the current wave's swap runs
    /// ([`ExchangeReport::mints_overlapping_execution`] counts the jobs
    /// queued while an epoch occupied [`EpochStage::Executing`]). Offers
    /// are submitted in `seeds` order once every mint has landed, so the
    /// book — and everything downstream — is deterministic whatever the
    /// pool's thread count.
    ///
    /// Returns each offer's id and its identity's address; pass the
    /// address to [`resubmit`](Self::resubmit) to trade again with zero
    /// keygen.
    pub fn submit_seeded(&mut self, seeds: Vec<PartySeed>) -> Vec<(OfferId, Address)> {
        let head = WalRecord::SubmitSeeded {
            seeds: seeds
                .iter()
                .map(|spec| SeedRecord {
                    seed: spec.seed,
                    height: spec.key_height as u8,
                    secret: *spec.secret.reveal(),
                    gives: spec.gives.0.clone(),
                    wants: spec.wants.0.clone(),
                })
                .collect(),
        };
        let executing = self.in_flight.iter().any(|e| e.stage == EpochStage::Executing);
        let mut tickets = Vec::with_capacity(seeds.len());
        for spec in &seeds {
            let ticket = self.mint_ticket;
            self.mint_ticket += 1;
            let (seed, height) = (spec.seed, spec.key_height);
            self.pool.submit(JobTag::Mint(ticket), move || {
                JobOutput::Mint(MssKeypair::from_seed_with_height(seed, height))
            });
            tickets.push(ticket);
        }
        self.report.identities_minted += seeds.len() as u64;
        if executing {
            self.report.mints_overlapping_execution += seeds.len() as u64;
        }
        let out: Vec<(OfferId, Address)> = seeds
            .into_iter()
            .zip(tickets)
            .map(|(spec, ticket)| {
                while !self.minted.contains_key(&ticket) {
                    let completed = self.pool.recv();
                    self.absorb(completed);
                }
                let keypair = self.minted.remove(&ticket).expect("just observed");
                let address = keypair.public_key().address();
                self.journal_audit(WalRecord::IdentityMinted {
                    ticket,
                    address: *address.digest().as_bytes(),
                });
                let party = ExchangeParty {
                    keypair,
                    secret: spec.secret,
                    gives: spec.gives,
                    wants: spec.wants,
                };
                // The seeded command is the group's one head: replaying it
                // re-runs every submission, so none logs its own.
                (self.apply_submit(party), address)
            })
            .collect();
        self.journal_commit(head);
        out
    }

    /// Submits a fresh offer for an already-registered identity: the same
    /// signing key, a new secret, new terms — and zero keygen. Returns
    /// `None` if the address has no registered identity.
    pub fn resubmit(
        &mut self,
        address: Address,
        secret: Secret,
        gives: AssetKind,
        wants: AssetKind,
    ) -> Option<OfferId> {
        let head = WalRecord::Resubmit {
            address: *address.digest().as_bytes(),
            secret: *secret.reveal(),
            gives: gives.0.clone(),
            wants: wants.0.clone(),
        };
        let id = self.apply_resubmit(address, secret, gives, wants);
        match id {
            Some(_) => self.journal_commit(head),
            // Nothing happened; an unknown address leaves no trace in the
            // log either.
            None => self.journal_abort(),
        }
        id
    }

    /// Withdraws an open offer (see [`ClearingService::cancel`]). Accepted
    /// at any time; an offer that a clearing already matched into an
    /// in-flight swap is no longer `Open` and the cancel fails — a
    /// provisioned swap is never unwound.
    ///
    /// # Errors
    ///
    /// [`CancelError`] if the offer is unknown or no longer open.
    pub fn cancel(&mut self, id: OfferId) -> Result<(), CancelError> {
        let outcome = self.apply_cancel(id);
        match outcome {
            Ok(()) => self.journal_commit(WalRecord::Cancel { offer: id.raw() }),
            Err(_) => self.journal_abort(),
        }
        outcome
    }

    /// The pipeline frontier: the simulated instant of the latest completed
    /// stage transition.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlying clearing service (offer statuses, epoch counter).
    pub fn service(&self) -> &ClearingService {
        &self.service
    }

    /// The merged global ledger across every executed swap.
    pub fn ledger(&self) -> &ChainSet<AnyContract> {
        &self.ledger
    }

    /// The identity registry: one master keypair per address, with
    /// consumed-leaf accounting.
    pub fn identities(&self) -> &IdentityStore {
        &self.identities
    }

    /// The aggregate report so far.
    pub fn report(&self) -> &ExchangeReport {
        &self.report
    }

    /// Consumes the exchange, yielding the final aggregate report.
    pub fn into_report(self) -> ExchangeReport {
        self.report
    }

    /// The in-flight epochs and the stage each occupies, oldest first.
    pub fn stages(&self) -> Vec<(u64, EpochStage)> {
        self.in_flight.iter().map(|e| (e.epoch, e.stage)).collect()
    }

    /// The stage `epoch` currently occupies, if it is in flight.
    pub fn stage_of(&self, epoch: u64) -> Option<EpochStage> {
        self.in_flight.iter().find(|e| e.epoch == epoch).map(|e| e.stage)
    }

    /// True when nothing is in flight and no submission awaits clearing.
    pub fn is_quiescent(&self) -> bool {
        self.in_flight.is_empty() && self.dirty_since.is_none()
    }

    /// Advances the pipeline by exactly one stage transition and reports
    /// what happened. Transitions are processed in simulated-time order:
    ///
    /// * a new epoch is admitted into [`EpochStage::Clearing`] whenever the
    ///   slot is free and the book has submissions no clearing has seen;
    /// * otherwise the in-flight epoch with the earliest admissible
    ///   transition advances one stage (respecting slot budgets and
    ///   admission order — this is what overlaps epoch `k+1`'s clearing,
    ///   provisioning, and, with more than one
    ///   [execution slot](ExchangeConfig::executing_slots), *execution*
    ///   with epoch `k`'s execution);
    /// * with nothing to do, [`StepEvent::Quiescent`] is returned and the
    ///   exchange is unchanged.
    ///
    /// An epoch whose pool results are still outstanding carries only a
    /// *lower bound* on its execution completion; `step` blocks on the
    /// pool (resolving the true completion) only once that bound undercuts
    /// every transition already known — so the host-side execution of one
    /// epoch overlaps both the bookkeeping and the execution of the next,
    /// while the simulated trace stays deterministic.
    ///
    /// On the calling thread a step costs O(the swaps of the epoch it
    /// moves), however long the exchange has run: entering
    /// [`EpochStage::Executing`] only queues the epoch's jobs (each swap's
    /// chains are created, run and torn down on its worker), and
    /// retirement merges what the workers folded — chains moved into the
    /// ledger unread, storage added to a running total.
    ///
    /// # Example
    ///
    /// ```
    /// use swap_core::exchange::{EpochStage, Exchange, ExchangeConfig, ExchangeParty, StepEvent};
    /// use swap_market::AssetKind;
    /// use swap_sim::SimRng;
    ///
    /// let mut rng = SimRng::from_seed(5);
    /// let mut exchange = Exchange::new(ExchangeConfig::default());
    /// for (gives, wants) in [("btc", "eth"), ("eth", "btc")] {
    ///     exchange.submit(ExchangeParty::generate(
    ///         &mut rng,
    ///         4,
    ///         AssetKind::new(gives),
    ///         AssetKind::new(wants),
    ///     ));
    /// }
    /// // Admission, three advances, retirement, quiescence.
    /// let mut stages = Vec::new();
    /// loop {
    ///     match exchange.step().unwrap() {
    ///         StepEvent::StageEntered { stage, .. } => stages.push(stage),
    ///         StepEvent::EpochSettled { executed, .. } => {
    ///             assert_eq!(executed.len(), 1);
    ///             break;
    ///         }
    ///         StepEvent::Quiescent => unreachable!("an epoch is in flight"),
    ///     }
    /// }
    /// assert_eq!(stages, EpochStage::ALL.to_vec());
    /// assert!(exchange.is_quiescent());
    /// ```
    ///
    /// # Errors
    ///
    /// [`ExchangeError::Clear`] if cycle assembly fails (no offer changes
    /// status and no epoch is admitted); [`ExchangeError::Verify`] if a
    /// published swap betrays an offer — nothing was escrowed, and every
    /// swap of that epoch is torn down (its offers become `Refunded`), so
    /// the book is never wedged with permanently-`Matched` offers;
    /// [`ExchangeError::WorkerPanicked`] if a swap's engine panicked on
    /// its worker — that swap's offers are refunded, its siblings' results
    /// survive and settle normally. The pipeline stays consistent in every
    /// case and further `step` calls keep driving the remaining epochs.
    pub fn step(&mut self) -> Result<StepEvent, ExchangeError> {
        let outcome = self.step_inner();
        match &outcome {
            Ok(StepEvent::StageEntered { epoch, stage, at }) => {
                self.journal_commit(WalRecord::StageEntered {
                    epoch: *epoch,
                    stage: stage_tag(*stage),
                    at: at.ticks(),
                });
            }
            Ok(StepEvent::EpochSettled { epoch, at, executed }) => {
                self.journal_commit(WalRecord::EpochSettled {
                    epoch: *epoch,
                    at: at.ticks(),
                    swaps: executed.iter().map(|s| s.id.raw()).collect(),
                });
                self.maybe_snapshot();
            }
            Ok(StepEvent::Quiescent) => {
                // A quiescent step mutates nothing: no record.
                self.journal_abort();
            }
            Err(error) => {
                // Failed steps mutate too (teardowns, refunds): the error
                // step is a command like any other, replayed on recovery.
                self.journal_commit(WalRecord::StepFailed { error: fail_tag(error) });
            }
        }
        outcome
    }

    /// [`step`](Self::step) minus the journaling envelope.
    fn step_inner(&mut self) -> Result<StepEvent, ExchangeError> {
        // Admission first: the clearing slot feeds the pipeline.
        let clearing_busy = self.in_flight.iter().any(|e| e.stage == EpochStage::Clearing);
        if !clearing_busy {
            if let Some(dirty_at) = self.dirty_since {
                let entered = dirty_at.max(self.vacated[EpochStage::Clearing.index()]);
                return self.admit(entered);
            }
        }
        // Otherwise: the admissible transition earliest in simulated time.
        // An epoch still waiting on pool results ([`EpochWork::Queued`])
        // only has a *lower bound* on its transition time; it is resolved
        // (blocking on the pool channel) lazily, only once that bound
        // undercuts every transition already known — any transition known
        // to be strictly earlier is processed first, which is what lets
        // the host finish epoch `k`'s swaps while the pipeline books (and
        // queues) epoch `k+1`. Resolution is host-order-independent, so
        // the simulated trace is deterministic either way.
        loop {
            let mut best: Option<(usize, SimTime)> = None;
            let mut unresolved: Option<(usize, SimTime)> = None;
            for (i, epoch) in self.in_flight.iter().enumerate() {
                if !self.may_advance(i) {
                    continue;
                }
                let entry = self.entry_time(i);
                if matches!(epoch.work, EpochWork::Queued { .. }) {
                    if unresolved.map_or(true, |(_, t)| entry < t) {
                        unresolved = Some((i, entry));
                    }
                } else if best.map_or(true, |(_, t)| entry < t) {
                    best = Some((i, entry));
                }
            }
            match (best, unresolved) {
                (Some((i, entry)), Some((_, bound))) if entry < bound => {
                    return self.advance(i, entry);
                }
                (_, Some((i, _))) => self.resolve_execution(i)?,
                (Some((i, entry)), None) => return self.advance(i, entry),
                (None, None) => return Ok(StepEvent::Quiescent),
            }
        }
    }

    /// Whether the `i`-th in-flight epoch's next transition respects the
    /// slot budgets and admission order: the single-epoch stages must be
    /// free of epochs ahead, entry into `Executing` requires a free
    /// execution slot, and departure from `Executing` waits for every
    /// older epoch to clear both `Executing` and `Settling` (epochs retire
    /// in admission order even when their executions overlapped).
    fn may_advance(&self, i: usize) -> bool {
        let epoch = &self.in_flight[i];
        let mut ahead = self.in_flight.iter().take(i);
        match epoch.stage.next() {
            Some(EpochStage::Executing) => {
                let resident = ahead.filter(|a| a.stage == EpochStage::Executing).count();
                resident < self.config.executing_slots.max(1)
            }
            Some(EpochStage::Settling) => {
                !ahead.any(|a| a.stage == EpochStage::Executing || a.stage == EpochStage::Settling)
            }
            Some(next) => !ahead.any(|a| a.stage == next),
            None => true,
        }
    }

    /// The simulated instant the `i`-th epoch's next transition happens:
    /// the later of its own stage completion (a lower bound while its pool
    /// results are outstanding) and the moment the next stage's slot was
    /// last vacated. Transitions are processed in simulated-time order, so
    /// a stale vacate time never inflates an entry: any vacate later than
    /// this entry belongs to a transition that has not been processed yet.
    fn entry_time(&self, i: usize) -> SimTime {
        let epoch = &self.in_flight[i];
        match epoch.stage.next() {
            Some(next) => epoch.completes_at.max(self.vacated[next.index()]),
            None => epoch.completes_at,
        }
    }

    /// Steps the pipeline until it is [quiescent](Exchange::is_quiescent),
    /// returning every swap executed along the way (each retiring epoch's
    /// swaps in ascending swap-id order). Offers that never matched stay
    /// `Open` in the book — quiescence means no epoch is in flight *and*
    /// no submission has arrived since the last clearing, not an empty
    /// book.
    ///
    /// # Example
    ///
    /// ```
    /// use swap_core::exchange::{Exchange, ExchangeConfig, ExchangeParty};
    /// use swap_market::AssetKind;
    /// use swap_sim::SimRng;
    ///
    /// let mut rng = SimRng::from_seed(7);
    /// let mut exchange = Exchange::new(ExchangeConfig::default());
    /// for (gives, wants) in [("usd", "gbp"), ("gbp", "usd"), ("doge", "usd")] {
    ///     exchange.submit(ExchangeParty::generate(
    ///         &mut rng,
    ///         4,
    ///         AssetKind::new(gives),
    ///         AssetKind::new(wants),
    ///     ));
    /// }
    /// let executed = exchange.drive_until_quiescent().unwrap();
    /// assert_eq!(executed.len(), 1); // the usd/gbp ring; doge has no taker
    /// assert!(exchange.is_quiescent());
    /// assert_eq!(exchange.service().open_count(), 1); // doge rolls over
    /// ```
    ///
    /// # Errors
    ///
    /// Stops at the first [`ExchangeError`] a step raises, returned inside
    /// a [`DriveError`] together with every swap that had already settled
    /// during this drive (partial results are never lost). The pipeline
    /// stays consistent and the drive can be resumed by calling this
    /// again.
    pub fn drive_until_quiescent(&mut self) -> Result<Vec<ExecutedSwap>, DriveError> {
        let mut executed = Vec::new();
        loop {
            match self.step() {
                Ok(StepEvent::EpochSettled { executed: mut swaps, .. }) => {
                    executed.append(&mut swaps);
                }
                Ok(StepEvent::Quiescent) => return Ok(executed),
                Ok(StepEvent::StageEntered { .. }) => {}
                Err(error) => return Err(DriveError { error, executed }),
            }
        }
    }

    /// Admits a new epoch into the clearing stage at `entered`.
    fn admit(&mut self, entered: SimTime) -> Result<StepEvent, ExchangeError> {
        // Plan first, price from the plan's *measured* work (offers the
        // matcher examined, cycles it emitted), then publish at the priced
        // completion instant: the cost must be known before `commit`
        // because every published start is "at least Δ in the future" of
        // the publication instant.
        let plan = self.service.plan();
        let stats = *plan.stats();
        let costs = &self.config.stage_costs;
        let cost = costs.clearing_base
            + costs.clearing_per_examined * stats.offers_examined
            + costs.clearing_per_cycle * stats.cycles_emitted;
        let completes = entered + SimDuration::from_ticks(cost);
        let cleared = match self.service.commit(plan, self.config.delta, completes) {
            Ok(cleared) => cleared,
            Err(e) => {
                // `commit` is transactional — the book is untouched — but a
                // book that fails to clear would fail identically on every
                // retry, and retrying admission first on each `step` would
                // starve the in-flight epochs. Report the error once and
                // drop the dirty mark; the next `submit` or `cancel` (the
                // only ways the book can change) re-marks it.
                self.dirty_since = None;
                return Err(e.into());
            }
        };
        self.dirty_since = None;
        let epoch = self.service.epoch() - 1;
        self.journal_audit(WalRecord::PlanCommitted {
            epoch,
            cycles: cleared.len() as u64,
            offers_examined: stats.offers_examined,
            offers_matched: stats.offers_matched,
        });
        self.report.epochs += 1;
        self.now = self.now.max(entered);
        self.in_flight.push_back(InFlightEpoch {
            epoch,
            stage: EpochStage::Clearing,
            completes_at: completes,
            work: EpochWork::Cleared(cleared),
        });
        Ok(StepEvent::StageEntered { epoch, stage: EpochStage::Clearing, at: entered })
    }

    /// Advances the `i`-th in-flight epoch out of its current stage, with
    /// the next stage entered (or the epoch retired) at `entry`.
    fn advance(&mut self, i: usize, entry: SimTime) -> Result<StepEvent, ExchangeError> {
        let leaving = self.in_flight[i].stage;
        let published_at = self.in_flight[i].completes_at;
        // Attribute the frontier advance to the stage being left, then
        // vacate its slot for the epoch behind.
        let dt = if entry > self.now { (entry - self.now).ticks() } else { 0 };
        // Executing-stage occupancy integral, over the pre-transition
        // state: every epoch resident in the stage was resident for the
        // whole advance (transitions are processed in time order).
        let resident =
            self.in_flight.iter().filter(|e| e.stage == EpochStage::Executing).count() as u64;
        self.report.executing_resident_ticks += dt * resident;
        self.now = self.now.max(entry);
        self.report.wall_ticks += dt;
        self.report.stage_ticks.charge(leaving, dt);
        self.vacated[leaving.index()] = entry;
        let epoch = self.in_flight[i].epoch;
        let work = std::mem::replace(&mut self.in_flight[i].work, EpochWork::Taken);
        let costs = self.config.stage_costs;
        match (leaving, work) {
            (EpochStage::Clearing, EpochWork::Cleared(cleared)) => {
                // The service is untrusted: every party re-checks its slot
                // at publication, before anything is provisioned, let alone
                // escrowed (§4.2).
                if let Err(error) = self.verify_epoch(&cleared, published_at) {
                    // Nothing was escrowed, but `clear` already consumed
                    // the matched offers — refund every cleared swap so
                    // the lifecycle resolves instead of wedging in
                    // `Matched`.
                    let mut released: BTreeSet<Address> = BTreeSet::new();
                    for swap in &cleared {
                        released.extend(self.apply_refund(swap.id, false));
                    }
                    self.wake_deferred(&released);
                    self.report.swaps_cleared += cleared.len() as u64;
                    self.in_flight.remove(i);
                    return Err(error);
                }
                // Provision each cycle by *leasing* one-time leaf windows
                // from the identity registry: `leaders + 1` signatures per
                // party covers every signing the §4.5/§4.6 engines can
                // perform (one base chain or premature announce, plus one
                // extension per leader). An identity with too few unused
                // leaves fails only its own swap, checked: that swap is
                // refunded here (no leaves consumed) and its siblings
                // provision normally.
                let mut provisioned = Vec::with_capacity(cleared.len());
                let mut exhausted: Vec<(SwapId, Address)> = Vec::new();
                let mut released: BTreeSet<Address> = BTreeSet::new();
                let mut parties = 0u64;
                for swap in cleared {
                    let budget = swap.spec.leaders.len() as u64 + 1;
                    // Cumulative need per address (one slot per party per
                    // swap in practice; stay safe about duplicates).
                    let mut need: BTreeMap<Address, u64> = BTreeMap::new();
                    for oid in &swap.offer_of_vertex {
                        *need.entry(self.material[oid].0).or_insert(0) += budget;
                    }
                    let short = need.iter().find_map(|(address, n)| {
                        (self.identities.remaining(address).unwrap_or(0) < *n).then_some(*address)
                    });
                    if let Some(address) = short {
                        released.extend(self.apply_refund(swap.id, true));
                        self.report.swaps_cleared += 1;
                        exhausted.push((swap.id, address));
                        continue;
                    }
                    parties += swap.spec.digraph.vertex_count() as u64;
                    let mut keypairs = Vec::with_capacity(swap.offer_of_vertex.len());
                    for oid in &swap.offer_of_vertex {
                        let address = self.material[oid].0;
                        let lease = self
                            .identities
                            .lease(&address, budget)
                            .expect("availability checked before leasing");
                        self.journal_audit(WalRecord::LeavesLeased {
                            swap: swap.id.raw(),
                            address: *address.digest().as_bytes(),
                            count: budget,
                        });
                        keypairs.push(lease);
                    }
                    let secrets =
                        swap.offer_of_vertex.iter().map(|oid| self.material[oid].1).collect();
                    let swap =
                        ProvisionedSwap::new(swap, keypairs, secrets, self.config.run.clone());
                    provisioned.push(match self.config.protocol {
                        ProtocolPolicy::Auto => swap,
                        ProtocolPolicy::ForceHashkey => swap.with_protocol(ProtocolKind::Hashkey),
                    });
                }
                self.report.leaves_leased = self.identities.leaves_leased();
                // A refunded party's deferred counterparties get the next
                // clearing's attention, exactly as settlement would grant.
                self.wake_deferred(&released);
                let cost = costs.provisioning_base + costs.provisioning_per_party * parties;
                self.enter(
                    i,
                    EpochStage::Provisioning,
                    entry,
                    cost,
                    EpochWork::Provisioned(provisioned),
                );
                exhausted.sort_by_key(|&(swap, _)| swap);
                if let Some(&(swap, address)) = exhausted.first() {
                    return Err(ExchangeError::KeysExhausted { swap, address });
                }
                Ok(StepEvent::StageEntered { epoch, stage: EpochStage::Provisioning, at: entry })
            }
            (EpochStage::Provisioning, EpochWork::Provisioned(provisioned)) => {
                // Execution admission: the entry instant is fixed here and
                // each provisioned swap is queued onto the shared worker
                // pool with it. The stamping itself — chains created, start
                // rebased to `entry + Δ` — is per-swap work and happens in
                // the job, on the swap's worker ([`SwapResult::run`]). The
                // epoch's completion is provisionally its Δ lower bound
                // (the shortest possible run); the true wall — the slowest
                // swap's — is installed once the results resolve.
                let pending = provisioned.len();
                for p in provisioned {
                    let tag = JobTag::Swap(p.cleared.epoch, p.cleared.id);
                    self.pool
                        .submit(tag, move || JobOutput::Swap(Box::new(SwapResult::run(p, entry))));
                }
                let resident =
                    1 + self.in_flight.iter().filter(|e| e.stage == EpochStage::Executing).count()
                        as u64;
                self.report.executing_peak = self.report.executing_peak.max(resident);
                let work = EpochWork::Queued {
                    entered: entry,
                    pending,
                    outcomes: Vec::new(),
                    panicked: Vec::new(),
                };
                self.enter(i, EpochStage::Executing, entry, self.config.delta.ticks(), work);
                Ok(StepEvent::StageEntered { epoch, stage: EpochStage::Executing, at: entry })
            }
            (EpochStage::Executing, EpochWork::Executed(results)) => {
                let cost = costs.settling_base + costs.settling_per_swap * results.len() as u64;
                self.enter(i, EpochStage::Settling, entry, cost, EpochWork::Executed(results));
                Ok(StepEvent::StageEntered { epoch, stage: EpochStage::Settling, at: entry })
            }
            (EpochStage::Settling, EpochWork::Executed(results)) => {
                let executed = self.retire(results);
                self.in_flight.remove(i);
                Ok(StepEvent::EpochSettled { epoch, at: entry, executed })
            }
            (stage, work) => unreachable!("stage {stage} holds mismatched work {work:?}"),
        }
    }

    /// Moves the `i`-th in-flight epoch into `stage` at `entered`, with the
    /// given simulated duration and payload.
    fn enter(
        &mut self,
        i: usize,
        stage: EpochStage,
        entered: SimTime,
        ticks: u64,
        work: EpochWork,
    ) {
        let epoch = &mut self.in_flight[i];
        epoch.stage = stage;
        epoch.completes_at = entered + SimDuration::from_ticks(ticks);
        epoch.work = work;
    }

    /// Resolves the `i`-th epoch's execution: blocks on the pool until
    /// every outstanding result of the epoch has arrived (results
    /// belonging to *other* executing epochs are stashed into their
    /// buffers as they surface — the channel is shared), merges the
    /// outcomes in swap-id order, and installs the epoch's true execution
    /// wall — the slowest swap's run, a pure function of the deterministic
    /// per-swap reports, never of which worker ran what when.
    ///
    /// Panicked swaps fail here, and only here: each one's offers are
    /// refunded (its parties' clearing reservations released), the
    /// surviving outcomes stay installed so they settle normally on later
    /// steps, and the first panicked swap id is reported as
    /// [`ExchangeError::WorkerPanicked`].
    fn resolve_execution(&mut self, i: usize) -> Result<(), ExchangeError> {
        while matches!(&self.in_flight[i].work, EpochWork::Queued { pending, .. } if *pending > 0) {
            let completed = self.pool.recv();
            self.absorb(completed);
        }
        let work = std::mem::replace(&mut self.in_flight[i].work, EpochWork::Taken);
        let EpochWork::Queued { entered, mut outcomes, mut panicked, .. } = work else {
            unreachable!("resolve_execution on a non-queued epoch")
        };
        // Arrival order is a host-scheduling artifact; everything
        // observable is re-ordered by swap id.
        outcomes.sort_by_key(|o| o.summary.swap);
        panicked.sort();
        let delta = self.config.delta;
        let mut wall = delta.ticks();
        for o in &outcomes {
            // The swap occupies rounds 0..=rounds, each Δ long. (A
            // panicked swap contributes nothing: its run never finished,
            // and its epoch does not wait on it.)
            wall = wall.max(delta.ticks() * (o.summary.rounds + 1));
        }
        self.in_flight[i].completes_at = entered + SimDuration::from_ticks(wall);
        self.in_flight[i].work = EpochWork::Executed(outcomes);
        if panicked.is_empty() {
            return Ok(());
        }
        // Fail the panicked swaps — and only them. Their offers refund so
        // the lifecycle resolves instead of wedging in `Matched`, and
        // their parties' reservations release exactly as settlement would.
        let mut released: BTreeSet<Address> = BTreeSet::new();
        for &id in &panicked {
            released.extend(self.apply_refund(id, false));
            self.report.swaps_cleared += 1;
        }
        self.wake_deferred(&released);
        Err(ExchangeError::WorkerPanicked(panicked[0]))
    }

    /// Routes one pool result to its owner: swap results into the owning
    /// epoch's [`EpochWork::Queued`] buffer, minted identities into the
    /// mint stash. The result channel is shared, so both
    /// [`resolve_execution`](Self::resolve_execution) and
    /// [`submit_seeded`](Self::submit_seeded) drain through here —
    /// whichever blocks first absorbs whatever surfaces.
    fn absorb(&mut self, completed: Completed<JobTag, JobOutput>) {
        match completed.tag {
            JobTag::Mint(ticket) => {
                let output = completed.result.expect("identity minting does not panic");
                let JobOutput::Mint(keypair) = output else {
                    unreachable!("mint ticket {ticket} returned a swap result")
                };
                self.minted.insert(ticket, keypair);
            }
            JobTag::Swap(epoch, swap) => {
                let slot = self
                    .in_flight
                    .iter_mut()
                    .find(|e| e.epoch == epoch)
                    .expect("every queued epoch is in flight until resolved");
                let EpochWork::Queued { pending, outcomes, panicked, .. } = &mut slot.work else {
                    unreachable!("epoch {epoch} received a result but is not queued")
                };
                *pending -= 1;
                match completed.result {
                    Ok(JobOutput::Swap(output)) => outcomes.push(*output),
                    Ok(JobOutput::Mint(_)) => {
                        unreachable!("swap job for {swap} returned a minted identity")
                    }
                    Err(_) => panicked.push(swap),
                }
            }
        }
    }

    /// Resolves a fully executed epoch: offer lifecycle, aggregate report,
    /// ledger absorption. Results arrive (and are reported) in swap-id
    /// order whatever worker ran them.
    ///
    /// The cost is the epoch's alone, whatever the exchange has lived
    /// through: each swap's worker already folded its summary and counters
    /// ([`SwapResult::run`]), the chains move into the ledger without being
    /// read, and the report's storage is a *running* total — each run's own
    /// [`RunReport::storage`] added on — never a re-scan of the ledger.
    fn retire(&mut self, results: Vec<SwapResult>) -> Vec<ExecutedSwap> {
        let mut out = Vec::with_capacity(results.len());
        // Resolution releases these parties' clearing reservations.
        let mut released: BTreeSet<Address> = BTreeSet::new();
        for SwapResult { summary, tx_executed, tx_rolled_back, chains, report } in results {
            let (id, epoch) = (summary.swap, summary.epoch);
            released.extend(if summary.all_deal {
                self.apply_settle(id)
            } else {
                self.apply_refund(id, false)
            });
            self.report.swaps.push(summary);
            self.report.tx_executed += tx_executed;
            self.report.tx_rolled_back += tx_rolled_back;
            self.report.storage = self.report.storage.merge(&report.storage);
            self.ledger.absorb(chains);
            out.push(ExecutedSwap { id, epoch, report });
        }
        self.report.swaps_cleared += out.len() as u64;
        debug_assert_eq!(
            self.report.storage,
            self.archived_storage.merge(&self.ledger.storage_report()),
            "the running storage total left the ledger's"
        );
        self.wake_deferred(&released);
        out
    }

    /// If a released party still has an offer sitting `Open` that a
    /// clearing *skipped while the party was reserved*, wakes the pipeline
    /// so the next clearing picks it up. Without this, the deferred offer
    /// would strand until some unrelated submission re-dirtied the book.
    /// Ordinary no-counterparty leftovers are not deferred, so resolutions
    /// never admit phantom epochs for them — and zero-swap epochs release
    /// nothing, so this can never re-admit clearings forever.
    fn wake_deferred(&mut self, released: &BTreeSet<Address>) {
        if !released.is_empty() && self.service.any_deferred_from(released) {
            self.dirty_since = Some(self.now);
        }
    }

    /// Re-checks every cleared slot against the party's original offer, as
    /// of the publication instant `published_at`.
    fn verify_epoch(
        &self,
        cleared: &[ClearedSwap],
        published_at: SimTime,
    ) -> Result<(), ExchangeError> {
        for swap in cleared {
            for (pos, oid) in swap.offer_of_vertex.iter().enumerate() {
                let vertex = VertexId::new(pos as u32);
                let offer = self.service.offer(*oid).expect("cleared offers exist");
                verify_cleared_swap(swap, vertex, offer, published_at)
                    .map_err(|error| ExchangeError::Verify { swap: swap.id, vertex, error })?;
            }
        }
        Ok(())
    }

    // ─── The durability choke point ──────────────────────────────────────
    //
    // **Every** mutation of the book, the offer-material map, the identity
    // registry's registration path, and the report's lifecycle tallies goes
    // through one of the five `apply_*` methods below — the only places audit
    // records are emitted, so the WAL cannot silently miss a mutation path.

    /// A party submits an offer (registering its identity on first touch).
    fn apply_submit(&mut self, party: ExchangeParty) -> OfferId {
        let offer = party.offer();
        let (address, first) = self.identities.register(party.keypair);
        if first {
            self.report.identities_registered += 1;
            self.journal_audit(WalRecord::IdentityRegistered {
                address: *address.digest().as_bytes(),
            });
        }
        let id = self.service.submit(offer);
        self.material.insert(id, (address, party.secret));
        self.report.offers_submitted += 1;
        // The *latest* unseen change: the next clearing scans the book as
        // of admission, so it cannot start before this submission exists.
        self.dirty_since = Some(self.now);
        id
    }

    /// A registered identity submits a fresh offer (no keygen); `None` for
    /// an address with no registered identity.
    fn apply_resubmit(
        &mut self,
        address: Address,
        secret: Secret,
        gives: AssetKind,
        wants: AssetKind,
    ) -> Option<OfferId> {
        let key = self.identities.public_key(&address)?;
        let id = self.service.submit(Offer { key, hashlock: secret.hashlock(), gives, wants });
        self.material.insert(id, (address, secret));
        self.report.offers_submitted += 1;
        self.dirty_since = Some(self.now);
        Some(id)
    }

    /// An open offer is withdrawn.
    fn apply_cancel(&mut self, id: OfferId) -> Result<(), CancelError> {
        self.service.cancel(id)?;
        self.material.remove(&id);
        self.report.offers_cancelled += 1;
        // A withdrawal changes the open book too: the next clearing gets a
        // look (this is also the recovery path after a failed admission).
        self.dirty_since = Some(self.now);
        Ok(())
    }

    /// An executed swap's offers settle (every party ended in `Deal`).
    /// Returns the parties whose clearing reservations this releases.
    fn apply_settle(&mut self, swap: SwapId) -> BTreeSet<Address> {
        let released = self.release_swap_material(swap);
        self.service.settle_swap(swap).expect("issued this epoch");
        self.report.swaps_settled += 1;
        self.journal_audit(WalRecord::SwapSettled { swap: swap.raw() });
        released
    }

    /// A swap's offers refund (failed execution, worker panic, a cleared
    /// slot that failed re-verification, or — with `exhausted` — a
    /// key-exhausted identity at provisioning). Returns the
    /// parties whose clearing reservations this releases.
    fn apply_refund(&mut self, swap: SwapId, exhausted: bool) -> BTreeSet<Address> {
        let released = self.release_swap_material(swap);
        self.service.refund_swap(swap).expect("issued this epoch");
        self.report.swaps_refunded += 1;
        if exhausted {
            self.report.swaps_exhausted += 1;
        }
        self.journal_audit(WalRecord::SwapRefunded { swap: swap.raw(), exhausted });
        released
    }

    /// Drops a resolving swap's key material and collects the addresses
    /// whose clearing reservations the resolution releases. Runs *before*
    /// the swap's status flips (settle/refund), while the offer→swap
    /// relation is still live.
    fn release_swap_material(&mut self, swap: SwapId) -> BTreeSet<Address> {
        let offers: Vec<OfferId> =
            self.service.offers_of_swap(swap).map(<[_]>::to_vec).unwrap_or_default();
        let mut released = BTreeSet::new();
        for oid in offers {
            self.material.remove(&oid);
            if let Some(offer) = self.service.offer(oid) {
                released.insert(offer.key.address());
            }
        }
        released
    }

    // ─── Journaling ──────────────────────────────────────────────────────

    /// Creates a *durable* exchange journaling into `journal.dir`: every
    /// public operation appends one record group (command head + audit
    /// records) to the write-ahead log before returning, and settled
    /// epochs periodically snapshot the whole state and rotate the log
    /// (see [`JournalConfig::snapshot_every`] and
    /// [`snapshot_now`](Self::snapshot_now)). Any store files already in
    /// the directory — log, retired segment, snapshots, temp files — are
    /// removed: this constructor starts a *new* life; use
    /// [`Exchange::recover`] to resume a previous one.
    ///
    /// A periodic snapshot's file work runs on a writer thread spawned for
    /// that snapshot. It is joined before the next snapshot, by
    /// [`sync_journal`](Self::sync_journal) and
    /// [`snapshot_now`](Self::snapshot_now), and when the exchange drops.
    ///
    /// Durability is simulation-scale, not production-scale: the WAL
    /// stores party seeds and swap secrets in plaintext (replay has to
    /// re-derive keys and hashlocks), and a journal write failure panics —
    /// the public operation signatures carry no I/O errors.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the store directory or the log.
    pub fn with_journal(config: ExchangeConfig, journal: JournalConfig) -> io::Result<Exchange> {
        std::fs::create_dir_all(&journal.dir)?;
        for entry in std::fs::read_dir(&journal.dir)? {
            let entry = entry?;
            if is_store_file(&entry.file_name().to_string_lossy()) {
                std::fs::remove_file(entry.path())?;
            }
        }
        let wal = Wal::create(&journal.dir, journal.group_commit)?;
        let mut exchange = Exchange::new(config);
        exchange.journal = Some(Journal::new(JournalSink::Wal(wal), &journal));
        Ok(exchange)
    }

    /// Joins the snapshot writer, if one is running, then flushes the
    /// journal's group-commit buffer and forces it to disk. A no-op on a
    /// non-durable exchange.
    ///
    /// # Errors
    ///
    /// The writer's error first, if the last snapshot failed — returned
    /// once, with the log left unsynced (call again to sync it); else the
    /// log's filesystem errors.
    pub fn sync_journal(&mut self) -> io::Result<()> {
        if let Some(journal) = &mut self.journal {
            journal.writer.join()?;
            if let JournalSink::Wal(wal) = &mut journal.sink {
                wal.sync()?;
            }
        }
        Ok(())
    }

    /// Closes a journaled operation that mutated nothing: no record.
    fn journal_abort(&self) {
        if let Some(journal) = &self.journal {
            debug_assert!(
                journal.pending.is_empty(),
                "aborted operation left audit records pending"
            );
        }
    }

    /// Closes a journaled operation, committing its group: the command
    /// `head` first, then every audit record the operation emitted.
    fn journal_commit(&mut self, head: WalRecord) {
        let Some(journal) = &mut self.journal else { return };
        let mut group = Vec::with_capacity(1 + journal.pending.len());
        group.push(head);
        group.append(&mut journal.pending);
        match &mut journal.sink {
            JournalSink::Wal(wal) => wal.append_group(&group).expect("journal append failed"),
            JournalSink::Capture(captured) => captured.extend(group),
        }
    }

    /// Emits an audit record into the operation in progress.
    fn journal_audit(&mut self, record: WalRecord) {
        if let Some(journal) = &mut self.journal {
            journal.pending.push(record);
        }
    }

    /// Counts a settled epoch toward the snapshot interval and snapshots
    /// if due — but only at a pipeline-empty point, the one state the
    /// snapshot format represents. Capture (replay) mode never snapshots:
    /// recovery reproduces the live run's records, not its snapshot
    /// schedule.
    fn maybe_snapshot(&mut self) {
        let due = match &mut self.journal {
            Some(j) if matches!(j.sink, JournalSink::Wal(_)) && j.snapshot_every > 0 => {
                j.settled_since_snapshot += 1;
                j.settled_since_snapshot >= j.snapshot_every
            }
            _ => false,
        };
        if due && self.in_flight.is_empty() {
            self.begin_snapshot().expect("journal snapshot failed");
        }
    }

    /// Snapshots the whole state and rotates the WAL, synchronously: the
    /// driver half, then a join of the writer it started (see
    /// [`with_journal`](Self::with_journal)), so the snapshot is in place
    /// and the covered log segment gone when this returns. A no-op on a
    /// non-durable exchange, during recovery replay, and on a journal that
    /// has logged nothing yet.
    ///
    /// # Errors
    ///
    /// The previous snapshot's error if its writer failed (this snapshot
    /// is then not taken), else this snapshot's.
    ///
    /// # Panics
    ///
    /// If epochs are in flight — the snapshot format deliberately cannot
    /// represent mid-pipeline engine state. [`maybe_snapshot`] only
    /// snapshots at pipeline-empty points; external callers must do the
    /// same.
    ///
    /// [`maybe_snapshot`]: Exchange::step
    pub fn snapshot_now(&mut self) -> io::Result<()> {
        self.begin_snapshot()?;
        match &mut self.journal {
            Some(journal) => journal.writer.join(),
            None => Ok(()),
        }
    }

    /// The driver half of a snapshot: joins the previous writer, encodes
    /// the state in place into the journal's frame buffer — the book and
    /// the rest borrowed, not cloned — rotates the log, and starts the
    /// writer (see [`SnapshotWriter::begin`]).
    fn begin_snapshot(&mut self) -> io::Result<()> {
        let Some(mut journal) = self.journal.take() else { return Ok(()) };
        let begun = match &mut journal.sink {
            JournalSink::Wal(wal) => {
                assert!(
                    self.in_flight.is_empty(),
                    "snapshots are only taken at pipeline-empty points"
                );
                journal.settled_since_snapshot = 0;
                journal.writer.begin(wal, |last_seq, frame| self.snapshot(last_seq).put(frame))
            }
            JournalSink::Capture(_) => Ok(()),
        };
        self.journal = Some(journal);
        begun
    }

    /// The pipeline-empty state as it is persisted, borrowed in place.
    fn snapshot(&self, last_seq: u64) -> Snapshot<'_> {
        Snapshot {
            last_seq,
            config_digest: config_digest(&self.config),
            now: self.now,
            vacated: self.vacated,
            dirty_since: self.dirty_since,
            mint_ticket: self.mint_ticket,
            leaves_leased: self.identities.leaves_leased(),
            report: Cow::Borrowed(&self.report),
            book: self.service.snapshot(),
            material: Cow::Borrowed(&self.material),
            identities: self.identities.iter().map(|(_, kp)| Cow::Borrowed(kp)).collect(),
        }
    }

    // ─── Recovery ────────────────────────────────────────────────────────

    /// Rebuilds an exchange from the store in `journal.dir` after a crash:
    /// loads the latest snapshot (if any), replays the WAL tail in
    /// *lockstep* — each logged command re-runs through the real code
    /// path, and every record the re-run regenerates is compared
    /// one-to-one against the log — and reopens the WAL for appending
    /// (repairing the final group if the crash cut it short). The
    /// recovered exchange's [`ExchangeReport`] is byte-identical to the
    /// crashed one's at the point the log covers, whatever
    /// [`ExchangeConfig::threads`] is on either side.
    ///
    /// # Errors
    ///
    /// * [`RecoverError::ConfigMismatch`] — the store was written under a
    ///   different semantic configuration.
    /// * [`RecoverError::Diverged`] — replay produced a record different
    ///   from the logged one.
    /// * [`RecoverError::Corrupt`] — a record cannot occupy its position
    ///   in the log (an audit at a group head, a command that no longer
    ///   applies).
    /// * [`RecoverError::Io`] — filesystem or store-layer failure.
    pub fn recover(
        config: ExchangeConfig,
        journal: JournalConfig,
    ) -> Result<Recovered, RecoverError> {
        let invalid =
            |why: String| RecoverError::Io(io::Error::new(io::ErrorKind::InvalidData, why));
        let snapshot = match load_latest_snapshot(&journal.dir)? {
            Some((frame_seq, payload)) => {
                let snap: Snapshot<'_> =
                    from_bytes(&payload).map_err(|e| invalid(e.to_string()))?;
                // The sequence number is stored twice — in the checksummed
                // frame header and in the payload — and replay starts from it.
                if snap.last_seq != frame_seq {
                    return Err(invalid("snapshot frame seq disagrees with payload".into()));
                }
                if snap.config_digest != config_digest(&config) {
                    return Err(RecoverError::ConfigMismatch);
                }
                Some(snap)
            }
            None => None,
        };
        let snapshot_seq = snapshot.as_ref().map(|s| s.last_seq);
        // A snapshot that crashed before its writer finished leaves the
        // log it rotated out: fold it ahead of the live log, or delete it
        // if this snapshot covers it, so one log file remains.
        fold_retired_segment(&journal.dir, snapshot_seq)?;
        let mut exchange = match snapshot {
            Some(snap) => Exchange::from_snapshot(config, snap),
            None => Exchange::new(config),
        };
        let scan = read_wal(&journal.dir)?;
        let mut next_seq = snapshot_seq.map_or(0, |s| s + 1);
        if let Some(frame) = scan.frames.last() {
            next_seq = next_seq.max(frame.seq + 1);
        }
        // Frames at or before the snapshot's seq are already reflected in
        // the loaded state (the snapshot after a failed writer does not
        // rotate, so the log can start with them); replay starts after
        // them.
        let tail: Vec<&swap_store::Framed> =
            scan.frames.iter().filter(|f| snapshot_seq.map_or(true, |s| f.seq > s)).collect();
        exchange.journal = Some(Journal::new(JournalSink::Capture(Vec::new()), &journal));
        let mut stats = RecoveryStats {
            snapshot_seq,
            records_replayed: 0,
            commands_replayed: 0,
            torn_tail: scan.torn,
        };
        // The final group can be partially flushed (crash mid-group);
        // replaying its command regenerates the lost records, re-appended
        // below so the repaired log never holds a partial group mid-file.
        let mut lost_tail: Vec<WalRecord> = Vec::new();
        let mut idx = 0;
        while idx < tail.len() {
            let head_seq = tail[idx].seq;
            if !tail[idx].record.is_command() {
                return Err(RecoverError::Corrupt { seq: head_seq });
            }
            let command = tail[idx].record.clone();
            exchange
                .replay_command(&command)
                .map_err(|()| RecoverError::Corrupt { seq: head_seq })?;
            stats.commands_replayed += 1;
            let produced = exchange.take_captured();
            if produced.is_empty() {
                // A command that logs nothing cannot have been logged.
                return Err(RecoverError::Diverged { seq: head_seq });
            }
            for (k, record) in produced.iter().enumerate() {
                match tail.get(idx + k) {
                    Some(logged) if logged.record == *record => {}
                    Some(logged) => return Err(RecoverError::Diverged { seq: logged.seq }),
                    None => {
                        // The log tore inside this (final) group.
                        lost_tail = produced[k..].to_vec();
                        break;
                    }
                }
            }
            let matched = produced.len().min(tail.len() - idx);
            stats.records_replayed += matched as u64;
            idx += matched;
        }
        let mut wal =
            Wal::open_append(&journal.dir, scan.valid_len as u64, next_seq, journal.group_commit)?;
        if !lost_tail.is_empty() {
            wal.append_group(&lost_tail)?;
            wal.flush()?;
        }
        let live = exchange.journal.as_mut().expect("installed above");
        live.sink = JournalSink::Wal(wal);
        Ok(Recovered { exchange, stats })
    }

    /// Re-runs one logged command through the real public operation.
    /// `Err(())` means the command no longer applies — log corruption.
    fn replay_command(&mut self, record: &WalRecord) -> Result<(), ()> {
        match record {
            WalRecord::SubmitOffer { seed, height, next_leaf, secret, gives, wants } => {
                let keypair = MssKeypair::from_seed_with_height(*seed, u32::from(*height))
                    .with_leaf_cursor(*next_leaf);
                self.submit(ExchangeParty {
                    keypair,
                    secret: Secret::from_bytes(*secret),
                    gives: AssetKind::new(gives.clone()),
                    wants: AssetKind::new(wants.clone()),
                });
                Ok(())
            }
            WalRecord::SubmitSeeded { seeds } => {
                let seeds = seeds
                    .iter()
                    .map(|s| PartySeed {
                        seed: s.seed,
                        key_height: u32::from(s.height),
                        secret: Secret::from_bytes(s.secret),
                        gives: AssetKind::new(s.gives.clone()),
                        wants: AssetKind::new(s.wants.clone()),
                    })
                    .collect();
                self.submit_seeded(seeds);
                Ok(())
            }
            WalRecord::Resubmit { address, secret, gives, wants } => self
                .resubmit(
                    Address::from_digest(Digest32(*address)),
                    Secret::from_bytes(*secret),
                    AssetKind::new(gives.clone()),
                    AssetKind::new(wants.clone()),
                )
                .map(|_| ())
                .ok_or(()),
            WalRecord::Cancel { offer } => {
                self.cancel(OfferId::from_raw(*offer)).map(|_| ()).map_err(|_| ())
            }
            WalRecord::StageEntered { .. }
            | WalRecord::EpochSettled { .. }
            | WalRecord::StepFailed { .. } => {
                // The step command records *what happened*, not what to do:
                // the pipeline re-derives the same transition, and lockstep
                // comparison of the regenerated record enforces it.
                let _ = self.step();
                Ok(())
            }
            // Audit records never occupy a group head.
            _ => Err(()),
        }
    }

    /// Drains the capture sink (recovery replay mode).
    fn take_captured(&mut self) -> Vec<WalRecord> {
        match self.journal.as_mut().map(|j| &mut j.sink) {
            Some(JournalSink::Capture(captured)) => std::mem::take(captured),
            _ => Vec::new(),
        }
    }

    /// Rebuilds the pipeline-empty state a snapshot holds.
    fn from_snapshot(config: ExchangeConfig, snap: Snapshot<'_>) -> Exchange {
        let service = ClearingService::restore(snap.book);
        let identities = IdentityStore::restore(
            snap.identities.into_iter().map(Cow::into_owned),
            snap.leaves_leased,
        );
        let report = snap.report.into_owned();
        // The ledger restarts from fresh chains: settled epochs influence
        // later ones only through the report's storage totals, which the
        // archived baseline carries forward.
        let archived_storage = report.storage;
        let pool = WorkerPool::new(config.threads);
        Exchange {
            service,
            material: snap.material.into_owned(),
            identities,
            now: snap.now,
            in_flight: VecDeque::new(),
            vacated: snap.vacated,
            dirty_since: snap.dirty_since,
            pool,
            minted: BTreeMap::new(),
            mint_ticket: snap.mint_ticket,
            ledger: ChainSet::new(),
            archived_storage,
            journal: None,
            report,
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_market::OfferStatus;

    /// A book of `cycles` disjoint 3-cycles over distinct kind alphabets.
    fn book(cycles: usize, rng: &mut SimRng) -> Vec<ExchangeParty> {
        let mut parties = Vec::new();
        for c in 0..cycles {
            for p in 0..3 {
                parties.push(ExchangeParty::generate(
                    rng,
                    4,
                    AssetKind::new(format!("c{c}k{p}")),
                    AssetKind::new(format!("c{c}k{}", (p + 1) % 3)),
                ));
            }
        }
        parties
    }

    /// The report's storage is a running total; a full scan of the live
    /// ledger on top of the archived baseline must give the same figure.
    fn assert_storage_is_the_scan(exchange: &Exchange) {
        assert_eq!(
            exchange.report.storage,
            exchange.archived_storage.merge(&exchange.ledger.storage_report())
        );
    }

    /// [`Exchange::drive_until_quiescent`], holding the running storage
    /// total to the scan after every settled epoch.
    fn drive_checking_storage(exchange: &mut Exchange) -> Vec<ExecutedSwap> {
        let mut executed = Vec::new();
        loop {
            match exchange.step().unwrap() {
                StepEvent::Quiescent => return executed,
                StepEvent::EpochSettled { executed: mut swaps, .. } => {
                    executed.append(&mut swaps);
                    assert_storage_is_the_scan(exchange);
                }
                StepEvent::StageEntered { .. } => {}
            }
        }
    }

    fn run_book(cycles: usize, threads: usize, seed: u64) -> ExchangeReport {
        let mut rng = SimRng::from_seed(seed);
        let mut exchange = Exchange::new(ExchangeConfig { threads, ..Default::default() });
        for party in book(cycles, &mut rng) {
            exchange.submit(party);
        }
        let executed = exchange.drive_until_quiescent().unwrap();
        assert_eq!(executed.len(), cycles);
        exchange.into_report()
    }

    #[test]
    fn epoch_settles_disjoint_cycles() {
        let report = run_book(3, 1, 100);
        assert_eq!(report.epochs, 1);
        assert_eq!(report.offers_submitted, 9);
        assert_eq!(report.swaps_cleared, 3);
        assert_eq!(report.swaps_settled, 3);
        assert_eq!(report.swaps_refunded, 0);
        assert!(report.storage.total_bytes() > 0);
        assert_eq!(report.swaps.len(), 3);
        assert!(report.swaps.windows(2).all(|w| w[0].swap < w[1].swap));
        // Concurrent execution: the epoch's wall time is one swap's
        // duration, not three.
        let per_swap = report.swaps[0].rounds + 1;
        assert_eq!(report.wall_ticks, per_swap * ExchangeConfig::default().delta.ticks());
        // With the default zero stage costs, every wall tick is execution.
        assert_eq!(report.stage_ticks.total(), report.wall_ticks);
        assert_eq!(report.stage_ticks.executing, report.wall_ticks);
    }

    #[test]
    fn report_invariant_under_thread_count() {
        let sequential = run_book(5, 1, 200);
        for threads in [2, 3, 8, 64] {
            let pooled = run_book(5, threads, 200);
            assert_eq!(sequential, pooled, "threads = {threads}");
        }
    }

    #[test]
    fn lifecycle_resolves_and_ledger_merges() {
        let mut rng = SimRng::from_seed(300);
        let mut exchange = Exchange::new(ExchangeConfig { threads: 2, ..Default::default() });
        let ids: Vec<OfferId> = book(2, &mut rng).into_iter().map(|p| exchange.submit(p)).collect();
        let straggler = exchange.submit(ExchangeParty::generate(
            &mut rng,
            4,
            AssetKind::new("orphan"),
            AssetKind::new("nobody-gives-this"),
        ));
        let executed = exchange.drive_until_quiescent().unwrap();
        assert_eq!(executed.len(), 2);
        for id in &ids {
            assert_eq!(exchange.service().status(*id), Some(OfferStatus::Settled));
        }
        assert_eq!(exchange.service().status(straggler), Some(OfferStatus::Open));
        // 2 swaps × 3 arcs, one chain per arc, all absorbed.
        assert_eq!(exchange.ledger().len(), 6);
        assert!(exchange.ledger().verify_integrity());
        // The merged storage equals the sum of the per-swap reports.
        let summed = executed
            .iter()
            .fold(swap_chain::StorageReport::default(), |acc, s| acc.merge(&s.report.storage));
        assert_eq!(exchange.report().storage, summed);
    }

    #[test]
    fn cancelled_offer_never_executes() {
        let mut rng = SimRng::from_seed(400);
        let mut exchange = Exchange::new(ExchangeConfig::default());
        let parties = book(1, &mut rng);
        let first = exchange.submit(parties[0].clone());
        for p in &parties[1..] {
            exchange.submit(p.clone());
        }
        exchange.cancel(first).unwrap();
        let executed = exchange.drive_until_quiescent().unwrap();
        assert!(executed.is_empty(), "the 3-cycle is broken by the cancellation");
        assert_eq!(exchange.report().offers_cancelled, 1);
        assert_eq!(exchange.service().status(first), Some(OfferStatus::Cancelled));
    }

    #[test]
    fn multiple_epochs_advance_the_clock() {
        let mut rng = SimRng::from_seed(500);
        let mut exchange = Exchange::new(ExchangeConfig::default());
        for party in book(1, &mut rng) {
            exchange.submit(party);
        }
        exchange.drive_until_quiescent().unwrap();
        let after_first = exchange.now();
        assert!(after_first > SimTime::ZERO);
        // A second ring arrives later; it clears in epoch 1 on the advanced
        // clock.
        for party in book(1, &mut SimRng::from_seed(501)) {
            exchange.submit(party);
        }
        let executed = exchange.drive_until_quiescent().unwrap();
        assert_eq!(executed.len(), 1);
        assert_eq!(executed[0].epoch, 1);
        assert!(executed[0].report.all_deal());
        assert_eq!(exchange.report().epochs, 2);
        assert!(exchange.now() > after_first);
    }

    #[test]
    fn step_walks_the_stage_machine_in_order() {
        let mut rng = SimRng::from_seed(700);
        let mut exchange = Exchange::new(ExchangeConfig::default());
        for party in book(1, &mut rng) {
            exchange.submit(party);
        }
        assert!(!exchange.is_quiescent());
        let mut seen = Vec::new();
        loop {
            match exchange.step().unwrap() {
                StepEvent::StageEntered { epoch, stage, .. } => {
                    assert_eq!(epoch, 0);
                    assert_eq!(exchange.stage_of(0), Some(stage));
                    seen.push(stage);
                }
                StepEvent::EpochSettled { epoch, executed, .. } => {
                    assert_eq!(epoch, 0);
                    assert_eq!(executed.len(), 1);
                    break;
                }
                StepEvent::Quiescent => unreachable!("an epoch is in flight"),
            }
        }
        assert_eq!(seen, EpochStage::ALL.to_vec());
        assert!(exchange.is_quiescent());
        assert!(matches!(exchange.step().unwrap(), StepEvent::Quiescent));
    }

    #[test]
    fn stage_costs_are_attributed_and_sum_to_wall() {
        let costs = StageCosts {
            clearing_base: 4,
            clearing_per_examined: 1,
            clearing_per_cycle: 1,
            provisioning_base: 3,
            provisioning_per_party: 1,
            settling_base: 2,
            settling_per_swap: 1,
        };
        let mut rng = SimRng::from_seed(800);
        let mut exchange =
            Exchange::new(ExchangeConfig { stage_costs: costs, ..Default::default() });
        for party in book(2, &mut rng) {
            exchange.submit(party);
        }
        let executed = exchange.drive_until_quiescent().unwrap();
        assert_eq!(executed.len(), 2);
        let report = exchange.report();
        // Measured clearing work under the indexed matcher: the two
        // 3-cycles span 6 kinds with one giver and one wanter each (6 zip
        // steps examined) and emit 2 cycles. 6 parties provisioned, 2
        // swaps settled.
        assert_eq!(report.stage_ticks.clearing, 4 + 6 + 2);
        assert_eq!(report.stage_ticks.provisioning, 3 + 6);
        assert_eq!(report.stage_ticks.settling, 2 + 2);
        assert!(report.stage_ticks.executing > 0);
        assert_eq!(report.stage_ticks.total(), report.wall_ticks);
        assert_eq!(report.wall_ticks, exchange.now().ticks());
    }

    /// Admission runs in the swap's pool job, so a panic there is caught at
    /// the worker boundary like an engine panic: only that swap fails. No
    /// public knob reaches admission — a cleared spec that got this far is
    /// validated — so the test breaks a provisioned swap in place.
    #[test]
    fn a_panic_inside_admission_fails_only_its_swap() {
        let mut rng = SimRng::from_seed(900);
        let mut exchange = Exchange::new(ExchangeConfig { threads: 2, ..Default::default() });
        let ids: Vec<OfferId> = book(2, &mut rng).into_iter().map(|p| exchange.submit(p)).collect();
        while exchange.stage_of(0) != Some(EpochStage::Provisioning) {
            exchange.step().unwrap();
        }
        let EpochWork::Provisioned(swaps) = &mut exchange.in_flight[0].work else {
            panic!("a provisioning epoch holds provisioned swaps")
        };
        // Chain creation looks up every arc head's address: with the table
        // gone, `admit` panics before an engine exists.
        let poisoned = swaps[0].cleared.id;
        swaps[0].cleared.spec.addresses.clear();

        let err = exchange.drive_until_quiescent().unwrap_err();
        assert_eq!(err.error, ExchangeError::WorkerPanicked(poisoned));
        assert!(err.executed.is_empty());
        let executed = exchange.drive_until_quiescent().unwrap();
        assert_eq!(executed.len(), 1);
        assert_ne!(executed[0].id, poisoned);
        assert!(executed[0].report.all_deal());

        let report = exchange.report();
        assert_eq!((report.swaps_cleared, report.swaps_settled, report.swaps_refunded), (2, 1, 1));
        assert_eq!(report.swaps.len(), 1);
        for (i, id) in ids.iter().enumerate() {
            let expected = if i < 3 { OfferStatus::Refunded } else { OfferStatus::Settled };
            assert_eq!(exchange.service().status(*id), Some(expected), "offer {i}");
        }
        // The poisoned swap reached neither the ledger nor the totals.
        assert_eq!(exchange.ledger().len(), 3);
        assert_eq!(report.storage, executed[0].report.storage);
        assert_storage_is_the_scan(&exchange);
    }

    /// Fresh scratch store directory for one journaling test.
    fn store_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swap-core-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journaling_changes_nothing_observable() {
        let dir = store_dir("transparent");
        let mut plain = Exchange::new(ExchangeConfig::default());
        let mut durable = Exchange::with_journal(
            ExchangeConfig::default(),
            JournalConfig { snapshot_every: 0, ..JournalConfig::new(&dir) },
        )
        .unwrap();
        let mut rng = SimRng::from_seed(321);
        let parties = book(3, &mut rng);
        for party in &parties {
            let clone = ExchangeParty {
                keypair: MssKeypair::from_seed_with_height(*party.keypair.seed(), 4),
                secret: party.secret,
                gives: party.gives.clone(),
                wants: party.wants.clone(),
            };
            plain.submit(clone);
        }
        for party in parties {
            durable.submit(party);
        }
        plain.drive_until_quiescent().unwrap();
        drive_checking_storage(&mut durable);
        assert_eq!(plain.report(), durable.report());
        // The log holds whole groups: one command head per public op.
        durable.sync_journal().unwrap();
        let scan = read_wal(&dir).unwrap();
        assert!(!scan.torn);
        let commands = scan.frames.iter().filter(|f| f.record.is_command()).count();
        // 9 submits + step commands; every frame belongs to a group.
        assert!(commands >= 9, "expected at least 9 command heads, got {commands}");
        assert!(scan.frames[0].record.is_command());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_replays_wal_and_continues_identically() {
        let dir = store_dir("recover-continue");
        let config = ExchangeConfig::default();
        let mut rng = SimRng::from_seed(77);
        let first = book(2, &mut rng);
        let second = book(2, &mut rng);

        // Oracle: one uninterrupted durable run over both books.
        let mut oracle = Exchange::with_journal(
            config.clone(),
            JournalConfig { snapshot_every: 0, ..JournalConfig::new(store_dir("recover-oracle")) },
        )
        .unwrap();
        for p in &first {
            oracle.submit(clone_party(p));
        }
        oracle.drive_until_quiescent().unwrap();
        let mid_report = oracle.report().clone();
        for p in &second {
            oracle.submit(clone_party(p));
        }
        oracle.drive_until_quiescent().unwrap();

        // Crashing run: first book only, then recover from the store.
        {
            let mut crashed = Exchange::with_journal(
                config.clone(),
                JournalConfig { snapshot_every: 0, ..JournalConfig::new(&dir) },
            )
            .unwrap();
            for p in &first {
                crashed.submit(clone_party(p));
            }
            drive_checking_storage(&mut crashed);
            crashed.sync_journal().unwrap();
            // Dropped without any shutdown handshake: the crash.
        }
        let recovered = Exchange::recover(
            config.clone(),
            JournalConfig { snapshot_every: 0, ..JournalConfig::new(&dir) },
        )
        .unwrap();
        let mut exchange = recovered.exchange;
        assert!(recovered.stats.commands_replayed > 0);
        assert_eq!(recovered.stats.snapshot_seq, None);
        assert_eq!(exchange.report(), &mid_report, "recovered report must be byte-identical");
        // Replay re-ran the swaps, so the ledger is back and nothing is
        // archived: the running total is the scan again.
        assert_eq!(exchange.archived_storage, StorageReport::default());
        assert_storage_is_the_scan(&exchange);
        // The recovered exchange keeps working — and lands exactly where
        // the uninterrupted run did.
        for p in &second {
            exchange.submit(clone_party(p));
        }
        drive_checking_storage(&mut exchange);
        assert_eq!(exchange.report(), oracle.report());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn clone_party(p: &ExchangeParty) -> ExchangeParty {
        ExchangeParty {
            keypair: MssKeypair::from_seed_with_height(*p.keypair.seed(), p.keypair.height())
                .with_leaf_cursor(p.keypair.next_leaf()),
            secret: p.secret,
            gives: p.gives.clone(),
            wants: p.wants.clone(),
        }
    }

    #[test]
    fn snapshot_retires_wal_and_recovery_uses_it() {
        let dir = store_dir("snapshot");
        let config = ExchangeConfig::default();
        let mut rng = SimRng::from_seed(55);
        let mut durable = Exchange::with_journal(
            config.clone(),
            JournalConfig { snapshot_every: 1, ..JournalConfig::new(&dir) },
        )
        .unwrap();
        for p in book(2, &mut rng) {
            durable.submit(p);
        }
        durable.drive_until_quiescent().unwrap();
        let live_report = durable.report().clone();
        drop(durable);
        // Every epoch snapshots, so the settled epoch rotated the log out,
        // and the drop joined the writer that deleted the retired segment.
        let scan = read_wal(&dir).unwrap();
        assert_eq!(scan.frames.len(), 0, "snapshot must rotate the WAL");
        assert!(!dir.join(swap_store::RETIRED_WAL_FILE).exists());
        let (snapshot_seq, _) = load_latest_snapshot(&dir).unwrap().expect("snapshot written");
        assert!(snapshot_seq > 0);
        let recovered = Exchange::recover(
            config,
            JournalConfig { snapshot_every: 1, ..JournalConfig::new(&dir) },
        )
        .unwrap();
        assert_eq!(recovered.stats.snapshot_seq, Some(snapshot_seq));
        assert_eq!(recovered.stats.commands_replayed, 0);
        assert_eq!(recovered.exchange.report(), &live_report);
        // The snapshot carried no ledger: everything settled so far is the
        // archived baseline, and later epochs accumulate on top of it.
        let mut exchange = recovered.exchange;
        assert_eq!(exchange.archived_storage, live_report.storage);
        assert!(exchange.ledger.is_empty());
        for p in book(2, &mut rng) {
            exchange.submit(p);
        }
        assert_eq!(drive_checking_storage(&mut exchange).len(), 2);
        assert!(exchange.report.storage.total_bytes() > live_report.storage.total_bytes());
        // Dropping joins the snapshot writer, which may still be writing.
        drop(exchange);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_refuses_a_foreign_configuration() {
        let dir = store_dir("config-mismatch");
        let config = ExchangeConfig::default();
        let mut rng = SimRng::from_seed(66);
        let mut durable = Exchange::with_journal(
            config.clone(),
            JournalConfig { snapshot_every: 1, ..JournalConfig::new(&dir) },
        )
        .unwrap();
        for p in book(1, &mut rng) {
            durable.submit(p);
        }
        durable.drive_until_quiescent().unwrap();
        drop(durable);
        // `threads` is a host knob: changing it recovers fine.
        let rethreaded = ExchangeConfig { threads: 4, ..config.clone() };
        Exchange::recover(rethreaded, JournalConfig::new(&dir)).unwrap();
        // A semantic change is refused.
        let reslotted = ExchangeConfig { executing_slots: 3, ..config };
        match Exchange::recover(reslotted, JournalConfig::new(&dir)) {
            Err(RecoverError::ConfigMismatch) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
