//! One cleared swap on its way to execution: the unit the exchange ships
//! to its worker pool.
//!
//! Provisioning is split in two for the pipelined exchange.
//! [`ProvisionedSwap`] is the *time-agnostic* half (cleared spec, key
//! material, run config, protocol choice) — the only half the exchange
//! prepares on the thread that drives it, while a previous epoch is still
//! executing. [`ProvisionedSwap::admit_for_queue`] is the *execution
//! admission* that stamps the swap onto a concrete timeline (chains
//! created, protocol start rebased to `now + Δ`). Admission needs nothing
//! but the provisioned swap and the instant its execution slot freed up,
//! so the exchange ships exactly those two to its worker pool and the
//! swap's own job admits it, runs it ([`AdmittedSwap::execute`]) and tears
//! it down where it ran. Each admitted swap exclusively owns its chains, so
//! admitted swaps share nothing and can run on any thread.

use swap_crypto::{MssKeypair, Secret};
use swap_market::{ClearedSwap, SwapId};
use swap_sim::SimTime;

use crate::engine::Engine;
use crate::protocol::ProtocolKind;
use crate::runner::{RunConfig, RunReport};
use crate::setup::SwapSetup;

/// The time-agnostic half of provisioning a cleared swap: spec and key
/// material captured, run configuration attached, protocol chosen — but no
/// chains created and no timeline committed yet. A pipelined orchestrator
/// prepares these while the previous epoch still executes and, once the
/// execution slot frees up, hands each one — with that instant — to the
/// worker that will [`admit`](ProvisionedSwap::admit_for_queue) and run it.
#[derive(Debug, Clone)]
pub struct ProvisionedSwap {
    /// The cleared swap being provisioned.
    pub cleared: ClearedSwap,
    /// Signing keypair per cleared vertex.
    pub keypairs: Vec<MssKeypair>,
    /// Secret per cleared vertex.
    pub secrets: Vec<Secret>,
    /// Per-run configuration.
    pub config: RunConfig,
    /// The protocol that will execute the swap, chosen at provisioning
    /// time by [`ProtocolKind::select`] (override with
    /// [`ProvisionedSwap::with_protocol`]).
    pub protocol: ProtocolKind,
}

impl ProvisionedSwap {
    /// Captures a cleared swap's execution prerequisites. `keypairs` and
    /// `secrets` are in cleared-vertex order (the order of
    /// `cleared.offer_of_vertex`). The protocol is auto-selected from the
    /// cycle's shape and the configured behaviors (single-leader feasible
    /// cycles — the common case — run the cheap §4.6 HTLC protocol).
    pub fn new(
        cleared: ClearedSwap,
        keypairs: Vec<MssKeypair>,
        secrets: Vec<Secret>,
        config: RunConfig,
    ) -> ProvisionedSwap {
        let protocol = ProtocolKind::select(&cleared.spec, &config);
        ProvisionedSwap { cleared, keypairs, secrets, config, protocol }
    }

    /// Overrides the protocol choice.
    ///
    /// Forcing [`ProtocolKind::Htlc`] on a spec that is not single-leader
    /// feasible makes [`AdmittedSwap::execute`] panic; check with
    /// [`ProtocolKind::select`] first.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> ProvisionedSwap {
        self.protocol = protocol;
        self
    }

    /// Admits the swap to execution at `now`: creates its chains and
    /// assets, rebases the protocol start to `now + Δ`, and tags the result
    /// with its market identity ([`AdmittedSwap`]). The cleared spec
    /// promised a start "at least Δ in the future" of publication, and
    /// admission re-anchors that promise to the moment execution actually
    /// begins (a later instant than publication whenever clearing of this
    /// epoch overlapped execution of the previous one; for a swap executed
    /// at its clearing instant the rebase is the identity). The exchange
    /// calls this inside the swap's pool job, with the instant the epoch
    /// entered execution.
    pub fn admit_for_queue(self, now: SimTime) -> AdmittedSwap {
        let ProvisionedSwap { cleared, keypairs, secrets, config, protocol } = self;
        let mut spec = cleared.spec;
        spec.start = now + spec.delta.times(1);
        let setup = SwapSetup::from_parts(spec, keypairs, secrets, now);
        AdmittedSwap { swap: cleared.id, epoch: cleared.epoch, protocol, setup, config }
    }
}

/// One admitted swap, tagged: what a pool job of the exchange holds between
/// stamping its [`ProvisionedSwap`] onto the timeline and running it. It
/// exclusively owns its chains and key material, so admitted swaps
/// of overlapping epochs share nothing and may execute on any worker in any
/// order; [`execute`](AdmittedSwap::execute) carries the tags through to
/// the [`SwapRunOutput`] so results can be merged back deterministically
/// (ascending swap id) wherever they ran.
#[derive(Debug)]
pub struct AdmittedSwap {
    /// The market-issued swap id.
    pub swap: SwapId,
    /// The clearing epoch that produced the swap.
    pub epoch: u64,
    /// The protocol that will execute the swap.
    pub protocol: ProtocolKind,
    /// The provisioned swap: spec, key material, chains, assets.
    pub setup: SwapSetup,
    /// Per-run configuration.
    pub config: RunConfig,
}

impl AdmittedSwap {
    /// Runs the swap to completion under the paper's lockstep timing,
    /// returning the tagged report and final setup (chains included).
    pub fn execute(self) -> SwapRunOutput {
        let AdmittedSwap { swap, epoch, protocol, setup, config } = self;
        let (report, setup) = Engine::lockstep(setup, config, protocol).run_full();
        SwapRunOutput { swap, epoch, protocol, report, setup }
    }
}

/// Everything one executed swap leaves behind: the identity tags, the
/// protocol that ran it, the full [`RunReport`], and the final
/// [`SwapSetup`]. The exchange reduces it on the worker to what it keeps —
/// a summary, the report, and the chains it absorbs into the global ledger
/// — and drops the rest there.
#[derive(Debug)]
pub struct SwapRunOutput {
    /// The market-issued swap id (results merge in ascending order of it).
    pub swap: SwapId,
    /// The clearing epoch that produced the swap.
    pub epoch: u64,
    /// The protocol that executed the swap.
    pub protocol: ProtocolKind,
    /// The complete protocol run report.
    pub report: RunReport,
    /// The final setup, chains included.
    pub setup: SwapSetup,
}
