//! One provisioned, runnable swap: the unit an orchestrator drives.
//!
//! [`SwapInstance`] is the split between *provisioning* and *execution*
//! state: it owns everything a single swap needs to run — the validated
//! spec, every party's key material, the per-arc chains and assets
//! ([`SwapSetup`]), the run configuration, and the *protocol choice*
//! ([`ProtocolKind`]) — but none of the engine's in-flight event
//! bookkeeping. Each instance exclusively owns its chains, so instances
//! share nothing and can be built, run and dropped on any thread; an
//! orchestrator turns one into an [`Engine`] only at execution time.
//!
//! Provisioning itself is split once more for the pipelined exchange:
//! [`ProvisionedSwap`] is the *time-agnostic* half (cleared spec, key
//! material, run config, protocol choice) — the only half the exchange
//! prepares on the thread that drives it, while a previous epoch is still
//! executing — and [`ProvisionedSwap::admit`] is the *execution admission*
//! that stamps the swap onto a concrete timeline (chains created, protocol
//! start rebased to `now + Δ`). Admission needs nothing but the
//! provisioned swap and the instant its execution slot freed up, so the
//! exchange ships exactly those two to its worker pool and the swap's own
//! job admits it ([`ProvisionedSwap::admit_for_queue`]), runs it
//! ([`AdmittedSwap::execute`]) and tears it down where it ran.

use swap_crypto::{MssKeypair, Secret};
use swap_market::{ClearedSwap, SwapId};
use swap_sim::SimTime;

use crate::engine::Engine;
use crate::protocol::ProtocolKind;
use crate::runner::{RunConfig, RunReport};
use crate::setup::SwapSetup;
use crate::timing::{Lockstep, TimingModel};

/// The time-agnostic half of provisioning a cleared swap: spec and key
/// material captured, run configuration attached, protocol chosen — but no
/// chains created and no timeline committed yet. A pipelined orchestrator
/// prepares these while the previous epoch still executes and, once the
/// execution slot frees up, hands each one — with that instant — to the
/// worker that will [`admit`](ProvisionedSwap::admit) and run it.
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

    /// Overrides the protocol choice (see [`SwapInstance::with_protocol`]
    /// for the feasibility caveat).
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> ProvisionedSwap {
        self.protocol = protocol;
        self
    }

    /// Admits the swap to execution at `now`: creates its chains and
    /// assets, and rebases the protocol start to `now + Δ` — the cleared
    /// spec promised a start "at least Δ in the future" of publication, and
    /// admission re-anchors that promise to the moment execution actually
    /// begins (a later instant than publication whenever clearing of this
    /// epoch overlapped execution of the previous one).
    pub fn admit(self, now: SimTime) -> SwapInstance {
        let ProvisionedSwap { cleared, keypairs, secrets, config, protocol } = self;
        let mut spec = cleared.spec;
        spec.start = now + spec.delta.times(1);
        let setup = SwapSetup::from_parts(spec, keypairs, secrets, now);
        SwapInstance { id: cleared.id.raw(), setup, config, protocol }
    }

    /// [`admit`](ProvisionedSwap::admit)s the swap at `now` and tags the
    /// instance with its market identity ([`AdmittedSwap`]). The exchange
    /// calls this inside the swap's pool job, with the instant the epoch
    /// entered execution.
    pub fn admit_for_queue(self, now: SimTime) -> AdmittedSwap {
        let swap = self.cleared.id;
        let epoch = self.cleared.epoch;
        AdmittedSwap { swap, epoch, instance: self.admit(now) }
    }
}

/// One admitted swap, tagged: what a pool job of the exchange holds between
/// stamping its [`ProvisionedSwap`] onto the timeline and running it. The
/// instance exclusively owns its chains and key material, so admitted swaps
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
    /// The admitted, runnable instance.
    pub instance: SwapInstance,
}

impl AdmittedSwap {
    /// Runs the swap to completion under the paper's lockstep timing,
    /// returning the tagged report and final setup (chains included).
    pub fn execute(self) -> SwapRunOutput {
        let AdmittedSwap { swap, epoch, instance } = self;
        let delta = instance.setup.spec.delta;
        let protocol = instance.protocol;
        let (report, setup) = instance.engine(Lockstep::new(delta)).run_full();
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

/// A provisioned swap plus its run configuration and protocol choice,
/// ready to be turned into an [`Engine`] (or shipped to a worker thread
/// first).
#[derive(Debug, Clone)]
pub struct SwapInstance {
    /// Orchestrator-assigned id; aggregate reports merge in id order. For
    /// exchange-provisioned instances this is the market's
    /// [`swap_market::SwapId`] raw value; standalone runs use 0.
    pub id: u64,
    /// The provisioned swap: spec, key material, chains, assets.
    pub setup: SwapSetup,
    /// Per-run configuration: behaviors, round limits, snapshot mode.
    pub config: RunConfig,
    /// Which protocol executes the swap. [`SwapInstance::new`] defaults to
    /// the general hashkey protocol; [`SwapInstance::from_cleared`] selects
    /// the cheapest feasible one per cleared cycle.
    pub protocol: ProtocolKind,
}

impl SwapInstance {
    /// Wraps an already provisioned setup; the general hashkey protocol
    /// executes it (override with [`SwapInstance::with_protocol`]).
    pub fn new(id: u64, setup: SwapSetup, config: RunConfig) -> SwapInstance {
        SwapInstance { id, setup, config, protocol: ProtocolKind::Hashkey }
    }

    /// Provisions an instance for a [`ClearedSwap`]: chains and assets are
    /// created for the cleared spec exactly as [`SwapSetup::from_parts`]
    /// does, with `keypairs` and `secrets` in cleared-vertex order (the
    /// order of `cleared.offer_of_vertex`), and the protocol start rebased
    /// to `now + Δ` (see [`ProvisionedSwap::admit`]; for the batch path,
    /// where `now` is the clearing instant, the rebase is the identity).
    ///
    /// This is [`ProvisionedSwap::new`] + [`ProvisionedSwap::admit`] in one
    /// call, for orchestrators that execute immediately after clearing. The
    /// protocol is auto-selected by [`ProtocolKind::select`] from the
    /// cycle's shape and the configured behaviors: single-leader feasible
    /// cycles (the common case — any one vertex of a simple trade cycle is
    /// a minimum feedback vertex set) run the cheap §4.6 HTLC protocol,
    /// everything else the general hashkey protocol. Override
    /// with [`SwapInstance::with_protocol`].
    pub fn from_cleared(
        cleared: &ClearedSwap,
        keypairs: Vec<MssKeypair>,
        secrets: Vec<Secret>,
        now: SimTime,
        config: RunConfig,
    ) -> SwapInstance {
        ProvisionedSwap::new(cleared.clone(), keypairs, secrets, config).admit(now)
    }

    /// Overrides the protocol choice.
    ///
    /// Forcing [`ProtocolKind::Htlc`] on a spec that is not single-leader
    /// feasible makes engine construction panic; check with
    /// [`ProtocolKind::select`] first.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> SwapInstance {
        self.protocol = protocol;
        self
    }

    /// Turns the instance into an engine under `timing`.
    pub fn engine<T: TimingModel>(self, timing: T) -> Engine<T> {
        Engine::from_instance(self, timing)
    }

    /// Runs the instance to completion under the paper's lockstep timing.
    pub fn run_lockstep(self) -> RunReport {
        let delta = self.setup.spec.delta;
        self.engine(Lockstep::new(delta)).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SetupConfig;
    use swap_digraph::generators;
    use swap_sim::SimRng;

    #[test]
    fn instance_run_matches_engine_run() {
        let provision = || {
            SwapSetup::generate(
                generators::herlihy_three_party(),
                &SetupConfig { key_height: 4, ..SetupConfig::default() },
                &mut SimRng::from_seed(21),
            )
            .unwrap()
        };
        let direct = {
            let setup = provision();
            let delta = setup.spec.delta;
            Engine::new(setup, RunConfig::default(), Lockstep::new(delta)).run()
        };
        let via_instance = SwapInstance::new(7, provision(), RunConfig::default()).run_lockstep();
        assert_eq!(format!("{direct:?}"), format!("{via_instance:?}"));
        assert!(via_instance.all_deal());
    }

    #[test]
    fn standalone_instances_default_to_hashkey() {
        let setup = SwapSetup::generate(
            generators::herlihy_three_party(),
            &SetupConfig { key_height: 4, ..SetupConfig::default() },
            &mut SimRng::from_seed(22),
        )
        .unwrap();
        let instance = SwapInstance::new(0, setup, RunConfig::default());
        assert_eq!(instance.protocol, ProtocolKind::Hashkey);
        let forced = instance.with_protocol(ProtocolKind::Htlc);
        assert_eq!(forced.protocol, ProtocolKind::Htlc);
    }
}
