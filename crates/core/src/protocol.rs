//! The protocol axis: one engine, pluggable swap protocols.
//!
//! Herlihy's paper defines *two* protocols over the same market machinery:
//! the general multi-leader hashkey protocol (§4.5) and the cheaper
//! single-leader timeout-only protocol on classic HTLCs (§4.6). Both share
//! the same skeleton — contracts propagate leader-outward in Phase One,
//! secrets propagate leader-inward in Phase Two, refunds fire on expiry —
//! and differ only in four places, which is exactly what the crate-private
//! `SwapProtocol` trait abstracts:
//!
//! 1. **Provisioning** — what timeout discipline governs the contracts:
//!    path-dependent hashkey deadlines `T + (diam + |p|)·Δ` vs the
//!    Lemma 4.13 HTLC ladder `T₀ + (diam + D(v, v̂) + 1)·Δ`
//!    (`SwapProtocol::contract_for`).
//! 2. **Step strategy** — how a party turns its per-round `View` into
//!    [`Action`]s: the `Party` state machine with hashkey tables and
//!    signature chains, vs the leader-reveals/followers-echo HTLC loop
//!    (`SwapProtocol::step`).
//! 3. **Contract flavor** — what actually sits on-chain: every chain hosts
//!    [`AnyContract`], and the protocol decides which flavor it publishes
//!    and how observers snapshot it (`SwapProtocol::snapshot`).
//! 4. **Call translation** — how an abstract action becomes an on-chain
//!    call with its wire size: multi-kilobyte hashkey unlocks vs 32-byte
//!    secret reveals (`SwapProtocol::call_of`).
//!
//! The engine ([`crate::engine::Engine`]) owns everything else — the event
//! queue, timing models, snapshot-delta caching, metering, and report
//! extraction — so golden fingerprints, `Lockstep`/`PerChainLatency`
//! timing, and the storage accounting apply to both protocols for free.
//! Callers name a protocol with the closed [`ProtocolKind`] and hand it to
//! [`crate::engine::Engine::new`]; the `Exchange` picks the cheapest
//! feasible one per cleared cycle via [`ProtocolKind::select`]. The trait
//! and its two implementations are the crate's internals.
//!
//! Further variants from the literature (e.g. the space/local-time-improved
//! protocol of Imoto et al., arXiv:1905.09985, or grief-resistant designs
//! like 4-Swap, arXiv:2508.04641) slot in as a third `ProtocolKind` with a
//! third implementation of the trait rather than a third runner stack.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use swap_chain::AssetId;
use swap_contract::{
    AnyCall, AnyContract, HtlcCall, HtlcContract, SwapCall, SwapContract, SwapSpec,
};
use swap_crypto::{Hashlock, Secret};
use swap_digraph::{ArcId, VertexId};
use swap_sim::SimTime;

use crate::party::{Action, ArcSnapshot, Behavior, ContractSnapshot, HtlcSnapshot, Party, View};
use crate::runner::RunConfig;
use crate::setup::SwapSetup;
use crate::single_leader::{assign_timeouts, TimeoutError};

/// Which of the paper's protocols executes a swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtocolKind {
    /// The general multi-leader hashkey protocol (§4.5): swap contracts
    /// with one hashlock per leader, unlocked by signed hashkey paths.
    Hashkey,
    /// The single-leader timeout protocol (§4.6): classic HTLCs carrying
    /// the Lemma 4.13 timeout ladder — no paths, no signatures.
    Htlc,
}

impl ProtocolKind {
    /// Picks the cheapest protocol the swap admits: [`ProtocolKind::Htlc`]
    /// when the swap has exactly one leader and every configured behavior
    /// is one the HTLC strategy implements; [`ProtocolKind::Hashkey`]
    /// otherwise.
    ///
    /// The spec is assumed to have passed [`SwapSpec::validate`], as every
    /// cleared spec has by the time it is provisioned. Its one leader is
    /// then a feedback vertex set on its own, so the follower subdigraph is
    /// acyclic and the Lemma 4.13 timeout ladder exists (the Figure 6
    /// condition needs no second check). A hand-built spec whose single
    /// leader is not a feedback vertex set is still selected for the HTLC
    /// protocol; building that protocol then fails with the typed
    /// [`TimeoutError::FollowerCycle`], as it does for a forced HTLC run.
    ///
    /// This is the one selection predicate in the workspace —
    /// [`crate::instance::ProvisionedSwap::new`] and the exchange's
    /// auto-policy route through it. Every cleared market *cycle* has a
    /// single leader, which is why auto-selection makes HTLCs the common
    /// case.
    pub fn select(spec: &SwapSpec, config: &RunConfig) -> ProtocolKind {
        let behaviors_supported = config.behaviors.values().all(HtlcProtocol::supports);
        if spec.leaders.len() == 1 && behaviors_supported {
            ProtocolKind::Htlc
        } else {
            ProtocolKind::Hashkey
        }
    }

    /// A short lowercase label (`"hashkey"` / `"htlc"`), for reports.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Hashkey => "hashkey",
            ProtocolKind::Htlc => "htlc",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One of the paper's swap protocols, as the engine drives it.
///
/// Implementations own all protocol-specific state: the per-party strategy
/// machines, the spec handle contracts embed, and the timeout discipline.
/// The engine calls [`step`](SwapProtocol::step) once per party per round,
/// [`contract_for`](SwapProtocol::contract_for) when a publish action
/// executes, [`snapshot`](SwapProtocol::snapshot) when a chain's state
/// version moves, and [`call_of`](SwapProtocol::call_of) to translate the
/// remaining on-chain actions into flavor-correct calls.
pub(crate) trait SwapProtocol: fmt::Debug {
    /// One party observes `view` at a round boundary and emits actions.
    fn step(&mut self, vertex: VertexId, view: &View<'_>) -> Vec<Action>;

    /// The contract a publish action deploys on `arc` escrowing `asset`.
    /// With `corrupt` set, the contract carries hashlocks nobody can open
    /// (the malicious-publisher deviation of `RunConfig::corrupt_arcs`).
    fn contract_for(&mut self, arc: ArcId, asset: AssetId, corrupt: bool) -> AnyContract;

    /// What observers see of `arc`'s contract right now.
    fn snapshot(&self, contract: &AnyContract, arc: ArcId, asset: AssetId) -> ArcSnapshot;

    /// Translates an on-chain action (unlock / claim / refund / reveal)
    /// into the flavor-correct call plus its wire size in bytes. Consumes
    /// the action so multi-kilobyte unlock payloads (path + signature
    /// chain) move into the call instead of being cloned per transaction.
    /// Returns `None` for actions that never reach a chain this way
    /// (publishes, direct transfers, bulletin announcements).
    fn call_of(&self, action: Action) -> Option<(AnyCall, usize)>;

    /// Whether `vertex` abandoned the protocol after detecting an invalid
    /// contract (§4.5 Phase One verification; HTLC parties never abandon).
    fn abandoned(&self, vertex: VertexId) -> bool;
}

/// Builds the protocol implementation for `kind`.
///
/// # Panics
///
/// Panics if `kind` is [`ProtocolKind::Htlc`] but the spec is not
/// single-leader feasible, or the config holds a behavior the HTLC
/// strategy does not implement — select with [`ProtocolKind::select`] (or
/// let [`crate::instance::ProvisionedSwap::new`] do it) before forcing the
/// HTLC protocol.
pub(crate) fn build_protocol(
    kind: ProtocolKind,
    setup: &SwapSetup,
    config: &RunConfig,
    spec: Arc<SwapSpec>,
) -> Box<dyn SwapProtocol> {
    match kind {
        ProtocolKind::Hashkey => Box::new(HashkeyProtocol::new(setup, config, spec)),
        ProtocolKind::Htlc => Box::new(
            HtlcProtocol::new(setup, config, spec)
                .expect("HTLC protocol forced on a spec that is not single-leader feasible"),
        ),
    }
}

/// The general §4.5 protocol: [`Party`] state machines over swap contracts.
#[derive(Debug)]
pub(crate) struct HashkeyProtocol {
    /// The one spec allocation all honestly published contracts share.
    shared_spec: Arc<SwapSpec>,
    /// Lazily built corrupted spec for `RunConfig::corrupt_arcs`.
    corrupted_spec: Option<Arc<SwapSpec>>,
    parties: Vec<Party>,
}

impl HashkeyProtocol {
    /// Builds the per-party machines from the setup's key material and the
    /// config's behaviors.
    fn new(setup: &SwapSetup, config: &RunConfig, spec: Arc<SwapSpec>) -> Self {
        let parties: Vec<Party> = spec
            .digraph
            .vertices()
            .map(|v| {
                let behavior = config.behaviors.get(&v).cloned().unwrap_or_default();
                Party::new(v, setup.keypairs[v.index()].clone(), setup.secrets[v.index()], behavior)
            })
            .collect();
        HashkeyProtocol { shared_spec: spec, corrupted_spec: None, parties }
    }

    /// The spec corrupt publishers embed: every hashlock replaced by one
    /// nobody can open. Built once and shared.
    fn corrupted_spec(&mut self) -> Arc<SwapSpec> {
        if self.corrupted_spec.is_none() {
            let mut spec = (*self.shared_spec).clone();
            for h in spec.hashlocks.iter_mut() {
                *h = Secret::from_bytes([0xBA; 32]).hashlock();
            }
            self.corrupted_spec = Some(Arc::new(spec));
        }
        Arc::clone(self.corrupted_spec.as_ref().expect("just built"))
    }
}

impl SwapProtocol for HashkeyProtocol {
    fn step(&mut self, vertex: VertexId, view: &View<'_>) -> Vec<Action> {
        self.parties[vertex.index()].step(view)
    }

    fn contract_for(&mut self, arc: ArcId, asset: AssetId, corrupt: bool) -> AnyContract {
        // The contract embeds "its own" spec copy (that *is* the O(|A|)
        // per-contract storage of Theorem 4.10); in memory all honest
        // contracts share one Arc allocation.
        let spec = if corrupt { self.corrupted_spec() } else { Arc::clone(&self.shared_spec) };
        AnyContract::Swap(SwapContract::new(spec, arc, asset))
    }

    fn snapshot(&self, contract: &AnyContract, arc: ArcId, asset: AssetId) -> ArcSnapshot {
        let leaders = self.shared_spec.leaders.len();
        match contract.as_swap() {
            Some(c) => {
                let valid = (Arc::ptr_eq(c.spec_handle(), &self.shared_spec)
                    || c.spec() == &*self.shared_spec)
                    && c.arc() == arc
                    && c.asset() == asset;
                ArcSnapshot::Swap(ContractSnapshot {
                    unlock_records: (0..leaders).map(|i| c.unlock_record(i).cloned()).collect(),
                    fully_unlocked: c.fully_unlocked(),
                    claimed: c.is_claimed(),
                    refunded: c.is_refunded(),
                    valid,
                })
            }
            // A foreign flavor on my arc is as invalid as wrong hashlocks:
            // observers must detect the mismatch and abandon.
            None => ArcSnapshot::Swap(ContractSnapshot {
                unlock_records: vec![None; leaders],
                fully_unlocked: false,
                claimed: false,
                refunded: false,
                valid: false,
            }),
        }
    }

    fn call_of(&self, action: Action) -> Option<(AnyCall, usize)> {
        match action {
            Action::Unlock { index, secret, path, sig, .. } => {
                let wire = 32 + path.encoded_len() + sig.byte_len();
                Some((AnyCall::Swap(SwapCall::Unlock { index, secret, path, sig }), wire))
            }
            Action::Claim { .. } => Some((AnyCall::Swap(SwapCall::Claim), 40)),
            Action::Refund { .. } => Some((AnyCall::Swap(SwapCall::Refund), 40)),
            // No hashkey party emits reveals; translated literally, the swap
            // contract rejects the flavor mismatch.
            Action::Reveal { secret, .. } => Some((AnyCall::Htlc(HtlcCall::Reveal { secret }), 32)),
            _ => None,
        }
    }

    fn abandoned(&self, vertex: VertexId) -> bool {
        self.parties[vertex.index()].abandoned()
    }
}

/// Per-party bookkeeping for the §4.6 strategy — deliberately tiny: no
/// keys, no hashkey tables, no signature chains.
#[derive(Debug, Default)]
struct HtlcParty {
    behavior: Behavior,
    published_phase_one: bool,
    revealed_entering: bool,
    refunded: BTreeSet<ArcId>,
}

/// The §4.6 single-leader protocol: classic HTLCs with the Lemma 4.13
/// timeout ladder, run on the same engine as the hashkey protocol.
///
/// The leader `v̂` reveals its secret on its entering arcs once they all
/// carry contracts; a follower echoes any secret it sees revealed on a
/// leaving arc. Timeouts `t(u, v) = T₀ + (diam + D(v, v̂) + 1)·Δ` guarantee
/// every follower a full Δ between learning the secret and its own
/// deadline (Lemma 4.13), so conforming runs end all-`Deal`
/// (Theorem 4.14's analogue of Theorem 4.7).
///
/// Behaviors honored: `Conforming`, `Halt`, `NeverPublish`,
/// `WithholdSecret`, and (vacuously — HTLCs have no claim step) `NoClaim`.
/// The remaining deviations are not implemented by this strategy, and
/// construction refuses them loudly rather than running them as silently
/// conforming; [`ProtocolKind::select`] falls back to the hashkey protocol
/// when a configured behavior is unsupported (`HtlcProtocol::supports`).
#[derive(Debug)]
pub(crate) struct HtlcProtocol {
    spec: Arc<SwapSpec>,
    leader: VertexId,
    secret: Secret,
    hashlock: Hashlock,
    /// The Lemma 4.13 timeout per arc (index = arc index).
    timeouts: Vec<SimTime>,
    parties: Vec<HtlcParty>,
}

impl HtlcProtocol {
    /// Computes the timeout ladder and builds the per-party machines.
    ///
    /// # Errors
    ///
    /// Fails when the spec does not admit the §4.6 protocol: more (or
    /// fewer) than one leader, or no feasible timeout assignment
    /// (Lemma 4.13's preconditions).
    ///
    /// # Panics
    ///
    /// Panics if the config holds a behavior this strategy does not
    /// implement (see `HtlcProtocol::supports`) — running an adversarial
    /// deviation as silently conforming would make safety sweeps pass
    /// vacuously.
    fn new(
        setup: &SwapSetup,
        config: &RunConfig,
        spec: Arc<SwapSpec>,
    ) -> Result<Self, TimeoutError> {
        for (vertex, behavior) in &config.behaviors {
            assert!(
                HtlcProtocol::supports(behavior),
                "behavior {behavior:?} for {vertex} is not implemented by the HTLC protocol; \
                 run it under ProtocolKind::Hashkey (ProtocolKind::select does this)"
            );
        }
        let timeouts = assign_timeouts(&spec)?;
        // The ladder exists, so the spec has exactly one leader.
        let leader = spec.leaders[0];
        let secret = setup.secrets[leader.index()];
        let hashlock = spec.hashlocks[0];
        debug_assert!(hashlock.matches(&secret), "leader hashlock must match its secret");
        let parties = spec
            .digraph
            .vertices()
            .map(|v| HtlcParty {
                behavior: config.behaviors.get(&v).cloned().unwrap_or_default(),
                ..HtlcParty::default()
            })
            .collect();
        Ok(HtlcProtocol { spec, leader, secret, hashlock, timeouts, parties })
    }

    /// Whether the HTLC strategy implements `behavior`. `Conforming`,
    /// `Halt`, `NeverPublish`, and `WithholdSecret` are honored; `NoClaim`
    /// is vacuously conforming (there is no claim step). Everything else
    /// (`Scripted`, `Direct`, `PrematureReveal`, `EagerPublish`) is not
    /// implemented here — auto-selection routes such configs to the
    /// hashkey protocol instead.
    fn supports(behavior: &Behavior) -> bool {
        matches!(
            behavior,
            Behavior::Conforming
                | Behavior::Halt { .. }
                | Behavior::NeverPublish { .. }
                | Behavior::WithholdSecret
                | Behavior::NoClaim
        )
    }
}

impl SwapProtocol for HtlcProtocol {
    fn step(&mut self, vertex: VertexId, view: &View<'_>) -> Vec<Action> {
        let party = &mut self.parties[vertex.index()];
        if let Behavior::Halt { at_round } = party.behavior {
            if view.round >= at_round {
                return Vec::new();
            }
        }
        let digraph = &view.spec.digraph;
        let htlc_of =
            |arc: ArcId| view.contracts[arc.index()].as_ref().and_then(ArcSnapshot::as_htlc);
        let mut actions = Vec::new();
        // Only *valid* contracts advance the protocol (an invalid one is
        // treated as absent, so its publisher gets no follower response).
        let entering_ready =
            digraph.in_arcs(vertex).all(|a| htlc_of(a.id).is_some_and(|s| s.valid));
        let is_leader = vertex == self.leader;

        // Phase One: the leader publishes unconditionally; a follower once
        // every entering arc carries a contract.
        if !party.published_phase_one && (is_leader || entering_ready) {
            party.published_phase_one = true;
            for arc in digraph.out_arcs(vertex) {
                let withheld = match &party.behavior {
                    Behavior::NeverPublish { arcs: None } => true,
                    Behavior::NeverPublish { arcs: Some(list) } => list.contains(&arc.id),
                    _ => false,
                };
                if !withheld {
                    actions.push(Action::Publish { arc: arc.id });
                }
            }
        }

        // Phase Two: the leader knows the secret; a follower echoes one it
        // sees revealed on any leaving arc.
        let knows_secret = if matches!(party.behavior, Behavior::WithholdSecret) {
            None
        } else if is_leader {
            Some(self.secret)
        } else {
            digraph
                .out_arcs(vertex)
                .find_map(|a| htlc_of(a.id).filter(|s| s.valid).and_then(|s| s.revealed))
        };
        if !party.revealed_entering && entering_ready {
            if let Some(secret) = knows_secret {
                party.revealed_entering = true;
                for arc in digraph.in_arcs(vertex) {
                    if !htlc_of(arc.id).is_some_and(|s| s.triggered) {
                        actions.push(Action::Reveal { arc: arc.id, secret });
                    }
                }
            }
        }

        // Refunds on expired, untriggered leaving arcs.
        for arc in digraph.out_arcs(vertex) {
            let Some(snapshot) = htlc_of(arc.id) else { continue };
            if !snapshot.triggered
                && !snapshot.refunded
                && view.now >= self.timeouts[arc.id.index()]
                && party.refunded.insert(arc.id)
            {
                actions.push(Action::Refund { arc: arc.id });
            }
        }
        actions
    }

    fn contract_for(&mut self, arc: ArcId, asset: AssetId, corrupt: bool) -> AnyContract {
        // A malicious publisher substitutes a hashlock nobody can open.
        let hashlock =
            if corrupt { Secret::from_bytes([0xBA; 32]).hashlock() } else { self.hashlock };
        AnyContract::Htlc(HtlcContract::new(
            asset,
            self.spec.address_of(self.spec.digraph.head(arc)),
            self.spec.address_of(self.spec.digraph.tail(arc)),
            hashlock,
            self.timeouts[arc.index()],
        ))
    }

    fn snapshot(&self, contract: &AnyContract, arc: ArcId, asset: AssetId) -> ArcSnapshot {
        match contract.as_htlc() {
            Some(c) => {
                // The §4.6 analogue of Phase One verification: the spec is
                // public, so observers check the hashlock, the Lemma 4.13
                // timeout, the parties, and the escrowed asset.
                let valid = c.hashlock() == self.hashlock
                    && c.timeout() == self.timeouts[arc.index()]
                    && c.party() == self.spec.address_of(self.spec.digraph.head(arc))
                    && c.counterparty() == self.spec.address_of(self.spec.digraph.tail(arc))
                    && c.asset() == asset;
                ArcSnapshot::Htlc(HtlcSnapshot {
                    revealed: c.revealed_secret().copied(),
                    triggered: c.is_triggered(),
                    refunded: c.is_refunded(),
                    valid,
                })
            }
            // A foreign flavor is as invalid as wrong hashlocks.
            None => ArcSnapshot::Htlc(HtlcSnapshot {
                revealed: None,
                triggered: false,
                refunded: false,
                valid: false,
            }),
        }
    }

    fn call_of(&self, action: Action) -> Option<(AnyCall, usize)> {
        match action {
            Action::Reveal { secret, .. } => Some((AnyCall::Htlc(HtlcCall::Reveal { secret }), 32)),
            Action::Refund { .. } => Some((AnyCall::Htlc(HtlcCall::Refund), 8)),
            // HTLC parties emit neither unlocks nor claims; translated
            // literally, the HTLC rejects the flavor mismatch.
            Action::Unlock { index, secret, path, sig, .. } => {
                let wire = 32 + path.encoded_len() + sig.byte_len();
                Some((AnyCall::Swap(SwapCall::Unlock { index, secret, path, sig }), wire))
            }
            Action::Claim { .. } => Some((AnyCall::Swap(SwapCall::Claim), 40)),
            _ => None,
        }
    }

    fn abandoned(&self, _vertex: VertexId) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::event::What;
    use crate::outcome::Outcome;
    use crate::runner::{RunConfig, RunReport};
    use crate::setup::{SetupConfig, SwapSetup};
    use crate::single_leader::single_leader_of;
    use crate::timing::PerChainLatency;
    use swap_digraph::generators;
    use swap_sim::SimRng;

    fn fast_config() -> SetupConfig {
        SetupConfig { key_height: 4, ..SetupConfig::default() }
    }

    fn run_htlc(digraph: swap_digraph::Digraph, seed: u64, config: RunConfig) -> RunReport {
        let setup = SwapSetup::generate(digraph, &fast_config(), &mut SimRng::from_seed(seed))
            .expect("valid single-leader family");
        assert_eq!(setup.spec.leaders.len(), 1, "family must elect a single leader");
        Engine::lockstep(setup, config, ProtocolKind::Htlc).run()
    }

    #[test]
    fn kind_selection_matches_figure_6() {
        let single = SwapSetup::generate(
            generators::herlihy_three_party(),
            &fast_config(),
            &mut SimRng::from_seed(1),
        )
        .unwrap();
        let conforming = RunConfig::default();
        assert_eq!(ProtocolKind::select(&single.spec, &conforming), ProtocolKind::Htlc);
        let two = SwapSetup::generate(
            generators::two_leader_triangle(),
            &fast_config(),
            &mut SimRng::from_seed(1),
        )
        .unwrap();
        assert_eq!(ProtocolKind::select(&two.spec, &conforming), ProtocolKind::Hashkey);
        assert_eq!(ProtocolKind::Htlc.label(), "htlc");
        assert_eq!(ProtocolKind::Hashkey.to_string(), "hashkey");
    }

    #[test]
    fn unsupported_behaviors_fall_back_to_hashkey() {
        // Scripted/Direct deviations are not implemented by the HTLC
        // strategy: selection routes them to the general protocol instead
        // of letting a safety sweep pass vacuously.
        let single = SwapSetup::generate(
            generators::herlihy_three_party(),
            &fast_config(),
            &mut SimRng::from_seed(2),
        )
        .unwrap();
        let mut config = RunConfig::default();
        config.behaviors.insert(VertexId::new(1), Behavior::Direct { skip_arcs: vec![] });
        assert_eq!(ProtocolKind::select(&single.spec, &config), ProtocolKind::Hashkey);
        // Supported deviations keep the cheap path.
        let mut config = RunConfig::default();
        config.behaviors.insert(VertexId::new(1), Behavior::Halt { at_round: 2 });
        assert_eq!(ProtocolKind::select(&single.spec, &config), ProtocolKind::Htlc);
        assert!(HtlcProtocol::supports(&Behavior::NoClaim));
        assert!(!HtlcProtocol::supports(&Behavior::PrematureReveal));
    }

    #[test]
    #[should_panic(expected = "not implemented by the HTLC protocol")]
    fn forcing_htlc_with_unsupported_behavior_panics() {
        let setup = SwapSetup::generate(
            generators::herlihy_three_party(),
            &fast_config(),
            &mut SimRng::from_seed(3),
        )
        .unwrap();
        let mut config = RunConfig::default();
        config.behaviors.insert(VertexId::new(0), Behavior::PrematureReveal);
        let _ = Engine::lockstep(setup, config, ProtocolKind::Htlc).run();
    }

    #[test]
    fn htlc_conforming_run_matches_figure_2_timeline() {
        // Δ = 10, T₀ = 0: publishes at mid-rounds 5/15/25, triggers at
        // 35/45/55 — the Figure 1–2 timeline, now produced by the shared
        // event-driven engine instead of a private round loop.
        let report = run_htlc(generators::herlihy_three_party(), 3, RunConfig::default());
        assert!(report.all_deal(), "outcomes: {:?}", report.outcomes);
        let trace = &report.trace;
        assert_eq!(trace.ticks_of(|w| matches!(w, What::Published { .. })), vec![5, 15, 25]);
        assert_eq!(trace.ticks_of(|w| matches!(w, What::Triggered { .. })), vec![35, 45, 55]);
        assert_eq!(report.metrics.refund_calls, 0);
        assert!(report.settled);
    }

    #[test]
    fn htlc_conforming_runs_across_families() {
        for d in [generators::cycle(4), generators::star(3), generators::flower(2, 3)] {
            assert!(single_leader_of(&d).is_some(), "family must be single-leader");
            let report = run_htlc(d.clone(), 4, RunConfig::default());
            assert!(report.all_deal(), "digraph:\n{}", d.render());
            assert!(report.settled);
        }
    }

    #[test]
    fn htlc_halted_leader_leads_to_refunds_no_underwater() {
        let d = generators::herlihy_three_party();
        for halt_round in 0..8 {
            let setup = SwapSetup::generate(d.clone(), &fast_config(), &mut SimRng::from_seed(5))
                .expect("valid");
            let leader = setup.spec.leaders[0];
            let mut config = RunConfig::default();
            config.behaviors.insert(leader, Behavior::Halt { at_round: halt_round });
            let report = Engine::lockstep(setup, config, ProtocolKind::Htlc).run();
            assert!(report.no_conforming_underwater(), "halt {halt_round}: {:?}", report.outcomes);
        }
    }

    #[test]
    fn htlc_halted_follower_cannot_hurt_others() {
        let d = generators::herlihy_three_party();
        let carol = d.vertex_by_name("carol").unwrap();
        for halt_round in 0..8 {
            let mut config = RunConfig::default();
            config.behaviors.insert(carol, Behavior::Halt { at_round: halt_round });
            let report = run_htlc(d.clone(), 6, config);
            for (i, &o) in report.outcomes.iter().enumerate() {
                if VertexId::new(i as u32) != carol {
                    assert!(o != Outcome::Underwater, "halt {halt_round}, party {i}: {o}");
                }
            }
        }
    }

    #[test]
    fn htlc_withholding_leader_everyone_refunded() {
        let d = generators::herlihy_three_party();
        let setup =
            SwapSetup::generate(d, &fast_config(), &mut SimRng::from_seed(7)).expect("valid");
        let leader = setup.spec.leaders[0];
        let mut config = RunConfig::default();
        config.behaviors.insert(leader, Behavior::WithholdSecret);
        let report = Engine::lockstep(setup, config, ProtocolKind::Htlc).run();
        assert!(report.outcomes.iter().all(|&o| o == Outcome::NoDeal));
        assert!(report.settled, "all contracts should be refunded");
        assert_eq!(report.metrics.refund_calls, 3);
        assert!(report.no_conforming_underwater());
    }

    #[test]
    fn htlc_storage_and_wire_smaller_than_general_protocol() {
        // §4.6's point: single-leader swaps avoid storing digraphs, key
        // tables, and signature chains. Same digraph, same engine, both
        // protocols.
        let d = generators::herlihy_three_party();
        let simple = run_htlc(d.clone(), 7, RunConfig::default());
        let setup =
            SwapSetup::generate(d, &fast_config(), &mut SimRng::from_seed(7)).expect("valid");
        let general = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
        assert!(general.all_deal() && simple.all_deal());
        assert!(
            simple.storage.total_bytes() < general.storage.total_bytes(),
            "simple {} vs general {}",
            simple.storage.total_bytes(),
            general.storage.total_bytes()
        );
        assert!(simple.metrics.unlock_bytes < general.metrics.unlock_bytes);
    }

    #[test]
    fn htlc_runs_under_per_chain_latency() {
        let d = generators::cycle(5);
        let rng = SimRng::from_seed(8);
        let setup = SwapSetup::generate(d, &fast_config(), &mut rng.clone()).expect("valid");
        let bound = setup.spec.start + setup.spec.worst_case_duration();
        let timing = PerChainLatency::sample(&setup, &rng);
        let report = Engine::new(setup, RunConfig::default(), ProtocolKind::Htlc, timing).run();
        assert!(report.all_deal(), "outcomes: {:?}", report.outcomes);
        assert!(report.completion.expect("all triggered") <= bound);
    }

    #[test]
    fn htlc_corrupt_contract_never_triggers_the_arc() {
        // A corrupted HTLC carries a hashlock nobody can open: the swap
        // dies with refunds, and no conforming party ends underwater.
        let mut config = RunConfig::default();
        config.corrupt_arcs.insert(ArcId::new(0));
        let report = run_htlc(generators::herlihy_three_party(), 10, config);
        assert!(!report.arc_triggered[0], "corrupted arc cannot trigger");
        assert!(report.no_conforming_underwater());
    }

    #[test]
    #[should_panic(expected = "single-leader feasible")]
    fn forcing_htlc_on_two_leader_spec_panics() {
        let setup = SwapSetup::generate(
            generators::two_leader_triangle(),
            &fast_config(),
            &mut SimRng::from_seed(11),
        )
        .unwrap();
        let _ = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Htlc).run();
    }
}
