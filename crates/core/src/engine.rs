//! The event-driven protocol engine.
//!
//! Protocol activity is a stream of scheduled events popped from
//! [`swap_sim::Simulation`] in deterministic `(time, seq)` order:
//!
//! * `Ev::Boundary` — a round boundary opens: snapshots are already fresh
//!   (visibility events keep them so), newly confirmed bulletin entries are
//!   promoted, and one wake-up per party is scheduled.
//! * `Ev::Wake` — one party observes its `View` and emits actions; each
//!   action is scheduled to execute at the instant the [`TimingModel`]
//!   assigns to its target chain.
//! * `Ev::Exec` — an action executes as a transaction and leaves one
//!   typed [`crate::event::SwapEvent`] in the trace, accepted or refused
//!   (ids only — nothing is formatted until a reader renders); successful
//!   mutations schedule a visibility event for the touched arc.
//! * `Ev::Visible` — a chain change reaches observers: the arc's cached
//!   snapshot is re-built *only if* the chain's state-version moved, so
//!   a round costs O(changed arcs) where the seed runner rebuilt all |A|.
//! * `Ev::Close` — the round's bookkeeping: scan arcs whose chain
//!   version moved for new triggers, check settlement, and either finish or
//!   open the next round.
//!
//! The engine is generic over a [`TimingModel`]: [`crate::timing::Lockstep`]
//! reproduces the paper's Δ-round loop byte-for-byte
//! (`tests/engine_equivalence.rs` pins this against recorded seed-runner
//! reports), while [`crate::timing::PerChainLatency`] gives each chain its
//! own publish/confirm latency under a dominating Δ.
//!
//! It runs either *protocol*: everything protocol-specific — party
//! strategies, the contract flavor published on
//! [`swap_contract::AnyContract`] chains, snapshot construction, and call
//! translation — lives behind the crate-private `SwapProtocol` trait, built
//! from the [`ProtocolKind`] the caller names. The same event loop
//! therefore runs the general §4.5 hashkey protocol and the §4.6
//! single-leader HTLC protocol, and the [`crate::exchange::Exchange`]
//! picks per cleared cycle via [`ProtocolKind::select`].
//!
//! There are two constructors and no other way to run a swap:
//! [`Engine::new`] takes any timing model, and [`Engine::lockstep`] builds
//! the paper's [`Lockstep`] from the spec's own Δ, so the Δ the rounds are
//! timed by cannot differ from the one the contracts enforce.

use std::sync::Arc;

use swap_chain::{ChainId, ContractId, Owner};
use swap_contract::{AnyContract, SwapSpec};
use swap_digraph::{ArcId, VertexId};
use swap_sim::{SimTime, Simulation};

use crate::event::{Actor, Attempt, Refusal, Trace, What};
use crate::outcome::Outcome;
use crate::party::{Action, ArcSnapshot, Behavior, BulletinEntry, View};
use crate::protocol::{build_protocol, ProtocolKind, SwapProtocol};
use crate::runner::{RunConfig, RunMetrics, RunReport};
use crate::setup::SwapSetup;
use crate::timing::{Lockstep, TimingModel};

/// One scheduled unit of protocol activity.
#[derive(Debug, Clone)]
enum Ev {
    /// A round boundary opens.
    Boundary(u64),
    /// One party wakes at a round boundary.
    Wake { round: u64, vertex: VertexId },
    /// An action executes as a transaction.
    Exec { round: u64, vertex: VertexId, action: Action },
    /// A chain change becomes visible: refresh the arc's snapshot.
    Visible { arc: ArcId },
    /// The round's bookkeeping runs.
    Close(u64),
}

/// Executes one provisioned swap under one protocol as a discrete-event
/// simulation, timed by a pluggable [`TimingModel`].
#[derive(Debug)]
pub struct Engine<T: TimingModel> {
    setup: SwapSetup,
    config: RunConfig,
    timing: T,
    sim: Simulation<Ev>,
    /// The spec, shared with the protocol (and, for the hashkey protocol,
    /// with every honestly published contract).
    shared_spec: Arc<SwapSpec>,
    /// The protocol strategy: party machines, contract flavor, snapshots.
    protocol: Box<dyn SwapProtocol>,
    conforming: Vec<bool>,
    contract_of_arc: Vec<Option<ContractId>>,
    triggered_at: Vec<Option<SimTime>>,
    /// All bulletin entries, tagged with the round they were announced in.
    /// Entries are `Arc`-shared with `visible_bulletin`: promotion is a
    /// refcount bump, not a copy of the entry's multi-KB base signature.
    bulletin: Vec<(u64, Arc<BulletinEntry>)>,
    /// Entries already promoted to visibility (announced before the current
    /// boundary), plus the promotion cursor into `bulletin`.
    visible_bulletin: Vec<Arc<BulletinEntry>>,
    bulletin_cursor: usize,
    /// Per-arc contract snapshots as observers currently see them.
    visible: Vec<Option<ArcSnapshot>>,
    /// Chain state-version each cached snapshot reflects.
    visible_version: Vec<Option<u64>>,
    /// Chain state-version as of each arc's last bookkeeping scan.
    scan_version: Vec<Option<u64>>,
    settled_arcs: Vec<bool>,
    settled_count: usize,
    pending_wakes: usize,
    finished: bool,
    t0: SimTime,
    max_rounds: u64,
    trace: Trace,
    metrics: RunMetrics,
}

impl Engine<Lockstep> {
    /// Builds an engine under the paper's lockstep Δ-round timing, with Δ
    /// taken from the spec itself.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Engine::new`].
    pub fn lockstep(setup: SwapSetup, config: RunConfig, protocol: ProtocolKind) -> Self {
        let delta = setup.spec.delta;
        Engine::new(setup, config, protocol, Lockstep::new(delta))
    }
}

impl<T: TimingModel> Engine<T> {
    /// Builds an engine that runs `setup` under `protocol`; parties take
    /// their keypairs and secrets from the setup and their behavior from
    /// the config. The setup and config become the engine's; everything
    /// else — event queue, party machines, snapshot caches — is execution
    /// state created here.
    ///
    /// # Panics
    ///
    /// Panics if Δ is smaller than 2 ticks (timing models need at least one
    /// tick each for execution and confirmation), if the spec starts less
    /// than Δ after the epoch, or if `protocol` is [`ProtocolKind::Htlc`]
    /// and the spec is not single-leader feasible (check with
    /// [`ProtocolKind::select`] first).
    pub fn new(setup: SwapSetup, config: RunConfig, protocol: ProtocolKind, timing: T) -> Self {
        let spec = &setup.spec;
        assert!(spec.delta.ticks() >= 2, "delta must be at least 2 ticks");
        assert!(
            spec.start >= SimTime::ZERO + spec.delta.times(1),
            "spec must start at least one delta after the epoch"
        );
        let conforming: Vec<bool> = spec
            .digraph
            .vertices()
            .map(|v| matches!(config.behaviors.get(&v), None | Some(Behavior::Conforming)))
            .collect();
        let arc_count = spec.digraph.arc_count();
        let t0 = spec.start - spec.delta.times(1);
        // Enough for the worst-case protocol plus the refund round.
        let max_rounds = 2 * spec.diam + 6;
        // A conforming run publishes, claims and triggers every arc once and
        // unlocks it once per leader.
        let trace = Trace::new(&spec.digraph, arc_count * (3 + spec.leaders.len()));
        let shared_spec = Arc::new(spec.clone());
        let protocol = build_protocol(protocol, &setup, &config, Arc::clone(&shared_spec));
        let mut sim = Simulation::new();
        sim.schedule(t0, Ev::Boundary(0));
        Engine {
            setup,
            config,
            timing,
            sim,
            shared_spec,
            protocol,
            conforming,
            contract_of_arc: vec![None; arc_count],
            triggered_at: vec![None; arc_count],
            bulletin: Vec::new(),
            visible_bulletin: Vec::new(),
            bulletin_cursor: 0,
            visible: vec![None; arc_count],
            visible_version: vec![None; arc_count],
            scan_version: vec![None; arc_count],
            settled_arcs: vec![false; arc_count],
            settled_count: 0,
            pending_wakes: 0,
            finished: false,
            t0,
            max_rounds,
            trace,
            metrics: RunMetrics::default(),
        }
    }

    /// Runs to settlement (or the round limit) and reports.
    pub fn run(self) -> RunReport {
        self.run_full().0
    }

    /// Runs to settlement (or the round limit) and returns both the report
    /// and the post-run setup — the chains carry the full block histories,
    /// so an orchestrator can absorb them into a merged ledger view (see
    /// [`swap_chain::ChainSet::absorb`]).
    pub fn run_full(mut self) -> (RunReport, SwapSetup) {
        while !self.finished {
            let Some(ev) = self.sim.poll() else { break };
            let now = ev.time;
            match ev.payload {
                Ev::Boundary(round) => self.on_boundary(round),
                Ev::Wake { round, vertex } => self.on_wake(now, round, vertex),
                Ev::Exec { round, vertex, action } => self.on_exec(now, round, vertex, action),
                Ev::Visible { arc } => self.refresh_arc(arc.index()),
                Ev::Close(round) => self.on_close(round),
            }
        }
        self.finish()
    }

    /// A round boundary: promote what observers may now read, then wake
    /// everyone.
    fn on_boundary(&mut self, round: u64) {
        self.metrics.rounds = round;
        // Promote bulletin entries announced before this boundary. Rounds
        // are tagged in nondecreasing order, so a cursor suffices.
        while self.bulletin_cursor < self.bulletin.len()
            && self.bulletin[self.bulletin_cursor].0 < round
        {
            self.visible_bulletin.push(Arc::clone(&self.bulletin[self.bulletin_cursor].1));
            self.bulletin_cursor += 1;
        }
        self.pending_wakes = self.shared_spec.digraph.vertex_count();
        let now = self.sim.now();
        for vertex in self.shared_spec.digraph.vertices() {
            self.sim.schedule(now, Ev::Wake { round, vertex });
        }
    }

    /// One party observes and acts; its actions are scheduled to execute at
    /// model-assigned instants. The last wake of the boundary schedules the
    /// round's close.
    fn on_wake(&mut self, now: SimTime, round: u64, vertex: VertexId) {
        let view = View {
            spec: &self.shared_spec,
            round,
            now,
            contracts: &self.visible,
            bulletin: &self.visible_bulletin,
        };
        let actions = self.protocol.step(vertex, &view);
        for action in actions {
            let chain = self.chain_of_action(&action);
            let exec_at = self.timing.exec_time(now, chain);
            self.sim.schedule(exec_at, Ev::Exec { round, vertex, action });
        }
        self.pending_wakes -= 1;
        if self.pending_wakes == 0 {
            let close_at = self.timing.close_time(now);
            self.sim.schedule(close_at, Ev::Close(round));
        }
    }

    /// The chain an action's transaction lands on (`None`: off-chain).
    fn chain_of_action(&self, action: &Action) -> Option<ChainId> {
        match action {
            Action::Publish { arc }
            | Action::Unlock { arc, .. }
            | Action::Claim { arc }
            | Action::Refund { arc }
            | Action::Reveal { arc, .. }
            | Action::DirectTransfer { arc } => Some(self.setup.chain_of_arc[arc.index()]),
            Action::Announce { .. } => None,
        }
    }

    fn chain_mut(&mut self, arc: ArcId) -> &mut swap_chain::Blockchain<AnyContract> {
        let chain_id = self.setup.chain_of_arc[arc.index()];
        self.setup.chains.get_mut(chain_id).expect("chain exists")
    }

    /// Schedules the visibility event for a successful mutation of `arc`'s
    /// chain at `exec`.
    fn schedule_visibility(&mut self, exec: SimTime, arc: ArcId) {
        let chain = self.setup.chain_of_arc[arc.index()];
        let at = self.timing.visible_time(exec, chain);
        self.sim.schedule(at, Ev::Visible { arc });
    }

    /// Re-builds one arc's cached snapshot if the hosting chain's
    /// state-version moved since the cache was built.
    fn refresh_arc(&mut self, arc: usize) {
        let chain_id = self.setup.chain_of_arc[arc];
        let chain = self.setup.chains.get(chain_id).expect("chain exists");
        let version = chain.version();
        if self.visible_version[arc] == Some(version) {
            return;
        }
        self.visible_version[arc] = Some(version);
        let snapshot = self.contract_of_arc[arc].and_then(|id| {
            let contract = chain.contract(id)?;
            Some(self.protocol.snapshot(
                contract,
                ArcId::new(arc as u32),
                self.setup.asset_of_arc[arc],
            ))
        });
        self.visible[arc] = snapshot;
    }

    /// Appends one event to the trace and bumps the counter it stands for,
    /// so every counted call — a refused one included — has its event.
    fn record(&mut self, time: SimTime, actor: Actor, what: What) {
        let m = &mut self.metrics;
        match what {
            What::Published { .. } => m.contracts_published += 1,
            // A §4.6 reveal is metered as an unlock so wire-size comparisons
            // across protocols read off one field.
            What::Unlocked { .. } | What::Revealed { .. } => m.unlock_calls += 1,
            What::Claimed { .. } => m.claim_calls += 1,
            What::Refunded { .. } => m.refund_calls += 1,
            What::DirectTransfer { .. } => m.direct_transfers += 1,
            What::Rejected { .. } => m.rejected_calls += 1,
            What::Triggered { .. } | What::Announced { .. } => {}
        }
        self.trace.push(time, actor, what);
    }

    /// An action executes as a transaction at `exec_time`.
    fn on_exec(&mut self, exec_time: SimTime, round: u64, vertex: VertexId, action: Action) {
        let actor_addr = self.shared_spec.address_of(vertex);
        let actor = Actor::Party(vertex);
        let reject = |attempt, arc, why| What::Rejected { attempt, arc, why };
        match action {
            Action::Publish { arc } => {
                if self.contract_of_arc[arc.index()].is_some() {
                    let what = reject(Attempt::Publish, arc, Refusal::AlreadyPublished);
                    return self.record(exec_time, actor, what);
                }
                let asset = self.setup.asset_of_arc[arc.index()];
                // The protocol decides the contract flavor and what it
                // embeds (for the hashkey protocol, "its own" spec copy —
                // that *is* the O(|A|) per-contract storage of
                // Theorem 4.10; a corrupt publisher substitutes hashlocks
                // nobody can open).
                let corrupt = self.config.corrupt_arcs.contains(&arc);
                let contract = self.protocol.contract_for(arc, asset, corrupt);
                let chain = self.chain_mut(arc);
                match chain.publish_contract(contract, actor_addr, exec_time) {
                    Ok(id) => {
                        self.contract_of_arc[arc.index()] = Some(id);
                        self.record(exec_time, actor, What::Published { arc, round });
                        self.schedule_visibility(exec_time, arc);
                    }
                    Err(e) => {
                        self.record(exec_time, actor, reject(Attempt::Publish, arc, Refusal::Tx(e)))
                    }
                }
            }
            action @ (Action::Unlock { .. }
            | Action::Claim { .. }
            | Action::Refund { .. }
            | Action::Reveal { .. }) => {
                // Copy out what the trace needs, then hand the action to the
                // protocol *by value* so the multi-kilobyte unlock payloads
                // (path + signature chain) move instead of clone.
                let (arc, attempt, accepted) = match action {
                    Action::Unlock { arc, index, ref path, .. } => (
                        arc,
                        Attempt::Unlock { index },
                        What::Unlocked { arc, index, path_len: path.len() },
                    ),
                    Action::Claim { arc } => (arc, Attempt::Claim, What::Claimed { arc }),
                    Action::Refund { arc } => (arc, Attempt::Refund, What::Refunded { arc }),
                    Action::Reveal { arc, .. } => (arc, Attempt::Reveal, What::Revealed { arc }),
                    _ => unreachable!("outer match narrows the variants"),
                };
                let Some(id) = self.contract_of_arc[arc.index()] else {
                    let what = reject(attempt, arc, Refusal::NoContract);
                    return self.record(exec_time, actor, what);
                };
                let (call, wire) =
                    self.protocol.call_of(action).expect("unlock/claim/refund/reveal are on-chain");
                let chain = self.chain_mut(arc);
                match chain.call_contract(id, actor_addr, call, exec_time, wire) {
                    Ok(()) => {
                        if matches!(accepted, What::Unlocked { .. } | What::Revealed { .. }) {
                            self.metrics.unlock_bytes += wire as u64;
                        }
                        self.record(exec_time, actor, accepted);
                        self.schedule_visibility(exec_time, arc);
                    }
                    Err(e) => self.record(exec_time, actor, reject(attempt, arc, Refusal::Tx(e))),
                }
            }
            Action::DirectTransfer { arc } => {
                let asset = self.setup.asset_of_arc[arc.index()];
                let tail = self.shared_spec.digraph.tail(arc);
                let tail_addr = self.shared_spec.address_of(tail);
                let chain = self.chain_mut(arc);
                match chain.transfer_asset(asset, actor_addr, tail_addr, exec_time) {
                    Ok(()) => {
                        self.record(exec_time, actor, What::DirectTransfer { arc });
                        if self.triggered_at[arc.index()].is_none() {
                            self.triggered_at[arc.index()] = Some(exec_time);
                        }
                    }
                    Err(e) => {
                        self.record(exec_time, actor, reject(Attempt::Direct, arc, Refusal::Tx(e)))
                    }
                }
            }
            Action::Announce { leader_index, secret, base_sig } => {
                self.metrics.announce_bytes += 32 + base_sig.byte_len() as u64;
                self.bulletin
                    .push((round, Arc::new(BulletinEntry { leader_index, secret, base_sig })));
                self.record(exec_time, actor, What::Announced { leader_index });
            }
        }
    }

    /// The round's bookkeeping: scan arcs whose chain state moved for new
    /// triggers and settlement, then finish or open the next round.
    fn on_close(&mut self, round: u64) {
        for arc in 0..self.triggered_at.len() {
            let chain_id = self.setup.chain_of_arc[arc];
            let chain = self.setup.chains.get(chain_id).expect("chain exists");
            let version = chain.version();
            if self.scan_version[arc] == Some(version) {
                continue;
            }
            self.scan_version[arc] = Some(version);
            let Some(id) = self.contract_of_arc[arc] else { continue };
            let Some(contract) = chain.contract(id) else { continue };
            if self.triggered_at[arc].is_none() && contract.transfer_triggered() {
                // The arc triggered when its chain last moved — in lockstep
                // that is the round's shared execution instant.
                let at = chain.last_mutation_at();
                self.triggered_at[arc] = Some(at);
                self.trace.push(at, Actor::Sim, What::Triggered { arc: ArcId::new(arc as u32) });
            }
            if !self.settled_arcs[arc] && contract.settled() {
                self.settled_arcs[arc] = true;
                self.settled_count += 1;
            }
        }
        if self.settled_count == self.settled_arcs.len() || round >= self.max_rounds {
            self.finished = true;
        } else {
            let next = self.t0 + self.shared_spec.delta.times(round + 1);
            self.sim.schedule(next, Ev::Boundary(round + 1));
        }
    }

    fn finish(self) -> (RunReport, SwapSetup) {
        let spec = &*self.shared_spec;
        let n = spec.digraph.vertex_count();
        // An arc triggered iff its transfer irrevocably happened: the asset
        // reached the counterparty, or the contract says so in its flavor's
        // own terms (an HTLC triggered; a swap contract fully unlocked —
        // only the counterparty can ever take the asset then).
        let arc_triggered: Vec<bool> = spec
            .digraph
            .arcs()
            .map(|arc| {
                let chain = self
                    .setup
                    .chains
                    .get(self.setup.chain_of_arc[arc.id.index()])
                    .expect("chain exists");
                let asset = self.setup.asset_of_arc[arc.id.index()];
                let tail_addr = spec.address_of(arc.tail);
                if chain.assets().owner(asset) == Some(Owner::Party(tail_addr)) {
                    return true;
                }
                self.contract_of_arc[arc.id.index()]
                    .and_then(|id| chain.contract(id))
                    .is_some_and(AnyContract::transfer_triggered)
            })
            .collect();
        let outcomes: Vec<Outcome> = (0..n)
            .map(|i| {
                let v = VertexId::new(i as u32);
                let entering = {
                    let total = spec.digraph.in_degree(v);
                    let triggered =
                        spec.digraph.in_arcs(v).filter(|a| arc_triggered[a.id.index()]).count();
                    (triggered, total)
                };
                let leaving = {
                    let total = spec.digraph.out_degree(v);
                    let triggered =
                        spec.digraph.out_arcs(v).filter(|a| arc_triggered[a.id.index()]).count();
                    (triggered, total)
                };
                Outcome::classify(entering, leaving)
            })
            .collect();
        let completion = if arc_triggered.iter().all(|&t| t) {
            self.triggered_at.iter().filter_map(|&t| t).max()
        } else {
            None
        };
        // Settlement is monotone and every round's close scan updates the
        // counter before the engine can finish, so it is current here.
        let settled = self.settled_count == self.settled_arcs.len();
        let abandoned = spec.digraph.vertices().filter(|&v| self.protocol.abandoned(v)).collect();
        let report = RunReport {
            outcomes,
            arc_triggered,
            triggered_at: self.triggered_at,
            completion,
            settled,
            conforming: self.conforming,
            abandoned,
            trace: self.trace,
            metrics: self.metrics,
            storage: self.setup.chains.storage_report(),
        };
        (report, self.setup)
    }
}

/// Deviation configurations still used by [`Engine`] tests live in
/// `crate::runner`; engine-specific behavior is covered by
/// `tests/engine_equivalence.rs` and `tests/determinism.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{SetupConfig, SwapSetup};
    use crate::timing::PerChainLatency;
    use swap_digraph::generators;
    use swap_sim::SimRng;

    fn setup(seed: u64) -> SwapSetup {
        let config = SetupConfig { key_height: 4, ..SetupConfig::default() };
        SwapSetup::generate(
            generators::two_leader_triangle(),
            &config,
            &mut SimRng::from_seed(seed),
        )
        .unwrap()
    }

    #[test]
    fn per_chain_latency_preserves_outcomes_within_delta_bounds() {
        let s = setup(45);
        let rng = SimRng::from_seed(45);
        let timing = PerChainLatency::sample(&s, &rng);
        let start = s.spec.start;
        let bound = s.spec.delta.times(2 * s.spec.diam);
        let report = Engine::new(s, RunConfig::default(), ProtocolKind::Hashkey, timing).run();
        assert!(report.all_deal(), "outcomes: {:?}", report.outcomes);
        assert!(report.settled);
        let completion = report.completion.expect("all triggered");
        assert!(completion <= start + bound, "Theorem 4.7 bound must survive chain latencies");
    }

    #[test]
    fn per_chain_latency_trigger_instants_reflect_chain_delays() {
        let s = setup(46);
        let rng = SimRng::from_seed(46);
        let timing = PerChainLatency::sample(&s, &rng);
        let delta = s.spec.delta;
        // Round 0 opens one Δ before the spec start; measure grid offsets
        // from there so the check is alignment-independent.
        let t0 = s.spec.start - delta.duration();
        let lockstep =
            Engine::lockstep(setup(46), RunConfig::default(), ProtocolKind::Hashkey).run();
        let latency = Engine::new(s, RunConfig::default(), ProtocolKind::Hashkey, timing).run();
        // Same protocol decisions, different transaction instants: at least
        // one arc triggers at an off-mid-round instant.
        assert_eq!(lockstep.metrics.unlock_calls, latency.metrics.unlock_calls);
        let off_grid = latency
            .triggered_at
            .iter()
            .flatten()
            .any(|t| (*t - t0).ticks() % delta.ticks() != delta.ticks() / 2);
        assert!(off_grid, "per-chain latencies should move execution off the mid-round grid");
    }
}
