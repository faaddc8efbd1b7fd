//! What a swap run takes and gives back: [`RunConfig`] in, [`RunReport`]
//! (with its [`RunMetrics`]) out. The run itself is
//! [`crate::engine::Engine`], the discrete-event engine built on
//! [`swap_sim::Simulation`].
//!
//! # Timing model
//!
//! Protocol activity — round boundaries, party
//! wake-ups, transaction execution, visibility boundaries, round
//! bookkeeping — is a stream of events popped in deterministic
//! `(time, seq)` order, and *when* those events land is decided by a
//! pluggable [`crate::timing::TimingModel`]:
//!
//! * [`crate::timing::Lockstep`] (what [`crate::engine::Engine::lockstep`]
//!   uses) is the paper's model. Rounds are Δ apart; round 0 happens at `T₀ = spec.start − Δ`,
//!   the instant the clearing service's output reaches the parties (§4.2
//!   requires the start `T` to be at least Δ later, and that slack is
//!   exactly what makes the hashkey deadlines satisfiable — see
//!   `swap-contract`'s crate docs). Within round `k`: parties observe
//!   snapshots as of the boundary `T₀ + k·Δ`, their actions execute as
//!   transactions at `T₀ + k·Δ + Δ/2`, and the changes become visible at
//!   the next boundary. With all parties conforming, the worked example of
//!   Figures 1–2 reproduces tick-for-tick: contracts appear at +Δ, +2Δ,
//!   +3Δ and trigger at +4Δ, +5Δ, +6Δ.
//! * [`crate::timing::PerChainLatency`] gives every chain its own publish
//!   and confirm latency under a dominating Δ — the heterogeneous
//!   confirmation behavior real chains exhibit. Run it via
//!   [`crate::engine::Engine::new`].
//!
//! Observers never rebuild the world from scratch: each arc's contract
//! snapshot is cached and re-built only when the hosting chain's
//! state-version moves (a *visibility* event), so a round costs O(changed
//! arcs) instead of O(|A|). The reference for that cache is the recorded
//! seed-runner fingerprints under `tests/golden/` (the seed runner rebuilt
//! every arc every round), which `tests/engine_equivalence.rs` replays.
//!
//! What the run did comes back in [`RunReport::trace`] as typed
//! [`crate::event::SwapEvent`]s; [`RunMetrics`]' call counters are bumped
//! where the events are recorded, one event per counted call.

use std::collections::{BTreeMap, BTreeSet};

use swap_chain::StorageReport;
use swap_digraph::{ArcId, VertexId};
use swap_sim::SimTime;

use crate::event::Trace;
use crate::outcome::Outcome;
use crate::party::Behavior;

/// Per-run configuration: who deviates and for how long the runner waits.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Behavior per vertex; unlisted vertexes conform.
    pub behaviors: BTreeMap<VertexId, Behavior>,
    /// Maximum number of rounds (default: `2·diam + 6`, enough for the
    /// worst-case protocol plus the refund round).
    pub max_rounds: Option<u64>,
    /// Arcs whose published contract is *corrupted* (wrong hashlocks),
    /// modeling a malicious publisher; observers detect and abandon.
    pub corrupt_arcs: BTreeSet<ArcId>,
}

/// Counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Rounds actually executed.
    pub rounds: u64,
    /// Contracts successfully published.
    pub contracts_published: u64,
    /// Successful `unlock` calls.
    pub unlock_calls: u64,
    /// Total wire bytes of successful `unlock` calls (secret + path +
    /// signature chain) — the communication quantity of the O(|A|·|L|)
    /// bound.
    pub unlock_bytes: u64,
    /// Successful `claim` calls.
    pub claim_calls: u64,
    /// Successful `refund` calls.
    pub refund_calls: u64,
    /// Successful protocol-bypassing direct asset transfers (coalition
    /// behavior, Lemma 3.4).
    pub direct_transfers: u64,
    /// Calls refused — by a contract, a chain, or because the arc had no
    /// contract to call (or already one to publish over). Each left a
    /// [`crate::event::What::Rejected`] event.
    pub rejected_calls: u64,
    /// Bytes published on the broadcast bulletin.
    pub announce_bytes: u64,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct RunReport {
    /// Outcome per vertex (Figure 3 classification).
    pub outcomes: Vec<Outcome>,
    /// Whether each arc triggered (its transfer irrevocably happened).
    pub arc_triggered: Vec<bool>,
    /// When each arc triggered (first instant its contract became fully
    /// unlocked, or the direct transfer executed).
    pub triggered_at: Vec<Option<SimTime>>,
    /// The instant the last arc triggered, if *all* arcs triggered.
    pub completion: Option<SimTime>,
    /// Whether every published contract reached a terminal state.
    pub settled: bool,
    /// Which parties were conforming (by configuration).
    pub conforming: Vec<bool>,
    /// Which parties abandoned after detecting an invalid contract.
    pub abandoned: Vec<VertexId>,
    /// The execution trace: typed events, rendered on demand (regenerates
    /// the paper's timeline figures).
    pub trace: Trace,
    /// Counters.
    pub metrics: RunMetrics,
    /// Bytes stored across all blockchains (Theorem 4.10's quantity).
    pub storage: StorageReport,
}

impl RunReport {
    /// `true` iff every party ended with `Deal` — the all-conforming
    /// guarantee of Theorem 4.7.
    pub fn all_deal(&self) -> bool {
        self.outcomes.iter().all(|&o| o == Outcome::Deal)
    }

    /// `true` iff no *conforming* party ended `Underwater` — the safety
    /// guarantee of Theorem 4.9.
    pub fn no_conforming_underwater(&self) -> bool {
        self.outcomes
            .iter()
            .zip(&self.conforming)
            .all(|(&o, &conf)| !conf || o != Outcome::Underwater)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::event::What;
    use crate::protocol::ProtocolKind;
    use crate::setup::{SetupConfig, SwapSetup};
    use swap_digraph::generators;
    use swap_sim::SimRng;

    fn run_three_party(config: RunConfig) -> RunReport {
        let d = generators::herlihy_three_party();
        let setup =
            SwapSetup::generate(d, &SetupConfig::default(), &mut SimRng::from_seed(7)).unwrap();
        Engine::lockstep(setup, config, ProtocolKind::Hashkey).run()
    }

    #[test]
    fn all_conforming_three_party_all_deal() {
        let report = run_three_party(RunConfig::default());
        assert!(report.all_deal(), "outcomes: {:?}", report.outcomes);
        assert!(report.settled);
        assert!(report.no_conforming_underwater());
        assert_eq!(report.metrics.contracts_published, 3);
        assert_eq!(report.metrics.claim_calls, 3);
        assert_eq!(report.metrics.refund_calls, 0);
        assert!(report.arc_triggered.iter().all(|&t| t));
    }

    #[test]
    fn figure_1_and_2_timeline() {
        // Δ = 10, T₀ = 0, start = 10. Contracts at Δ·(1,2,3) mid-round;
        // triggers at 4Δ, 5Δ, 6Δ (here mid-round: 35, 45, 55 exec times
        // visible at 40, 50, 60).
        let report = run_three_party(RunConfig::default());
        let publishes = report.trace.ticks_of(|w| matches!(w, What::Published { .. }));
        assert_eq!(publishes, vec![5, 15, 25], "deploys in consecutive rounds");
        let triggers = report.trace.ticks_of(|w| matches!(w, What::Triggered { .. }));
        assert_eq!(triggers, vec![35, 45, 55], "triggers in consecutive rounds");
        // Completion within 2·diam·Δ of the start (Theorem 4.7):
        // 55 - 10 = 45 ≤ 60.
        let completion = report.completion.unwrap();
        let spec_start = 10;
        assert!(completion.ticks() - spec_start <= 60);
    }

    #[test]
    fn two_leader_triangle_conforming() {
        let d = generators::two_leader_triangle();
        let setup =
            SwapSetup::generate(d, &SetupConfig::default(), &mut SimRng::from_seed(8)).unwrap();
        let diam = setup.spec.diam;
        let start = setup.spec.start;
        let delta = setup.spec.delta;
        let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
        assert!(report.all_deal(), "outcomes: {:?}", report.outcomes);
        let completion = report.completion.unwrap();
        assert!(completion <= start + delta.times(2 * diam));
    }

    #[test]
    fn halted_leader_everyone_refunded() {
        let d = generators::herlihy_three_party();
        let setup =
            SwapSetup::generate(d, &SetupConfig::default(), &mut SimRng::from_seed(9)).unwrap();
        let leader = setup.spec.leaders[0];
        let mut config = RunConfig::default();
        config.behaviors.insert(leader, Behavior::Halt { at_round: 0 });
        let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
        // Leader never publishes; nothing propagates; nothing triggers.
        assert!(report.outcomes.iter().all(|&o| o == Outcome::NoDeal));
        assert!(report.no_conforming_underwater());
        assert_eq!(report.metrics.contracts_published, 0);
        assert!(report.completion.is_none());
    }

    #[test]
    fn withholding_leader_all_contracts_refund() {
        let d = generators::herlihy_three_party();
        let setup =
            SwapSetup::generate(d, &SetupConfig::default(), &mut SimRng::from_seed(10)).unwrap();
        let leader = setup.spec.leaders[0];
        let mut config = RunConfig::default();
        config.behaviors.insert(leader, Behavior::WithholdSecret);
        let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
        assert!(report.outcomes.iter().all(|&o| o == Outcome::NoDeal));
        assert!(report.settled, "all contracts should be refunded");
        assert_eq!(report.metrics.refund_calls, 3);
        assert!(report.no_conforming_underwater());
    }

    #[test]
    fn mid_protocol_halt_no_conforming_underwater() {
        // Carol halts right when she should trigger: she alone is damaged
        // (the §1 discussion of who gets hurt).
        let d = generators::herlihy_three_party();
        let carol = d.vertex_by_name("carol").unwrap();
        for halt_round in 0..10 {
            let setup =
                SwapSetup::generate(d.clone(), &SetupConfig::default(), &mut SimRng::from_seed(11))
                    .unwrap();
            let mut config = RunConfig::default();
            config.behaviors.insert(carol, Behavior::Halt { at_round: halt_round });
            let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
            assert!(
                report.no_conforming_underwater(),
                "halt at round {halt_round}: {:?}",
                report.outcomes
            );
        }
    }

    #[test]
    fn corrupt_contract_detected_and_abandoned() {
        let d = generators::herlihy_three_party();
        let setup =
            SwapSetup::generate(d.clone(), &SetupConfig::default(), &mut SimRng::from_seed(12))
                .unwrap();
        // Corrupt the leader's (alice's) published contract on arc a0.
        let mut config = RunConfig::default();
        config.corrupt_arcs.insert(swap_digraph::ArcId::new(0));
        let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
        // Bob sees the bad contract on his entering arc and abandons; the
        // swap dies with refunds; nobody conforming is underwater.
        let bob = d.vertex_by_name("bob").unwrap();
        assert!(report.abandoned.contains(&bob));
        assert!(report.no_conforming_underwater());
        assert!(!report.arc_triggered.iter().any(|&t| t));
    }

    #[test]
    fn premature_reveal_hurts_only_the_leaker() {
        // Irrational Alice reveals s at round 0. Bob and Carol can exploit
        // the leak, but Alice must not drag any conforming party underwater.
        let d = generators::herlihy_three_party();
        let setup =
            SwapSetup::generate(d.clone(), &SetupConfig::default(), &mut SimRng::from_seed(13))
                .unwrap();
        let leader = setup.spec.leaders[0];
        let mut config = RunConfig::default();
        config.behaviors.insert(leader, Behavior::PrematureReveal);
        let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
        assert!(report.no_conforming_underwater(), "outcomes: {:?}", report.outcomes);
        for (i, &o) in report.outcomes.iter().enumerate() {
            if VertexId::new(i as u32) != leader {
                assert!(o.is_acceptable());
            }
        }
    }

    #[test]
    fn no_claim_still_counts_as_triggered() {
        let d = generators::herlihy_three_party();
        let setup =
            SwapSetup::generate(d.clone(), &SetupConfig::default(), &mut SimRng::from_seed(14))
                .unwrap();
        let bob = d.vertex_by_name("bob").unwrap();
        let mut config = RunConfig::default();
        config.behaviors.insert(bob, Behavior::NoClaim);
        let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
        // Bob never claims his entering arc, but it is fully unlocked, so
        // everyone still ends in Deal.
        assert!(report.all_deal(), "outcomes: {:?}", report.outcomes);
        assert!(!report.settled, "bob's entering arc is never terminal");
    }

    #[test]
    fn broadcast_optimization_still_all_deal() {
        let d = generators::two_leader_triangle();
        let mut setup =
            SwapSetup::generate(d, &SetupConfig::default(), &mut SimRng::from_seed(15)).unwrap();
        setup.spec.broadcast_arcs = true;
        let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
        assert!(report.all_deal(), "outcomes: {:?}", report.outcomes);
        assert!(report.metrics.announce_bytes > 0, "leaders must announce");
    }

    #[test]
    fn never_publish_deviator_cannot_hurt_conforming() {
        let d = generators::two_leader_triangle();
        for victim in 0..3u32 {
            let setup =
                SwapSetup::generate(d.clone(), &SetupConfig::default(), &mut SimRng::from_seed(16))
                    .unwrap();
            let mut config = RunConfig::default();
            config.behaviors.insert(VertexId::new(victim), Behavior::NeverPublish { arcs: None });
            let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
            assert!(report.no_conforming_underwater(), "deviator {victim}: {:?}", report.outcomes);
        }
    }

    #[test]
    fn metrics_unlock_accounting() {
        let report = run_three_party(RunConfig::default());
        // |A| = 3 arcs, |L| = 1 leader → 3 unlocks.
        assert_eq!(report.metrics.unlock_calls, 3);
        assert!(report.metrics.unlock_bytes > 0);
        assert_eq!(report.metrics.rejected_calls, 0);
        assert_eq!(report.metrics.direct_transfers, 0, "nobody bypasses the protocol");
        assert!(report.storage.total_bytes() > 0);
        assert!(report.storage.contract_bytes > 0);
    }

    #[test]
    fn direct_coalition_counts_direct_transfers() {
        // An all-Direct coalition bypasses contracts entirely: every arc's
        // asset moves by direct transfer and the metric counts each one.
        let d = generators::herlihy_three_party();
        let setup =
            SwapSetup::generate(d.clone(), &SetupConfig::default(), &mut SimRng::from_seed(17))
                .unwrap();
        let mut config = RunConfig::default();
        for v in d.vertices() {
            config.behaviors.insert(v, Behavior::Direct { skip_arcs: vec![] });
        }
        let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
        assert_eq!(report.metrics.direct_transfers, d.arc_count() as u64);
        assert_eq!(report.metrics.contracts_published, 0);
        assert!(report.arc_triggered.iter().all(|&t| t), "all assets moved");
        assert!(report.all_deal(), "outcomes: {:?}", report.outcomes);
    }
}
