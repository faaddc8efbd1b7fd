//! Party state machines: the conforming protocol of §4.5 and the deviating
//! behaviors used to exercise the paper's game-theoretic claims.
//!
//! Parties are *reactive*: once per protocol round (one round = one Δ), each
//! party receives a `View` — a snapshot of everything publicly readable as
//! of the round boundary — and emits [`Action`]s. The runner applies actions
//! transactionally, so a round's actions are based strictly on the previous
//! round's state, which is exactly the Δ-delay timing model the paper's
//! bounds assume.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use swap_contract::{SwapSpec, UnlockRecord};
use swap_crypto::{MssKeypair, Secret, SigChain};
use swap_digraph::{ArcId, VertexId, VertexPath};
use swap_sim::SimTime;

/// What one arc's general swap contract looks like to observers at a round
/// boundary (`None` entries in the runner's table mean "no contract
/// published yet").
#[derive(Debug, Clone)]
pub(crate) struct ContractSnapshot {
    /// Unlock record per hashlock index, if unlocked.
    pub unlock_records: Vec<Option<UnlockRecord>>,
    /// Whether every hashlock is unlocked.
    pub fully_unlocked: bool,
    /// Whether the counterparty has claimed.
    pub claimed: bool,
    /// Whether the party has been refunded.
    pub refunded: bool,
    /// Whether the contract matches the published spec for this arc
    /// (parties verify and abandon otherwise, §4.5).
    pub valid: bool,
}

/// What one arc's classic HTLC looks like to observers at a round boundary
/// (§4.6 single-leader protocol).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HtlcSnapshot {
    /// The revealed secret, if the contract triggered — publicly readable,
    /// which is exactly how secrets propagate without hashkeys.
    pub revealed: Option<Secret>,
    /// Whether the transfer fired.
    pub triggered: bool,
    /// Whether the asset was refunded.
    pub refunded: bool,
    /// Whether the contract matches the published spec for this arc —
    /// right hashlock, right Lemma 4.13 timeout, right parties and asset.
    /// Conforming observers treat an invalid contract as absent (the §4.6
    /// analogue of §4.5's verify-and-abandon).
    pub valid: bool,
}

/// A flavor-tagged contract observation: the engine snapshots whatever
/// contract flavor the active `SwapProtocol` hosts, and
/// party strategies project the flavor they understand.
#[derive(Debug, Clone)]
pub(crate) enum ArcSnapshot {
    /// A general multi-leader swap contract (§4.5).
    Swap(ContractSnapshot),
    /// A classic two-party HTLC (§4.6).
    Htlc(HtlcSnapshot),
}

impl ArcSnapshot {
    /// The swap-contract view, if that is the flavor.
    pub(crate) fn as_swap(&self) -> Option<&ContractSnapshot> {
        match self {
            ArcSnapshot::Swap(s) => Some(s),
            ArcSnapshot::Htlc(_) => None,
        }
    }

    /// The HTLC view, if that is the flavor.
    pub(crate) fn as_htlc(&self) -> Option<&HtlcSnapshot> {
        match self {
            ArcSnapshot::Htlc(s) => Some(s),
            ArcSnapshot::Swap(_) => None,
        }
    }
}

/// A broadcast-bulletin entry: a leader's secret with its base signature,
/// published on the shared broadcast medium (§4.5 optimization) or leaked
/// prematurely by an irrational leader (§1).
#[derive(Debug, Clone)]
pub(crate) struct BulletinEntry {
    /// The leader index of the secret.
    pub leader_index: usize,
    /// The revealed secret.
    pub secret: Secret,
    /// The leader's base chain `sig(s, ℓ)`.
    pub base_sig: SigChain,
}

/// The publicly readable world, as of a round boundary.
#[derive(Debug)]
pub(crate) struct View<'a> {
    /// The swap spec.
    pub spec: &'a SwapSpec,
    /// Current round number (round 0 = spec publication).
    pub round: u64,
    /// The instant of this round boundary.
    pub now: SimTime,
    /// Per-arc contract snapshots (`None` = not yet published/visible).
    pub contracts: &'a [Option<ArcSnapshot>],
    /// Visible bulletin entries, shared with the engine's master list
    /// (`Arc` — promoting an entry to visibility must not copy its
    /// multi-KB base signature per observer).
    pub bulletin: &'a [Arc<BulletinEntry>],
}

/// An action a party submits this round. Actions execute during the round
/// (visible to others at the next round boundary).
#[derive(Debug, Clone)]
pub enum Action {
    /// Publish the swap contract on `arc` (escrowing the arc's asset).
    Publish {
        /// The arc to publish on.
        arc: ArcId,
    },
    /// Call `unlock` on `arc`'s contract.
    Unlock {
        /// The target arc.
        arc: ArcId,
        /// Hashlock index.
        index: usize,
        /// The secret.
        secret: Secret,
        /// The hashkey path.
        path: VertexPath,
        /// The signature chain.
        sig: SigChain,
    },
    /// Call `claim` on `arc`'s contract.
    Claim {
        /// The target arc.
        arc: ArcId,
    },
    /// Call `refund` on `arc`'s contract.
    Refund {
        /// The target arc.
        arc: ArcId,
    },
    /// Present the plain secret to `arc`'s HTLC (§4.6 — no path, no
    /// signature chain).
    Reveal {
        /// The target arc.
        arc: ArcId,
        /// The hashlock preimage.
        secret: Secret,
    },
    /// Bypass the protocol entirely: transfer the arc's asset directly to
    /// the counterparty (only coalitions do this).
    DirectTransfer {
        /// The arc whose asset to hand over.
        arc: ArcId,
    },
    /// Publish a secret + base signature on the shared bulletin.
    Announce {
        /// Leader index of the secret.
        leader_index: usize,
        /// The secret.
        secret: Secret,
        /// Base chain `sig(s, ℓ)`.
        base_sig: SigChain,
    },
}

/// How a party behaves. `Conforming` is the paper's protocol; everything
/// else is a deviation used by the atomicity experiments.
#[derive(Debug, Clone, Default)]
pub enum Behavior {
    /// Follows §4.5 exactly (plus claims and refunds).
    #[default]
    Conforming,
    /// Conforming until `at_round`, then crashes silently.
    Halt {
        /// First round at which the party does nothing.
        at_round: u64,
    },
    /// Conforming, but never publishes contracts on the listed leaving arcs
    /// (`None` = withholds all of them).
    NeverPublish {
        /// Specific arcs to withhold, or `None` for all.
        arcs: Option<Vec<ArcId>>,
    },
    /// Publishes contracts but never issues or propagates any hashkey
    /// (a leader that goes silent in Phase Two).
    WithholdSecret,
    /// The §1 "irrational Alice": announces her secret publicly at round 0,
    /// before Phase One completes, then behaves conformingly.
    PrematureReveal,
    /// Conforming, but never claims (tests that full unlocking alone
    /// already decides asset ownership).
    NoClaim,
    /// Publishes leaving contracts immediately without waiting for entering
    /// contracts — the discipline violation of Lemma 4.11.
    EagerPublish,
    /// Coalition bypass: never touches contracts; directly transfers the
    /// assets of all leaving arcs except `skip_arcs` (used for the
    /// Lemma 3.4 free-ride construction). Still claims anything claimable.
    Direct {
        /// Leaving arcs whose transfers the coalition withholds.
        skip_arcs: Vec<ArcId>,
    },
    /// Plays a fixed script: `(round, action)` pairs and nothing else.
    Scripted {
        /// The scripted actions.
        actions: Vec<(u64, Action)>,
    },
}

/// A party: its identity, secret, behavior, and protocol bookkeeping.
#[derive(Debug)]
pub(crate) struct Party {
    vertex: VertexId,
    keypair: MssKeypair,
    secret: Secret,
    behavior: Behavior,
    published_phase_one: bool,
    abandoned: bool,
    /// Usable hashkey per leader index: the secret, this party's path to
    /// the leader, and the signature chain ending with this party's link.
    /// Built once per secret (signing is a one-time-key expenditure) and
    /// replayed onto entering arcs as their contracts appear.
    hashkeys: BTreeMap<usize, (Secret, VertexPath, SigChain)>,
    /// `(leader index, arc)` unlock calls already submitted.
    unlock_submitted: BTreeSet<(usize, ArcId)>,
    /// Entering arcs already claimed (submitted).
    claimed: BTreeSet<ArcId>,
    /// Leaving arcs already refunded (submitted).
    refunded: BTreeSet<ArcId>,
    direct_done: bool,
}

impl Party {
    /// Creates a party.
    pub(crate) fn new(
        vertex: VertexId,
        keypair: MssKeypair,
        secret: Secret,
        behavior: Behavior,
    ) -> Self {
        Party {
            vertex,
            keypair,
            secret,
            behavior,
            published_phase_one: false,
            abandoned: false,
            hashkeys: BTreeMap::new(),
            unlock_submitted: BTreeSet::new(),
            claimed: BTreeSet::new(),
            refunded: BTreeSet::new(),
            direct_done: false,
        }
    }

    /// Whether the party abandoned the protocol after detecting an invalid
    /// contract.
    pub(crate) fn abandoned(&self) -> bool {
        self.abandoned
    }

    /// One protocol round: observe `view`, emit actions.
    ///
    /// The behavior is dispatched by reference — cloning it per round would
    /// copy entire `Scripted` action vectors on the hot path — and the
    /// scripted drain moves each fired action out of the script instead of
    /// cloning it (fired entries are never replayed).
    pub(crate) fn step(&mut self, view: &View<'_>) -> Vec<Action> {
        if let Behavior::Halt { at_round } = self.behavior {
            if view.round >= at_round {
                return Vec::new();
            }
        }
        if let Behavior::Scripted { actions } = &mut self.behavior {
            let due = actions.iter().take_while(|(round, _)| *round <= view.round).count();
            return actions
                .drain(..due)
                .filter(|(round, _)| *round == view.round)
                .map(|(_, action)| action)
                .collect();
        }
        // Temporarily park the behavior so the strategy methods can borrow
        // the rest of `self` mutably without cloning it.
        let behavior = std::mem::take(&mut self.behavior);
        let out = match &behavior {
            Behavior::Direct { skip_arcs } => self.step_direct(view, skip_arcs),
            behavior => self.step_protocol(view, behavior),
        };
        self.behavior = behavior;
        out
    }

    /// The Lemma 3.4 coalition bypass.
    fn step_direct(&mut self, view: &View<'_>, skip_arcs: &[ArcId]) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.direct_done {
            self.direct_done = true;
            for arc in view.spec.digraph.out_arcs(self.vertex) {
                if !skip_arcs.contains(&arc.id) {
                    actions.push(Action::DirectTransfer { arc: arc.id });
                }
            }
        }
        // Opportunistically claim anything claimable.
        actions.extend(self.claim_ready_arcs(view, &[]));
        actions
    }

    /// The §4.5 protocol with behavior-specific tweaks.
    fn step_protocol(&mut self, view: &View<'_>, behavior: &Behavior) -> Vec<Action> {
        if self.abandoned {
            return Vec::new();
        }
        // §4.5 Phase One: verify every visible contract on arcs entering or
        // leaving me; abandon on any invalid one (a wrong contract flavor
        // is as invalid as wrong hashlocks).
        for arc in
            view.spec.digraph.in_arcs(self.vertex).chain(view.spec.digraph.out_arcs(self.vertex))
        {
            if let Some(snapshot) = &view.contracts[arc.id.index()] {
                if !snapshot.as_swap().is_some_and(|s| s.valid) {
                    self.abandoned = true;
                    return Vec::new();
                }
            }
        }
        let mut actions = Vec::new();
        let is_leader = view.spec.is_leader(self.vertex);

        // Premature reveal: leak the secret on the bulletin at round 0.
        if matches!(behavior, Behavior::PrematureReveal) && view.round == 0 && is_leader {
            if let Ok(base) = SigChain::sign_secret(&mut self.keypair, &self.secret) {
                let leader_index = view.spec.leader_index(self.vertex).expect("is leader");
                actions.push(Action::Announce {
                    leader_index,
                    secret: self.secret,
                    base_sig: base,
                });
            }
        }

        // Phase One publication.
        let all_entering_have_contracts =
            view.spec.digraph.in_arcs(self.vertex).all(|a| view.contracts[a.id.index()].is_some());
        let may_publish = if is_leader || matches!(behavior, Behavior::EagerPublish) {
            true
        } else {
            all_entering_have_contracts
        };
        if !self.published_phase_one && may_publish {
            self.published_phase_one = true;
            for arc in view.spec.digraph.out_arcs(self.vertex) {
                let withheld = match behavior {
                    Behavior::NeverPublish { arcs: None } => true,
                    Behavior::NeverPublish { arcs: Some(list) } => list.contains(&arc.id),
                    _ => false,
                };
                if !withheld {
                    actions.push(Action::Publish { arc: arc.id });
                }
            }
        }

        // Phase Two. Hashkeys are *built* once per secret (each build spends
        // a one-time signing key) and *replayed* onto entering arcs as their
        // contracts appear — a secret learned before an entering contract
        // exists must still unlock that contract later.
        let withholds = matches!(behavior, Behavior::WithholdSecret);
        // Unlocks planned per entering arc this round, for same-round claims.
        let mut planned_unlocks: BTreeMap<ArcId, usize> = BTreeMap::new();
        if !withholds {
            // (a) A leader builds its own hashkey once every entering arc
            // has a contract (§4.5: leaders issue hashkeys in Phase Two
            // only after Phase One completed locally).
            if let Some(my_index) = view.spec.leader_index(self.vertex) {
                if !self.hashkeys.contains_key(&my_index) && all_entering_have_contracts {
                    if let Ok(base) = SigChain::sign_secret(&mut self.keypair, &self.secret) {
                        if view.spec.broadcast_arcs {
                            actions.push(Action::Announce {
                                leader_index: my_index,
                                secret: self.secret,
                                base_sig: base.clone(),
                            });
                        }
                        let path = VertexPath::single(self.vertex);
                        self.hashkeys.insert(my_index, (self.secret, path, base));
                    }
                }
            }
            // (b) Learn secrets observed on leaving arcs' contracts.
            for arc in view.spec.digraph.out_arcs(self.vertex) {
                let Some(snapshot) =
                    view.contracts[arc.id.index()].as_ref().and_then(ArcSnapshot::as_swap)
                else {
                    continue;
                };
                for (i, record) in snapshot.unlock_records.iter().enumerate() {
                    let Some(record) = record else { continue };
                    if self.hashkeys.contains_key(&i) {
                        continue;
                    }
                    // Lemma 4.8: if I appear in the path I have already
                    // signed a hashkey for this secret (it is in my map).
                    if record.path.contains(self.vertex) {
                        continue;
                    }
                    let Ok(extended) = record.sig.extend(&mut self.keypair) else { continue };
                    let path = record.path.prepend(self.vertex);
                    self.hashkeys.insert(i, (record.secret, path, extended));
                }
            }
            // (c) Learn secrets from the bulletin (broadcast optimization,
            // or an adversary's premature leak). A length-one path (v, ℓ)
            // is usable when the real arc exists or broadcast mode is on.
            for entry in view.bulletin {
                let i = entry.leader_index;
                if self.hashkeys.contains_key(&i) {
                    continue;
                }
                let Some(&leader) = view.spec.leaders.get(i) else { continue };
                if leader == self.vertex {
                    continue;
                }
                let arc_exists = view.spec.digraph.has_arc_between(self.vertex, leader);
                if !arc_exists && !view.spec.broadcast_arcs {
                    continue;
                }
                let Ok(extended) = entry.base_sig.extend(&mut self.keypair) else { continue };
                let path = VertexPath::single(leader).prepend(self.vertex);
                self.hashkeys.insert(i, (entry.secret, path, extended));
            }
            // (d) Replay every known hashkey onto every entering arc whose
            // contract exists and has not yet received it.
            for (&i, (secret, path, sig)) in &self.hashkeys {
                for entering in view.spec.digraph.in_arcs(self.vertex) {
                    if view.contracts[entering.id.index()].is_none() {
                        continue;
                    }
                    if !self.unlock_submitted.insert((i, entering.id)) {
                        continue;
                    }
                    *planned_unlocks.entry(entering.id).or_insert(0) += 1;
                    actions.push(Action::Unlock {
                        arc: entering.id,
                        index: i,
                        secret: *secret,
                        path: path.clone(),
                        sig: sig.clone(),
                    });
                }
            }
        }

        // Claims (including same-round claims right after our unlocks).
        if !matches!(behavior, Behavior::NoClaim) {
            let planned: Vec<(ArcId, usize)> =
                planned_unlocks.iter().map(|(&a, &c)| (a, c)).collect();
            actions.extend(self.claim_ready_arcs(view, &planned));
        }

        // Refunds on leaving arcs with dead hashlocks.
        if view.now >= view.spec.all_hashkeys_dead() {
            for arc in view.spec.digraph.out_arcs(self.vertex) {
                if self.refunded.contains(&arc.id) {
                    continue;
                }
                let Some(snapshot) =
                    view.contracts[arc.id.index()].as_ref().and_then(ArcSnapshot::as_swap)
                else {
                    continue;
                };
                if !snapshot.fully_unlocked && !snapshot.claimed && !snapshot.refunded {
                    self.refunded.insert(arc.id);
                    actions.push(Action::Refund { arc: arc.id });
                }
            }
        }
        actions
    }

    /// Claims every entering arc that is (or will become, counting this
    /// round's planned unlocks) fully unlocked.
    fn claim_ready_arcs(&mut self, view: &View<'_>, planned: &[(ArcId, usize)]) -> Vec<Action> {
        let total = view.spec.leaders.len();
        let mut actions = Vec::new();
        for arc in view.spec.digraph.in_arcs(self.vertex) {
            if self.claimed.contains(&arc.id) {
                continue;
            }
            let Some(snapshot) =
                view.contracts[arc.id.index()].as_ref().and_then(ArcSnapshot::as_swap)
            else {
                continue;
            };
            if snapshot.claimed || snapshot.refunded {
                continue;
            }
            let already = snapshot.unlock_records.iter().filter(|r| r.is_some()).count();
            let this_round =
                planned.iter().find(|(a, _)| *a == arc.id).map(|(_, c)| *c).unwrap_or(0);
            if already + this_round >= total {
                self.claimed.insert(arc.id);
                actions.push(Action::Claim { arc: arc.id });
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_contract::testkit::{keypair_for, leader_secret, spec_for};
    use swap_digraph::generators;

    fn three_party() -> (SwapSpec, Vec<Party>) {
        let d = generators::herlihy_three_party();
        let alice = d.vertex_by_name("alice").unwrap();
        let spec = spec_for(d, vec![alice]);
        let parties = spec
            .digraph
            .vertices()
            .map(|v| Party::new(v, keypair_for(v), leader_secret(v), Behavior::Conforming))
            .collect();
        (spec, parties)
    }

    fn empty_view<'a>(
        spec: &'a SwapSpec,
        contracts: &'a [Option<ArcSnapshot>],
        round: u64,
    ) -> View<'a> {
        View {
            spec,
            round,
            now: spec.start + spec.delta.times(round.saturating_sub(1)),
            contracts,
            bulletin: &[],
        }
    }

    fn published_snapshot(spec: &SwapSpec) -> ContractSnapshot {
        ContractSnapshot {
            unlock_records: vec![None; spec.leaders.len()],
            fully_unlocked: false,
            claimed: false,
            refunded: false,
            valid: true,
        }
    }

    #[test]
    fn leader_publishes_at_round_zero() {
        let (spec, mut parties) = three_party();
        let contracts = vec![None, None, None];
        let view = empty_view(&spec, &contracts, 0);
        let leader = spec.leaders[0];
        let actions = parties[leader.index()].step(&view);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Publish { .. }));
        // Not re-published on the next round.
        let view = empty_view(&spec, &contracts, 1);
        assert!(parties[leader.index()].step(&view).is_empty());
    }

    #[test]
    fn follower_waits_for_entering_contracts() {
        let (spec, mut parties) = three_party();
        let bob = spec.digraph.vertex_by_name("bob").unwrap();
        let contracts = vec![None, None, None];
        let view = empty_view(&spec, &contracts, 0);
        assert!(parties[bob.index()].step(&view).is_empty());
        // Once the alice→bob arc has a contract, bob publishes on bob→carol.
        let mut contracts = vec![None, None, None];
        let a_to_b = spec.digraph.arcs().find(|a| a.tail == bob).unwrap().id;
        contracts[a_to_b.index()] = Some(ArcSnapshot::Swap(published_snapshot(&spec)));
        let view = empty_view(&spec, &contracts, 1);
        let actions = parties[bob.index()].step(&view);
        assert_eq!(actions.len(), 1);
        let Action::Publish { arc } = &actions[0] else { panic!("expected publish") };
        assert_eq!(spec.digraph.head(*arc), bob);
    }

    #[test]
    fn leader_issues_hashkey_and_claims_when_all_entering_ready() {
        let (spec, mut parties) = three_party();
        let leader = spec.leaders[0];
        let mut contracts: Vec<Option<ArcSnapshot>> = vec![None, None, None];
        for arc in spec.digraph.arcs() {
            contracts[arc.id.index()] = Some(ArcSnapshot::Swap(published_snapshot(&spec)));
        }
        let view = empty_view(&spec, &contracts, 3);
        let actions = parties[leader.index()].step(&view);
        // One unlock on the single entering arc, plus a same-round claim.
        let unlocks: Vec<_> =
            actions.iter().filter(|a| matches!(a, Action::Unlock { .. })).collect();
        let claims: Vec<_> = actions.iter().filter(|a| matches!(a, Action::Claim { .. })).collect();
        assert_eq!(unlocks.len(), 1);
        assert_eq!(claims.len(), 1);
        let Action::Unlock { path, index, .. } = unlocks[0] else { unreachable!() };
        assert_eq!(*index, 0);
        assert_eq!(path.len(), 0);
        assert_eq!(path.start(), leader);
    }

    #[test]
    fn follower_propagates_observed_secret() {
        let (spec, mut parties) = three_party();
        let alice = spec.digraph.vertex_by_name("alice").unwrap();
        let carol = spec.digraph.vertex_by_name("carol").unwrap();
        // Build alice's unlock record on arc (carol → alice).
        let mut alice_kp = keypair_for(alice);
        let base = SigChain::sign_secret(&mut alice_kp, &leader_secret(alice)).unwrap();
        let record = UnlockRecord {
            secret: leader_secret(alice),
            path: VertexPath::single(alice),
            sig: base,
            at: spec.start,
        };
        let mut contracts: Vec<Option<ArcSnapshot>> = vec![None, None, None];
        for arc in spec.digraph.arcs() {
            let mut snap = published_snapshot(&spec);
            // carol → alice arc carries the unlock.
            if arc.head == carol && arc.tail == alice {
                snap.unlock_records[0] = Some(record.clone());
                snap.fully_unlocked = true;
            }
            contracts[arc.id.index()] = Some(ArcSnapshot::Swap(snap));
        }
        let view = empty_view(&spec, &contracts, 4);
        let actions = parties[carol.index()].step(&view);
        let unlocks: Vec<_> =
            actions.iter().filter(|a| matches!(a, Action::Unlock { .. })).collect();
        assert_eq!(unlocks.len(), 1, "carol unlocks her single entering arc");
        let Action::Unlock { arc, path, sig, .. } = unlocks[0] else { unreachable!() };
        assert_eq!(spec.digraph.tail(*arc), carol);
        assert_eq!(path.vertices(), &[carol, alice]);
        assert_eq!(sig.len(), 2);
        // Claim issued in the same round for her now-fully-unlocked arc.
        assert!(actions.iter().any(|a| matches!(a, Action::Claim { .. })));
        // Second sighting: no duplicate propagation.
        let view = empty_view(&spec, &contracts, 5);
        let again = parties[carol.index()].step(&view);
        assert!(again.iter().all(|a| !matches!(a, Action::Unlock { .. })));
    }

    #[test]
    fn party_abandons_on_invalid_contract() {
        let (spec, mut parties) = three_party();
        let bob = spec.digraph.vertex_by_name("bob").unwrap();
        let mut contracts: Vec<Option<ArcSnapshot>> = vec![None, None, None];
        let a_to_b = spec.digraph.arcs().find(|a| a.tail == bob).unwrap().id;
        let mut bad = published_snapshot(&spec);
        bad.valid = false;
        contracts[a_to_b.index()] = Some(ArcSnapshot::Swap(bad));
        let view = empty_view(&spec, &contracts, 1);
        assert!(parties[bob.index()].step(&view).is_empty());
        assert!(parties[bob.index()].abandoned());
        // Stays abandoned even when things look fine later.
        let mut contracts = vec![None, None, None];
        contracts[a_to_b.index()] = Some(ArcSnapshot::Swap(published_snapshot(&spec)));
        let view = empty_view(&spec, &contracts, 2);
        assert!(parties[bob.index()].step(&view).is_empty());
    }

    #[test]
    fn halted_party_is_silent() {
        let (spec, _) = three_party();
        let leader = spec.leaders[0];
        let mut party = Party::new(
            leader,
            keypair_for(leader),
            leader_secret(leader),
            Behavior::Halt { at_round: 0 },
        );
        let contracts = vec![None, None, None];
        let view = empty_view(&spec, &contracts, 0);
        assert!(party.step(&view).is_empty());
    }

    #[test]
    fn halt_later_allows_earlier_rounds() {
        let (spec, _) = three_party();
        let leader = spec.leaders[0];
        let mut party = Party::new(
            leader,
            keypair_for(leader),
            leader_secret(leader),
            Behavior::Halt { at_round: 1 },
        );
        let contracts = vec![None, None, None];
        let view = empty_view(&spec, &contracts, 0);
        assert!(!party.step(&view).is_empty(), "round 0 still active");
        let view = empty_view(&spec, &contracts, 1);
        assert!(party.step(&view).is_empty(), "round 1 halted");
    }

    #[test]
    fn withholder_publishes_but_never_unlocks() {
        let (spec, _) = three_party();
        let leader = spec.leaders[0];
        let mut party = Party::new(
            leader,
            keypair_for(leader),
            leader_secret(leader),
            Behavior::WithholdSecret,
        );
        let contracts = vec![None, None, None];
        let view = empty_view(&spec, &contracts, 0);
        let actions = party.step(&view);
        assert!(actions.iter().any(|a| matches!(a, Action::Publish { .. })));
        // Even with everything ready, no unlock ever comes.
        let mut contracts: Vec<Option<ArcSnapshot>> = vec![None, None, None];
        for arc in spec.digraph.arcs() {
            contracts[arc.id.index()] = Some(ArcSnapshot::Swap(published_snapshot(&spec)));
        }
        let view = empty_view(&spec, &contracts, 3);
        let actions = party.step(&view);
        assert!(actions.iter().all(|a| !matches!(a, Action::Unlock { .. })));
    }

    #[test]
    fn premature_reveal_announces_at_round_zero() {
        let (spec, _) = three_party();
        let leader = spec.leaders[0];
        let mut party = Party::new(
            leader,
            keypair_for(leader),
            leader_secret(leader),
            Behavior::PrematureReveal,
        );
        let contracts = vec![None, None, None];
        let view = empty_view(&spec, &contracts, 0);
        let actions = party.step(&view);
        assert!(actions.iter().any(|a| matches!(a, Action::Announce { .. })));
    }

    #[test]
    fn bulletin_secret_used_when_arc_to_leader_exists() {
        let (spec, mut parties) = three_party();
        let alice = spec.digraph.vertex_by_name("alice").unwrap();
        let carol = spec.digraph.vertex_by_name("carol").unwrap();
        let mut alice_kp = keypair_for(alice);
        let base = SigChain::sign_secret(&mut alice_kp, &leader_secret(alice)).unwrap();
        let bulletin = vec![Arc::new(BulletinEntry {
            leader_index: 0,
            secret: leader_secret(alice),
            base_sig: base,
        })];
        let mut contracts: Vec<Option<ArcSnapshot>> = vec![None, None, None];
        for arc in spec.digraph.arcs() {
            contracts[arc.id.index()] = Some(ArcSnapshot::Swap(published_snapshot(&spec)));
        }
        let view = View {
            spec: &spec,
            round: 2,
            now: spec.start + spec.delta.times(1),
            contracts: &contracts,
            bulletin: &bulletin,
        };
        // Carol has arc carol→alice, so she can use the leak directly.
        let actions = parties[carol.index()].step(&view);
        assert!(actions.iter().any(|a| matches!(a, Action::Unlock { .. })));
        // Bob has no arc bob→alice; without broadcast mode he cannot use it.
        let bob = spec.digraph.vertex_by_name("bob").unwrap();
        let actions = parties[bob.index()].step(&view);
        assert!(actions.iter().all(|a| !matches!(a, Action::Unlock { .. })));
    }

    #[test]
    fn direct_coalition_transfers_once() {
        let (spec, _) = three_party();
        let alice = spec.digraph.vertex_by_name("alice").unwrap();
        let mut party = Party::new(
            alice,
            keypair_for(alice),
            leader_secret(alice),
            Behavior::Direct { skip_arcs: vec![] },
        );
        let contracts = vec![None, None, None];
        let view = empty_view(&spec, &contracts, 0);
        let actions = party.step(&view);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::DirectTransfer { .. }));
        let view = empty_view(&spec, &contracts, 1);
        assert!(party.step(&view).is_empty());
    }

    #[test]
    fn scripted_party_fires_exactly_on_schedule() {
        let (spec, _) = three_party();
        let alice = spec.digraph.vertex_by_name("alice").unwrap();
        let arc = spec.digraph.arcs().next().unwrap().id;
        let mut party = Party::new(
            alice,
            keypair_for(alice),
            leader_secret(alice),
            Behavior::Scripted {
                actions: vec![(1, Action::Publish { arc }), (3, Action::Refund { arc })],
            },
        );
        let contracts = vec![None, None, None];
        assert!(party.step(&empty_view(&spec, &contracts, 0)).is_empty());
        assert_eq!(party.step(&empty_view(&spec, &contracts, 1)).len(), 1);
        assert!(party.step(&empty_view(&spec, &contracts, 2)).is_empty());
        assert_eq!(party.step(&empty_view(&spec, &contracts, 3)).len(), 1);
        assert!(party.step(&empty_view(&spec, &contracts, 4)).is_empty());
    }

    #[test]
    fn refund_emitted_after_deadline() {
        let (spec, mut parties) = three_party();
        let alice = spec.digraph.vertex_by_name("alice").unwrap();
        let mut contracts: Vec<Option<ArcSnapshot>> = vec![None, None, None];
        for arc in spec.digraph.arcs() {
            contracts[arc.id.index()] = Some(ArcSnapshot::Swap(published_snapshot(&spec)));
        }
        // Well past all_hashkeys_dead; alice's entering arc not unlocked.
        let view = View {
            spec: &spec,
            round: 10,
            now: spec.all_hashkeys_dead(),
            contracts: &contracts,
            bulletin: &[],
        };
        let actions = parties[alice.index()].step(&view);
        let refunds: Vec<_> =
            actions.iter().filter(|a| matches!(a, Action::Refund { .. })).collect();
        assert_eq!(refunds.len(), 1);
        let Action::Refund { arc } = refunds[0] else { unreachable!() };
        assert_eq!(spec.digraph.head(*arc), alice, "refunds own leaving arc");
    }
}
