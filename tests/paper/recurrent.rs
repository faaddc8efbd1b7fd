//! Recurrent swaps (§5 of the paper).
//!
//! "The swap protocol can be made recurrent by having the leaders
//! distribute the next round's hashlocks in Phase Two of the previous
//! round." This module implements that pipeline: a session runs the same
//! swap digraph repeatedly; in every round the leaders draw the *next*
//! round's secrets and publish the corresponding hashlocks alongside their
//! first Phase Two hashkeys, so round `k+1` can begin as soon as round `k`
//! settles, without a fresh market-clearing exchange. The hashlocks ride on
//! messages the round sends anyway; their bytes are not metered.
//!
//! The recurring parties keep one signing identity across rounds (which is
//! exactly what the Merkle many-time signature scheme is for). Each round
//! signs with a lease of `|L| + 1` one-time leaves split off the identity —
//! the budget the exchange's provisioning leases per swap — so consecutive
//! rounds sign under disjoint leaf windows and no leaf ever signs twice.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use swap_core::{Engine, ProtocolKind, RunConfig, RunReport, SwapSetup, What};
use swap_crypto::{Hashlock, KeysExhaustedError, MssKeypair, Secret};
use swap_digraph::{Digraph, VertexId};
use swap_market::{BuildError, SpecBuilder};
use swap_sim::{Delta, SimRng, SimTime};

/// Errors from a recurrent session.
#[derive(Debug, Clone, PartialEq)]
pub enum RecurrentError {
    /// Spec assembly failed (invalid digraph, …).
    Build(BuildError),
    /// A party's identity has fewer unused leaves than one round leases.
    KeysExhausted {
        /// Zero-based index of the round that could not be funded.
        round: usize,
        /// The party whose identity ran out.
        vertex: VertexId,
        /// The identity's error.
        error: KeysExhaustedError,
    },
    /// A round failed to reach all-Deal, so the pipeline stops (recurrence
    /// assumes the previous round settled).
    RoundFailed {
        /// Zero-based index of the failed round.
        round: usize,
    },
}

impl fmt::Display for RecurrentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecurrentError::Build(e) => write!(f, "{e}"),
            RecurrentError::KeysExhausted { round, vertex, error } => {
                write!(f, "recurrent round {round}: {vertex}: {error}")
            }
            RecurrentError::RoundFailed { round } => {
                write!(f, "recurrent round {round} did not settle in Deal")
            }
        }
    }
}

impl std::error::Error for RecurrentError {}

impl From<BuildError> for RecurrentError {
    fn from(e: BuildError) -> Self {
        RecurrentError::Build(e)
    }
}

/// Summary of one settled recurrent round.
#[derive(Debug)]
pub struct RoundSummary {
    /// The full run report.
    pub report: RunReport,
    /// The hashlocks this round's spec carried (one per leader).
    pub hashlocks: Vec<Hashlock>,
    /// The hashlocks that were pre-distributed for the *next* round (one
    /// per vertex; the next round's leaders' are the ones that matter).
    pub next_hashlocks: Vec<Hashlock>,
    /// When the next round's hashlocks were published: with this round's
    /// first Phase Two hashkey.
    pub next_published_at: SimTime,
    /// When this round's spec started.
    pub started_at: SimTime,
    /// Per vertex, the one-time leaves this round's lease could sign with.
    pub leaf_windows: Vec<Range<u64>>,
    /// Per vertex, the leaves its signatures in the round's on-chain
    /// hashkeys were made with.
    pub leaves_used: Vec<BTreeSet<u64>>,
}

/// A recurring swap session over a fixed digraph and fixed identities.
#[derive(Debug)]
pub struct RecurrentSession {
    digraph: Digraph,
    delta: Delta,
    keypairs: Vec<MssKeypair>,
    /// Secrets committed for the upcoming round (one per vertex; the
    /// leaders' are the ones that matter).
    committed_secrets: Vec<Secret>,
    now: SimTime,
    rounds_completed: usize,
}

impl RecurrentSession {
    /// Creates a session: parties generate long-lived identities and commit
    /// their first-round secrets.
    pub fn new(digraph: Digraph, delta: Delta, rng: &mut SimRng) -> Self {
        let n = digraph.vertex_count();
        let mut key_rng = rng.stream("recurrent/keys");
        // Height 7 = 128 one-time keys: enough for dozens of rounds.
        let keypairs: Vec<MssKeypair> =
            (0..n).map(|_| MssKeypair::from_seed_with_height(key_rng.bytes32(), 7)).collect();
        let mut secret_rng = rng.stream("recurrent/secrets/0");
        let committed_secrets = (0..n).map(|_| Secret::random(&mut secret_rng)).collect();
        RecurrentSession {
            digraph,
            delta,
            keypairs,
            committed_secrets,
            now: SimTime::ZERO,
            rounds_completed: 0,
        }
    }

    /// Number of rounds settled so far.
    pub fn rounds_completed(&self) -> usize {
        self.rounds_completed
    }

    /// The session clock (advances past each settled round).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Runs one round with the currently committed secrets, drawing and
    /// distributing the next round's hashlocks during it.
    ///
    /// # Errors
    ///
    /// Fails if the spec cannot be built, an identity cannot fund the
    /// round's lease, or the round does not settle with Deal for every
    /// party (a recurrence cannot continue over a broken round).
    pub fn run_round(&mut self, rng: &mut SimRng) -> Result<RoundSummary, RecurrentError> {
        let round = self.rounds_completed;
        // Build this round's spec from the committed secrets.
        let mut builder = SpecBuilder::new(self.digraph.clone());
        builder.delta(self.delta).start(self.now + self.delta.times(1));
        for v in self.digraph.vertices() {
            builder.identity(
                v,
                self.keypairs[v.index()].public_key(),
                self.committed_secrets[v.index()].hashlock(),
            );
        }
        let spec = builder.build()?;
        let started_at = spec.start;
        let hashlocks = spec.hashlocks.clone();

        // Lease each identity the budget the exchange's provisioning leases
        // per swap: one leaf per leader secret the party signs a hashkey
        // for, plus one for a leader that also signs an early announcement.
        // The next round's lease starts past every leaf this one may spend.
        let budget = spec.leaders.len() as u64 + 1;
        let mut leases = Vec::with_capacity(self.keypairs.len());
        for (i, kp) in self.keypairs.iter_mut().enumerate() {
            let vertex = VertexId::new(i as u32);
            let lease = kp.lease(budget);
            leases.push(lease.map_err(|error| RecurrentError::KeysExhausted {
                round,
                vertex,
                error,
            })?);
        }
        let leaf_windows = leases.iter().map(|l| l.next_leaf()..l.limit()).collect();

        // Draw the next round's secrets now — their hashlocks ride along
        // with this round's Phase Two messages.
        let mut next_rng = rng.stream_indexed("recurrent/secrets", round as u64 + 1);
        let next_secrets: Vec<Secret> =
            (0..self.digraph.vertex_count()).map(|_| Secret::random(&mut next_rng)).collect();
        let next_hashlocks: Vec<Hashlock> = next_secrets.iter().map(Secret::hashlock).collect();

        let setup = SwapSetup::from_parts(spec, leases, self.committed_secrets.clone(), self.now);
        let (report, after) =
            Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run_full();
        if !report.all_deal() {
            return Err(RecurrentError::RoundFailed { round });
        }
        // A hashkey's path runs from its presenter to the leader, and its
        // chain's links from the leader's signature to the presenter's.
        let mut leaves_used = vec![BTreeSet::new(); self.digraph.vertex_count()];
        for (_, chain) in after.chains.iter() {
            for swap in chain.contracts().filter_map(|(_, c)| c.as_swap()) {
                for record in (0..hashlocks.len()).filter_map(|i| swap.unlock_record(i)) {
                    for (v, link) in record.path.vertices().iter().rev().zip(record.sig.links()) {
                        leaves_used[v.index()].insert(link.leaf_index());
                    }
                }
            }
        }
        let next_published_at = report
            .trace
            .events()
            .iter()
            .find(|e| matches!(e.what, What::Unlocked { .. }))
            .expect("an all-deal round unlocks")
            .time;
        self.now = report.completion.expect("all-deal run completes") + self.delta.times(2);
        self.committed_secrets = next_secrets;
        self.rounds_completed += 1;
        Ok(RoundSummary {
            report,
            hashlocks,
            next_hashlocks,
            next_published_at,
            started_at,
            leaf_windows,
            leaves_used,
        })
    }

    /// Runs `count` consecutive rounds.
    ///
    /// # Errors
    ///
    /// Stops at the first failed round.
    pub fn run_rounds(
        &mut self,
        count: usize,
        rng: &mut SimRng,
    ) -> Result<Vec<RoundSummary>, RecurrentError> {
        (0..count).map(|_| self.run_round(rng)).collect()
    }
}

mod tests {
    use super::*;
    use swap_digraph::generators;

    #[test]
    fn three_rounds_all_deal() {
        let mut session = RecurrentSession::new(
            generators::herlihy_three_party(),
            Delta::from_ticks(10),
            &mut SimRng::from_seed(1),
        );
        let rounds = session.run_rounds(3, &mut SimRng::from_seed(2)).unwrap();
        assert_eq!(rounds.len(), 3);
        assert_eq!(session.rounds_completed(), 3);
        for r in &rounds {
            assert!(r.report.all_deal());
            assert_eq!(r.next_hashlocks.len(), 3);
        }
    }

    #[test]
    fn rounds_progress_in_time() {
        let mut session = RecurrentSession::new(
            generators::herlihy_three_party(),
            Delta::from_ticks(10),
            &mut SimRng::from_seed(3),
        );
        let rounds = session.run_rounds(3, &mut SimRng::from_seed(4)).unwrap();
        for w in rounds.windows(2) {
            assert!(w[1].started_at > w[0].started_at);
            assert!(
                w[1].started_at > w[0].report.completion.unwrap(),
                "next round must start after the previous settles"
            );
        }
        assert!(session.now() > SimTime::ZERO);
    }

    #[test]
    fn hashlocks_rotate_every_round() {
        let mut session = RecurrentSession::new(
            generators::herlihy_three_party(),
            Delta::from_ticks(10),
            &mut SimRng::from_seed(5),
        );
        let rounds = session.run_rounds(2, &mut SimRng::from_seed(6)).unwrap();
        // Next-round hashlocks differ between rounds (fresh secrets).
        assert_ne!(rounds[0].next_hashlocks, rounds[1].next_hashlocks);
    }

    #[test]
    fn an_exhausted_identity_stops_the_session_with_a_typed_error() {
        // Height 7 mints 128 leaves and a one-leader round leases two from
        // every party, so round 64 finds every identity spent.
        let mut session = RecurrentSession::new(
            generators::herlihy_three_party(),
            Delta::from_ticks(10),
            &mut SimRng::from_seed(9),
        );
        let mut rng = SimRng::from_seed(10);
        let rounds = session.run_rounds(64, &mut rng).unwrap();
        assert_eq!(rounds[63].leaf_windows, vec![126..128; 3]);
        let err = session.run_round(&mut rng).unwrap_err();
        assert!(
            matches!(err, RecurrentError::KeysExhausted { round: 64, vertex, .. } if vertex.index() == 0),
            "{err}"
        );
        assert_eq!(session.rounds_completed(), 64);
    }
}
