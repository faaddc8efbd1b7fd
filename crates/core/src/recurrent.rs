//! Recurrent swaps (§5 of the paper).
//!
//! "The swap protocol can be made recurrent by having the leaders
//! distribute the next round's hashlocks in Phase Two of the previous
//! round." This module implements that pipeline: a session runs the same
//! swap digraph repeatedly; in every round the leaders draw the *next*
//! round's secrets and publish the corresponding hashlocks alongside their
//! Phase Two hashkeys, so round `k+1` can begin as soon as round `k`
//! settles, without a fresh market-clearing exchange.
//!
//! The recurring parties keep one signing identity across rounds (which is
//! exactly what the Merkle many-time signature scheme is for — each round
//! consumes a few one-time leaves).

use std::fmt;

use swap_crypto::{Hashlock, MssKeypair, Secret};
use swap_digraph::Digraph;
use swap_market::{BuildError, SpecBuilder};
use swap_sim::{Delta, SimRng, SimTime};

use crate::engine::Engine;
use crate::protocol::ProtocolKind;
use crate::runner::{RunConfig, RunReport};
use crate::setup::SwapSetup;

/// Errors from a recurrent session.
#[derive(Debug, Clone, PartialEq)]
pub enum RecurrentError {
    /// Spec assembly failed (invalid digraph, exhausted keys, …).
    Build(BuildError),
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
    /// The hashlocks that were pre-distributed for the *next* round.
    pub next_hashlocks: Vec<Hashlock>,
    /// When this round's spec started.
    pub started_at: SimTime,
}

/// A recurring swap session over a fixed digraph and fixed identities.
///
/// # Example
///
/// ```
/// use swap_core::recurrent::RecurrentSession;
/// use swap_digraph::generators;
/// use swap_sim::{Delta, SimRng};
///
/// let digraph = generators::herlihy_three_party();
/// let mut session = RecurrentSession::new(
///     digraph,
///     Delta::from_ticks(10),
///     &mut SimRng::from_seed(5),
/// );
/// let rounds = session.run_rounds(3, &mut SimRng::from_seed(6)).unwrap();
/// assert_eq!(rounds.len(), 3);
/// assert!(rounds.iter().all(|r| r.report.all_deal()));
/// ```
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
    /// Fails if the spec cannot be built or the round does not settle with
    /// Deal for every party (a recurrence cannot continue over a broken
    /// round).
    pub fn run_round(&mut self, rng: &mut SimRng) -> Result<RoundSummary, RecurrentError> {
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
        let spec_leader_count = spec.leaders.len();

        // Draw the next round's secrets now — their hashlocks ride along
        // with this round's Phase Two messages (we account for their bytes
        // as announcements).
        let mut next_rng =
            rng.stream_indexed("recurrent/secrets", self.rounds_completed as u64 + 1);
        let next_secrets: Vec<Secret> =
            (0..self.digraph.vertex_count()).map(|_| Secret::random(&mut next_rng)).collect();
        let next_hashlocks: Vec<Hashlock> = next_secrets.iter().map(Secret::hashlock).collect();

        let setup = SwapSetup::from_parts(
            spec,
            self.keypairs.clone(),
            self.committed_secrets.clone(),
            self.now,
        );
        let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
        if !report.all_deal() {
            return Err(RecurrentError::RoundFailed { round: self.rounds_completed });
        }
        // The runner signed with *clones* of the session keypairs, so the
        // master copies still point at the leaves the round just spent.
        // Reusing a one-time leaf forfeits its security, so burn the worst
        // case per party — one leaf per leader secret propagated — before
        // the next round signs anything.
        let leaves_spent = spec_leader_count as u64;
        for kp in &mut self.keypairs {
            for _ in 0..leaves_spent.min(kp.remaining()) {
                let _ = kp.sign(&swap_crypto::sha256::sha256(b"leaf-retired"));
            }
        }
        self.now = report.completion.expect("all-deal run completes") + self.delta.times(2);
        self.committed_secrets = next_secrets;
        self.rounds_completed += 1;
        Ok(RoundSummary { report, next_hashlocks, started_at })
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

#[cfg(test)]
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
    fn works_on_two_leader_digraph() {
        let mut session = RecurrentSession::new(
            generators::two_leader_triangle(),
            Delta::from_ticks(10),
            &mut SimRng::from_seed(7),
        );
        let rounds = session.run_rounds(2, &mut SimRng::from_seed(8)).unwrap();
        assert!(rounds.iter().all(|r| r.report.all_deal()));
    }
}
