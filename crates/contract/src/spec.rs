//! The swap specification: what the market-clearing service publishes and
//! every contract embeds.
//!
//! §4.2: the clearing service combines offers and publishes a swap digraph
//! `D`, a leader vector `L` forming a feedback vertex set, the leaders'
//! hashlocks, and a starting time `T`. The service is *not trusted* — every
//! party re-validates the spec with [`SwapSpec::validate`], and every
//! published contract carries the spec so counterparties can check published
//! contracts against their own copy (§4.5 Phase One: "verifies that contract
//! is a correct swap contract").

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};
use swap_crypto::{Address, Hashlock, MssPublicKey};
use swap_digraph::algo::EXACT_DIAMETER_LIMIT;
use swap_digraph::{encode, Digraph, FeedbackVertexSet, VertexId};
use swap_sim::{Delta, SimDuration, SimTime};

/// Why a [`SwapSpec`] failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The swap digraph is not strongly connected (Theorem 3.5 forbids the
    /// swap outright).
    NotStronglyConnected,
    /// The leader set is not a feedback vertex set (Theorem 4.12 forbids
    /// the protocol).
    LeadersNotFeedbackVertexSet,
    /// A leader vertex id is out of range.
    UnknownLeaderVertex(VertexId),
    /// The same leader appears twice.
    DuplicateLeader(VertexId),
    /// Hashlock / leader vector lengths differ.
    HashlockCountMismatch {
        /// Number of leaders.
        leaders: usize,
        /// Number of hashlocks.
        hashlocks: usize,
    },
    /// Address or key tables do not cover every vertex.
    IdentityTableMismatch {
        /// Number of vertexes.
        vertices: usize,
        /// Number of addresses provided.
        addresses: usize,
        /// Number of keys provided.
        keys: usize,
    },
    /// The declared diameter is smaller than the digraph requires, which
    /// would make hashkey timeouts unsound.
    DiameterTooSmall {
        /// Declared value.
        declared: u64,
        /// Minimum acceptable value.
        required: u64,
    },
    /// The swap has no leaders at all on a cyclic digraph.
    NoLeaders,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NotStronglyConnected => {
                write!(f, "swap digraph is not strongly connected")
            }
            SpecError::LeadersNotFeedbackVertexSet => {
                write!(f, "leader set is not a feedback vertex set")
            }
            SpecError::UnknownLeaderVertex(v) => write!(f, "leader {v} is not a vertex"),
            SpecError::DuplicateLeader(v) => write!(f, "leader {v} listed twice"),
            SpecError::HashlockCountMismatch { leaders, hashlocks } => {
                write!(f, "{leaders} leaders but {hashlocks} hashlocks")
            }
            SpecError::IdentityTableMismatch { vertices, addresses, keys } => {
                write!(f, "{vertices} vertexes but {addresses} addresses / {keys} keys")
            }
            SpecError::DiameterTooSmall { declared, required } => {
                write!(f, "declared diameter {declared} below required {required}")
            }
            SpecError::NoLeaders => write!(f, "cyclic digraph with no leaders"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The published swap specification.
///
/// Constructed by the market-clearing service; see `swap-market`'s
/// `SpecBuilder` for assembly and the crate tests for worked examples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapSpec {
    /// The swap digraph `D = (V, A)`.
    pub digraph: Digraph,
    /// Leader vertexes `L ⊂ V` (sorted, deduplicated).
    pub leaders: Vec<VertexId>,
    /// Leader hashlocks, parallel to `leaders`.
    pub hashlocks: Vec<Hashlock>,
    /// On-chain address per vertex.
    pub addresses: Vec<Address>,
    /// Signature-verification key per vertex.
    pub keys: Vec<MssPublicKey>,
    /// Protocol start time `T`.
    pub start: SimTime,
    /// The synchrony parameter Δ.
    pub delta: Delta,
    /// The agreed diameter value used in every timeout formula.
    pub diam: u64,
    /// The §4.5 broadcast optimization: when `true`, a logical arc runs from
    /// every vertex directly to every leader, so contracts accept
    /// length-one hashkey paths `(v, ℓ)` even where `D` has no such arc.
    /// Phase Two then completes in constant time when all parties conform.
    #[serde(default)]
    pub broadcast_arcs: bool,
}

impl SwapSpec {
    /// Validates every structural requirement the protocol's theorems rest
    /// on. Conforming parties run this before publishing anything (§4.2:
    /// "the parties can check the consistency of the clearing service's
    /// responses").
    ///
    /// # Errors
    ///
    /// The first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        let n = self.digraph.vertex_count();
        if !self.digraph.is_strongly_connected() {
            return Err(SpecError::NotStronglyConnected);
        }
        let mut seen = BTreeSet::new();
        for &l in &self.leaders {
            if l.index() >= n {
                return Err(SpecError::UnknownLeaderVertex(l));
            }
            if !seen.insert(l) {
                return Err(SpecError::DuplicateLeader(l));
            }
        }
        if self.leaders.is_empty() && !self.digraph.is_acyclic() {
            return Err(SpecError::NoLeaders);
        }
        if !FeedbackVertexSet::is_feedback_vertex_set(&self.digraph, &seen) {
            return Err(SpecError::LeadersNotFeedbackVertexSet);
        }
        if self.hashlocks.len() != self.leaders.len() {
            return Err(SpecError::HashlockCountMismatch {
                leaders: self.leaders.len(),
                hashlocks: self.hashlocks.len(),
            });
        }
        if self.addresses.len() != n || self.keys.len() != n {
            return Err(SpecError::IdentityTableMismatch {
                vertices: n,
                addresses: self.addresses.len(),
                keys: self.keys.len(),
            });
        }
        // Timeout soundness requires diam ≥ |p| for every path p. For small
        // digraphs we check against the exact longest path; beyond the
        // exact-computation limit, the safe |V| bound is required.
        let required = if n <= EXACT_DIAMETER_LIMIT {
            swap_digraph::algo::diameter_exact(&self.digraph).expect("within limit") as u64
        } else {
            n as u64
        };
        if self.diam < required {
            return Err(SpecError::DiameterTooSmall { declared: self.diam, required });
        }
        Ok(())
    }

    /// The address of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range (specs are validated before use).
    pub fn address_of(&self, v: VertexId) -> Address {
        self.addresses[v.index()]
    }

    /// The verification key of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn key_of(&self, v: VertexId) -> &MssPublicKey {
        &self.keys[v.index()]
    }

    /// The index of `v` within the leader vector, if `v` is a leader.
    pub fn leader_index(&self, v: VertexId) -> Option<usize> {
        self.leaders.iter().position(|&l| l == v)
    }

    /// Whether `v` is a leader.
    pub fn is_leader(&self, v: VertexId) -> bool {
        self.leader_index(v).is_some()
    }

    /// The hashkey deadline for a path of length `path_len`:
    /// `T + (diam(D) + |p|)·Δ` (§4.1).
    pub fn hashkey_deadline(&self, path_len: usize) -> SimTime {
        self.start + self.delta.times(self.diam + path_len as u64)
    }

    /// When every conceivable hashkey has expired: `T + 2·diam(D)·Δ`
    /// (`|p| ≤ diam(D)` always). After this instant any still-locked
    /// hashlock is dead and refunds are enabled.
    pub fn all_hashkeys_dead(&self) -> SimTime {
        self.start + self.delta.times(2 * self.diam)
    }

    /// The worst-case protocol duration `2·diam(D)·Δ` (Theorem 4.7).
    pub fn worst_case_duration(&self) -> SimDuration {
        self.delta.times(2 * self.diam)
    }

    /// Persistent bytes this spec occupies inside one contract: the digraph
    /// copy — the `O(|A|)` per-contract term of Theorem 4.10 — plus the
    /// hashlock/address/key tables and scalars.
    pub fn storage_bytes(&self) -> usize {
        encode::encoded_len(&self.digraph)
            + 32 * self.hashlocks.len()
            + 32 * self.addresses.len()
            + 32 * self.keys.len()
            + 4 * self.leaders.len()
            + 8 * 3 // start, delta, diam
            + 1 // broadcast flag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::spec_for;
    use swap_digraph::generators;

    #[test]
    fn valid_three_party_spec() {
        let d = generators::herlihy_three_party();
        let a = d.vertex_by_name("alice").unwrap();
        let spec = spec_for(d, vec![a]);
        spec.validate().unwrap();
        assert!(spec.is_leader(a));
        assert_eq!(spec.leader_index(a), Some(0));
    }

    #[test]
    fn not_strongly_connected_rejected() {
        let d = generators::one_way_pair();
        let spec = spec_for(d, vec![VertexId::new(0)]);
        assert_eq!(spec.validate(), Err(SpecError::NotStronglyConnected));
    }

    #[test]
    fn non_fvs_leaders_rejected() {
        // Two-leader triangle with only one leader: deleting it leaves a
        // 2-cycle.
        let d = generators::two_leader_triangle();
        let spec = spec_for(d, vec![VertexId::new(0)]);
        assert_eq!(spec.validate(), Err(SpecError::LeadersNotFeedbackVertexSet));
    }

    #[test]
    fn no_leaders_on_cyclic_rejected() {
        let d = generators::herlihy_three_party();
        let spec = spec_for(d, vec![]);
        assert_eq!(spec.validate(), Err(SpecError::NoLeaders));
    }

    #[test]
    fn unknown_and_duplicate_leaders_rejected() {
        let d = generators::herlihy_three_party();
        let spec = spec_for(d.clone(), vec![VertexId::new(9)]);
        assert_eq!(spec.validate(), Err(SpecError::UnknownLeaderVertex(VertexId::new(9))));
        let spec = spec_for(d, vec![VertexId::new(0), VertexId::new(0)]);
        assert_eq!(spec.validate(), Err(SpecError::DuplicateLeader(VertexId::new(0))));
    }

    #[test]
    fn hashlock_mismatch_rejected() {
        let d = generators::herlihy_three_party();
        let mut spec = spec_for(d, vec![VertexId::new(0)]);
        spec.hashlocks.clear();
        assert_eq!(
            spec.validate(),
            Err(SpecError::HashlockCountMismatch { leaders: 1, hashlocks: 0 })
        );
    }

    #[test]
    fn identity_table_mismatch_rejected() {
        let d = generators::herlihy_three_party();
        let mut spec = spec_for(d, vec![VertexId::new(0)]);
        spec.addresses.pop();
        assert!(matches!(spec.validate(), Err(SpecError::IdentityTableMismatch { .. })));
    }

    #[test]
    fn undersized_diameter_rejected() {
        let d = generators::herlihy_three_party();
        let mut spec = spec_for(d, vec![VertexId::new(0)]);
        spec.diam = 2; // true diameter is 3
        assert_eq!(spec.validate(), Err(SpecError::DiameterTooSmall { declared: 2, required: 3 }));
    }

    #[test]
    fn oversized_diameter_accepted() {
        // Looser diameters are sound (just slower to refund).
        let d = generators::herlihy_three_party();
        let mut spec = spec_for(d, vec![VertexId::new(0)]);
        spec.diam = 100;
        spec.validate().unwrap();
    }

    #[test]
    fn timeout_formulas() {
        let d = generators::herlihy_three_party();
        let spec = spec_for(d, vec![VertexId::new(0)]);
        // start = 10, Δ = 10, diam = 3.
        assert_eq!(spec.hashkey_deadline(0), SimTime::from_ticks(10 + 30));
        assert_eq!(spec.hashkey_deadline(2), SimTime::from_ticks(10 + 50));
        assert_eq!(spec.all_hashkeys_dead(), SimTime::from_ticks(10 + 60));
        assert_eq!(spec.worst_case_duration().ticks(), 60);
    }

    #[test]
    fn storage_includes_digraph_copy() {
        let d3 = spec_for(generators::herlihy_three_party(), vec![VertexId::new(0)]);
        let d6 = spec_for(
            generators::complete(4),
            vec![VertexId::new(0), VertexId::new(1), VertexId::new(2)],
        );
        // More arcs → strictly more storage per contract.
        assert!(d6.storage_bytes() > d3.storage_bytes());
    }

    #[test]
    fn error_display_messages() {
        assert!(SpecError::NotStronglyConnected.to_string().contains("strongly"));
        assert!(SpecError::DiameterTooSmall { declared: 1, required: 3 }
            .to_string()
            .contains("below"));
    }
}
