//! The §4.6 single-leader timeout analysis: the Lemma 4.13 timeout
//! assignment.
//!
//! When the swap digraph needs only one leader `v̂`, the subdigraph of
//! followers is acyclic and each arc `(u, v)` can carry the classic HTLC
//! timeout
//!
//! ```text
//! t(u, v) = T₀ + (diam + D(v, v̂) + 1) · Δ
//! ```
//!
//! where `D(v, v̂)` is the longest path from `v` to the leader
//! (Lemma 4.13). [`assign_timeouts`] reads everything but `D` off the
//! spec it serves: its one leader, `T₀ = start − Δ` (round 0 opens one Δ
//! before the protocol start), and the `diam` the spec publishes. The
//! follower subdigraph is a DAG, so every `D(v, v̂)` comes from one pass
//! over it in reverse topological order. For the §1 three-way swap this
//! yields the 6Δ/5Δ/4Δ timelocks of Figure 1. With more than one leader no
//! such assignment exists — the follower subdigraph has a cycle and the
//! required ≥Δ gap cannot hold around it (Figure 6, right) — and
//! [`assign_timeouts`] reports that cycle as [`TimeoutError::FollowerCycle`].
//!
//! The protocol that *runs* on these timeouts is
//! [`crate::protocol::ProtocolKind::Htlc`], executed by the shared
//! event-driven [`crate::engine::Engine`] — there is no separate
//! single-leader runner.

use std::collections::BTreeSet;
use std::fmt;

use swap_contract::SwapSpec;
use swap_digraph::{algo, fvs, Digraph, FeedbackVertexSet, VertexId};
use swap_sim::SimTime;

/// Why per-arc timeouts cannot be assigned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimeoutError {
    /// The claimed leader is not a feedback vertex on its own: followers
    /// still contain a cycle (the Figure 6 obstruction).
    FollowerCycle {
        /// A cycle among followers.
        witness: Vec<VertexId>,
    },
    /// The digraph is not strongly connected.
    NotStronglyConnected,
    /// A follower cannot reach the leader (cannot happen when strongly
    /// connected; reported defensively).
    LeaderUnreachable(VertexId),
    /// The spec does not have exactly one leader, so the §4.6 protocol
    /// does not apply at all.
    NotSingleLeader {
        /// How many leaders the spec elected.
        leaders: usize,
    },
}

impl fmt::Display for TimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeoutError::FollowerCycle { witness } => {
                write!(f, "follower subdigraph has a cycle: {witness:?}")
            }
            TimeoutError::NotStronglyConnected => write!(f, "digraph not strongly connected"),
            TimeoutError::LeaderUnreachable(v) => write!(f, "{v} cannot reach the leader"),
            TimeoutError::NotSingleLeader { leaders } => {
                write!(f, "spec has {leaders} leaders; the §4.6 protocol needs exactly one")
            }
        }
    }
}

impl std::error::Error for TimeoutError {}

/// Computes the Lemma 4.13 timeout for every arc of `spec`: index `i` of
/// the result corresponds to `ArcId(i)`.
///
/// # Errors
///
/// Fails when the spec does not have exactly one leader, its digraph is
/// not strongly connected, or the leader is not a feedback vertex on its
/// own.
pub fn assign_timeouts(spec: &SwapSpec) -> Result<Vec<SimTime>, TimeoutError> {
    let digraph = &spec.digraph;
    let &[leader] = spec.leaders.as_slice() else {
        return Err(TimeoutError::NotSingleLeader { leaders: spec.leaders.len() });
    };
    if !digraph.is_strongly_connected() {
        return Err(TimeoutError::NotStronglyConnected);
    }
    let followers = digraph.delete_vertices(&BTreeSet::from([leader]));
    let Some(order) = algo::topological_order(&followers) else {
        let witness = fvs::find_cycle(&followers).unwrap_or_default();
        return Err(TimeoutError::FollowerCycle { witness });
    };
    // `D(v, v̂)`: every successor of a follower is the leader or comes
    // later in `order`, so walking it backwards finds each one settled.
    let mut to_leader = vec![None; digraph.vertex_count()];
    to_leader[leader.index()] = Some(0);
    for &v in order.iter().rev().filter(|&&v| v != leader) {
        to_leader[v.index()] =
            digraph.out_arcs(v).filter_map(|arc| to_leader[arc.tail.index()]).max().map(|d| d + 1);
    }
    let t0 = spec.start - spec.delta.times(1);
    digraph
        .arcs()
        .map(|arc| {
            let dist =
                to_leader[arc.tail.index()].ok_or(TimeoutError::LeaderUnreachable(arc.tail))?;
            Ok(t0 + spec.delta.times(spec.diam + dist + 1))
        })
        .collect()
}

/// Convenience: picks a minimum feedback vertex set and reports whether it
/// is a singleton (i.e. whether the single-leader protocol applies at all).
pub fn single_leader_of(digraph: &Digraph) -> Option<VertexId> {
    let fvs = FeedbackVertexSet::minimum(digraph)?;
    let vs = fvs.vertices();
    if vs.len() == 1 {
        vs.iter().next().copied()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_contract::testkit::spec_for;
    use swap_digraph::generators;

    #[test]
    fn figure_1_timeout_values() {
        // Leader alice, Δ = 10, start = Δ so T₀ = 0: the 6Δ/5Δ/4Δ of Figure 1.
        let d = generators::herlihy_three_party();
        let alice = d.vertex_by_name("alice").unwrap();
        let timeouts = assign_timeouts(&spec_for(d, vec![alice])).unwrap();
        let by_arc: Vec<u64> = timeouts.iter().map(|t| t.ticks()).collect();
        // Arcs in insertion order: a→b, b→c, c→a.
        assert_eq!(by_arc, vec![60, 50, 40]);
    }

    #[test]
    fn the_ladder_hangs_off_the_published_diam_and_start() {
        let d = generators::herlihy_three_party();
        let alice = d.vertex_by_name("alice").unwrap();
        let mut spec = spec_for(d, vec![alice]);
        spec.diam = 5;
        spec.start = SimTime::from_ticks(30);
        let by_arc: Vec<u64> = assign_timeouts(&spec).unwrap().iter().map(|t| t.ticks()).collect();
        // T₀ = 20; (5 + D + 1)·10 with D = 2, 1, 0.
        assert_eq!(by_arc, vec![100, 90, 80]);
    }

    #[test]
    fn follower_gap_property() {
        // Lemma 4.13: entering timeouts exceed leaving timeouts by ≥ Δ for
        // every follower, across several single-leader families.
        for d in [generators::cycle(5), generators::star(4), generators::flower(3, 3)] {
            let leader = single_leader_of(&d).expect("single-leader family");
            let spec = spec_for(d, vec![leader]);
            let timeouts = assign_timeouts(&spec).unwrap();
            let d = &spec.digraph;
            for v in d.vertices().filter(|&v| v != leader) {
                for entering in d.in_arcs(v) {
                    for leaving in d.out_arcs(v) {
                        let te = timeouts[entering.id.index()];
                        let tl = timeouts[leaving.id.index()];
                        assert!(
                            te >= tl + spec.delta.times(1),
                            "follower {v}: entering {te} vs leaving {tl}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_leader_digraph_rejected() {
        let spec = spec_for(generators::two_leader_triangle(), vec![VertexId::new(0)]);
        let err = assign_timeouts(&spec).unwrap_err();
        assert!(matches!(err, TimeoutError::FollowerCycle { witness } if !witness.is_empty()));
    }

    #[test]
    fn not_strongly_connected_rejected() {
        let spec = spec_for(generators::one_way_pair(), vec![VertexId::new(0)]);
        assert_eq!(assign_timeouts(&spec).unwrap_err(), TimeoutError::NotStronglyConnected);
    }

    #[test]
    fn leader_count_other_than_one_rejected() {
        let d = generators::two_leader_triangle();
        let spec = spec_for(d, vec![VertexId::new(0), VertexId::new(1)]);
        assert_eq!(
            assign_timeouts(&spec).unwrap_err(),
            TimeoutError::NotSingleLeader { leaders: 2 }
        );
    }

    #[test]
    fn single_leader_of_detection() {
        assert!(single_leader_of(&generators::herlihy_three_party()).is_some());
        assert!(single_leader_of(&generators::two_leader_triangle()).is_none());
    }

    #[test]
    fn error_display() {
        assert!(TimeoutError::NotSingleLeader { leaders: 2 }.to_string().contains("2 leaders"));
        assert!(TimeoutError::NotStronglyConnected.to_string().contains("strongly"));
    }
}
