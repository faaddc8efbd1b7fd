//! The §4.6 single-leader timeout analysis: Lemma 4.13 timeout assignment
//! and the Figure 6 feasibility check.
//!
//! When the swap digraph needs only one leader `v̂`, the subdigraph of
//! followers is acyclic and each arc `(u, v)` can carry the classic HTLC
//! timeout
//!
//! ```text
//! t(u, v) = T₀ + (diam(D) + D(v, v̂) + 1) · Δ
//! ```
//!
//! where `D(v, v̂)` is the longest path from `v` to the leader
//! (Lemma 4.13). For the §1 three-way swap this yields the 6Δ/5Δ/4Δ
//! timelocks of Figure 1. With more than one leader no such assignment
//! exists — the follower subdigraph has a cycle and the required ≥Δ gap
//! cannot hold around it (Figure 6, right) — which
//! [`timeout_assignment_feasible`] checks directly from the constraint
//! system.
//!
//! The protocol that *runs* on these timeouts is
//! [`crate::protocol::ProtocolKind::Htlc`], executed by the shared
//! event-driven [`crate::engine::Engine`] — there is no separate
//! single-leader runner.

use std::collections::BTreeSet;
use std::fmt;

use swap_digraph::{algo, Digraph, FeedbackVertexSet, VertexId};
use swap_sim::{Delta, SimTime};

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

/// Computes the Lemma 4.13 timeout for every arc: index `i` of the result
/// corresponds to `ArcId(i)`. `t0` is the instant the protocol begins
/// (contract propagation starts), i.e. one Δ before the hashkey protocol's
/// `start`.
///
/// # Errors
///
/// Fails when `leader` is not a sole feedback vertex or the digraph is not
/// strongly connected.
pub fn assign_timeouts(
    digraph: &Digraph,
    leader: VertexId,
    t0: SimTime,
    delta: Delta,
) -> Result<Vec<SimTime>, TimeoutError> {
    if !digraph.is_strongly_connected() {
        return Err(TimeoutError::NotStronglyConnected);
    }
    let removed: BTreeSet<VertexId> = [leader].into_iter().collect();
    let followers = digraph.delete_vertices(&removed);
    if let Some(witness) = swap_digraph::fvs::find_cycle(&followers) {
        return Err(TimeoutError::FollowerCycle { witness });
    }
    let diam = digraph.diameter() as u64;
    digraph
        .arcs()
        .map(|arc| {
            let dist = algo::longest_path_to(digraph, arc.tail, leader)
                .ok_or(TimeoutError::LeaderUnreachable(arc.tail))? as u64;
            Ok(t0 + delta.times(diam + dist + 1))
        })
        .collect()
}

/// Decides whether *any* per-arc timeout assignment satisfies the protocol
/// constraint: for every follower `v`, every arc entering `v` times out at
/// least Δ later than every arc leaving `v`.
///
/// The constraints `t(enter) ≥ t(leave) + Δ` form a difference system whose
/// feasibility is equivalent to the constraint graph (arcs as nodes) being
/// acyclic. This is the formal content of Figure 6: feasible for the
/// single-leader triangle, infeasible as soon as two leaders are needed.
pub fn timeout_assignment_feasible(digraph: &Digraph, leaders: &BTreeSet<VertexId>) -> bool {
    // Constraint edges: leave-arc → enter-arc through each follower.
    let m = digraph.arc_count();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
    for v in digraph.vertices() {
        if leaders.contains(&v) {
            continue;
        }
        for leaving in digraph.out_arcs(v) {
            for entering in digraph.in_arcs(v) {
                adj[leaving.id.index()].push(entering.id.index());
            }
        }
    }
    // Feasible iff no cycle (every cycle would demand t ≥ t + k·Δ).
    let mut color = vec![0u8; m];
    for start in 0..m {
        if color[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color[start] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let w = adj[node][*next];
                *next += 1;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => return false,
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }
    true
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
    use swap_digraph::generators;

    #[test]
    fn figure_1_timeout_values() {
        // Leader alice, Δ = 10, t0 = 0: the 6Δ/5Δ/4Δ of Figure 1.
        let d = generators::herlihy_three_party();
        let alice = d.vertex_by_name("alice").unwrap();
        let timeouts = assign_timeouts(&d, alice, SimTime::ZERO, Delta::from_ticks(10)).unwrap();
        let by_arc: Vec<u64> = timeouts.iter().map(|t| t.ticks()).collect();
        // Arcs in insertion order: a→b, b→c, c→a.
        assert_eq!(by_arc, vec![60, 50, 40]);
    }

    #[test]
    fn follower_gap_property() {
        // Lemma 4.13: entering timeouts exceed leaving timeouts by ≥ Δ for
        // every follower, across several single-leader families.
        for d in [generators::cycle(5), generators::star(4), generators::flower(3, 3)] {
            let leader = single_leader_of(&d).expect("single-leader family");
            let delta = Delta::from_ticks(10);
            let timeouts = assign_timeouts(&d, leader, SimTime::ZERO, delta).unwrap();
            for v in d.vertices() {
                if v == leader {
                    continue;
                }
                for entering in d.in_arcs(v) {
                    for leaving in d.out_arcs(v) {
                        let te = timeouts[entering.id.index()];
                        let tl = timeouts[leaving.id.index()];
                        assert!(
                            te >= tl + delta.times(1),
                            "follower {v}: entering {te} vs leaving {tl}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_leader_digraph_rejected() {
        let d = generators::two_leader_triangle();
        let err = assign_timeouts(&d, VertexId::new(0), SimTime::ZERO, Delta::from_ticks(10))
            .unwrap_err();
        assert!(matches!(err, TimeoutError::FollowerCycle { .. }));
    }

    #[test]
    fn not_strongly_connected_rejected() {
        let d = generators::one_way_pair();
        let err = assign_timeouts(&d, VertexId::new(0), SimTime::ZERO, Delta::from_ticks(10))
            .unwrap_err();
        assert_eq!(err, TimeoutError::NotStronglyConnected);
    }

    #[test]
    fn feasibility_matches_figure_6() {
        // Single-leader triangle: feasible. Two-leader triangle with only
        // one claimed leader: infeasible.
        let tri = generators::herlihy_three_party();
        let alice = tri.vertex_by_name("alice").unwrap();
        let single: BTreeSet<_> = [alice].into();
        assert!(timeout_assignment_feasible(&tri, &single));

        let two = generators::two_leader_triangle();
        let one_claimed: BTreeSet<_> = [VertexId::new(0)].into();
        assert!(!timeout_assignment_feasible(&two, &one_claimed));
        // With both leaders excluded from the constraint set it becomes
        // feasible (but then you need hashkeys to handle two secrets).
        let both: BTreeSet<_> = [VertexId::new(0), VertexId::new(1)].into();
        assert!(timeout_assignment_feasible(&two, &both));
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
