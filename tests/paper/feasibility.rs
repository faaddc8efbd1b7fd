//! The Figure 6 feasibility check of §4.6.
//!
//! The single-leader protocol needs per-arc timeouts such that, for every
//! follower `v`, every arc entering `v` times out at least Δ later than
//! every arc leaving `v`. [`timeout_assignment_feasible`] decides from that
//! constraint system alone whether *any* such assignment exists; E10 checks
//! it against Figure 6. For a single leader, the engine's `assign_timeouts`
//! builds the Lemma 4.13 ladder whenever one exists.

use std::collections::BTreeSet;

use swap_digraph::{Digraph, VertexId};

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

mod tests {
    use super::*;
    use swap_digraph::generators;

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
}
