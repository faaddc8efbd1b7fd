//! The *waits-for* digraph of Theorem 4.12's proof.
//!
//! At any point in Phase One, the waits-for digraph `W` is the subdigraph
//! of `Dᵀ` with an arc `(v, u)` whenever arc `(u, v)` of `D` has no
//! published contract: `v` is waiting for `u` before it may publish its own
//! leaving contracts (Lemma 4.11). A follower can act only when its
//! in-degree in `W` is zero, so any all-follower cycle in `W` is a
//! permanent deadlock — which is exactly why the leaders must form a
//! feedback vertex set.
//!
//! The engine demonstrates the deadlock dynamically, and experiment E13
//! checks the parties it leaves unpublished against this module's static
//! analysis: build `W` from a publication state, find who is blocked, and
//! detect deadlocked follower cycles.

use std::collections::BTreeSet;

use swap_digraph::fvs::find_cycle;
use swap_digraph::{Digraph, VertexId};

/// The waits-for digraph `W` for publication state `published`
/// (`published[i]` = arc `i` of `D` has a contract).
///
/// `W` has the same vertex set as `D` and an arc `(v, u)` for every
/// unpublished arc `(u, v)` of `D`.
///
/// # Panics
///
/// Panics if `published.len()` differs from `D`'s arc count.
pub fn waits_for_digraph(digraph: &Digraph, published: &[bool]) -> Digraph {
    assert_eq!(published.len(), digraph.arc_count(), "one flag per arc");
    let mut w = Digraph::new();
    for v in digraph.vertices() {
        w.add_vertex(digraph.name(v));
    }
    for arc in digraph.arcs() {
        if !published[arc.id.index()] {
            w.add_arc(arc.tail, arc.head).expect("same vertex set");
        }
    }
    w
}

/// The followers that may *never* publish from this state onward: vertexes
/// lying on (or only reachable through) all-follower cycles of `W`.
///
/// Computed as a fixpoint: repeatedly discharge vertexes whose waits-for
/// in-degree is zero (leaders discharge unconditionally, as they never wait
/// — §4.5 Phase One). Whatever remains can never reach in-degree zero.
pub fn deadlocked_vertices(
    digraph: &Digraph,
    leaders: &BTreeSet<VertexId>,
    published: &[bool],
) -> Vec<VertexId> {
    let w = waits_for_digraph(digraph, published);
    let n = digraph.vertex_count();
    // blocked[v]: v still waits for someone undischarged.
    let mut discharged = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for v in digraph.vertices() {
            if discharged[v.index()] {
                continue;
            }
            let free = leaders.contains(&v) || w.in_arcs(v).all(|a| discharged[a.head.index()]);
            if free {
                discharged[v.index()] = true;
                changed = true;
            }
        }
    }
    digraph.vertices().filter(|v| !discharged[v.index()]).collect()
}

/// A witness cycle of followers in the waits-for digraph, if one exists —
/// the exact object Theorem 4.12's proof exhibits.
pub fn deadlock_witness(
    digraph: &Digraph,
    leaders: &BTreeSet<VertexId>,
    published: &[bool],
) -> Option<Vec<VertexId>> {
    let w = waits_for_digraph(digraph, published);
    let followers_only = w.delete_vertices(leaders);
    find_cycle(&followers_only)
}

mod tests {
    use super::*;
    use swap_digraph::generators;

    fn none_published(d: &Digraph) -> Vec<bool> {
        vec![false; d.arc_count()]
    }

    #[test]
    fn initial_state_with_fvs_leaders_completes() {
        let d = generators::two_leader_triangle();
        let leaders: BTreeSet<_> = [VertexId::new(0), VertexId::new(1)].into();
        assert!(deadlocked_vertices(&d, &leaders, &none_published(&d)).is_empty());
        assert!(deadlock_witness(&d, &leaders, &none_published(&d)).is_none());
    }

    #[test]
    fn initial_state_without_fvs_leaders_deadlocks() {
        // Theorem 4.12: claiming only {alice} leaves the bob↔carol cycle in
        // the waits-for digraph forever.
        let d = generators::two_leader_triangle();
        let leaders: BTreeSet<_> = [VertexId::new(0)].into();
        let blocked = deadlocked_vertices(&d, &leaders, &none_published(&d));
        assert_eq!(blocked, vec![VertexId::new(1), VertexId::new(2)]);
        let witness = deadlock_witness(&d, &leaders, &none_published(&d)).expect("cycle");
        assert_eq!(witness.len(), 2);
        assert!(!witness.contains(&VertexId::new(0)));
    }

    #[test]
    fn waits_for_shrinks_as_contracts_publish() {
        let d = generators::herlihy_three_party();
        let leaders: BTreeSet<_> = [d.vertex_by_name("alice").unwrap()].into();
        let mut published = none_published(&d);
        let w0 = waits_for_digraph(&d, &published);
        assert_eq!(w0.arc_count(), 3);
        // Alice publishes on alice→bob (arc 0): bob stops waiting.
        published[0] = true;
        let w1 = waits_for_digraph(&d, &published);
        assert_eq!(w1.arc_count(), 2);
        assert!(deadlocked_vertices(&d, &leaders, &published).is_empty());
    }

    #[test]
    fn fully_published_state_has_empty_waits_for() {
        let d = generators::complete(4);
        let published = vec![true; d.arc_count()];
        let w = waits_for_digraph(&d, &published);
        assert_eq!(w.arc_count(), 0);
        let leaders: BTreeSet<_> = BTreeSet::new();
        assert!(deadlocked_vertices(&d, &leaders, &published).is_empty());
    }

    #[test]
    fn mid_protocol_partial_publication_analysis() {
        // Cycle of 4 with leader v0. After v0 publishes, v1 is free but
        // v2, v3 still wait transitively — yet nobody is *deadlocked*.
        let d = generators::cycle(4);
        let leaders: BTreeSet<_> = [VertexId::new(0)].into();
        let mut published = none_published(&d);
        published[0] = true; // v0 → v1
        let blocked = deadlocked_vertices(&d, &leaders, &published);
        assert!(blocked.is_empty(), "waiting is not deadlock: {blocked:?}");
    }

    #[test]
    #[should_panic(expected = "one flag per arc")]
    fn wrong_flag_count_panics() {
        let d = generators::cycle(3);
        let _ = waits_for_digraph(&d, &[true]);
    }
}
