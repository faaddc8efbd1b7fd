//! Hashkey analysis helpers (Figure 7 of the paper).
//!
//! A hashkey for hashlock `h_i` on arc `(u, v)` is `(s_i, p, σ)` with `p` a
//! path from `v` to the leader who generated `s_i`. Figure 7 draws, for the
//! two-leader triangle, exactly which `(secret, path)` pairs each arc can
//! accept; [`hashkeys_for_arc`] enumerates them for any digraph, and
//! [`HashkeyTable`] aggregates the per-arc counts the experiment harness
//! prints.

use swap_digraph::path::enumerate_paths;
use swap_digraph::{ArcId, Digraph, VertexId, VertexPath};

/// One admissible hashkey shape: which leader's secret, and the path a
/// counterparty would present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashkeyShape {
    /// Index of the leader (position in the leader vector).
    pub leader_index: usize,
    /// The path from the arc's tail (counterparty) to that leader.
    pub path: VertexPath,
}

/// Enumerates every admissible hashkey shape for `arc`: for each leader,
/// every path from the arc's tail to that leader (the leader's own entering
/// arcs admit the degenerate single-vertex path).
pub fn hashkeys_for_arc(digraph: &Digraph, leaders: &[VertexId], arc: ArcId) -> Vec<HashkeyShape> {
    let tail = digraph.tail(arc);
    let mut shapes = Vec::new();
    for (leader_index, &leader) in leaders.iter().enumerate() {
        for path in enumerate_paths(digraph, tail, leader) {
            shapes.push(HashkeyShape { leader_index, path });
        }
    }
    shapes
}

/// Per-arc hashkey enumeration for a whole digraph — the data behind
/// Figure 7.
#[derive(Debug, Clone)]
pub struct HashkeyTable {
    /// `rows[i]` lists the admissible hashkeys of `ArcId(i)`.
    pub rows: Vec<Vec<HashkeyShape>>,
}

impl HashkeyTable {
    /// Builds the table.
    pub fn build(digraph: &Digraph, leaders: &[VertexId]) -> Self {
        let rows = digraph.arcs().map(|arc| hashkeys_for_arc(digraph, leaders, arc.id)).collect();
        HashkeyTable { rows }
    }

    /// Total number of admissible hashkeys across all arcs.
    pub fn total(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Renders the table as text, one line per (arc, hashkey).
    pub fn render(&self, digraph: &Digraph, leaders: &[VertexId]) -> String {
        let mut out = String::new();
        for (i, row) in self.rows.iter().enumerate() {
            let arc = ArcId::new(i as u32);
            let head = digraph.name(digraph.head(arc));
            let tail = digraph.name(digraph.tail(arc));
            for shape in row {
                let leader = digraph.name(leaders[shape.leader_index]);
                let path: Vec<&str> =
                    shape.path.vertices().iter().map(|&v| digraph.name(v)).collect();
                out.push_str(&format!(
                    "arc {head}->{tail}: secret of {leader} via ({})\n",
                    path.join(",")
                ));
            }
        }
        out
    }
}

mod tests {
    use super::*;
    use swap_digraph::generators;
    use swap_sim::Delta;

    #[test]
    fn three_party_single_leader_counts() {
        // C₃ with leader alice: each arc has exactly one admissible path
        // per secret (one leader, unique routes in a cycle).
        let d = generators::herlihy_three_party();
        let alice = d.vertex_by_name("alice").unwrap();
        let table = HashkeyTable::build(&d, &[alice]);
        // Arc a→b (tail b): path (b,c,a). Arc b→c (tail c): (c,a).
        // Arc c→a (tail a): degenerate (a) plus the full cycle (a,b,c,a).
        assert_eq!(table.rows[0].len(), 1);
        assert_eq!(table.rows[1].len(), 1);
        assert_eq!(table.rows[2].len(), 2);
        assert_eq!(table.total(), 4);
    }

    #[test]
    fn figure_7_two_leader_enumeration() {
        // The two-leader triangle of Figure 7: alice and bob lead. Count
        // paths per arc per secret.
        let d = generators::two_leader_triangle();
        let alice = d.vertex_by_name("alice").unwrap();
        let bob = d.vertex_by_name("bob").unwrap();
        let table = HashkeyTable::build(&d, &[alice, bob]);
        // Every arc must admit at least one hashkey per secret (otherwise
        // the protocol could not trigger it).
        for (i, row) in table.rows.iter().enumerate() {
            for leader_index in 0..2 {
                assert!(
                    row.iter().any(|s| s.leader_index == leader_index),
                    "arc {i} lacks a hashkey for leader {leader_index}"
                );
            }
        }
        // Spot-check: the arc entering alice from carol admits the
        // degenerate alice-path? No — paths start at the arc tail. For arc
        // (carol → alice), tail = alice, so the degenerate path (alice)
        // appears for alice's own secret.
        let ca = d.arcs().find(|a| d.name(a.head) == "carol" && d.name(a.tail) == "alice").unwrap();
        let row = &table.rows[ca.id.index()];
        assert!(row.iter().any(|s| s.leader_index == 0 && s.path.is_empty()));
        let rendered = table.render(&d, &[alice, bob]);
        assert!(rendered.contains("carol->alice"));
        assert!(rendered.contains("secret of bob"));
    }

    #[test]
    fn no_admissible_hashkey_outlives_two_diam() {
        let d = generators::two_leader_triangle();
        let alice = d.vertex_by_name("alice").unwrap();
        let bob = d.vertex_by_name("bob").unwrap();
        let table = HashkeyTable::build(&d, &[alice, bob]);
        let delta = Delta::from_ticks(10);
        let diam = d.diameter() as u64;
        for row in &table.rows {
            for shape in row {
                // The hashkey's timeout `(diam + |p|)·Δ`, offset from the
                // protocol start, never exceeds 2·diam·Δ.
                let offset = delta.times(diam + shape.path.len() as u64);
                assert!(offset.ticks() <= 2 * diam * 10);
            }
        }
    }
}
