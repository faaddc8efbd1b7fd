//! Vertex paths, with the paper's exact path semantics.
//!
//! A path `(u₀, …, u_ℓ)` requires `u₀, …, u_{ℓ-1}` to be distinct; the final
//! vertex may equal the first (closing a cycle). Hashkeys carry such paths
//! from a counterparty back to the leader who generated a secret, and the
//! swap contract's `unlock` function validates them (Figure 5, line 30).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::digraph::Digraph;
use crate::ids::VertexId;

/// A non-empty sequence of vertexes forming a candidate path.
///
/// The paper writes `v + p` for prepending vertex `v` to path `p`; that is
/// [`VertexPath::prepend`]. Path *length* counts arcs, so a single-vertex
/// path has length 0 (the "degenerate path" a leader uses to unlock its own
/// entering arcs).
///
/// # Example
///
/// ```
/// use swap_digraph::{generators, VertexPath};
/// let d = generators::herlihy_three_party();
/// let a = d.vertex_by_name("alice").unwrap();
/// let b = d.vertex_by_name("bob").unwrap();
/// let c = d.vertex_by_name("carol").unwrap();
/// let p = VertexPath::single(a);
/// assert_eq!(p.len(), 0);
/// let p = p.prepend(c).prepend(b); // (b, c, a)
/// assert_eq!(p.len(), 2);
/// assert!(p.is_valid_in(&d));
/// assert_eq!(p.start(), b);
/// assert_eq!(p.end(), a);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VertexPath {
    vertices: Vec<VertexId>,
}

impl VertexPath {
    /// The degenerate path consisting of a single vertex (length 0).
    pub fn single(v: VertexId) -> Self {
        VertexPath { vertices: vec![v] }
    }

    /// Builds a path from a vertex sequence.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the sequence is empty.
    pub fn from_vertices(vertices: Vec<VertexId>) -> Result<Self, EmptyPathError> {
        if vertices.is_empty() {
            Err(EmptyPathError)
        } else {
            Ok(VertexPath { vertices })
        }
    }

    /// The paper's `v + p`: a new path starting at `v` followed by `self`.
    pub fn prepend(&self, v: VertexId) -> VertexPath {
        let mut vertices = Vec::with_capacity(self.vertices.len() + 1);
        vertices.push(v);
        vertices.extend_from_slice(&self.vertices);
        VertexPath { vertices }
    }

    /// Path length `ℓ` — the number of *arcs*, i.e. one less than the number
    /// of vertexes.
    pub fn len(&self) -> usize {
        self.vertices.len() - 1
    }

    /// Whether this is a degenerate single-vertex path.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first vertex `u₀`.
    pub fn start(&self) -> VertexId {
        self.vertices[0]
    }

    /// The final vertex `u_ℓ`.
    pub fn end(&self) -> VertexId {
        *self.vertices.last().expect("paths are non-empty")
    }

    /// The vertex sequence.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Whether `v` occurs anywhere in the path.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// Validates the paper's path conditions within digraph `d`:
    ///
    /// 1. every vertex exists in `d`,
    /// 2. consecutive vertexes are joined by at least one arc, and
    /// 3. all vertexes but the last are distinct (the last may close a
    ///    cycle).
    pub fn is_valid_in(&self, d: &Digraph) -> bool {
        let n = d.vertex_count();
        if self.vertices.iter().any(|v| v.index() >= n) {
            return false;
        }
        for w in self.vertices.windows(2) {
            if !d.has_arc_between(w[0], w[1]) {
                return false;
            }
        }
        // u₀ … u_{ℓ-1} distinct.
        let prefix = &self.vertices[..self.vertices.len() - 1];
        let mut seen = vec![false; n];
        for v in prefix {
            if seen[v.index()] {
                return false;
            }
            seen[v.index()] = true;
        }
        // The final vertex may only coincide with the *first* vertex.
        if self.vertices.len() >= 2 {
            let last = self.end();
            if prefix[1..].contains(&last) {
                return false;
            }
        }
        true
    }

    /// Stable byte encoding (4 bytes big-endian per vertex), used when paths
    /// are signed and when measuring on-chain bits.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.vertices.len() * 4);
        for v in &self.vertices {
            out.extend_from_slice(&v.raw().to_be_bytes());
        }
        out
    }

    /// Length of [`to_bytes`](Self::to_bytes) without building it, for
    /// metering sites that only need the size.
    pub fn encoded_len(&self) -> usize {
        self.vertices.len() * 4
    }
}

impl fmt::Display for VertexPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.vertices.iter().map(|v| v.to_string()).collect();
        write!(f, "({})", names.join(","))
    }
}

/// Error returned when constructing a path from an empty vertex sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyPathError;

impl fmt::Display for EmptyPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a path must contain at least one vertex")
    }
}

impl std::error::Error for EmptyPathError {}

/// Enumerates every valid path in `d` from `from` to `to` in which `to`
/// appears only as the final vertex — exactly the candidate hashkey paths
/// for a secret generated by leader `to`, presented by counterparty `from`
/// (Figure 7 of the paper).
///
/// For `from == to` this is the degenerate path plus every cycle through
/// `to`-free interiors back to `to`.
pub fn enumerate_paths(d: &Digraph, from: VertexId, to: VertexId) -> Vec<VertexPath> {
    let mut results = Vec::new();
    if from == to {
        results.push(VertexPath::single(to));
    }
    let mut visited = vec![false; d.vertex_count()];
    visited[from.index()] = true;
    let mut current = vec![from];
    dfs(d, from, to, &mut visited, &mut current, &mut results);
    results.sort();
    results
}

fn dfs(
    d: &Digraph,
    v: VertexId,
    to: VertexId,
    visited: &mut Vec<bool>,
    current: &mut Vec<VertexId>,
    results: &mut Vec<VertexPath>,
) {
    for w in d.successors(v) {
        if w == to {
            let mut vertices = current.clone();
            vertices.push(to);
            results.push(VertexPath { vertices });
        } else if !visited[w.index()] {
            visited[w.index()] = true;
            current.push(w);
            dfs(d, w, to, visited, current, results);
            current.pop();
            visited[w.index()] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DigraphBuilder;
    use crate::generators;

    fn triangle() -> Digraph {
        generators::herlihy_three_party()
    }

    #[test]
    fn single_vertex_path() {
        let p = VertexPath::single(VertexId::new(0));
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.start(), p.end());
    }

    #[test]
    fn from_vertices_rejects_empty() {
        assert_eq!(VertexPath::from_vertices(vec![]), Err(EmptyPathError));
        assert!(EmptyPathError.to_string().contains("at least one"));
    }

    #[test]
    fn prepend_builds_v_plus_p() {
        let d = triangle();
        let a = d.vertex_by_name("alice").unwrap();
        let b = d.vertex_by_name("bob").unwrap();
        let c = d.vertex_by_name("carol").unwrap();
        let p = VertexPath::single(a).prepend(c).prepend(b);
        assert_eq!(p.vertices(), &[b, c, a]);
        assert_eq!(p.len(), 2);
        assert!(p.contains(c));
    }

    #[test]
    fn validity_checks_arcs() {
        let d = triangle();
        let a = d.vertex_by_name("alice").unwrap();
        let b = d.vertex_by_name("bob").unwrap();
        let c = d.vertex_by_name("carol").unwrap();
        // a->b->c->a all exist.
        assert!(VertexPath::from_vertices(vec![a, b, c]).unwrap().is_valid_in(&d));
        // b->a does not exist in the 3-cycle.
        assert!(!VertexPath::from_vertices(vec![b, a]).unwrap().is_valid_in(&d));
    }

    #[test]
    fn validity_allows_closing_cycle_only() {
        let d = triangle();
        let a = d.vertex_by_name("alice").unwrap();
        let b = d.vertex_by_name("bob").unwrap();
        let c = d.vertex_by_name("carol").unwrap();
        // (a,b,c,a): closes back to the start — valid by the paper's rules.
        assert!(VertexPath::from_vertices(vec![a, b, c, a]).unwrap().is_valid_in(&d));
        // (a,b,c,a,b): repeats interior vertex a — invalid.
        assert!(!VertexPath::from_vertices(vec![a, b, c, a, b]).unwrap().is_valid_in(&d));
    }

    #[test]
    fn validity_rejects_lasso_paths() {
        // d: x -> y -> z -> y would repeat y as interior+final.
        let d = DigraphBuilder::new()
            .vertices(["x", "y", "z"])
            .arc("x", "y")
            .arc("y", "z")
            .arc("z", "y")
            .build();
        let x = d.vertex_by_name("x").unwrap();
        let y = d.vertex_by_name("y").unwrap();
        let z = d.vertex_by_name("z").unwrap();
        assert!(!VertexPath::from_vertices(vec![x, y, z, y]).unwrap().is_valid_in(&d));
    }

    #[test]
    fn validity_rejects_unknown_vertices() {
        let d = triangle();
        let ghost = VertexId::new(42);
        assert!(!VertexPath::single(ghost).is_valid_in(&d));
    }

    #[test]
    fn enumerate_paths_in_triangle() {
        let d = triangle();
        let a = d.vertex_by_name("alice").unwrap();
        let b = d.vertex_by_name("bob").unwrap();
        let c = d.vertex_by_name("carol").unwrap();
        // Paths from bob to leader alice: only (b, c, a).
        let paths = enumerate_paths(&d, b, a);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].vertices(), &[b, c, a]);
        // From alice to herself: degenerate plus the full cycle.
        let self_paths = enumerate_paths(&d, a, a);
        assert_eq!(self_paths.len(), 2);
        assert!(self_paths.iter().any(|p| p.is_empty()));
        assert!(self_paths.iter().any(|p| p.len() == 3));
    }

    #[test]
    fn enumerate_paths_two_leader_triangle() {
        // Figure 7's digraph: all six arcs among three parties. Paths from C
        // to leader A: (c,a), (c,b,a).
        let d = generators::two_leader_triangle();
        let a = d.vertex_by_name("alice").unwrap();
        let c = d.vertex_by_name("carol").unwrap();
        let paths = enumerate_paths(&d, c, a);
        let lens: Vec<usize> = paths.iter().map(|p| p.len()).collect();
        assert_eq!(paths.len(), 2);
        assert!(lens.contains(&1) && lens.contains(&2));
        for p in &paths {
            assert!(p.is_valid_in(&d));
            assert_eq!(p.start(), c);
            assert_eq!(p.end(), a);
        }
    }

    #[test]
    fn to_bytes_is_stable_and_distinct() {
        let p1 = VertexPath::from_vertices(vec![VertexId::new(1), VertexId::new(2)]).unwrap();
        let p2 = VertexPath::from_vertices(vec![VertexId::new(2), VertexId::new(1)]).unwrap();
        assert_eq!(p1.to_bytes().len(), 8);
        assert_ne!(p1.to_bytes(), p2.to_bytes());
        assert_eq!(p1.to_bytes(), p1.to_bytes());
    }

    #[test]
    fn encoded_len_is_to_bytes_len() {
        let mut paths = vec![
            VertexPath::single(VertexId::new(0)),
            VertexPath::single(VertexId::new(42)),
            VertexPath::single(VertexId::new(0))
                .prepend(VertexId::new(2))
                .prepend(VertexId::new(1)),
        ];
        for d in [triangle(), generators::two_leader_triangle(), generators::complete(4)] {
            for from in d.vertices() {
                for to in d.vertices() {
                    paths.extend(enumerate_paths(&d, from, to));
                }
            }
        }
        assert!(paths.len() > 30);
        for p in &paths {
            assert_eq!(p.encoded_len(), p.to_bytes().len(), "{p}");
        }
    }

    #[test]
    fn display_format() {
        let p = VertexPath::from_vertices(vec![VertexId::new(0), VertexId::new(2)]).unwrap();
        assert_eq!(p.to_string(), "(v0,v2)");
    }
}
