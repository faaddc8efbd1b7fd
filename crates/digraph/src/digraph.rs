//! The [`Digraph`] type: a directed multigraph with named vertexes.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::algo;
use crate::ids::{ArcId, VertexId};

/// A directed multigraph `D = (V, A)`.
///
/// Vertexes model parties; arcs model proposed asset transfers. Parallel
/// arcs between the same ordered pair are allowed (§5 of the paper:
/// "directed multi-graphs ... reflecting the situation where Alice wants to
/// transfer assets on distinct blockchains to Bob"). Self-loops are rejected:
/// the paper defines arcs as ordered pairs of *distinct* vertexes, and a
/// transfer from a party to itself is not a swap.
///
/// # Example
///
/// ```
/// use swap_digraph::Digraph;
/// let mut d = Digraph::new();
/// let a = d.add_vertex("alice");
/// let b = d.add_vertex("bob");
/// let arc = d.add_arc(a, b).unwrap();
/// assert_eq!(d.head(arc), a);
/// assert_eq!(d.tail(arc), b);
/// assert_eq!(d.out_arcs(a).count(), 1); // the arc leaves its head
/// assert_eq!(d.in_arcs(b).count(), 1); // and enters its tail
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Digraph {
    names: Vec<String>,
    /// `arcs[i] = (head, tail)` for `ArcId(i)`.
    arcs: Vec<(VertexId, VertexId)>,
    /// Outgoing arc ids per vertex, in insertion order.
    out: Vec<Vec<ArcId>>,
    /// Incoming arc ids per vertex, in insertion order.
    into: Vec<Vec<ArcId>>,
}

/// Errors arising when constructing or mutating a [`Digraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigraphError {
    /// A vertex id referred to a vertex that does not exist.
    UnknownVertex(VertexId),
    /// An arc would connect a vertex to itself.
    SelfLoop(VertexId),
}

impl fmt::Display for DigraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DigraphError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            DigraphError::SelfLoop(v) => write!(f, "self-loop at {v} is not a valid transfer"),
        }
    }
}

impl std::error::Error for DigraphError {}

/// A borrowed view of one arc: its id and endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArcRef {
    /// The arc's id.
    pub id: ArcId,
    /// The arc's head: the party relinquishing the asset.
    pub head: VertexId,
    /// The arc's tail: the party acquiring the asset.
    pub tail: VertexId,
}

impl Default for Digraph {
    fn default() -> Self {
        Self::new()
    }
}

impl Digraph {
    /// Creates an empty digraph.
    pub fn new() -> Self {
        Digraph { names: Vec::new(), arcs: Vec::new(), out: Vec::new(), into: Vec::new() }
    }

    /// Adds a vertex with a human-readable name, returning its id.
    pub fn add_vertex(&mut self, name: impl Into<String>) -> VertexId {
        let id = VertexId::new(self.names.len() as u32);
        self.names.push(name.into());
        self.out.push(Vec::new());
        self.into.push(Vec::new());
        id
    }

    /// Adds `n` vertexes named `v0..v{n-1}`, returning their ids.
    pub fn add_vertices(&mut self, n: usize) -> Vec<VertexId> {
        (0..n).map(|i| self.add_vertex(format!("v{i}"))).collect()
    }

    /// Adds an arc from `head` to `tail` (a proposed transfer head → tail).
    ///
    /// # Errors
    ///
    /// Returns [`DigraphError::SelfLoop`] if `head == tail` and
    /// [`DigraphError::UnknownVertex`] if either endpoint does not exist.
    pub fn add_arc(&mut self, head: VertexId, tail: VertexId) -> Result<ArcId, DigraphError> {
        if head == tail {
            return Err(DigraphError::SelfLoop(head));
        }
        for v in [head, tail] {
            if v.index() >= self.names.len() {
                return Err(DigraphError::UnknownVertex(v));
            }
        }
        let id = ArcId::new(self.arcs.len() as u32);
        self.arcs.push((head, tail));
        self.out[head.index()].push(id);
        self.into[tail.index()].push(id);
        Ok(id)
    }

    /// Number of vertexes, `|V|`.
    pub fn vertex_count(&self) -> usize {
        self.names.len()
    }

    /// Number of arcs, `|A|` (counting parallel arcs separately).
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Whether the digraph has no vertexes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.names.len() as u32).map(VertexId::new)
    }

    /// Iterator over all arcs.
    pub fn arcs(&self) -> impl Iterator<Item = ArcRef> + '_ {
        self.arcs.iter().enumerate().map(|(i, &(head, tail))| ArcRef {
            id: ArcId::new(i as u32),
            head,
            tail,
        })
    }

    /// The name given to `v` at insertion.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this digraph.
    pub fn name(&self, v: VertexId) -> &str {
        &self.names[v.index()]
    }

    /// Looks up a vertex by name (linear scan; names need not be unique, the
    /// first match wins).
    pub fn vertex_by_name(&self, name: &str) -> Option<VertexId> {
        self.names.iter().position(|n| n == name).map(|i| VertexId::new(i as u32))
    }

    /// The head of `arc` — the arc *leaves* its head.
    ///
    /// # Panics
    ///
    /// Panics if `arc` is not an arc of this digraph.
    pub fn head(&self, arc: ArcId) -> VertexId {
        self.arcs[arc.index()].0
    }

    /// The tail of `arc` — the arc *enters* its tail.
    ///
    /// # Panics
    ///
    /// Panics if `arc` is not an arc of this digraph.
    pub fn tail(&self, arc: ArcId) -> VertexId {
        self.arcs[arc.index()].1
    }

    /// The `(head, tail)` pair of `arc`.
    pub fn endpoints(&self, arc: ArcId) -> (VertexId, VertexId) {
        self.arcs[arc.index()]
    }

    /// Arcs leaving `v` (arcs with head `v`), in insertion order.
    pub fn out_arcs(&self, v: VertexId) -> impl Iterator<Item = ArcRef> + '_ {
        self.out[v.index()].iter().map(move |&id| ArcRef {
            id,
            head: self.arcs[id.index()].0,
            tail: self.arcs[id.index()].1,
        })
    }

    /// Arcs entering `v` (arcs with tail `v`), in insertion order.
    pub fn in_arcs(&self, v: VertexId) -> impl Iterator<Item = ArcRef> + '_ {
        self.into[v.index()].iter().map(move |&id| ArcRef {
            id,
            head: self.arcs[id.index()].0,
            tail: self.arcs[id.index()].1,
        })
    }

    /// Out-degree of `v` (counting parallel arcs).
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out[v.index()].len()
    }

    /// In-degree of `v` (counting parallel arcs).
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.into[v.index()].len()
    }

    /// Successor vertexes of `v` (deduplicated, sorted).
    pub fn successors(&self, v: VertexId) -> Vec<VertexId> {
        sorted_unique(self.out_arcs(v).map(|a| a.tail))
    }

    /// Predecessor vertexes of `v` (deduplicated, sorted).
    pub fn predecessors(&self, v: VertexId) -> Vec<VertexId> {
        sorted_unique(self.in_arcs(v).map(|a| a.head))
    }

    /// Whether at least one arc goes from `u` to `v`.
    pub fn has_arc_between(&self, u: VertexId, v: VertexId) -> bool {
        self.out[u.index()].iter().any(|&a| self.arcs[a.index()].1 == v)
    }

    /// All arc ids from `u` to `v` (several, in a multigraph).
    pub fn arcs_between(&self, u: VertexId, v: VertexId) -> Vec<ArcId> {
        self.out[u.index()].iter().copied().filter(|&a| self.arcs[a.index()].1 == v).collect()
    }

    /// The transpose `Dᵀ`: same vertexes, every arc reversed. Arc ids are
    /// preserved (arc `i` of the transpose is arc `i` reversed).
    ///
    /// The paper (§2.1) notes that if `D` is strongly connected so is `Dᵀ`,
    /// and any feedback vertex set for `D` is one for `Dᵀ`; both facts are
    /// exercised in this crate's tests.
    pub fn transpose(&self) -> Digraph {
        let mut t = Digraph::new();
        for name in &self.names {
            t.add_vertex(name.clone());
        }
        for &(head, tail) in &self.arcs {
            t.add_arc(tail, head).expect("transposed arc endpoints valid");
        }
        t
    }

    /// The subdigraph induced by deleting `removed` vertexes: remaining
    /// vertexes keep their ids (deleted ones become isolated), and every arc
    /// incident to a removed vertex disappears.
    ///
    /// `D \ L` keeps the same vertex ids as `D`, which is what callers that
    /// hand the remainder on (witness cycles, topological orders) want. The
    /// copy costs one `String` per vertex, so the leader search and the spec
    /// checks do not build it: they walk `D` itself under a removed-vertex
    /// mask (see [`crate::fvs`] and [`crate::algo`]).
    pub fn delete_vertices(&self, removed: &BTreeSet<VertexId>) -> Digraph {
        let mut d = Digraph::new();
        for name in &self.names {
            d.add_vertex(name.clone());
        }
        for &(head, tail) in &self.arcs {
            if !removed.contains(&head) && !removed.contains(&tail) {
                d.add_arc(head, tail).expect("endpoints valid");
            }
        }
        d
    }

    /// Whether the digraph is strongly connected (every vertex reaches every
    /// other). The empty digraph is vacuously strongly connected; a single
    /// vertex is too.
    pub fn is_strongly_connected(&self) -> bool {
        algo::is_strongly_connected(self)
    }

    /// Whether the digraph has no cycles.
    pub fn is_acyclic(&self) -> bool {
        algo::is_acyclic(self)
    }

    /// The paper's `diam(D)`: the length of the longest path from any vertex
    /// to any other (longest-path semantics, where a path may close into a
    /// cycle but may not repeat interior vertexes).
    ///
    /// Longest path is NP-hard in general; this method computes it exactly
    /// for digraphs with at most [`algo::EXACT_DIAMETER_LIMIT`] vertexes and
    /// otherwise falls back to the safe upper bound `|V|` (no path can be
    /// longer, since at most `|V|` arcs can be traversed before repeating an
    /// interior vertex). Timelocks derived from an upper bound remain sound —
    /// they are merely looser. This is the one `diam(D)` policy: a built
    /// spec publishes it, and `SwapSpec::validate` requires at least it.
    pub fn diameter(&self) -> usize {
        algo::diameter_exact(self).unwrap_or_else(|| self.vertex_count())
    }

    /// Renders the digraph as `name(head) -> name(tail)` lines, stable across
    /// runs; useful in test failure output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for arc in self.arcs() {
            out.push_str(&format!(
                "{} -> {} [{}]\n",
                self.name(arc.head),
                self.name(arc.tail),
                arc.id
            ));
        }
        out
    }
}

/// `vertices`, sorted and deduplicated.
fn sorted_unique(vertices: impl Iterator<Item = VertexId>) -> Vec<VertexId> {
    let mut out: Vec<VertexId> = vertices.collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Incremental builder with a fluent interface for tests and generators.
///
/// # Example
///
/// ```
/// use swap_digraph::DigraphBuilder;
/// let d = DigraphBuilder::new()
///     .vertices(["a", "b", "c"])
///     .arc("a", "b")
///     .arc("b", "c")
///     .arc("c", "a")
///     .build();
/// assert!(d.is_strongly_connected());
/// ```
#[derive(Debug, Clone, Default)]
pub struct DigraphBuilder {
    digraph: Digraph,
}

impl DigraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds named vertexes.
    pub fn vertices<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for n in names {
            self.digraph.add_vertex(n);
        }
        self
    }

    /// Adds an arc between two previously added vertex *names*.
    ///
    /// # Panics
    ///
    /// Panics if either name is unknown or the arc would be a self-loop —
    /// builders are for literals in tests, where failing fast is a feature.
    pub fn arc(mut self, head: &str, tail: &str) -> Self {
        let h =
            self.digraph.vertex_by_name(head).unwrap_or_else(|| panic!("unknown vertex {head}"));
        let t =
            self.digraph.vertex_by_name(tail).unwrap_or_else(|| panic!("unknown vertex {tail}"));
        self.digraph.add_arc(h, t).expect("builder arcs must be valid");
        self
    }

    /// Finishes building.
    pub fn build(self) -> Digraph {
        self.digraph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Digraph {
        DigraphBuilder::new()
            .vertices(["a", "b", "c"])
            .arc("a", "b")
            .arc("b", "c")
            .arc("c", "a")
            .build()
    }

    #[test]
    fn arc_leaves_head_enters_tail() {
        let d = triangle();
        let a = d.vertex_by_name("a").unwrap();
        let b = d.vertex_by_name("b").unwrap();
        let arc = d.out_arcs(a).next().unwrap();
        assert_eq!(arc.head, a);
        assert_eq!(arc.tail, b);
        assert_eq!(d.in_arcs(b).next().unwrap().id, arc.id);
        assert_eq!(d.endpoints(arc.id), (a, b));
    }

    #[test]
    fn self_loop_rejected() {
        let mut d = Digraph::new();
        let v = d.add_vertex("x");
        assert_eq!(d.add_arc(v, v), Err(DigraphError::SelfLoop(v)));
    }

    #[test]
    fn unknown_vertex_rejected() {
        let mut d = Digraph::new();
        let v = d.add_vertex("x");
        let ghost = VertexId::new(9);
        assert_eq!(d.add_arc(v, ghost), Err(DigraphError::UnknownVertex(ghost)));
        assert_eq!(d.add_arc(ghost, v), Err(DigraphError::UnknownVertex(ghost)));
        let err = DigraphError::UnknownVertex(ghost);
        assert!(err.to_string().contains("v9"));
    }

    #[test]
    fn degrees_count_parallel_arcs() {
        let mut d = Digraph::new();
        let u = d.add_vertex("u");
        let v = d.add_vertex("v");
        d.add_arc(u, v).unwrap();
        d.add_arc(u, v).unwrap();
        d.add_arc(v, u).unwrap();
        assert_eq!(d.out_degree(u), 2);
        assert_eq!(d.in_degree(v), 2);
        assert_eq!(d.arcs_between(u, v).len(), 2);
        assert_eq!(d.arcs_between(v, u).len(), 1);
        assert!(d.has_arc_between(u, v));
        assert_eq!(d.successors(u), vec![v]);
        assert_eq!(d.predecessors(u), vec![v]);
    }

    #[test]
    fn transpose_reverses_arcs_preserving_ids() {
        let d = triangle();
        let t = d.transpose();
        assert_eq!(t.vertex_count(), 3);
        assert_eq!(t.arc_count(), 3);
        for arc in d.arcs() {
            assert_eq!(t.head(arc.id), arc.tail);
            assert_eq!(t.tail(arc.id), arc.head);
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let d = triangle();
        assert_eq!(d.transpose().transpose(), d);
    }

    #[test]
    fn delete_vertices_masks_incident_arcs() {
        let d = triangle();
        let a = d.vertex_by_name("a").unwrap();
        let removed: BTreeSet<_> = [a].into_iter().collect();
        let rest = d.delete_vertices(&removed);
        // Vertex ids preserved, but only the b->c arc survives.
        assert_eq!(rest.vertex_count(), 3);
        assert_eq!(rest.arc_count(), 1);
        let survivor = rest.arcs().next().unwrap();
        assert_eq!(rest.name(survivor.head), "b");
        assert_eq!(rest.name(survivor.tail), "c");
    }

    #[test]
    fn triangle_is_strongly_connected_and_cyclic() {
        let d = triangle();
        assert!(d.is_strongly_connected());
        assert!(!d.is_acyclic());
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Digraph::new();
        assert!(empty.is_empty());
        assert!(empty.is_strongly_connected());
        assert!(empty.is_acyclic());
        assert_eq!(empty.diameter(), 0);

        let mut single = Digraph::new();
        single.add_vertex("only");
        assert!(single.is_strongly_connected());
        assert!(single.is_acyclic());
        assert_eq!(single.diameter(), 0);
    }

    #[test]
    fn names_and_lookup() {
        let d = triangle();
        let b = d.vertex_by_name("b").unwrap();
        assert_eq!(d.name(b), "b");
        assert!(d.vertex_by_name("zelda").is_none());
    }

    #[test]
    fn builder_vertices_helper() {
        let mut d = Digraph::new();
        let ids = d.add_vertices(4);
        assert_eq!(ids.len(), 4);
        assert_eq!(d.name(ids[2]), "v2");
    }

    #[test]
    fn render_is_stable() {
        let d = triangle();
        let r = d.render();
        assert!(r.contains("a -> b"));
        assert!(r.contains("c -> a"));
    }

    #[test]
    #[should_panic(expected = "unknown vertex")]
    fn builder_panics_on_unknown_name() {
        let _ = DigraphBuilder::new().vertices(["a"]).arc("a", "zzz").build();
    }
}
