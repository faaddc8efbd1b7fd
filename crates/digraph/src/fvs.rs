//! Feedback vertex sets — the *leader* sets of the swap protocol.
//!
//! Theorem 4.12 of the paper shows that in any uniform hashed-timelock swap
//! protocol the leaders must form a feedback vertex set of the swap digraph.
//! Finding a *minimum* directed feedback vertex set is NP-complete (Karp
//! 1972, cited as \[15\]); the paper notes an efficient 2-approximation exists
//! for the undirected variant. This module provides:
//!
//! * [`FeedbackVertexSet::is_feedback_vertex_set`] — the defining check,
//! * [`FeedbackVertexSet::minimum`] — exact branch-and-bound for graphs of
//!   practical swap size (cycle-branching FPT search over a removed-vertex
//!   mask: the digraph is never copied, and a search node allocates
//!   nothing),
//! * [`FeedbackVertexSet::greedy`] — a fast heuristic (repeatedly delete the
//!   vertex with maximum in·out degree product among cycle participants,
//!   then minimalize), whose quality the bench harness compares against the
//!   exact optimum.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::algo::{strongly_connected_components, topological_order_avoiding};
use crate::digraph::Digraph;
use crate::ids::VertexId;

/// A verified feedback vertex set for a particular digraph shape.
///
/// Construction always verifies the defining property, so holding a
/// `FeedbackVertexSet` is proof that deleting its vertexes leaves the
/// digraph acyclic.
///
/// # Example
///
/// ```
/// use swap_digraph::{generators, FeedbackVertexSet};
/// let d = generators::two_leader_triangle();
/// let exact = FeedbackVertexSet::minimum(&d).unwrap();
/// assert_eq!(exact.vertices().len(), 2); // this digraph needs two leaders
/// let greedy = FeedbackVertexSet::greedy(&d);
/// assert!(greedy.vertices().len() >= exact.vertices().len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedbackVertexSet {
    vertices: BTreeSet<VertexId>,
}

/// Error when a claimed leader set is not a feedback vertex set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotFeedbackError {
    /// A cycle that survives deletion of the claimed set (as a vertex list).
    pub witness_cycle: Vec<VertexId>,
}

impl std::fmt::Display for NotFeedbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "set is not a feedback vertex set; surviving cycle: {:?}", self.witness_cycle)
    }
}

impl std::error::Error for NotFeedbackError {}

impl FeedbackVertexSet {
    /// Wraps a candidate set after verifying it is a feedback vertex set of
    /// `d`.
    ///
    /// # Errors
    ///
    /// Returns [`NotFeedbackError`] with a witness cycle if deletion of the
    /// set leaves a cycle.
    pub fn verify(d: &Digraph, vertices: BTreeSet<VertexId>) -> Result<Self, NotFeedbackError> {
        match find_cycle_avoiding(&Successors::of(d), &removal_mask(d, &vertices)) {
            None => Ok(FeedbackVertexSet { vertices }),
            Some(cycle) => Err(NotFeedbackError { witness_cycle: cycle }),
        }
    }

    /// The defining check, without constructing the witness type.
    pub fn is_feedback_vertex_set(d: &Digraph, vertices: &BTreeSet<VertexId>) -> bool {
        topological_order_avoiding(d, &removal_mask(d, vertices)).is_some()
    }

    /// Exact minimum feedback vertex set by cycle-branching search.
    ///
    /// Finds a shortest surviving cycle, branches on which of its vertexes
    /// joins the set, and prunes with the current best. Practical up to a
    /// few dozen vertexes (swap digraphs are small — every vertex is a
    /// distinct real-world party); returns `None` if the search exceeds an
    /// internal node budget.
    pub fn minimum(d: &Digraph) -> Option<Self> {
        Self::minimum_within(d, SEARCH_BUDGET)
    }

    /// [`minimum`](Self::minimum) under an explicit search-node budget.
    fn minimum_within(d: &Digraph, budget: u64) -> Option<Self> {
        let mut search = Search::new(d, budget);
        search.branch();
        if search.budget == 0 {
            return None;
        }
        search.best.map(|best| FeedbackVertexSet { vertices: best.into_iter().collect() })
    }

    /// Greedy heuristic: repeatedly delete the vertex with the largest
    /// in-degree × out-degree product among vertexes on cycles, then
    /// *minimalize* by re-admitting any vertex whose removal from the set
    /// keeps acyclicity.
    ///
    /// Always returns a valid (not necessarily minimum) feedback vertex set.
    pub fn greedy(d: &Digraph) -> Self {
        let mut removed: BTreeSet<VertexId> = BTreeSet::new();
        loop {
            let rest = d.delete_vertices(&removed);
            if rest.is_acyclic() {
                break;
            }
            // Only vertexes inside nontrivial SCCs can lie on cycles.
            let candidate = strongly_connected_components(&rest)
                .into_iter()
                .filter(|c| {
                    c.len() > 1 || {
                        let v = c[0];
                        !rest.arcs_between(v, v).is_empty() // impossible (no self-loops) but explicit
                    }
                })
                .flatten()
                .max_by_key(|&v| (rest.in_degree(v) * rest.out_degree(v), std::cmp::Reverse(v)));
            match candidate {
                Some(v) => {
                    removed.insert(v);
                }
                None => break, // acyclic after all
            }
        }
        // Minimalize: drop redundant members (smallest ids first for
        // determinism).
        let members: Vec<VertexId> = removed.iter().copied().collect();
        for v in members {
            let mut trial = removed.clone();
            trial.remove(&v);
            if Self::is_feedback_vertex_set(d, &trial) {
                removed = trial;
            }
        }
        FeedbackVertexSet { vertices: removed }
    }

    /// The vertexes of the set, sorted.
    pub fn vertices(&self) -> &BTreeSet<VertexId> {
        &self.vertices
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// Consumes the witness, returning the raw set.
    pub fn into_vertices(self) -> BTreeSet<VertexId> {
        self.vertices
    }
}

/// Search nodes [`FeedbackVertexSet::minimum`] may visit before giving up.
const SEARCH_BUDGET: u64 = 2_000_000;

/// Every vertex's successors — deduplicated, ascending — in one flat
/// array: the neighbour order every search below walks, built once per
/// call instead of once per visit.
struct Successors {
    /// `targets[starts[v]..starts[v + 1]]` are `v`'s successors.
    starts: Vec<usize>,
    targets: Vec<VertexId>,
}

impl Successors {
    fn of(d: &Digraph) -> Successors {
        let mut starts = Vec::with_capacity(d.vertex_count() + 1);
        let mut targets: Vec<VertexId> = Vec::with_capacity(d.arc_count());
        for v in d.vertices() {
            starts.push(targets.len());
            targets.extend(d.successors(v));
        }
        starts.push(targets.len());
        Successors { starts, targets }
    }

    fn vertex_count(&self) -> usize {
        self.starts.len() - 1
    }

    fn of_vertex(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.starts[v.index()]..self.starts[v.index() + 1]]
    }
}

/// `vertices` as a dense mask over `d`'s vertexes (ids `d` does not have
/// delete nothing).
fn removal_mask(d: &Digraph, vertices: &BTreeSet<VertexId>) -> Vec<bool> {
    let mut removed = vec![false; d.vertex_count()];
    for v in vertices {
        if let Some(flag) = removed.get_mut(v.index()) {
            *flag = true;
        }
    }
    removed
}

/// Finds any cycle in `d`, returned as the vertex sequence of the cycle
/// (first vertex repeated implicitly), or `None` if acyclic.
pub fn find_cycle(d: &Digraph) -> Option<Vec<VertexId>> {
    find_cycle_avoiding(&Successors::of(d), &vec![false; d.vertex_count()])
}

/// [`find_cycle`] on the digraph with the `removed` vertexes deleted.
fn find_cycle_avoiding(succ: &Successors, removed: &[bool]) -> Option<Vec<VertexId>> {
    let n = succ.vertex_count();
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    // (vertex, successors not yet tried — taken from the back).
    let mut stack: Vec<(VertexId, usize)> = Vec::new();
    for root in (0..n as u32).map(VertexId::new) {
        if color[root.index()] != 0 || removed[root.index()] {
            continue;
        }
        stack.push((root, succ.of_vertex(root).len()));
        color[root.index()] = 1;
        while let Some((v, left)) = stack.last_mut() {
            let v = *v;
            if *left == 0 {
                color[v.index()] = 2;
                stack.pop();
                continue;
            }
            *left -= 1;
            let w = succ.of_vertex(v)[*left];
            if removed[w.index()] {
                continue;
            }
            match color[w.index()] {
                0 => {
                    color[w.index()] = 1;
                    parent[w.index()] = Some(v);
                    stack.push((w, succ.of_vertex(w).len()));
                }
                1 => {
                    // Found a back arc v -> w: reconstruct cycle w ... v.
                    let mut cycle = vec![v];
                    let mut cur = v;
                    while cur != w {
                        cur = parent[cur.index()].expect("on-stack vertex has parent");
                        cycle.push(cur);
                    }
                    cycle.reverse();
                    return Some(cycle);
                }
                _ => {}
            }
        }
    }
    None
}

/// The cycle-branching search behind [`FeedbackVertexSet::minimum`]: find a
/// shortest cycle among the vertexes not yet removed, branch on which of
/// its vertexes joins the set, prune with the best set so far. Candidate
/// sets are a mask over the one digraph, and every buffer — BFS scratch,
/// the cycles of the nodes on the current branch — is allocated once per
/// search, so a node costs its BFS sweeps and nothing else.
struct Search {
    succ: Successors,
    /// The vertexes deleted on the current branch, as a mask …
    removed: Vec<bool>,
    /// … and in the order they were chosen.
    chosen: Vec<VertexId>,
    /// The smallest feedback vertex set found so far (the first of its
    /// size in search order).
    best: Option<Vec<VertexId>>,
    /// Search nodes left.
    budget: u64,
    /// The branching cycles of the nodes on the current branch, one after
    /// the other: a node appends its cycle and truncates it away on return.
    cycles: Vec<VertexId>,
    /// BFS scratch: tree predecessor, and the FIFO (`seen` ⇔ ever queued).
    prev: Vec<VertexId>,
    seen: Vec<bool>,
    queue: Vec<VertexId>,
}

impl Search {
    fn new(d: &Digraph, budget: u64) -> Search {
        let n = d.vertex_count();
        Search {
            succ: Successors::of(d),
            removed: vec![false; n],
            chosen: Vec::new(),
            best: None,
            budget,
            cycles: Vec::new(),
            prev: vec![VertexId::new(0); n],
            seen: vec![false; n],
            queue: Vec::with_capacity(n),
        }
    }

    fn branch(&mut self) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        if self.best.as_ref().is_some_and(|best| self.chosen.len() >= best.len()) {
            return; // cannot improve
        }
        let base = self.cycles.len();
        if !self.push_shortest_cycle() {
            // Acyclic: chosen is a feedback vertex set.
            self.best = Some(self.chosen.clone());
            return;
        }
        for i in base..self.cycles.len() {
            let v = self.cycles[i];
            self.chosen.push(v);
            self.removed[v.index()] = true;
            self.branch();
            self.removed[v.index()] = false;
            self.chosen.pop();
        }
        self.cycles.truncate(base);
    }

    /// Appends a shortest surviving cycle to `cycles` — BFS from each
    /// vertex back to itself, the first of the shortest in vertex order —
    /// or returns `false` when the remainder is acyclic.
    fn push_shortest_cycle(&mut self) -> bool {
        let base = self.cycles.len();
        for s in (0..self.removed.len() as u32).map(VertexId::new) {
            if self.removed[s.index()] {
                continue;
            }
            self.seen.fill(false);
            self.queue.clear();
            self.seen[s.index()] = true;
            self.queue.push(s);
            let mut head = 0;
            'bfs: while head < self.queue.len() {
                let v = self.queue[head];
                head += 1;
                for &w in self.succ.of_vertex(v) {
                    if self.removed[w.index()] {
                        continue;
                    }
                    if w == s {
                        // Cycle s -> ... -> v -> s, written behind the
                        // shortest so far and kept only if it beats it.
                        let shortest = self.cycles.len() - base;
                        let mut cur = v;
                        self.cycles.push(cur);
                        while cur != s {
                            cur = self.prev[cur.index()];
                            self.cycles.push(cur);
                        }
                        let len = self.cycles.len() - base - shortest;
                        if shortest == 0 || len < shortest {
                            self.cycles.drain(base..base + shortest);
                            self.cycles[base..].reverse();
                        } else {
                            self.cycles.truncate(base + shortest);
                        }
                        break 'bfs;
                    }
                    if !self.seen[w.index()] {
                        self.seen[w.index()] = true;
                        self.prev[w.index()] = v;
                        self.queue.push(w);
                    }
                }
            }
            if self.cycles.len() - base == 2 {
                break; // cannot beat a 2-cycle
            }
        }
        self.cycles.len() > base
    }
}

/// The clone-per-node search [`FeedbackVertexSet::minimum`] ran before the
/// mask search, kept verbatim as the oracle the tests hold it to: every
/// search node rebuilds the named remainder `D \ chosen`
/// ([`Digraph::delete_vertices`]) and asks it for allocated successor lists.
#[cfg(test)]
mod oracle {
    use super::*;

    pub fn minimum_within(d: &Digraph, mut budget: u64) -> Option<BTreeSet<VertexId>> {
        let mut best: Option<BTreeSet<VertexId>> = None;
        branch(d, &mut BTreeSet::new(), &mut best, &mut budget);
        if budget == 0 {
            return None;
        }
        best
    }

    fn branch(
        d: &Digraph,
        chosen: &mut BTreeSet<VertexId>,
        best: &mut Option<BTreeSet<VertexId>>,
        budget: &mut u64,
    ) {
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        if let Some(b) = best {
            if chosen.len() >= b.len() {
                return; // cannot improve
            }
        }
        let rest = d.delete_vertices(chosen);
        let Some(cycle) = find_shortest_cycle(&rest) else {
            // Acyclic: chosen is a feedback vertex set.
            *best = Some(chosen.clone());
            return;
        };
        for v in cycle {
            chosen.insert(v);
            branch(d, chosen, best, budget);
            chosen.remove(&v);
        }
    }

    /// Shortest cycle via BFS from each vertex back to itself (on the
    /// deduplicated successor relation).
    pub fn find_shortest_cycle(d: &Digraph) -> Option<Vec<VertexId>> {
        let n = d.vertex_count();
        let mut best: Option<Vec<VertexId>> = None;
        for s in 0..n {
            let sv = VertexId::new(s as u32);
            // BFS from successors of s back to s.
            let mut prev: Vec<Option<VertexId>> = vec![None; n];
            let mut dist = vec![usize::MAX; n];
            let mut queue = std::collections::VecDeque::new();
            dist[s] = 0;
            queue.push_back(sv);
            'bfs: while let Some(v) = queue.pop_front() {
                for w in d.successors(v) {
                    if w == sv && v != sv {
                        // Cycle s -> ... -> v -> s.
                        let mut cycle = vec![v];
                        let mut cur = v;
                        while cur != sv {
                            cur = prev[cur.index()].expect("bfs predecessor");
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
                            best = Some(cycle);
                        }
                        break 'bfs;
                    }
                    if dist[w.index()] == usize::MAX {
                        dist[w.index()] = dist[v.index()] + 1;
                        prev[w.index()] = Some(v);
                        queue.push_back(w);
                    }
                }
            }
            if best.as_ref().is_some_and(|b| b.len() == 2) {
                break; // cannot beat a 2-cycle
            }
        }
        best
    }

    /// The defining check on the materialized remainder.
    pub fn is_feedback_vertex_set(d: &Digraph, vertices: &BTreeSet<VertexId>) -> bool {
        d.delete_vertices(vertices).is_acyclic()
    }

    /// Strong connectivity by forward reachability in `D` and in a
    /// transposed copy.
    pub fn is_strongly_connected(d: &Digraph) -> bool {
        use crate::algo::reachable_from;
        let start = VertexId::new(0);
        d.vertex_count() <= 1
            || (reachable_from(d, start).iter().all(|&r| r)
                && reachable_from(&d.transpose(), start).iter().all(|&r| r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DigraphBuilder;
    use crate::generators;
    use proptest::prelude::*;
    use swap_sim::SimRng;

    /// A digraph of at most 7 vertexes: arcs drawn independently, then a
    /// few more between random pairs, so parallel arcs and disconnected
    /// remainders both occur.
    fn arb_small_digraph() -> impl Strategy<Value = Digraph> {
        (1usize..8, 0.0f64..0.7, 0usize..5, any::<u64>()).prop_map(|(n, p, extra, seed)| {
            let mut rng = SimRng::from_seed(seed);
            let mut d = generators::random_digraph(n, p, &mut rng);
            for _ in 0..extra {
                let head = VertexId::new(rng.below(n as u64) as u32);
                let tail = VertexId::new(rng.below(n as u64) as u32);
                let _ = d.add_arc(head, tail); // a drawn self-loop is refused
            }
            d
        })
    }

    /// Holds the mask search to the oracle: the same vertex *set* (not just
    /// the same size) under the production budget.
    fn assert_elects_like_the_oracle(d: &Digraph) {
        let expected = oracle::minimum_within(d, SEARCH_BUDGET);
        let elected = FeedbackVertexSet::minimum(d).map(FeedbackVertexSet::into_vertices);
        assert_eq!(elected, expected, "digraph:\n{}", d.render());
    }

    proptest! {
        /// The mask search elects exactly the vertexes the clone-per-node
        /// search did, and gives up on exactly the same budgets.
        #[test]
        fn mask_search_is_the_clone_per_node_search(
            d in arb_small_digraph(),
            budget in 0u64..40,
        ) {
            assert_elects_like_the_oracle(&d);
            prop_assert_eq!(
                FeedbackVertexSet::minimum_within(&d, budget).map(FeedbackVertexSet::into_vertices),
                oracle::minimum_within(&d, budget),
                "budget {}, digraph:\n{}", budget, d.render()
            );
        }

        /// The spec checks on the masked digraph agree with the ones on a
        /// materialized copy, for any candidate set (ids the digraph lacks
        /// included).
        #[test]
        fn masked_spec_checks_match_the_copying_ones(
            d in arb_small_digraph(),
            picks in 0u32..512,
        ) {
            let vertices: BTreeSet<VertexId> =
                (0..9).filter(|bit| picks & (1 << bit) != 0).map(VertexId::new).collect();
            prop_assert_eq!(
                FeedbackVertexSet::is_feedback_vertex_set(&d, &vertices),
                oracle::is_feedback_vertex_set(&d, &vertices)
            );
            prop_assert_eq!(
                FeedbackVertexSet::verify(&d, vertices.clone()).map_err(|e| e.witness_cycle),
                match find_cycle(&d.delete_vertices(&vertices)) {
                    None => Ok(FeedbackVertexSet { vertices }),
                    Some(witness) => Err(witness),
                }
            );
            prop_assert_eq!(d.is_strongly_connected(), oracle::is_strongly_connected(&d));
        }
    }

    #[test]
    fn every_experiment_family_elects_the_same_leaders() {
        let mut families = vec![
            generators::herlihy_three_party(),
            generators::two_leader_triangle(),
            generators::multigraph_pair(),
            generators::bridged_cycles(),
            generators::one_way_pair(),
            generators::star(5),
            generators::flower(2, 4),
            generators::flower(3, 3),
            generators::flower(3, 4),
        ];
        families.extend((2..=8).map(generators::cycle));
        families.extend((2..=5).map(generators::complete));
        families.extend((2..=5).map(generators::path));
        let mut rng = SimRng::from_seed(0xF55);
        for n in [4usize, 5, 6, 7, 8] {
            for p in [0.25, 0.3] {
                families.push(generators::random_strongly_connected(n, p, &mut rng));
            }
        }
        for d in &families {
            assert_elects_like_the_oracle(d);
        }
        // Rings elect vertex 0: every recorded golden and every cleared
        // trade cycle's leader depends on it.
        for n in 2..=8 {
            let ring = FeedbackVertexSet::minimum(&generators::cycle(n)).unwrap();
            assert_eq!(ring.into_vertices(), [VertexId::new(0)].into_iter().collect());
        }
    }

    #[test]
    fn triangle_needs_one_leader() {
        let d = generators::herlihy_three_party();
        let fvs = FeedbackVertexSet::minimum(&d).unwrap();
        assert_eq!(fvs.vertices().len(), 1);
        let v = *fvs.vertices().iter().next().unwrap();
        assert!(fvs.contains(v));
    }

    #[test]
    fn two_leader_triangle_needs_two() {
        let d = generators::two_leader_triangle();
        let fvs = FeedbackVertexSet::minimum(&d).unwrap();
        assert_eq!(fvs.vertices().len(), 2);
    }

    #[test]
    fn acyclic_digraph_needs_no_leaders() {
        let dag =
            DigraphBuilder::new().vertices(["a", "b", "c"]).arc("a", "b").arc("b", "c").build();
        let fvs = FeedbackVertexSet::minimum(&dag).unwrap();
        assert!(fvs.vertices().is_empty());
        assert!(FeedbackVertexSet::greedy(&dag).vertices().is_empty());
    }

    #[test]
    fn verify_accepts_valid_and_rejects_invalid() {
        let d = generators::two_leader_triangle();
        let a = d.vertex_by_name("alice").unwrap();
        let b = d.vertex_by_name("bob").unwrap();
        let good: BTreeSet<_> = [a, b].into_iter().collect();
        assert!(FeedbackVertexSet::verify(&d, good).is_ok());
        let bad: BTreeSet<_> = [a].into_iter().collect();
        let err = FeedbackVertexSet::verify(&d, bad).unwrap_err();
        assert!(!err.witness_cycle.is_empty());
        assert!(err.to_string().contains("not a feedback vertex set"));
    }

    #[test]
    fn witness_cycle_is_a_real_cycle() {
        let d = generators::two_leader_triangle();
        let a = d.vertex_by_name("alice").unwrap();
        let bad: BTreeSet<_> = [a].into_iter().collect();
        let err = FeedbackVertexSet::verify(&d, bad).unwrap_err();
        let cycle = &err.witness_cycle;
        // Every consecutive pair (and the wrap-around) must be an arc of the
        // digraph with alice deleted.
        let rest = d.delete_vertices(&[a].into_iter().collect());
        for i in 0..cycle.len() {
            let u = cycle[i];
            let v = cycle[(i + 1) % cycle.len()];
            assert!(rest.has_arc_between(u, v), "cycle edge {u}->{v} missing");
        }
    }

    #[test]
    fn greedy_is_always_valid() {
        for n in 2..8 {
            let d = generators::complete(n);
            let fvs = FeedbackVertexSet::greedy(&d);
            assert!(FeedbackVertexSet::is_feedback_vertex_set(&d, fvs.vertices()));
        }
    }

    #[test]
    fn complete_digraph_minimum_is_n_minus_1() {
        // K_n (all ordered pairs): any two remaining vertexes form a
        // 2-cycle, so the minimum FVS has n-1 vertexes.
        for n in 2..6 {
            let d = generators::complete(n);
            let fvs = FeedbackVertexSet::minimum(&d).unwrap();
            assert_eq!(fvs.vertices().len(), n - 1, "K_{n}");
        }
    }

    #[test]
    fn cycle_minimum_is_one() {
        for n in 2..9 {
            let d = generators::cycle(n);
            assert_eq!(FeedbackVertexSet::minimum(&d).unwrap().vertices().len(), 1);
        }
    }

    #[test]
    fn fvs_for_d_is_fvs_for_transpose() {
        // §2.1: any feedback vertex set for D is also one for Dᵀ.
        let d = generators::two_leader_triangle();
        let fvs = FeedbackVertexSet::minimum(&d).unwrap();
        let t = d.transpose();
        assert!(FeedbackVertexSet::is_feedback_vertex_set(&t, fvs.vertices()));
    }

    #[test]
    fn find_cycle_none_on_dag() {
        let dag = DigraphBuilder::new().vertices(["a", "b"]).arc("a", "b").build();
        assert!(find_cycle(&dag).is_none());
    }

    #[test]
    fn find_cycle_on_triangle() {
        let d = generators::herlihy_three_party();
        let cycle = find_cycle(&d).unwrap();
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn shortest_cycle_prefers_two_cycle() {
        // A 2-cycle nested beside a 5-cycle.
        let mut d = generators::cycle(5);
        let v0 = VertexId::new(0);
        let v1 = VertexId::new(1);
        d.add_arc(v1, v0).unwrap();
        let mut search = Search::new(&d, SEARCH_BUDGET);
        assert!(search.push_shortest_cycle());
        assert_eq!(search.cycles, oracle::find_shortest_cycle(&d).unwrap());
        assert_eq!(search.cycles.len(), 2);
    }

    #[test]
    fn into_vertices_roundtrip() {
        let d = generators::cycle(4);
        let fvs = FeedbackVertexSet::minimum(&d).unwrap();
        let raw = fvs.clone().into_vertices();
        assert_eq!(&raw, fvs.vertices());
    }

    #[test]
    fn greedy_on_random_strongly_connected() {
        let mut rng = SimRng::from_seed(12345);
        for n in [4usize, 6, 8, 10] {
            let d = generators::random_strongly_connected(n, 0.3, &mut rng);
            let greedy = FeedbackVertexSet::greedy(&d);
            assert!(FeedbackVertexSet::is_feedback_vertex_set(&d, greedy.vertices()));
            if let Some(exact) = FeedbackVertexSet::minimum(&d) {
                assert!(greedy.vertices().len() >= exact.vertices().len());
            }
        }
    }
}
