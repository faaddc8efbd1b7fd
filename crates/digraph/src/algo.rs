//! Graph algorithms: strong connectivity, acyclicity, condensation,
//! reachability, and the paper's longest-path diameter.

use std::collections::BTreeSet;

use crate::digraph::Digraph;
use crate::ids::VertexId;

/// Largest vertex count for which [`diameter_exact`] runs the exponential
/// longest-path dynamic program. Beyond this, [`Digraph::diameter`] falls
/// back to the safe `|V|` upper bound.
pub const EXACT_DIAMETER_LIMIT: usize = 15;

/// Vertexes reachable from `start` (including `start`), as a dense mask.
pub fn reachable_from(d: &Digraph, start: VertexId) -> Vec<bool> {
    let mut seen = vec![false; d.vertex_count()];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(v) = stack.pop() {
        for arc in d.out_arcs(v) {
            if !seen[arc.tail.index()] {
                seen[arc.tail.index()] = true;
                stack.push(arc.tail);
            }
        }
    }
    seen
}

/// Whether every vertex reaches every other vertex. Empty and singleton
/// digraphs are vacuously strongly connected.
pub fn is_strongly_connected(d: &Digraph) -> bool {
    let n = d.vertex_count();
    if n <= 1 {
        return true;
    }
    let start = VertexId::new(0);
    if reachable_from(d, start).iter().any(|&r| !r) {
        return false;
    }
    // Everything reaches `start` iff `start` reaches everything in Dᵀ —
    // walked along the entering arcs of `d`, with no transposed copy.
    let mut seen = vec![false; n];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(v) = stack.pop() {
        for arc in d.in_arcs(v) {
            if !seen[arc.head.index()] {
                seen[arc.head.index()] = true;
                stack.push(arc.head);
            }
        }
    }
    seen.iter().all(|&r| r)
}

/// Tarjan's strongly connected components, iteratively (no recursion, so
/// large graphs cannot overflow the stack). Components are returned in
/// reverse topological order of the condensation (a component appears before
/// any component it has arcs into... specifically, Tarjan emits sinks first).
pub fn strongly_connected_components(d: &Digraph) -> Vec<Vec<VertexId>> {
    let n = d.vertex_count();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<VertexId>> = Vec::new();

    // Explicit DFS machine: (vertex, iterator position over successors).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let out = &d.out_arcs(VertexId::new(v as u32)).collect::<Vec<_>>();
            if *pos < out.len() {
                let w = out[*pos].tail.index();
                *pos += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                // v finished.
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack nonempty");
                        on_stack[w] = false;
                        comp.push(VertexId::new(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    components.push(comp);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    components
}

/// The condensation of `d`: one vertex per strongly connected component,
/// one arc per inter-component arc of `d` (parallel condensation arcs are
/// deduplicated). Returns the condensation digraph and, for each original
/// vertex, the index of its component vertex.
pub fn condensation(d: &Digraph) -> (Digraph, Vec<usize>) {
    let comps = strongly_connected_components(d);
    let mut member = vec![0usize; d.vertex_count()];
    for (ci, comp) in comps.iter().enumerate() {
        for &v in comp {
            member[v.index()] = ci;
        }
    }
    let mut c = Digraph::new();
    for (ci, comp) in comps.iter().enumerate() {
        let names: Vec<&str> = comp.iter().map(|&v| d.name(v)).collect();
        c.add_vertex(format!("scc{}({})", ci, names.join(",")));
    }
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for arc in d.arcs() {
        let (h, t) = (member[arc.head.index()], member[arc.tail.index()]);
        if h != t && seen.insert((h, t)) {
            c.add_arc(VertexId::new(h as u32), VertexId::new(t as u32))
                .expect("condensation arc valid");
        }
    }
    (c, member)
}

/// Whether `d` has no cycles (Kahn's algorithm; parallel arcs are fine).
pub fn is_acyclic(d: &Digraph) -> bool {
    topological_order(d).is_some()
}

/// A topological order of the vertexes, or `None` if `d` has a cycle.
/// Isolated vertexes are included.
pub fn topological_order(d: &Digraph) -> Option<Vec<VertexId>> {
    topological_order_avoiding(d, &vec![false; d.vertex_count()])
}

/// [`topological_order`] of `d` with the `removed` vertexes (a dense mask,
/// one flag per vertex) and their arcs deleted: the order covers the
/// surviving vertexes only. `D \ L` is never materialized — the walk skips
/// masked endpoints on `d` itself.
pub(crate) fn topological_order_avoiding(d: &Digraph, removed: &[bool]) -> Option<Vec<VertexId>> {
    let n = d.vertex_count();
    let alive = |v: VertexId| !removed[v.index()];
    let mut indeg: Vec<usize> =
        d.vertices().map(|v| d.in_arcs(v).filter(|a| alive(a.head)).count()).collect();
    let mut queue: Vec<VertexId> =
        d.vertices().filter(|&v| alive(v) && indeg[v.index()] == 0).collect();
    let survivors = removed.iter().filter(|&&r| !r).count();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for arc in d.out_arcs(v).filter(|a| alive(a.tail)) {
            let w = arc.tail.index();
            indeg[w] -= 1;
            if indeg[w] == 0 {
                queue.push(arc.tail);
            }
        }
    }
    (order.len() == survivors).then_some(order)
}

/// The paper's `diam(D)` computed exactly, or `None` when the digraph exceeds
/// [`EXACT_DIAMETER_LIMIT`] vertexes.
///
/// Definition (§2.1): a path `(u₀, …, u_ℓ)` requires `u₀, …, u_{ℓ-1}`
/// distinct, so the final vertex may close a cycle. `diam(D)` is the maximum
/// path length over all vertex pairs; in the paper's three-party cycle this
/// is 3 (the full cycle), which is exactly what makes Alice's contract
/// timelock 6Δ = (diam + D(B,A) + 1)·Δ work out.
pub fn diameter_exact(d: &Digraph) -> Option<usize> {
    let n = d.vertex_count();
    if n == 0 {
        return Some(0);
    }
    if n > EXACT_DIAMETER_LIMIT {
        return None;
    }
    // Successor masks (dedup parallel arcs).
    let succ: Vec<u32> = (0..n)
        .map(|v| {
            let mut m = 0u32;
            for arc in d.out_arcs(VertexId::new(v as u32)) {
                m |= 1 << arc.tail.index();
            }
            m
        })
        .collect();
    let mut best = 0usize;
    // For each start vertex s, dp[mask] = set of possible end vertexes of a
    // simple path starting at s visiting exactly `mask`.
    let mut dp = vec![0u32; 1 << n];
    for s in 0..n {
        dp.fill(0);
        dp[1 << s] = 1 << s;
        for mask in 0u32..(1u32 << n) {
            if mask & (1 << s) == 0 {
                continue;
            }
            let ends = dp[mask as usize];
            if ends == 0 {
                continue;
            }
            let len = mask.count_ones() as usize - 1;
            best = best.max(len);
            let mut rest = ends;
            while rest != 0 {
                let last = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let nexts = succ[last];
                // Closing the cycle back to s: path length = |mask| arcs.
                if nexts & (1 << s) != 0 && mask.count_ones() >= 2 {
                    best = best.max(mask.count_ones() as usize);
                }
                let mut fresh = nexts & !mask;
                while fresh != 0 {
                    let w = fresh.trailing_zeros();
                    fresh &= fresh - 1;
                    dp[(mask | (1 << w)) as usize] |= 1 << w;
                }
            }
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DigraphBuilder;
    use crate::generators;
    use proptest::prelude::*;
    use swap_sim::SimRng;

    fn triangle() -> Digraph {
        generators::herlihy_three_party()
    }

    proptest! {
        /// The strong-connectivity walk (along entering arcs, with no
        /// transposed copy) agrees with the definition on small random
        /// digraphs.
        #[test]
        fn strong_connectivity_matches_mutual_reachability(n in 1usize..7, p in 0.0f64..0.7, seed in any::<u64>()) {
            let d = generators::random_digraph(n, p, &mut SimRng::from_seed(seed));
            let all_reach_all = d.vertices().all(|v| reachable_from(&d, v).iter().all(|&r| r));
            prop_assert_eq!(is_strongly_connected(&d), all_reach_all);
        }
    }

    #[test]
    fn reachability_on_path_digraph() {
        let d = DigraphBuilder::new().vertices(["a", "b", "c"]).arc("a", "b").arc("b", "c").build();
        let a = d.vertex_by_name("a").unwrap();
        let c = d.vertex_by_name("c").unwrap();
        assert_eq!(reachable_from(&d, a), vec![true, true, true]);
        assert_eq!(reachable_from(&d, c), vec![false, false, true]);
    }

    #[test]
    fn strong_connectivity() {
        assert!(is_strongly_connected(&triangle()));
        let path = DigraphBuilder::new().vertices(["a", "b"]).arc("a", "b").build();
        assert!(!is_strongly_connected(&path));
    }

    #[test]
    fn scc_of_triangle_is_single_component() {
        let comps = strongly_connected_components(&triangle());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn scc_of_two_cycles_with_bridge() {
        // (a<->b) -> (c<->d)
        let d = DigraphBuilder::new()
            .vertices(["a", "b", "c", "d"])
            .arc("a", "b")
            .arc("b", "a")
            .arc("b", "c")
            .arc("c", "d")
            .arc("d", "c")
            .build();
        let comps = strongly_connected_components(&d);
        assert_eq!(comps.len(), 2);
        // Tarjan emits the sink component {c,d} first.
        let sizes: Vec<usize> = comps.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![2, 2]);
        let (cond, member) = condensation(&d);
        assert_eq!(cond.vertex_count(), 2);
        assert_eq!(cond.arc_count(), 1);
        assert!(cond.is_acyclic());
        let a = d.vertex_by_name("a").unwrap();
        let c = d.vertex_by_name("c").unwrap();
        assert_ne!(member[a.index()], member[c.index()]);
    }

    #[test]
    fn acyclicity() {
        assert!(!is_acyclic(&triangle()));
        let dag = DigraphBuilder::new()
            .vertices(["a", "b", "c"])
            .arc("a", "b")
            .arc("a", "c")
            .arc("b", "c")
            .build();
        assert!(is_acyclic(&dag));
        let order = topological_order(&dag).unwrap();
        let pos = |name: &str| {
            let v = dag.vertex_by_name(name).unwrap();
            order.iter().position(|&x| x == v).unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
    }

    #[test]
    fn diameter_of_cycle_counts_full_cycle() {
        // The worked example in §1: timelock 6Δ on arc (A,B) implies
        // diam(C₃) = 3.
        assert_eq!(diameter_exact(&triangle()), Some(3));
        let c5 = generators::cycle(5);
        assert_eq!(diameter_exact(&c5), Some(5));
    }

    #[test]
    fn diameter_of_dag_is_longest_simple_path() {
        let dag = DigraphBuilder::new()
            .vertices(["a", "b", "c", "d"])
            .arc("a", "b")
            .arc("b", "c")
            .arc("c", "d")
            .arc("a", "d")
            .build();
        assert_eq!(diameter_exact(&dag), Some(3));
    }

    #[test]
    fn diameter_of_complete_digraph() {
        // K₄ with all ordered pairs: longest path is a Hamiltonian cycle of
        // length 4.
        let k4 = generators::complete(4);
        assert_eq!(diameter_exact(&k4), Some(4));
    }

    #[test]
    fn diameter_bails_out_above_limit() {
        let big = generators::cycle(EXACT_DIAMETER_LIMIT + 1);
        assert_eq!(diameter_exact(&big), None);
        // The public method falls back to |V|, which for a cycle is exact.
        assert_eq!(big.diameter(), EXACT_DIAMETER_LIMIT + 1);
    }

    #[test]
    fn diameter_of_two_cycle() {
        let d = DigraphBuilder::new().vertices(["a", "b"]).arc("a", "b").arc("b", "a").build();
        assert_eq!(diameter_exact(&d), Some(2));
    }

    #[test]
    fn topological_order_none_on_cycle() {
        assert!(topological_order(&triangle()).is_none());
    }

    #[test]
    fn scc_singleton_vertices() {
        let mut d = Digraph::new();
        d.add_vertex("lonely");
        let comps = strongly_connected_components(&d);
        assert_eq!(comps.len(), 1);
        assert!(is_strongly_connected(&d));
        assert!(is_acyclic(&d));
    }

    #[test]
    fn condensation_names_mention_members() {
        let (cond, _) = condensation(&triangle());
        assert_eq!(cond.vertex_count(), 1);
        assert!(cond.name(VertexId::new(0)).contains("alice"));
    }
}
