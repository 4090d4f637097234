//! The backtracking embedding enumerator (VF2-flavored).

// tsg-lint: allow(index) — all search-state vectors are sized n and vertices range over 0..n

use crate::{ExactMatcher, GeneralizedMatcher, LabelMatcher};
use std::ops::ControlFlow;
use tsg_graph::{GraphDatabase, LabeledGraph, NodeId};
use tsg_taxonomy::Taxonomy;

/// An embedding maps pattern vertex `i` to target vertex `embedding[i]`.
pub type Embedding = Vec<NodeId>;

/// A matching order over pattern vertices in which every vertex after the
/// first of its connected component has at least one earlier neighbor —
/// this lets the searcher grow candidates from mapped neighborhoods instead
/// of scanning all target vertices.
///
/// Component starts are the expensive assignments (they scan every target
/// vertex), so each component starts at its most *selective* vertex: the
/// one with the fewest matcher-compatible target vertices, ties broken by
/// highest degree (more already-mapped-neighbor constraints on the rest
/// of the component), then lowest index for determinism. Selectivity is
/// computed against the matcher, not raw labels — under generalized
/// matching a root-labeled pattern vertex is compatible with far more
/// target vertices than its own label's frequency suggests.
///
/// Returns `None` when some pattern vertex has no compatible target
/// vertex at all: no embedding can exist, and the candidate scan already
/// proved it, so the search is skipped entirely.
fn matching_order<M: LabelMatcher>(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    matcher: &M,
) -> Option<Vec<NodeId>> {
    let n = pattern.node_count();
    // Matcher-compatible target-vertex count per pattern vertex. The
    // O(|V_P|·|V_T|) scan is amortized by the search it steers: one
    // infeasible component start costs a full target scan per attempt.
    let mut candidates = vec![0usize; n];
    for (p, slot) in candidates.iter_mut().enumerate() {
        let lp = pattern.label(p);
        *slot = (0..target.node_count())
            .filter(|&t| matcher.node_match(lp, target.label(t)))
            .count();
        if *slot == 0 {
            return None;
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let start = (0..n)
            .filter(|&v| !placed[v])
            .min_by_key(|&v| (candidates[v], std::cmp::Reverse(pattern.degree(v))))
            .expect("some vertex is unplaced while order is short"); // tsg-lint: allow(panic) — order is shorter than n here, so an unplaced vertex exists
        let mut queue = std::collections::VecDeque::from([start]);
        placed[start] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for a in pattern.neighbors(v) {
                if !placed[a.to] {
                    placed[a.to] = true;
                    queue.push_back(a.to);
                }
            }
        }
    }
    Some(order)
}

struct Searcher<'a, M: LabelMatcher, F: FnMut(&[NodeId]) -> ControlFlow<()>> {
    pattern: &'a LabeledGraph,
    target: &'a LabeledGraph,
    matcher: &'a M,
    order: Vec<NodeId>,
    /// `map[p]` = target vertex for pattern vertex `p`, or `usize::MAX`.
    map: Vec<NodeId>,
    used: Vec<bool>,
    visit: F,
}

impl<M: LabelMatcher, F: FnMut(&[NodeId]) -> ControlFlow<()>> Searcher<'_, M, F> {
    fn feasible(&self, p: NodeId, t: NodeId) -> bool {
        if self.used[t]
            || !self.matcher.node_match(self.pattern.label(p), self.target.label(t))
            || self.pattern.degree(p) > self.target.degree(t)
        {
            return false;
        }
        // Every pattern edge from p to an already-mapped vertex must exist
        // in the target with the same edge label — and, for directed
        // patterns, the same arc orientation.
        let directed = self.pattern.is_directed();
        for a in self.pattern.neighbors(p) {
            let mt = self.map[a.to];
            if mt == usize::MAX {
                continue;
            }
            let ok = if directed {
                if a.outgoing {
                    self.target.arc_label(t, mt) == Some(a.elabel)
                } else {
                    self.target.arc_label(mt, t) == Some(a.elabel)
                }
            } else {
                self.target.edge_label_between(t, mt) == Some(a.elabel)
            };
            if !ok {
                return false;
            }
        }
        true
    }

    fn search(&mut self, depth: usize) -> ControlFlow<()> {
        if depth == self.order.len() {
            return (self.visit)(&self.map);
        }
        let p = self.order[depth];
        // Prefer extending from a mapped neighbor's adjacency; fall back to
        // scanning all target vertices for component starts.
        let anchor = self
            .pattern
            .neighbors(p)
            .iter()
            .find(|a| self.map[a.to] != usize::MAX)
            .map(|a| self.map[a.to]);
        match anchor {
            Some(t_anchor) => {
                // Antiparallel arcs put the same neighbor in the adjacency
                // list twice; each candidate vertex must be tried once.
                let mut tried: Vec<NodeId> = Vec::new();
                for ta in self.target.neighbors(t_anchor) {
                    if !tried.contains(&ta.to) && self.feasible(p, ta.to) {
                        tried.push(ta.to);
                        self.assign(p, ta.to, depth)?;
                    }
                }
            }
            None => {
                for t in 0..self.target.node_count() {
                    if self.feasible(p, t) {
                        self.assign(p, t, depth)?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    fn assign(&mut self, p: NodeId, t: NodeId, depth: usize) -> ControlFlow<()> {
        self.map[p] = t;
        self.used[t] = true;
        let flow = self.search(depth + 1);
        self.used[t] = false;
        self.map[p] = usize::MAX;
        flow
    }
}

/// Enumerates every injective, label-compatible (per `matcher`),
/// edge-preserving map from `pattern` into `target`, calling `visit` with
/// each complete embedding. `visit` may return [`ControlFlow::Break`] to
/// stop early. Embeddings are produced in a deterministic order.
///
/// This is *non-induced* matching: target edges not present in the pattern
/// are ignored, matching the paper's notion of an occurrence (a subgraph
/// `GS'` of `GS` with `P IS_GEN_ISO GS'`).
pub fn enumerate_embeddings<M: LabelMatcher>(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    matcher: &M,
    visit: impl FnMut(&[NodeId]) -> ControlFlow<()>,
) {
    debug_assert_eq!(
        pattern.is_directed(),
        target.is_directed(),
        "pattern and target must agree on directedness"
    );
    if pattern.node_count() > target.node_count() || pattern.edge_count() > target.edge_count() {
        return;
    }
    if pattern.node_count() == 0 {
        // The empty pattern has exactly one (empty) embedding.
        let mut visit = visit;
        let _ = visit(&[]);
        return;
    }
    let Some(order) = matching_order(pattern, target, matcher) else {
        return; // some pattern vertex has no compatible target vertex
    };
    let mut s = Searcher {
        pattern,
        target,
        matcher,
        order,
        map: vec![usize::MAX; pattern.node_count()],
        used: vec![false; target.node_count()],
        visit,
    };
    let _ = s.search(0);
}

/// The first embedding of `pattern` into `target`, if any.
pub fn find_embedding<M: LabelMatcher>(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    matcher: &M,
) -> Option<Embedding> {
    let mut found = None;
    enumerate_embeddings(pattern, target, matcher, |m| {
        found = Some(m.to_vec());
        ControlFlow::Break(())
    });
    found
}

/// `true` iff `pattern` is (matcher-)subgraph isomorphic to `target`.
pub fn contains_subgraph<M: LabelMatcher>(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    matcher: &M,
) -> bool {
    find_embedding(pattern, target, matcher).is_some()
}

/// The number of embeddings (injective vertex maps, so automorphic variants
/// count separately) of `pattern` into `target`.
pub fn count_embeddings<M: LabelMatcher>(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    matcher: &M,
) -> usize {
    let mut n = 0;
    enumerate_embeddings(pattern, target, matcher, |_| {
        n += 1;
        ControlFlow::Continue(())
    });
    n
}

/// Paper §2: `G1 IS_GEN_ISO G2` — a *bijective* generalized isomorphism.
/// `G2` may have extra edges (the definition only requires `E1` to map into
/// `E2`), but vertex counts must agree.
pub fn is_gen_iso(g1: &LabeledGraph, g2: &LabeledGraph, taxonomy: &Taxonomy) -> bool {
    g1.node_count() == g2.node_count()
        && contains_subgraph(g1, g2, &GeneralizedMatcher::new(taxonomy))
}

/// Exact graph isomorphism: equal vertex and edge counts plus an exact
/// edge-preserving bijection. (An injective map between graphs with equal
/// edge counts is automatically edge-bijective.)
pub fn is_isomorphic(g1: &LabeledGraph, g2: &LabeledGraph) -> bool {
    g1.node_count() == g2.node_count()
        && g1.edge_count() == g2.edge_count()
        && g1.invariant_signature() == g2.invariant_signature()
        && contains_subgraph(g1, g2, &ExactMatcher)
}

/// The paper's support *count*: the number of database graphs containing at
/// least one embedding of `pattern` (per-graph, not per-occurrence).
pub fn support_count<M: LabelMatcher>(
    pattern: &LabeledGraph,
    db: &GraphDatabase,
    matcher: &M,
) -> usize {
    db.iter()
        .filter(|(_, g)| contains_subgraph(pattern, g, matcher))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::{EdgeLabel, NodeLabel};
    use tsg_taxonomy::taxonomy_from_edges;

    fn nl(v: u32) -> NodeLabel {
        NodeLabel(v)
    }
    fn el(v: u32) -> EdgeLabel {
        EdgeLabel(v)
    }

    fn path(labels: &[u32], elabels: &[u32]) -> LabeledGraph {
        let mut g = LabeledGraph::with_nodes(labels.iter().map(|&x| nl(x)));
        for i in 1..labels.len() {
            g.add_edge(i - 1, i, el(elabels[i - 1])).unwrap();
        }
        g
    }

    /// Brute-force oracle: try all injective maps by permutation.
    fn brute_embeddings<M: LabelMatcher>(
        p: &LabeledGraph,
        t: &LabeledGraph,
        m: &M,
    ) -> Vec<Embedding> {
        fn rec<M: LabelMatcher>(
            p: &LabeledGraph,
            t: &LabeledGraph,
            m: &M,
            map: &mut Vec<usize>,
            used: &mut Vec<bool>,
            out: &mut Vec<Embedding>,
        ) {
            let i = map.len();
            if i == p.node_count() {
                out.push(map.clone());
                return;
            }
            for cand in 0..t.node_count() {
                if used[cand] || !m.node_match(p.label(i), t.label(cand)) {
                    continue;
                }
                let ok = p.neighbors(i).iter().all(|a| {
                    if a.to >= i {
                        return true;
                    }
                    if p.is_directed() {
                        if a.outgoing {
                            t.arc_label(cand, map[a.to]) == Some(a.elabel)
                        } else {
                            t.arc_label(map[a.to], cand) == Some(a.elabel)
                        }
                    } else {
                        t.edge_label_between(cand, map[a.to]) == Some(a.elabel)
                    }
                });
                if ok {
                    used[cand] = true;
                    map.push(cand);
                    rec(p, t, m, map, used, out);
                    map.pop();
                    used[cand] = false;
                }
            }
        }
        let mut out = vec![];
        rec(p, t, m, &mut vec![], &mut vec![false; t.node_count()], &mut out);
        out
    }

    #[test]
    fn exact_path_in_path() {
        let p = path(&[1, 2], &[0]);
        let t = path(&[1, 2, 1], &[0, 0]);
        assert!(contains_subgraph(&p, &t, &ExactMatcher));
        // Embeddings: 0->0,1->1 and 0->2,1->1.
        assert_eq!(count_embeddings(&p, &t, &ExactMatcher), 2);
        let e = find_embedding(&p, &t, &ExactMatcher).unwrap();
        assert_eq!(t.label(e[0]), nl(1));
        assert_eq!(t.label(e[1]), nl(2));
    }

    #[test]
    fn edge_labels_must_match_exactly() {
        let p = path(&[1, 2], &[7]);
        let t = path(&[1, 2], &[8]);
        assert!(!contains_subgraph(&p, &t, &ExactMatcher));
        let t2 = path(&[1, 2], &[7]);
        assert!(contains_subgraph(&p, &t2, &ExactMatcher));
    }

    #[test]
    fn non_induced_semantics() {
        // Pattern: path 0-1-2 (labels 1,1,1). Target: triangle (1,1,1).
        let p = path(&[1, 1, 1], &[0, 0]);
        let mut t = LabeledGraph::with_nodes([nl(1), nl(1), nl(1)]);
        t.add_edge(0, 1, el(0)).unwrap();
        t.add_edge(1, 2, el(0)).unwrap();
        t.add_edge(2, 0, el(0)).unwrap();
        // The extra triangle edge does not block the path embedding.
        assert!(contains_subgraph(&p, &t, &ExactMatcher));
        assert_eq!(count_embeddings(&p, &t, &ExactMatcher), 6);
    }

    #[test]
    fn generalized_matching_follows_taxonomy() {
        // Taxonomy 0 > 1 > 2.
        let t = taxonomy_from_edges(3, [(1, 0), (2, 1)]).unwrap();
        let m = GeneralizedMatcher::new(&t);
        let pattern = path(&[0, 0], &[0]); // two root-labeled vertices
        let target = path(&[2, 1], &[0]); // leaf-labeled
        assert!(contains_subgraph(&pattern, &target, &m));
        assert!(
            !contains_subgraph(&target, &pattern, &m),
            "generalized matching is not symmetric"
        );
    }

    #[test]
    fn is_gen_iso_requires_bijection_but_allows_extra_edges() {
        let t = taxonomy_from_edges(3, [(1, 0), (2, 0)]).unwrap();
        let g1 = path(&[0, 0], &[0]);
        // g2: triangle over labels 1, 2, 1 — more vertices, so not gen-iso.
        let mut g2 = LabeledGraph::with_nodes([nl(1), nl(2), nl(1)]);
        g2.add_edge(0, 1, el(0)).unwrap();
        g2.add_edge(1, 2, el(0)).unwrap();
        g2.add_edge(2, 0, el(0)).unwrap();
        assert!(!is_gen_iso(&g1, &g2, &t));
        // Same vertex count, extra edge in g2: allowed by the definition.
        let g3 = path(&[0, 0, 0], &[0, 0]);
        assert!(is_gen_iso(&g3, &g2, &t));
    }

    #[test]
    fn is_isomorphic_basic() {
        let a = path(&[1, 2, 3], &[0, 1]);
        // Same path built reversed.
        let mut b = LabeledGraph::with_nodes([nl(3), nl(2), nl(1)]);
        b.add_edge(0, 1, el(1)).unwrap();
        b.add_edge(1, 2, el(0)).unwrap();
        assert!(is_isomorphic(&a, &b));
        let c = path(&[1, 2, 3], &[1, 0]);
        assert!(!is_isomorphic(&a, &c), "edge labels swapped");
        // Path vs triangle with same labels: different edge count.
        let mut tri = LabeledGraph::with_nodes([nl(1), nl(2), nl(3)]);
        tri.add_edge(0, 1, el(0)).unwrap();
        tri.add_edge(1, 2, el(1)).unwrap();
        tri.add_edge(2, 0, el(0)).unwrap();
        assert!(!is_isomorphic(&a, &tri));
    }

    #[test]
    fn support_counts_graphs_not_embeddings() {
        let p = path(&[1, 1], &[0]);
        let db = GraphDatabase::from_graphs(vec![
            path(&[1, 1, 1], &[0, 0]), // two embeddings ×2 orientations
            path(&[1, 2], &[0]),
            path(&[1, 1], &[0]),
        ]);
        assert_eq!(support_count(&p, &db, &ExactMatcher), 2);
    }

    #[test]
    fn empty_pattern_has_one_embedding() {
        let t = path(&[1, 2], &[0]);
        assert_eq!(count_embeddings(&LabeledGraph::new(), &t, &ExactMatcher), 1);
    }

    #[test]
    fn disconnected_pattern_is_handled() {
        let mut p = LabeledGraph::with_nodes([nl(1), nl(2)]); // no edge
        let _ = &mut p;
        let t = path(&[2, 3, 1], &[0, 0]);
        assert_eq!(count_embeddings(&p, &t, &ExactMatcher), 1);
    }

    #[test]
    fn rare_label_start_prunes_but_preserves_results() {
        // Pattern: star with a hub labeled 9 (unique in the target) and
        // two leaves labeled 1 (common). The order must start at the
        // rare hub; either way, results must match brute force.
        let mut p = LabeledGraph::with_nodes([nl(1), nl(9), nl(1)]);
        p.add_edge(0, 1, el(0)).unwrap();
        p.add_edge(1, 2, el(0)).unwrap();
        let mut t = LabeledGraph::with_nodes([nl(1), nl(1), nl(1), nl(9), nl(1)]);
        t.add_edge(0, 3, el(0)).unwrap();
        t.add_edge(1, 3, el(0)).unwrap();
        t.add_edge(2, 3, el(0)).unwrap();
        t.add_edge(2, 4, el(0)).unwrap();
        let mut got: Vec<Embedding> = vec![];
        enumerate_embeddings(&p, &t, &ExactMatcher, |e| {
            got.push(e.to_vec());
            ControlFlow::Continue(())
        });
        let mut want = brute_embeddings(&p, &t, &ExactMatcher);
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(got.len(), 6); // 3 choices × 2 ordered leaf pairs
    }

    #[test]
    fn absent_label_short_circuits_to_no_embeddings() {
        let p = path(&[1, 42], &[0]);
        let t = path(&[1, 2, 1], &[0, 0]);
        assert_eq!(count_embeddings(&p, &t, &ExactMatcher), 0);
        assert!(find_embedding(&p, &t, &ExactMatcher).is_none());
    }

    #[test]
    fn matches_brute_force_on_assorted_cases() {
        let tax = taxonomy_from_edges(4, [(1, 0), (2, 0), (3, 1)]).unwrap();
        let cases: Vec<(LabeledGraph, LabeledGraph)> = vec![
            (path(&[0, 0], &[0]), path(&[3, 1, 2], &[0, 0])),
            (path(&[1, 0, 2], &[0, 1]), path(&[3, 0, 2, 1], &[0, 1, 0])),
            (path(&[0, 0, 0], &[0, 0]), {
                let mut g = LabeledGraph::with_nodes([nl(1), nl(2), nl(3), nl(1)]);
                g.add_edge(0, 1, el(0)).unwrap();
                g.add_edge(1, 2, el(0)).unwrap();
                g.add_edge(2, 3, el(0)).unwrap();
                g.add_edge(3, 0, el(0)).unwrap();
                g
            }),
        ];
        for (p, t) in cases {
            for use_gen in [false, true] {
                let (mut got, mut want);
                if use_gen {
                    let m = GeneralizedMatcher::new(&tax);
                    got = vec![];
                    enumerate_embeddings(&p, &t, &m, |e| {
                        got.push(e.to_vec());
                        ControlFlow::Continue(())
                    });
                    want = brute_embeddings(&p, &t, &m);
                } else {
                    got = vec![];
                    enumerate_embeddings(&p, &t, &ExactMatcher, |e| {
                        got.push(e.to_vec());
                        ControlFlow::Continue(())
                    });
                    want = brute_embeddings(&p, &t, &ExactMatcher);
                }
                got.sort();
                want.sort();
                assert_eq!(got, want, "pattern {p:?} target {t:?} gen={use_gen}");
            }
        }
    }
}

#[cfg(test)]
mod directed_tests {
    use super::*;
    use tsg_graph::{EdgeLabel, NodeLabel};
    use tsg_taxonomy::taxonomy_from_edges;

    fn nl(v: u32) -> NodeLabel {
        NodeLabel(v)
    }
    fn el(v: u32) -> EdgeLabel {
        EdgeLabel(v)
    }

    fn arc_path(labels: &[u32]) -> tsg_graph::LabeledGraph {
        let mut g =
            tsg_graph::LabeledGraph::with_nodes_directed(labels.iter().map(|&x| nl(x)));
        for i in 1..labels.len() {
            g.add_edge(i - 1, i, el(0)).unwrap();
        }
        g
    }

    #[test]
    fn arc_direction_is_respected() {
        // Pattern 1 → 2; target 2 → 1 (reversed): no match.
        let p = arc_path(&[1, 2]);
        let mut t = tsg_graph::LabeledGraph::with_nodes_directed([nl(2), nl(1)]);
        t.add_edge(0, 1, el(0)).unwrap(); // arc 2 → 1
        assert!(!contains_subgraph(&p, &t, &ExactMatcher));
        // Reversed target arc: match.
        let mut t2 = tsg_graph::LabeledGraph::with_nodes_directed([nl(2), nl(1)]);
        t2.add_edge(1, 0, el(0)).unwrap(); // arc 1 → 2
        assert!(contains_subgraph(&p, &t2, &ExactMatcher));
    }

    #[test]
    fn antiparallel_arcs_are_distinct() {
        // Target has both 1→2 and 2→1 with different labels.
        let mut t = tsg_graph::LabeledGraph::with_nodes_directed([nl(1), nl(2)]);
        t.add_edge(0, 1, el(0)).unwrap();
        t.add_edge(1, 0, el(1)).unwrap();
        let mut p01 = tsg_graph::LabeledGraph::with_nodes_directed([nl(1), nl(2)]);
        p01.add_edge(0, 1, el(0)).unwrap();
        assert!(contains_subgraph(&p01, &t, &ExactMatcher));
        let mut p_wrong = tsg_graph::LabeledGraph::with_nodes_directed([nl(1), nl(2)]);
        p_wrong.add_edge(0, 1, el(1)).unwrap(); // label of the reverse arc
        assert!(!contains_subgraph(&p_wrong, &t, &ExactMatcher));
        // The 2-arc pattern embeds exactly once.
        let mut both = tsg_graph::LabeledGraph::with_nodes_directed([nl(1), nl(2)]);
        both.add_edge(0, 1, el(0)).unwrap();
        both.add_edge(1, 0, el(1)).unwrap();
        assert_eq!(count_embeddings(&both, &t, &ExactMatcher), 1);
    }

    #[test]
    fn directed_cycle_automorphisms() {
        // Directed 3-cycle with uniform labels: the 3 rotations, but not
        // the 3 reflections (which reverse arcs).
        let mut g = tsg_graph::LabeledGraph::with_nodes_directed(vec![nl(0); 3]);
        g.add_edge(0, 1, el(0)).unwrap();
        g.add_edge(1, 2, el(0)).unwrap();
        g.add_edge(2, 0, el(0)).unwrap();
        assert_eq!(crate::automorphisms(&g).len(), 3);
    }

    #[test]
    fn generalized_directed_matching() {
        let tax = taxonomy_from_edges(2, [(1, 0)]).unwrap();
        let m = GeneralizedMatcher::new(&tax);
        // Pattern 0 → 0 matches DB arc 1 → 1, not the reverse question.
        let p = arc_path(&[0, 0]);
        let t = arc_path(&[1, 1]);
        assert!(contains_subgraph(&p, &t, &m));
        assert!(!contains_subgraph(&t, &p, &m));
    }

    #[test]
    fn is_isomorphic_distinguishes_orientation() {
        // Path 1 → 2 → 3 vs 1 ← 2 ← 3 (same underlying shape).
        let a = arc_path(&[1, 2, 3]);
        let mut b = tsg_graph::LabeledGraph::with_nodes_directed([nl(1), nl(2), nl(3)]);
        b.add_edge(1, 0, el(0)).unwrap();
        b.add_edge(2, 1, el(0)).unwrap();
        assert!(!is_isomorphic(&a, &b));
        assert!(is_isomorphic(&a, &a.clone()));
    }
}
