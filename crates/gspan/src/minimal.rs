//! The DFS-code minimality (canonicality) test.

// tsg-lint: allow(panic) — minimality replay runs on self-produced nonempty connected codes; the expects state gSpan structural invariants (a code always seeds and extends)

use crate::dfs_code::DfsCode;
use crate::extension::{min_extension, min_seed, Embedding};
use tsg_graph::GraphDatabase;

/// Reusable buffers for the minimality check.
///
/// The check runs once per search-tree node, making it gSpan's hottest
/// non-enumeration path. A scratch keeps the canonical-growth replay
/// allocation-free across calls: `cur`/`next` are the prefix's embedding
/// lists (double-buffered, swapped each step) and `prefix` is the growing
/// canonical code. Workers own one scratch each; none of the state
/// escapes a call.
#[derive(Debug, Default)]
pub struct MinScratch {
    cur: Vec<Embedding>,
    next: Vec<Embedding>,
    prefix: DfsCode,
}

impl MinScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        MinScratch::default()
    }
}

/// `true` iff `code` is the minimum DFS code of the graph it denotes.
///
/// gSpan prunes any search branch whose code is non-minimal: every graph is
/// reached through exactly one (the minimal) code, so pruning duplicates
/// costs no completeness (Yan & Han, ICDM'02, Theorem 1).
///
/// The test replays canonical growth on the pattern itself: starting from
/// the smallest seed edge, at every step the smallest legal rightmost-path
/// extension must equal the next code edge. Any deviation proves a smaller
/// code exists. Only the minimum extension is ever materialized
/// (`min_extension`), so no extension map is built and losing branches
/// are never cloned.
pub fn is_min_with_scratch(code: &DfsCode, scratch: &mut MinScratch) -> bool {
    if code.is_empty() {
        return true;
    }
    let g = code.to_graph().expect("mined codes denote valid graphs");
    let db = GraphDatabase::from_graphs(vec![g]);
    let first = min_seed(&db, &mut scratch.cur).expect("code has at least one edge");
    if first != code.edges()[0] { // tsg-lint: allow(index) — code checked nonempty at entry
        return false;
    }
    scratch.prefix.clear();
    scratch.prefix.push(first);
    for k in 1..code.len() {
        let min_key = min_extension(&scratch.prefix, &scratch.cur, &db, &mut scratch.next)
            .expect("the code's own edge k is a legal extension, so the set is nonempty");
        if min_key != code.edges()[k] { // tsg-lint: allow(index) — k ranges over 1..code.len()
            return false;
        }
        scratch.prefix.push(min_key);
        std::mem::swap(&mut scratch.cur, &mut scratch.next);
    }
    true
}

/// [`is_min_with_scratch`] with a throwaway scratch, for callers outside
/// the mining hot loop.
pub fn is_min(code: &DfsCode) -> bool {
    is_min_with_scratch(code, &mut MinScratch::new())
}

/// Computes the minimum (canonical) DFS code of an arbitrary labeled
/// graph by greedy canonical growth: start from the smallest seed edge,
/// repeatedly take the smallest legal rightmost-path extension.
///
/// Canonical codes give graphs a hashable identity: two graphs are
/// isomorphic iff their minimum codes are equal. Intended for
/// mining-sized graphs (the growth tracks every embedding of the prefix
/// in the graph, which is exponential in the worst case).
///
/// # Panics
/// Panics if `g` is disconnected or has no edges (such graphs have no
/// DFS code).
pub fn min_dfs_code(g: &tsg_graph::LabeledGraph) -> DfsCode {
    assert!(g.edge_count() >= 1, "DFS codes require at least one edge");
    assert!(g.is_connected(), "DFS codes cover connected graphs only");
    let total_edges = g.edge_count();
    let db = GraphDatabase::from_graphs(vec![g.clone()]);
    let mut scratch = MinScratch::new();
    let first = min_seed(&db, &mut scratch.cur).expect("graph has an edge");
    let mut code = DfsCode::from_edges(vec![first]);
    for _ in 1..total_edges {
        let min_key = min_extension(&code, &scratch.cur, &db, &mut scratch.next)
            .expect("connected graph always extends until all edges are covered");
        code.push(min_key);
        std::mem::swap(&mut scratch.cur, &mut scratch.next);
    }
    debug_assert!(is_min(&code));
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_code::DfsEdge;
    use tsg_graph::{EdgeLabel, NodeLabel};

    fn edge(from: usize, to: usize, fl: u32, el: u32, tl: u32) -> DfsEdge {
        DfsEdge {
            from,
            to,
            from_label: NodeLabel(fl),
            elabel: EdgeLabel(el),
            arc: crate::dfs_code::ArcDir::Undirected,
            to_label: NodeLabel(tl),
        }
    }

    #[test]
    fn min_code_is_an_isomorphism_invariant() {
        use tsg_graph::LabeledGraph;
        // The same triangle built in two vertex orders.
        let mut a = LabeledGraph::with_nodes([NodeLabel(1), NodeLabel(2), NodeLabel(3)]);
        a.add_edge(0, 1, EdgeLabel(0)).unwrap();
        a.add_edge(1, 2, EdgeLabel(0)).unwrap();
        a.add_edge(2, 0, EdgeLabel(0)).unwrap();
        let mut b = LabeledGraph::with_nodes([NodeLabel(3), NodeLabel(1), NodeLabel(2)]);
        b.add_edge(1, 2, EdgeLabel(0)).unwrap();
        b.add_edge(2, 0, EdgeLabel(0)).unwrap();
        b.add_edge(0, 1, EdgeLabel(0)).unwrap();
        assert_eq!(min_dfs_code(&a), min_dfs_code(&b));
        // A different labeling gives a different code.
        let mut c = LabeledGraph::with_nodes([NodeLabel(1), NodeLabel(2), NodeLabel(4)]);
        c.add_edge(0, 1, EdgeLabel(0)).unwrap();
        c.add_edge(1, 2, EdgeLabel(0)).unwrap();
        c.add_edge(2, 0, EdgeLabel(0)).unwrap();
        assert_ne!(min_dfs_code(&a), min_dfs_code(&c));
        // Round trip: the code reconstructs an isomorphic graph.
        let back = min_dfs_code(&a).to_graph().unwrap();
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn min_code_rejects_edgeless() {
        use tsg_graph::LabeledGraph;
        min_dfs_code(&LabeledGraph::with_nodes([NodeLabel(0)]));
    }

    #[test]
    fn single_edge_codes_are_minimal() {
        assert!(is_min(&DfsCode::from_edges(vec![edge(0, 1, 0, 0, 1)])));
        // Even a "backwards oriented" single edge: by convention it is its
        // own code; the miner never produces from_label > to_label seeds.
        assert!(!is_min(&DfsCode::from_edges(vec![edge(0, 1, 1, 0, 0)])));
    }

    #[test]
    fn path_code_must_start_at_smallest_label() {
        // Path 0-1-2 with labels 1,2,3: minimal code starts at label 1.
        let minimal = DfsCode::from_edges(vec![edge(0, 1, 1, 0, 2), edge(1, 2, 2, 0, 3)]);
        assert!(is_min(&minimal));
        // Starting from the label-3 end is not minimal.
        let other = DfsCode::from_edges(vec![edge(0, 1, 2, 0, 3), edge(0, 2, 2, 0, 1)]);
        assert!(!is_min(&other));
    }

    #[test]
    fn star_vs_chain_growth() {
        // Star with center label 0, leaves 1 and 2: code must grow the
        // smaller leaf first: (0,1,0,e,1)(0,2,0,e,2).
        let good = DfsCode::from_edges(vec![edge(0, 1, 0, 0, 1), edge(0, 2, 0, 0, 2)]);
        assert!(is_min(&good));
        let bad = DfsCode::from_edges(vec![edge(0, 1, 0, 0, 2), edge(0, 2, 0, 0, 1)]);
        assert!(!is_min(&bad));
    }

    #[test]
    fn triangle_backward_edge_comes_before_further_growth() {
        // Uniform triangle (all labels 0): minimal code is
        // (0,1)(1,2)(2,0) — the backward edge closes immediately.
        let tri = DfsCode::from_edges(vec![
            edge(0, 1, 0, 0, 0),
            edge(1, 2, 0, 0, 0),
            edge(2, 0, 0, 0, 0),
        ]);
        assert!(is_min(&tri));
    }

    #[test]
    fn square_with_tail_noncanonical_orders_rejected() {
        // Path a-a-a (labels all 0, edge labels 0 then 1).
        // Minimal growth must take edge label 0 first.
        let good = DfsCode::from_edges(vec![edge(0, 1, 0, 0, 0), edge(1, 2, 0, 1, 0)]);
        assert!(is_min(&good));
        let bad = DfsCode::from_edges(vec![edge(0, 1, 0, 1, 0), edge(1, 2, 0, 0, 0)]);
        assert!(!is_min(&bad));
    }
}
