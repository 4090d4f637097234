//! A brute-force frequent-subgraph oracle for testing miners.
//!
//! Enumerates every connected, ≥1-edge subgraph (by edge subset) of every
//! database graph, deduplicates up to isomorphism, and recounts support by
//! explicit subgraph-isomorphism tests. Exponential — strictly a test
//! oracle for small inputs, but an *independent* implementation: it shares
//! no code path with the gSpan miner, so agreement between the two is
//! meaningful evidence.

// tsg-lint: allow(index) — mask bits enumerate the oracle's own edge list

use tsg_graph::{GraphDatabase, LabeledGraph};
use tsg_iso::{is_isomorphic, support_count, ExactMatcher};

/// All frequent connected patterns (with ≥ 1 edge, up to `max_edges`) of
/// `db` with support ≥ `min_support` distinct graphs, one representative
/// per isomorphism class, paired with its support count.
///
/// # Panics
/// Panics if any database graph has more than 22 edges (the enumeration is
/// `2^edges` per graph; beyond that you are misusing a test oracle).
pub fn brute_force_frequent(
    db: &GraphDatabase,
    min_support: usize,
    max_edges: usize,
) -> Vec<(LabeledGraph, usize)> {
    let mut reps: Vec<LabeledGraph> = Vec::new();
    for (_, g) in db.iter() {
        let m = g.edge_count();
        assert!(m <= 22, "oracle limited to tiny graphs, got {m} edges");
        for mask in 1u32..(1 << m) {
            if (mask.count_ones() as usize) > max_edges {
                continue;
            }
            let sub = edge_subset_subgraph(g, mask);
            if !sub.is_connected() {
                continue;
            }
            if !reps.iter().any(|r| is_isomorphic(r, &sub)) {
                reps.push(sub);
            }
        }
    }
    reps.into_iter()
        .filter_map(|p| {
            let sup = support_count(&p, db, &ExactMatcher);
            (sup >= min_support).then_some((p, sup))
        })
        .collect()
}

/// The subgraph induced by an edge subset: its vertices are exactly the
/// endpoints of the selected edges.
fn edge_subset_subgraph(g: &LabeledGraph, mask: u32) -> LabeledGraph {
    let mut nodes: Vec<usize> = Vec::new();
    for (i, e) in g.edges().iter().enumerate() {
        if mask & (1 << i) != 0 {
            nodes.push(e.u);
            nodes.push(e.v);
        }
    }
    nodes.sort_unstable();
    nodes.dedup();
    let mut pos = std::collections::HashMap::new();
    for (i, &v) in nodes.iter().enumerate() {
        pos.insert(v, i);
    }
    let mut sub = if g.is_directed() {
        LabeledGraph::with_nodes_directed(nodes.iter().map(|&v| g.label(v)))
    } else {
        LabeledGraph::with_nodes(nodes.iter().map(|&v| g.label(v)))
    };
    for (i, e) in g.edges().iter().enumerate() {
        if mask & (1 << i) != 0 {
            sub.add_edge(pos[&e.u], pos[&e.v], e.label)
                .expect("edge subset of a simple graph is simple"); // tsg-lint: allow(panic) — edge subset of a simple graph stays simple
        }
    }
    sub
}

/// Checks that two `(pattern, support)` collections agree up to
/// isomorphism. Returns a human-readable mismatch description, or `None`
/// when they match.
pub fn compare_pattern_sets(
    got: &[(LabeledGraph, usize)],
    want: &[(LabeledGraph, usize)],
) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "pattern count mismatch: got {}, want {}",
            got.len(),
            want.len()
        ));
    }
    let mut matched = vec![false; want.len()];
    for (gp, gs) in got {
        let found = want.iter().enumerate().find(|(i, (wp, ws))| {
            !matched[*i] && ws == gs && is_isomorphic(gp, wp)
        });
        match found {
            Some((i, _)) => matched[i] = true,
            None => {
                return Some(format!(
                    "pattern with support {gs} and {} edges has no partner",
                    gp.edge_count()
                ))
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::{EdgeLabel, NodeLabel};

    fn nl(v: u32) -> NodeLabel {
        NodeLabel(v)
    }

    fn path_graph(labels: &[u32]) -> LabeledGraph {
        let mut g = LabeledGraph::with_nodes(labels.iter().map(|&x| nl(x)));
        for i in 1..labels.len() {
            g.add_edge(i - 1, i, EdgeLabel(0)).unwrap();
        }
        g
    }

    #[test]
    fn oracle_counts_the_obvious() {
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 2, 1]), path_graph(&[2, 1])]);
        let got = brute_force_frequent(&db, 2, 4);
        // Only the 1-2 edge occurs in both graphs.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 2);
        assert_eq!(got[0].0.edge_count(), 1);
    }

    #[test]
    fn disconnected_subsets_are_skipped() {
        // Path of 4: edge subset {first, last} is disconnected.
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 1, 1, 1])]);
        let got = brute_force_frequent(&db, 1, 4);
        for (p, _) in &got {
            assert!(p.is_connected());
        }
        // Patterns: 1-edge, 2-path, 3-path — all uniform labels.
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn compare_pattern_sets_detects_mismatches() {
        let a = vec![(path_graph(&[1, 2]), 2)];
        let b = vec![(path_graph(&[2, 1]), 2)];
        assert!(compare_pattern_sets(&a, &b).is_none(), "isomorphic match");
        let c = vec![(path_graph(&[1, 3]), 2)];
        assert!(compare_pattern_sets(&a, &c).is_some());
        let d = vec![(path_graph(&[1, 2]), 1)];
        assert!(compare_pattern_sets(&a, &d).is_some(), "support differs");
        assert!(compare_pattern_sets(&a, &[]).is_some());
    }
}
