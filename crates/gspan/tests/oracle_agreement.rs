//! Cross-validation: the gSpan miner must agree with the independent
//! brute-force oracle on every random small database.
//!
//! This is the load-bearing correctness test for the entire mining stack:
//! the oracle enumerates subgraphs by edge subsets and recounts support
//! with the VF2-style engine, sharing no code with DFS-code mining.

mod common;

use common::{arb_digraph, arb_graph};
use proptest::prelude::*;
use tsg_graph::{EdgeLabel, GraphDatabase, LabeledGraph, NodeLabel};
use tsg_gspan::oracle::{brute_force_frequent, compare_pattern_sets};
use tsg_gspan::mine_frequent;

fn arb_db() -> impl Strategy<Value = GraphDatabase> {
    prop::collection::vec(arb_graph(5, 3, 2), 2..=4).prop_map(GraphDatabase::from_graphs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gspan_matches_brute_force(db in arb_db(), min_support in 1usize..=3) {
        let max_edges = 4;
        let got: Vec<_> = mine_frequent(&db, min_support, Some(max_edges))
            .into_iter()
            .map(|p| (p.graph, p.support))
            .collect();
        let want = brute_force_frequent(&db, min_support, max_edges);
        if let Some(msg) = compare_pattern_sets(&got, &want) {
            // Dump the database in text form for reproduction.
            let dump = tsg_graph::io::write_database(&db);
            prop_assert!(false, "{msg}\nmin_support={min_support}\n{dump}");
        }
    }

    #[test]
    fn every_reported_code_is_minimal_and_support_exact(db in arb_db()) {
        for p in mine_frequent(&db, 1, Some(4)) {
            prop_assert!(tsg_gspan::is_min(&p.code), "non-minimal code {}", p.code);
            let true_sup = tsg_iso::support_count(&p.graph, &db, &tsg_iso::ExactMatcher);
            prop_assert_eq!(p.support, true_sup, "support mismatch for {}", p.code);
            prop_assert!(p.graph.is_connected());
            prop_assert!(p.graph.edge_count() >= 1);
        }
    }
}

#[test]
fn no_duplicate_patterns_on_dense_graph() {
    // A dense 5-cycle with a chord and uniform labels stresses automorphism
    // handling.
    let mut g = LabeledGraph::with_nodes(vec![NodeLabel(0); 5]);
    for i in 0..5 {
        g.add_edge(i, (i + 1) % 5, EdgeLabel(0)).unwrap();
    }
    g.add_edge(0, 2, EdgeLabel(0)).unwrap();
    let db = GraphDatabase::from_graphs(vec![g]);
    let got = mine_frequent(&db, 1, Some(4));
    for (i, a) in got.iter().enumerate() {
        for b in &got[i + 1..] {
            assert!(
                !tsg_iso::is_isomorphic(&a.graph, &b.graph),
                "duplicate patterns {} and {}",
                a.code,
                b.code
            );
        }
    }
    let want = brute_force_frequent(&db, 1, 4);
    assert!(compare_pattern_sets(
        &got.into_iter().map(|p| (p.graph, p.support)).collect::<Vec<_>>(),
        &want
    )
    .is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `min_dfs_code` is a complete isomorphism invariant: codes are equal
    /// exactly when the graphs are isomorphic.
    #[test]
    fn min_code_iff_isomorphic(g in arb_graph(5, 2, 2), h in arb_graph(5, 2, 2)) {
        prop_assume!(g.is_connected() && h.is_connected());
        let cg = tsg_gspan::min_dfs_code(&g);
        let ch = tsg_gspan::min_dfs_code(&h);
        prop_assert_eq!(cg == ch, tsg_iso::is_isomorphic(&g, &h));
        // And every code reconstructs an isomorphic graph.
        prop_assert!(tsg_iso::is_isomorphic(&cg.to_graph().unwrap(), &g));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Directed mining: gSpan with arc-annotated DFS codes must agree with
    /// the direction-aware brute-force oracle.
    #[test]
    fn directed_gspan_matches_brute_force(
        db in prop::collection::vec(arb_digraph(5, 3, 2), 2..=4)
            .prop_map(GraphDatabase::from_graphs),
        min_support in 1usize..=3,
    ) {
        let max_edges = 4;
        let got: Vec<_> = mine_frequent(&db, min_support, Some(max_edges))
            .into_iter()
            .map(|p| (p.graph, p.support))
            .collect();
        let want = brute_force_frequent(&db, min_support, max_edges);
        if let Some(msg) = compare_pattern_sets(&got, &want) {
            let dump = tsg_graph::io::write_database(&db);
            prop_assert!(false, "{msg}\nmin_support={min_support}\n{dump}");
        }
        // Every reported pattern is a directed graph with a minimal code.
        for p in mine_frequent(&db, min_support, Some(max_edges)) {
            prop_assert!(p.graph.is_directed());
            prop_assert!(tsg_gspan::is_min(&p.code));
        }
    }

    /// Canonical codes remain a complete isomorphism invariant on digraphs.
    #[test]
    fn directed_min_code_iff_isomorphic(
        g in arb_digraph(4, 2, 2),
        h in arb_digraph(4, 2, 2),
    ) {
        prop_assume!(g.is_connected() && h.is_connected());
        let cg = tsg_gspan::min_dfs_code(&g);
        let ch = tsg_gspan::min_dfs_code(&h);
        prop_assert_eq!(cg == ch, tsg_iso::is_isomorphic(&g, &h));
        prop_assert!(tsg_iso::is_isomorphic(&cg.to_graph().unwrap(), &g));
    }
}
