//! The load-bearing correctness test for Taxogram: on random small
//! inputs, the full pipeline (all enhancement combinations) must produce
//! exactly the frequent, minimal, complete pattern set computed by the
//! brute-force reference implementation of the problem definition.

use proptest::prelude::*;
use taxogram_core::reference::{compare_with_reference, reference_mine};
use taxogram_core::{Enhancements, Taxogram, TaxogramConfig};
use tsg_graph::{EdgeLabel, GraphDatabase, LabeledGraph, NodeLabel};
use tsg_taxonomy::Taxonomy;
use tsg_testkit::gen::arb_taxonomy;

/// Coupled inputs at this suite's historical shape (up to 6 concepts,
/// 2–4 graphs of up to 4 vertices — small enough for the brute-force
/// reference), via the shared [`tsg_testkit::gen`] generators.
fn arb_input() -> impl Strategy<Value = (Taxonomy, GraphDatabase)> {
    tsg_testkit::gen::arb_input_sized(6, 4, 4)
}

fn all_enhancement_combos() -> Vec<Enhancements> {
    let mut v = Vec::new();
    for a in [false, true] {
        for b in [false, true] {
            for c in [false, true] {
                for d in [false, true] {
                    v.push(Enhancements {
                        apriori_child_prune: a,
                        prune_infrequent_labels: b,
                        predescend_roots: c,
                        contract_equal_sets: d,
                    });
                }
            }
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn taxogram_equals_reference((taxonomy, db) in arb_input(), theta in prop::sample::select(vec![1.0f64, 0.75, 0.5, 0.3])) {
        let max_edges = 3;
        let want = reference_mine(&db, &taxonomy, theta, max_edges);
        for enh in [Enhancements::all(), Enhancements::none()] {
            let mut cfg = TaxogramConfig::with_threshold(theta).max_edges(max_edges);
            cfg.enhancements = enh;
            let got = Taxogram::new(cfg).mine(&db, &taxonomy).unwrap();
            if let Some(msg) = compare_with_reference(&got.patterns, &want) {
                let dump = tsg_graph::io::write_database(&db);
                let edges: Vec<_> = taxonomy.edge_list();
                prop_assert!(
                    false,
                    "θ={theta} enh={enh:?}: {msg}\ntaxonomy edges: {edges:?}\n{dump}"
                );
            }
        }
    }

    #[test]
    fn every_enhancement_combo_agrees((taxonomy, db) in arb_input()) {
        let theta = 0.5;
        let max_edges = 3;
        let mut baseline: Option<Vec<(Vec<NodeLabel>, usize)>> = None;
        for enh in all_enhancement_combos() {
            let mut cfg = TaxogramConfig::with_threshold(theta).max_edges(max_edges);
            cfg.enhancements = enh;
            let got = Taxogram::new(cfg).mine(&db, &taxonomy).unwrap();
            // Signature: sorted (sorted-label-multiset + edge count, support).
            let mut sig: Vec<(Vec<NodeLabel>, usize)> = got
                .patterns
                .iter()
                .map(|p| {
                    let mut ls = p.graph.labels().to_vec();
                    ls.sort();
                    ls.push(NodeLabel(p.graph.edge_count() as u32));
                    (ls, p.support_count)
                })
                .collect();
            sig.sort();
            match &baseline {
                None => baseline = Some(sig),
                Some(b) => prop_assert_eq!(b, &sig, "enhancements {:?} diverged", enh),
            }
        }
    }
}

#[test]
fn multi_root_random_case() {
    // A hand-picked multi-root case: roots 0 and 1, concept 2 under both,
    // 3 under 2, 4 under 1 only.
    let t = tsg_taxonomy::taxonomy_from_edges(5, [(2, 0), (2, 1), (3, 2), (4, 1)]).unwrap();
    let mk = |labels: &[u32]| {
        let mut g = LabeledGraph::with_nodes(labels.iter().map(|&l| NodeLabel(l)));
        for i in 1..labels.len() {
            g.add_edge(i - 1, i, EdgeLabel(0)).unwrap();
        }
        g
    };
    let db = GraphDatabase::from_graphs(vec![mk(&[3, 4]), mk(&[2, 4, 3]), mk(&[3, 1])]);
    for theta in [1.0, 0.6, 0.3] {
        let want = reference_mine(&db, &t, theta, 2);
        let got = Taxogram::new(TaxogramConfig::with_threshold(theta).max_edges(2))
            .mine(&db, &t)
            .unwrap();
        if let Some(msg) = compare_with_reference(&got.patterns, &want) {
            panic!("θ = {theta}: {msg}");
        }
    }
}

/// A random connected directed graph over the taxonomy's concepts.
fn arb_digraph(concepts: usize, max_nodes: usize) -> impl Strategy<Value = LabeledGraph> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            let labels = prop::collection::vec(0..concepts, n);
            let chain = prop::collection::vec((0..2u32, prop::bool::ANY), n - 1);
            let extras = prop::collection::vec(((0..n), (0..n), 0..2u32), 0..=2);
            (labels, chain, extras)
        })
        .prop_map(|(labels, chain, extras)| {
            let mut g = LabeledGraph::with_nodes_directed(
                labels.iter().map(|&l| NodeLabel(l as u32)),
            );
            for (i, &(el, flip)) in chain.iter().enumerate() {
                let (u, v) = if flip { (i + 1, i) } else { (i, i + 1) };
                g.add_edge(u, v, EdgeLabel(el)).unwrap();
            }
            for (u, v, el) in extras {
                if u != v {
                    let _ = g.add_edge(u, v, EdgeLabel(el));
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Directed taxonomy-superimposed mining — the capability the paper
    /// claims for Taxogram but could not evaluate ("gSpan does not support
    /// directed graphs") — must match the brute-force reference.
    #[test]
    fn directed_taxogram_equals_reference(
        (taxonomy, db) in arb_taxonomy(5).prop_flat_map(|t| {
            let n = t.concept_count();
            let db = prop::collection::vec(arb_digraph(n, 4), 2..=4)
                .prop_map(GraphDatabase::from_graphs);
            (Just(t), db)
        }),
        theta in prop::sample::select(vec![1.0f64, 0.6, 0.4]),
    ) {
        let max_edges = 3;
        let want = reference_mine(&db, &taxonomy, theta, max_edges);
        let got = Taxogram::new(TaxogramConfig::with_threshold(theta).max_edges(max_edges))
            .mine(&db, &taxonomy)
            .unwrap();
        if let Some(msg) = compare_with_reference(&got.patterns, &want) {
            let dump = tsg_graph::io::write_database(&db);
            prop_assert!(false, "θ={theta}: {msg}\ntaxonomy: {:?}\n{dump}", taxonomy.edge_list());
        }
        for p in &got.patterns {
            prop_assert!(p.graph.is_directed(), "directed patterns from directed data");
        }
    }
}
