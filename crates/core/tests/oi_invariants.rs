//! Structural invariants of occurrence indices on random inputs:
//!
//! * the entry root covers every occurrence of the class;
//! * each child's occurrence set is a subset of its parent's (Lemma 2 at
//!   the index level — this is what makes the enumeration's intersections
//!   antitone);
//! * each label's occurrence set is exactly the set of occurrences whose
//!   original label at that position is a (reflexive) descendant of the
//!   label — verified directly against the embeddings.

use proptest::prelude::*;
use taxogram_core::oi::{OccurrenceIndex, OiOptions};
use taxogram_core::relabel::relabel;
use tsg_graph::{EdgeLabel, GraphDatabase, LabeledGraph, NodeLabel};
use tsg_gspan::{Embedding, GSpan, GSpanConfig, Grow, MinedPattern, PatternSink};
use tsg_taxonomy::{Taxonomy, TaxonomyBuilder};

fn arb_taxonomy(max_concepts: usize) -> impl Strategy<Value = Taxonomy> {
    (2..=max_concepts)
        .prop_flat_map(|n| {
            let parents: Vec<_> = (1..n)
                .map(|i| prop::collection::vec(0..i, 1..=2.min(i)))
                .collect();
            (Just(n), parents)
        })
        .prop_map(|(n, parents)| {
            let mut b = TaxonomyBuilder::with_concepts(n);
            for (i, ps) in parents.into_iter().enumerate() {
                let mut seen = vec![];
                for p in ps {
                    if !seen.contains(&p) {
                        seen.push(p);
                        b.is_a(NodeLabel((i + 1) as u32), NodeLabel(p as u32)).unwrap();
                    }
                }
            }
            b.build().unwrap()
        })
}

fn arb_db(concepts: usize) -> impl Strategy<Value = GraphDatabase> {
    prop::collection::vec(
        (
            prop::collection::vec(0..concepts, 2..5),
            prop::collection::vec(0..2u32, 1..4),
        ),
        2..5,
    )
    .prop_map(|graphs| {
        let mut db = GraphDatabase::new();
        for (labels, elabels) in graphs {
            let mut g = LabeledGraph::with_nodes(labels.iter().map(|&l| NodeLabel(l as u32)));
            for i in 1..labels.len() {
                let el = elabels[(i - 1) % elabels.len()];
                g.add_edge(i - 1, i, EdgeLabel(el)).unwrap();
            }
            db.push(g);
        }
        db
    })
}

struct Classes {
    items: Vec<(LabeledGraph, Vec<Embedding>)>,
}

impl PatternSink for Classes {
    fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
        self.items.push((p.graph.clone(), p.embeddings.to_vec()));
        Grow::Continue
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn oi_invariants_hold((taxonomy, db) in arb_taxonomy(6).prop_flat_map(|t| {
        let n = t.concept_count();
        (Just(t), arb_db(n))
    })) {
        let rel = relabel(&db, &taxonomy).unwrap();
        let mut classes = Classes { items: vec![] };
        GSpan::new(&rel.dmg, GSpanConfig { min_support: 1, max_edges: Some(3) })
            .mine(&mut classes);
        for (skeleton, embeddings) in &classes.items {
            let oi = OccurrenceIndex::build(
                embeddings,
                &rel.originals,
                skeleton.labels(),
                &rel.taxonomy,
                OiOptions { frequent: None, contract_equal_sets: false, predescend_roots: false },
            );
            prop_assert_eq!(oi.universe, embeddings.len());
            prop_assert_eq!(oi.entries.len(), skeleton.node_count());
            for (pos, entry) in oi.entries.iter().enumerate() {
                // Root covers everything.
                let root = entry.root();
                prop_assert_eq!(entry.occs(root).count_ones(), oi.universe);
                // Every live label's set matches the embedding-level
                // definition exactly, and children's sets are subsets.
                for label in entry.live_labels() {
                    let id = entry.lookup(label).unwrap();
                    let got: Vec<usize> = entry.occs(id).iter().collect();
                    let want: Vec<usize> = embeddings
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| {
                            let original = rel.originals[e.gid][e.map[pos]];
                            rel.taxonomy.is_ancestor(label, original)
                        })
                        .map(|(i, _)| i)
                        .collect();
                    prop_assert_eq!(&got, &want, "label {} at position {}", label, pos);
                    prop_assert!(!got.is_empty(), "covered labels have occurrences");
                    for &child in entry.children(id) {
                        let cset: Vec<usize> = entry.occs(child).iter().collect();
                        prop_assert!(
                            cset.iter().all(|o| got.contains(o)),
                            "child set must be a subset of the parent's"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn contraction_preserves_mining_output((taxonomy, db) in arb_taxonomy(6).prop_flat_map(|t| {
        let n = t.concept_count();
        (Just(t), arb_db(n))
    })) {
        // Contraction only removes labels whose patterns would all be
        // over-generalized; outputs with and without it must agree.
        use taxogram_core::{Enhancements, Taxogram, TaxogramConfig};
        let mut with = TaxogramConfig::with_threshold(0.5).max_edges(3);
        with.enhancements = Enhancements { contract_equal_sets: true, ..Enhancements::all() };
        let mut without = with;
        without.enhancements.contract_equal_sets = false;
        without.enhancements.predescend_roots = false;
        let a = Taxogram::new(with).mine(&db, &taxonomy).unwrap();
        let b = Taxogram::new(without).mine(&db, &taxonomy).unwrap();
        prop_assert_eq!(a.patterns.len(), b.patterns.len());
        for p in &a.patterns {
            prop_assert!(
                b.patterns.iter().any(|q| q.support_count == p.support_count
                    && tsg_iso::is_isomorphic(&p.graph, &q.graph)),
                "pattern lost by contraction"
            );
        }
    }
}
