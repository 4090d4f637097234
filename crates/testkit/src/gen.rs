//! Seeded structure-aware generators for mining inputs.
//!
//! One canonical implementation of the random-input shapes the whole
//! workspace tests against: DAG taxonomies whose non-root concepts pick
//! one or two parents among lower-numbered concepts (so acyclicity holds
//! by construction), and small connected graphs built as a labeled chain
//! plus a few extra edges. These were previously copy-pasted across five
//! test files; every knob here matches those originals so deduplicating
//! onto this module does not change what gets generated.
//!
//! Two entry styles:
//!
//! * proptest strategies ([`arb_taxonomy`], [`arb_graph`], [`arb_db`],
//!   [`arb_input`]) for `proptest!` property tests;
//! * direct seeded generation ([`case`], [`cases`]) for harness code
//!   that wants a plain `u64 → Case` function — the metamorphic and
//!   fault drivers, which manage their own case loops.

use proptest::prelude::*;
use proptest::TestRng;
use tsg_graph::{EdgeLabel, GraphDatabase, LabeledGraph, NodeLabel};
use tsg_taxonomy::{Taxonomy, TaxonomyBuilder};

/// The support thresholds the agreement suites sweep. Chosen to hit
/// "everything", "most", and "some" frequency regimes on 2–5 graph
/// databases.
pub const THETAS: [f64; 3] = [1.0, 0.6, 0.4];

/// A random DAG taxonomy over `2..=max_concepts` concepts: concept 0 is
/// always a root, and each later concept is-a one or two distinct
/// earlier concepts.
pub fn arb_taxonomy(max_concepts: usize) -> impl Strategy<Value = Taxonomy> {
    (2..=max_concepts)
        .prop_flat_map(|n| {
            let parent_choices: Vec<_> = (1..n)
                .map(|i| prop::collection::vec(0..i, 1..=2.min(i)))
                .collect();
            (Just(n), parent_choices)
        })
        .prop_map(|(n, parents)| {
            let mut b = TaxonomyBuilder::with_concepts(n);
            for (i, ps) in parents.into_iter().enumerate() {
                let child = NodeLabel((i + 1) as u32);
                let mut seen = vec![];
                for p in ps {
                    if !seen.contains(&p) {
                        seen.push(p);
                        b.is_a(child, NodeLabel(p as u32)).unwrap();
                    }
                }
            }
            b.build().expect("acyclic by construction")
        })
}

/// A random multi-root, cross-linked DAG taxonomy over
/// `2..=max_concepts` concepts: each concept after 0 picks **zero** to
/// three distinct earlier parents, so parentless concepts become extra
/// roots and two-plus-parent concepts exercise the cross-link
/// (non-spanning-tree) ancestry paths of the interval reachability
/// labeling. Acyclic by construction (parents are always lower-numbered).
pub fn arb_dag_taxonomy(max_concepts: usize) -> impl Strategy<Value = Taxonomy> {
    (2..=max_concepts)
        .prop_flat_map(|n| {
            let parent_choices: Vec<_> = (1..n)
                .map(|i| prop::collection::vec(0..i, 0..=3.min(i)))
                .collect();
            (Just(n), parent_choices)
        })
        .prop_map(|(n, parents)| {
            let mut b = TaxonomyBuilder::with_concepts(n);
            for (i, ps) in parents.into_iter().enumerate() {
                let child = NodeLabel((i + 1) as u32);
                let mut seen = vec![];
                for p in ps {
                    if !seen.contains(&p) {
                        seen.push(p);
                        b.is_a(child, NodeLabel(p as u32)).unwrap();
                    }
                }
            }
            b.build().expect("acyclic by construction")
        })
}

/// A random small connected graph over labels `0..concepts`: a chain of
/// `2..=max_nodes` vertices (edge labels 0–1) plus up to two extra
/// edges.
pub fn arb_graph(concepts: usize, max_nodes: usize) -> impl Strategy<Value = LabeledGraph> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            let labels = prop::collection::vec(0..concepts, n);
            let chain = prop::collection::vec(0..2u32, n - 1);
            let extras = prop::collection::vec(((0..n), (0..n), 0..2u32), 0..=2);
            (labels, chain, extras)
        })
        .prop_map(|(labels, chain, extras)| {
            let mut g = LabeledGraph::with_nodes(labels.iter().map(|&l| NodeLabel(l as u32)));
            for (i, &el) in chain.iter().enumerate() {
                g.add_edge(i, i + 1, EdgeLabel(el)).unwrap();
            }
            for (u, v, el) in extras {
                if u != v {
                    // Parallel edges are rejected by the graph; skipping
                    // the occasional duplicate is fine for a generator.
                    let _ = g.add_edge(u, v, EdgeLabel(el));
                }
            }
            g
        })
}

/// A database of `min_graphs..=max_graphs` graphs from
/// [`arb_graph`]`(concepts, max_nodes)`.
pub fn arb_db(
    concepts: usize,
    min_graphs: usize,
    max_graphs: usize,
    max_nodes: usize,
) -> impl Strategy<Value = GraphDatabase> {
    prop::collection::vec(arb_graph(concepts, max_nodes), min_graphs..=max_graphs)
        .prop_map(GraphDatabase::from_graphs)
}

/// A coupled `(Taxonomy, GraphDatabase)` pair: the database's labels are
/// drawn from the taxonomy's concepts, so relabeling never fails.
pub fn arb_input_sized(
    max_concepts: usize,
    max_graphs: usize,
    max_nodes: usize,
) -> impl Strategy<Value = (Taxonomy, GraphDatabase)> {
    arb_taxonomy(max_concepts).prop_flat_map(move |t| {
        let n = t.concept_count();
        (Just(t), arb_db(n, 2, max_graphs, max_nodes))
    })
}

/// The default coupled input: up to 5 concepts, 2–4 graphs of up to 4
/// vertices — the shape the cross-validation suites have always used
/// (small enough for the brute-force reference oracle).
pub fn arb_input() -> impl Strategy<Value = (Taxonomy, GraphDatabase)> {
    arb_input_sized(5, 4, 4)
}

/// One of [`THETAS`].
pub fn arb_theta() -> impl Strategy<Value = f64> {
    prop::sample::select(THETAS.to_vec())
}

/// A complete seeded mining input.
#[derive(Clone, Debug)]
pub struct Case {
    /// The is-a taxonomy the database's labels live in.
    pub taxonomy: Taxonomy,
    /// The graph database (labels ⊆ taxonomy concepts).
    pub db: GraphDatabase,
    /// Fractional support threshold.
    pub theta: f64,
    /// The seed this case was generated from, for failure messages.
    pub seed: u64,
}

/// Generates the case for `seed` — the same triple every time, on every
/// host. Structure-aware: the taxonomy and database are coupled through
/// [`arb_input`], θ through [`arb_theta`].
pub fn case(seed: u64) -> Case {
    let mut rng = TestRng::new(seed);
    let (taxonomy, db) = arb_input().generate(&mut rng);
    let theta = arb_theta().generate(&mut rng);
    Case {
        taxonomy,
        db,
        theta,
        seed,
    }
}

/// `n` cases derived from a base seed: `case(base ^ mix(i))` for
/// `i = 0..n`, with a splitmix-style index mix so neighboring indices
/// land in unrelated parts of the seed space.
pub fn cases(base: u64, n: usize) -> impl Iterator<Item = Case> {
    (0..n).map(move |i| case(base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Case count for harness-driven loops: honors `PROPTEST_CASES` like the
/// proptest runner, defaulting to `dflt`.
pub fn case_count(dflt: usize) -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(dflt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_coupled() {
        let a = case(42);
        let b = case(42);
        assert_eq!(a.db.len(), b.db.len());
        assert_eq!(a.taxonomy.edge_list(), b.taxonomy.edge_list());
        assert_eq!(a.theta, b.theta);
        // Coupling: every database label is a taxonomy concept.
        for (_, g) in a.db.iter() {
            for &l in g.labels() {
                assert!(a.taxonomy.contains(l), "label {l:?} outside taxonomy");
            }
        }
    }

    #[test]
    fn seeded_cases_vary() {
        let distinct: std::collections::BTreeSet<_> = cases(7, 32)
            .map(|c| {
                (
                    c.taxonomy.edge_list(),
                    c.db.len(),
                    c.db.graphs().iter().map(|g| g.labels().to_vec()).collect::<Vec<_>>(),
                )
            })
            .collect();
        assert!(distinct.len() > 16, "only {} distinct cases of 32", distinct.len());
    }

    #[test]
    fn graphs_are_connected_chains_with_extras() {
        for c in cases(3, 16) {
            for (_, g) in c.db.iter() {
                assert!(g.is_connected());
                assert!(g.node_count() >= 2);
                assert!(g.edge_count() >= g.node_count() - 1);
            }
        }
    }
}
