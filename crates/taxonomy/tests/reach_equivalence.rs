//! Equivalence of the interval-labeled reachability layer against a
//! naive transitive-closure model, over multi-root cross-linked DAGs.
//!
//! The model recomputes every reflexive closure by breadth-first walks
//! over the parent/child lists — the definitionally-correct O(n²) answer
//! the interval labeling (spanning-forest pre/post intervals plus
//! extra-ancestor interval roots) must reproduce exactly: `is_ancestor`
//! on all pairs, materialized ancestor/descendant closures, ancestor
//! counts, common-ancestor sets (both the tree-LCA fast path and the
//! cross-link merge path), and most-general-ancestor sets, including
//! after `restrict` pruning and `unify_most_general` root grafting.
//! Generalized label frequencies, which walk parent edges instead of
//! materializing closures, are checked against the closure definition.
//!
//! Runs in the `scripts/ci.sh` deep stage with a pinned seed and 256
//! cases per property.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tsg_bitset::BitSet;
use tsg_graph::{GraphDatabase, LabeledGraph, NodeLabel};
use tsg_taxonomy::Taxonomy;
use tsg_testkit::gen::arb_dag_taxonomy;

/// Reflexive closure of `start` following `step` (parents or children).
fn walk(t: &Taxonomy, start: NodeLabel, up: bool) -> BTreeSet<usize> {
    let mut seen = BTreeSet::new();
    if !t.contains(start) {
        return seen;
    }
    let mut frontier = vec![start];
    seen.insert(start.index());
    while let Some(v) = frontier.pop() {
        let next = if up { t.parents(v) } else { t.children(v) };
        for &w in next {
            if seen.insert(w.index()) {
                frontier.push(w);
            }
        }
    }
    seen
}

fn assert_equivalent(t: &Taxonomy) {
    let concepts: Vec<NodeLabel> = t.concepts().collect();
    let naive_anc: Vec<BTreeSet<usize>> =
        concepts.iter().map(|&c| walk(t, c, true)).collect();
    for (i, &c) in concepts.iter().enumerate() {
        let anc = &naive_anc[i];
        assert_eq!(
            t.ancestors(c).to_vec(),
            anc.iter().copied().collect::<Vec<_>>(),
            "ancestors({c}) diverge"
        );
        assert_eq!(t.ancestor_count(c), anc.len(), "ancestor_count({c})");
        let desc = walk(t, c, false);
        assert_eq!(
            t.descendants(c).to_vec(),
            desc.iter().copied().collect::<Vec<_>>(),
            "descendants({c}) diverge"
        );
        let mga: Vec<NodeLabel> = t
            .roots()
            .iter()
            .copied()
            .filter(|r| anc.contains(&r.index()))
            .collect();
        assert_eq!(t.most_general_ancestors(c), mga, "mga({c})");
        for (j, &d) in concepts.iter().enumerate() {
            assert_eq!(
                t.is_ancestor(c, d),
                naive_anc[j].contains(&c.index()),
                "is_ancestor({c}, {d})"
            );
            let common: Vec<usize> =
                anc.intersection(&naive_anc[j]).copied().collect();
            assert_eq!(
                t.common_ancestors(c, d).to_vec(),
                common,
                "common_ancestors({c}, {d})"
            );
        }
    }
    // Absent / out-of-range ids never participate in ancestry.
    let ghost = NodeLabel(t.concept_count() as u32 - 1);
    if !t.contains(ghost) {
        assert!(t.ancestors(ghost).is_empty());
        assert!(t.descendants(ghost).is_empty());
        assert!(!t.is_ancestor(ghost, ghost));
    }
}

/// An upward-closed keep set: the union of the ancestor closures of a
/// few picked concepts.
fn upward_closed_keep(t: &Taxonomy, picks: &[usize]) -> BitSet {
    let concepts: Vec<NodeLabel> = t.concepts().collect();
    let mut keep = BitSet::new(t.concept_count());
    for p in picks {
        let c = concepts[p % concepts.len()];
        for a in t.ancestors(c).iter() {
            keep.insert(a);
        }
    }
    keep
}

proptest! {
    #[test]
    fn interval_labels_match_naive_closures(t in arb_dag_taxonomy(16)) {
        assert_equivalent(&t);
    }

    #[test]
    fn equivalence_survives_unification(t in arb_dag_taxonomy(12)) {
        assert_equivalent(&t.unify_most_general());
    }

    #[test]
    fn equivalence_survives_restriction(
        t in arb_dag_taxonomy(12),
        picks in prop::collection::vec(0..64usize, 1..4),
    ) {
        let n = t.concept_count();
        let keep = upward_closed_keep(&t, &picks);
        let r = t.restrict(&keep);
        prop_assert!(r.present_count() < n || t.present_count() == r.present_count());
        assert_equivalent(&r);
    }

    #[test]
    fn deep_chains_and_wide_fans_stay_exact(depth in 2..40usize, fan in 1..6usize) {
        // A comb: one chain of `depth` concepts, each chain node also
        // parenting `fan` leaves, plus every leaf cross-linked to the
        // chain head — adversarial for interval nesting.
        let chain = depth;
        let leaves = depth * fan;
        let n = chain + leaves;
        let mut edges = Vec::new();
        for i in 1..chain {
            edges.push((i as u32, (i - 1) as u32));
        }
        for l in 0..leaves {
            let owner = l / fan;
            edges.push(((chain + l) as u32, owner as u32));
            if owner != 0 {
                edges.push(((chain + l) as u32, 0));
            }
        }
        let t = tsg_taxonomy::taxonomy_from_edges(n, edges).unwrap();
        assert_equivalent(&t);
    }

    #[test]
    fn label_frequencies_match_the_closure_definition(
        t in arb_dag_taxonomy(12),
        restrict in prop::bool::ANY,
        picks in prop::collection::vec(0..64usize, 1..4),
        graphs in prop::collection::vec(prop::collection::vec(0..16usize, 1..6), 0..6),
    ) {
        // Labels range past the concept count (out-of-range ids), and a
        // restricted taxonomy adds absent concepts: neither counts.
        let t = if restrict { t.restrict(&upward_closed_keep(&t, &picks)) } else { t };
        let n = t.concept_count();
        let db = GraphDatabase::from_graphs(
            graphs
                .iter()
                .map(|labels| LabeledGraph::with_nodes(labels.iter().map(|&l| NodeLabel(l as u32))))
                .collect(),
        );
        let mut want = vec![0usize; n];
        for labels in &graphs {
            let covered: BTreeSet<usize> = labels
                .iter()
                .filter(|&&l| l < n)
                .flat_map(|&l| t.ancestors(NodeLabel(l as u32)).to_vec())
                .collect();
            for a in covered {
                want[a] += 1;
            }
        }
        prop_assert_eq!(t.generalized_label_frequencies(&db), want);
    }
}
