//! Step 1: relabeling the input database with most-general ancestors.
//!
//! Every vertex label is replaced by *the* most general ancestor of its
//! label; original labels are retained for occurrence-index construction
//! (paper §3 Step 1, Example 3.1 / Figure 3.1). When the taxonomy has
//! several roots reachable from one label, artificial roots are introduced
//! first so the most general ancestor is unique.

use crate::TaxogramError;
use std::sync::Arc;
use tsg_graph::{GraphDatabase, NodeLabel};
use tsg_taxonomy::Taxonomy;

/// The relabeled database `D_mg` plus everything Step 2 needs to recover
/// original labels.
#[derive(Debug, Clone)]
pub struct Relabeled {
    /// The database with every vertex relabeled to its most general
    /// ancestor.
    pub dmg: GraphDatabase,
    /// `originals[gid][node]` — the pre-relabeling label of each vertex
    /// (the "labels kept in parenthesis" of Figure 3.1).
    pub originals: Vec<Vec<NodeLabel>>,
    /// The working taxonomy: the input taxonomy, with artificial roots
    /// added if unification was necessary. All later stages must use this
    /// one (concept ids are a superset of the input's). Shared behind an
    /// `Arc` so cloning a `Relabeled` (the parallel engines fan one out
    /// per worker) shares the closure memo instead of duplicating it.
    pub taxonomy: Arc<Taxonomy>,
}

/// Performs Step 1.
///
/// # Errors
/// Returns [`TaxogramError::LabelNotInTaxonomy`] if some vertex label is
/// not a present concept of `taxonomy`.
pub fn relabel(db: &GraphDatabase, taxonomy: &Taxonomy) -> Result<Relabeled, TaxogramError> {
    // Validate labels first so unification work isn't wasted on bad input.
    for (gid, g) in db.iter() {
        for (node, &l) in g.labels().iter().enumerate() {
            if !taxonomy.contains(l) {
                return Err(TaxogramError::LabelNotInTaxonomy {
                    graph: gid,
                    node,
                    label: l,
                });
            }
        }
    }
    let taxonomy = taxonomy.unify_most_general();
    let mut dmg = db.clone();
    relabel_in_place(&mut dmg, &taxonomy);
    Ok(Relabeled {
        dmg,
        originals: db.iter().map(|(_, g)| g.labels().to_vec()).collect(),
        taxonomy: Arc::new(taxonomy),
    })
}

/// Replaces every vertex label of `db` by its most general ancestor in
/// `unified`, which must already be unified
/// ([`Taxonomy::unify_most_general`]) and contain every label of `db`.
/// The sharded miner unifies once per run and relabels each shard it
/// reads through here, in place when it owns the shard and needs no
/// original labels.
pub(crate) fn relabel_in_place(db: &mut GraphDatabase, unified: &Taxonomy) {
    // Memoize label → most-general ancestor; label sets are small compared
    // to vertex counts.
    let mut mga_cache: std::collections::HashMap<NodeLabel, NodeLabel> =
        std::collections::HashMap::new();
    for gid in 0..db.len() {
        let g = db.graph_mut(gid);
        for node in 0..g.node_count() {
            let l = g.label(node);
            let mg = *mga_cache.entry(l).or_insert_with(|| {
                unified
                    .most_general_ancestor(l)
                    .expect("unify_most_general makes every concept's root unique") // tsg-lint: allow(panic) — unify_most_general gives every concept a unique root
            });
            g.set_label(node, mg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::{EdgeLabel, LabeledGraph};
    use tsg_taxonomy::{samples, taxonomy_from_edges};

    #[test]
    fn figure_3_1_relabeling() {
        // Figure 1.4's database over the sample taxonomy: every vertex
        // relabels to `a`, originals preserved.
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let r = relabel(&db, &t).unwrap();
        for (gid, g) in r.dmg.iter() {
            for (node, &l) in g.labels().iter().enumerate() {
                assert_eq!(l, c.a, "every vertex becomes a");
                assert_eq!(r.originals[gid][node], db[gid].label(node));
            }
        }
        assert_eq!(r.taxonomy.concept_count(), t.concept_count(), "no unification needed");
    }

    #[test]
    fn multi_root_labels_get_artificial_ancestor() {
        // Roots 0, 1 share child 2; a graph labeled {2} must relabel to the
        // artificial root, not to either real root.
        let t = taxonomy_from_edges(3, [(2, 0), (2, 1)]).unwrap();
        let mut g = LabeledGraph::with_nodes([NodeLabel(2), NodeLabel(2)]);
        g.add_edge(0, 1, EdgeLabel(0)).unwrap();
        let db = GraphDatabase::from_graphs(vec![g]);
        let r = relabel(&db, &t).unwrap();
        let mg = r.dmg[0].label(0);
        assert!(r.taxonomy.is_artificial(mg));
        assert_eq!(r.taxonomy.concept_count(), 4);
    }

    #[test]
    fn unknown_label_is_an_error() {
        let t = taxonomy_from_edges(2, [(1, 0)]).unwrap();
        let mut g = LabeledGraph::with_nodes([NodeLabel(9)]);
        let _ = &mut g;
        let db = GraphDatabase::from_graphs(vec![g]);
        let err = relabel(&db, &t).unwrap_err();
        assert_eq!(
            err,
            TaxogramError::LabelNotInTaxonomy {
                graph: 0,
                node: 0,
                label: NodeLabel(9)
            }
        );
    }

    #[test]
    fn pruned_concepts_count_as_unknown() {
        let t = taxonomy_from_edges(3, [(1, 0), (2, 1)]).unwrap();
        let keep = tsg_bitset::BitSet::from_iter_with_universe(3, [0usize, 1]);
        let restricted = t.restrict(&keep);
        let g = LabeledGraph::with_nodes([NodeLabel(2)]);
        let db = GraphDatabase::from_graphs(vec![g]);
        assert!(relabel(&db, &restricted).is_err());
    }
}
