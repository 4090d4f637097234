//! Automorphism groups of small graphs.
//!
//! Taxogram's Step 3 enumerates specialized label vectors over a fixed
//! pattern skeleton. When the skeleton is symmetric, two different label
//! vectors can denote the *same* pattern (e.g. specializing either end of
//! the edge `a—a` to `b` yields the one pattern `a—b`). The enumeration
//! canonicalizes label vectors under the skeleton's automorphism group to
//! keep the output duplicate-free; that group is computed here, once per
//! pattern class.

use crate::{count_embeddings, enumerate_embeddings, ExactMatcher};
use std::ops::ControlFlow;
use tsg_graph::{LabeledGraph, NodeId, NodeLabel};

/// All automorphisms of `g` (vertex- and edge-label-preserving structural
/// self-bijections), each as a permutation `π` with `π[i]` the image of
/// vertex `i`. The identity is always included. Order is deterministic.
///
/// Intended for mining-sized patterns (≲ 20 vertices); the search is the
/// generic embedding backtracker, which is exponential in the worst case.
pub fn automorphisms(g: &LabeledGraph) -> Vec<Vec<NodeId>> {
    // A self-embedding is injective and, because edge counts agree, it is
    // edge-bijective, hence an automorphism.
    let mut out = Vec::new();
    enumerate_embeddings(g, g, &ExactMatcher, |m| {
        out.push(m.to_vec());
        ControlFlow::Continue(())
    });
    debug_assert!(!out.is_empty() || g.node_count() == 0);
    out
}

/// The number of automorphisms without materializing them.
pub fn automorphism_count(g: &LabeledGraph) -> usize {
    count_embeddings(g, g, &ExactMatcher)
}

/// The lexicographically smallest image of `labels` under the given
/// automorphism group: `min over π of [labels[π[0]], labels[π[1]], …]`.
///
/// Two label vectors over the same skeleton denote the same pattern iff
/// their canonical forms agree, so this gives each class member a unique
/// representative.
///
/// # Panics
/// Panics if some permutation's length differs from `labels`'s.
pub fn canonical_under_automorphisms(
    labels: &[NodeLabel],
    autos: &[Vec<NodeId>],
) -> Vec<NodeLabel> {
    let mut out = Vec::with_capacity(labels.len());
    canonical_under_automorphisms_into(labels, autos, &mut out);
    out
}

/// [`canonical_under_automorphisms`], appending the canonical vector to
/// `out` instead of allocating one. Any per-vertex values with a total
/// order canonicalize the same way, e.g. Step 3's per-entry local ids.
///
/// # Panics
/// Panics if some permutation's length differs from `labels`'s.
pub fn canonical_under_automorphisms_into<T: Copy + Ord>(
    labels: &[T],
    autos: &[Vec<NodeId>],
    out: &mut Vec<T>,
) {
    fn image<'a, T: Copy>(
        labels: &'a [T],
        pi: &'a [NodeId],
    ) -> impl Iterator<Item = T> + 'a {
        assert_eq!(pi.len(), labels.len(), "permutation length mismatch");
        pi.iter().map(move |&img| labels[img]) // tsg-lint: allow(index) — img is a permutation image within node count
    }
    if let Some(best) = autos
        .iter()
        .min_by(|a, b| image(labels, a).cmp(image(labels, b)))
    {
        out.extend(image(labels, best));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::EdgeLabel;

    fn nl(v: u32) -> NodeLabel {
        NodeLabel(v)
    }

    #[test]
    fn symmetric_edge_has_two_automorphisms() {
        let mut g = LabeledGraph::with_nodes([nl(5), nl(5)]);
        g.add_edge(0, 1, EdgeLabel(0)).unwrap();
        let autos = automorphisms(&g);
        assert_eq!(autos.len(), 2);
        assert!(autos.contains(&vec![0, 1]));
        assert!(autos.contains(&vec![1, 0]));
        assert_eq!(automorphism_count(&g), 2);
    }

    #[test]
    fn asymmetric_labels_leave_only_identity() {
        let mut g = LabeledGraph::with_nodes([nl(1), nl(2)]);
        g.add_edge(0, 1, EdgeLabel(0)).unwrap();
        assert_eq!(automorphisms(&g), vec![vec![0, 1]]);
    }

    #[test]
    fn uniform_triangle_has_six_automorphisms() {
        let mut g = LabeledGraph::with_nodes([nl(1), nl(1), nl(1)]);
        g.add_edge(0, 1, EdgeLabel(0)).unwrap();
        g.add_edge(1, 2, EdgeLabel(0)).unwrap();
        g.add_edge(2, 0, EdgeLabel(0)).unwrap();
        assert_eq!(automorphism_count(&g), 6);
    }

    #[test]
    fn edge_labels_break_symmetry() {
        let mut g = LabeledGraph::with_nodes([nl(1), nl(1), nl(1)]);
        g.add_edge(0, 1, EdgeLabel(0)).unwrap();
        g.add_edge(1, 2, EdgeLabel(1)).unwrap();
        g.add_edge(2, 0, EdgeLabel(2)).unwrap();
        assert_eq!(automorphism_count(&g), 1);
    }

    #[test]
    fn path_reversal_automorphism() {
        let mut g = LabeledGraph::with_nodes([nl(1), nl(2), nl(1)]);
        g.add_edge(0, 1, EdgeLabel(0)).unwrap();
        g.add_edge(1, 2, EdgeLabel(0)).unwrap();
        let autos = automorphisms(&g);
        assert_eq!(autos.len(), 2);
        assert!(autos.contains(&vec![2, 1, 0]));
    }

    #[test]
    fn canonicalization_identifies_symmetric_variants() {
        // Skeleton a—a (symmetric); specializations (b, c) and (c, b) are
        // the same pattern.
        let autos = vec![vec![0, 1], vec![1, 0]];
        let v1 = [nl(9), nl(3)];
        let v2 = [nl(3), nl(9)];
        let c1 = canonical_under_automorphisms(&v1, &autos);
        let c2 = canonical_under_automorphisms(&v2, &autos);
        assert_eq!(c1, c2);
        assert_eq!(c1, vec![nl(3), nl(9)]);
        // Identity-only group: vectors stay distinct.
        let id = vec![vec![0, 1]];
        assert_ne!(
            canonical_under_automorphisms(&v1, &id),
            canonical_under_automorphisms(&v2, &id)
        );
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = LabeledGraph::new();
        assert_eq!(automorphisms(&g), vec![Vec::<usize>::new()]);
        assert_eq!(canonical_under_automorphisms(&[], &[vec![]]), vec![]);
    }
}
