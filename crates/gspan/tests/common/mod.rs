//! Random small-graph strategies shared by the gSpan suites.

use proptest::prelude::*;
use tsg_graph::{EdgeLabel, LabeledGraph, NodeLabel};

/// A random connected-ish labeled graph: `n` nodes on a random spanning
/// chain plus extra random edges.
pub fn arb_graph(
    max_nodes: usize,
    node_labels: u32,
    edge_labels: u32,
) -> impl Strategy<Value = LabeledGraph> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            let labels = prop::collection::vec(0..node_labels, n);
            let chain_elabels = prop::collection::vec(0..edge_labels, n - 1);
            let extras = prop::collection::vec(((0..n), (0..n), 0..edge_labels), 0..=n);
            (labels, chain_elabels, extras)
        })
        .prop_map(|(labels, chain, extras)| {
            let mut g = LabeledGraph::with_nodes(labels.iter().map(|&l| NodeLabel(l)));
            for (i, &el) in chain.iter().enumerate() {
                g.add_edge(i, i + 1, EdgeLabel(el)).unwrap();
            }
            for (u, v, el) in extras {
                if u != v {
                    // Ignore duplicates; the chain guarantees connectivity.
                    let _ = g.add_edge(u, v, EdgeLabel(el));
                }
            }
            g
        })
}

/// A random connected directed graph: a chain of arcs with random
/// orientations plus extra random arcs (antiparallel pairs allowed).
pub fn arb_digraph(
    max_nodes: usize,
    node_labels: u32,
    edge_labels: u32,
) -> impl Strategy<Value = LabeledGraph> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            let labels = prop::collection::vec(0..node_labels, n);
            let chain = prop::collection::vec((0..edge_labels, prop::bool::ANY), n - 1);
            let extras = prop::collection::vec(((0..n), (0..n), 0..edge_labels), 0..=n);
            (labels, chain, extras)
        })
        .prop_map(|(labels, chain, extras)| {
            let mut g = LabeledGraph::with_nodes_directed(labels.iter().map(|&l| NodeLabel(l)));
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
