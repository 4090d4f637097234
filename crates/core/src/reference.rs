//! A brute-force reference implementation of taxonomy-superimposed graph
//! mining, straight from the problem definition (paper §2).
//!
//! Independent of every optimized code path: candidates come from explicit
//! subgraph enumeration plus exhaustive ancestor generalization, supports
//! from direct generalized-subgraph-isomorphism tests, and minimality from
//! pairwise over-generalization checks. Exponential — a test oracle for
//! tiny inputs only, mirroring [`tsg_gspan::oracle`] one level up.
//!
//! ### Interpretation note (documented in DESIGN.md)
//!
//! The paper's `IS_GEN_ISO` definition technically lets the specialized
//! graph carry extra edges, which would make a path over-generalized by an
//! equally-frequent triangle. Every construction in the paper (pattern
//! classes, occurrence indices, label-replacement enumeration, the
//! examples) treats generalization as *label-wise* over a fixed structure,
//! so this oracle requires equal edge counts in the over-generalization
//! test — the within-class reading that Taxogram (and the original AcGM
//! extension) implements.

// tsg-lint: allow(index) — the reference oracle enumerates masks and position maps over its own small vectors

use tsg_graph::{GraphDatabase, LabeledGraph, NodeLabel};
use tsg_iso::{is_gen_iso, is_isomorphic, support_count, GeneralizedMatcher};
use tsg_taxonomy::Taxonomy;

/// Mines all frequent, non-over-generalized patterns by brute force.
///
/// `max_edges` caps candidate size (the oracle is exponential in it).
/// Returns `(pattern, support_count)` pairs, one per isomorphism class.
///
/// # Panics
/// Panics if a database graph has more than 16 edges.
pub fn reference_mine(
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    theta: f64,
    max_edges: usize,
) -> Vec<(LabeledGraph, usize)> {
    let min_support = db.min_support_count(theta);
    let matcher = GeneralizedMatcher::new(taxonomy);

    // 1. Candidates: every connected edge-subset subgraph of every database
    //    graph, generalized by every combination of ancestor labels.
    let mut candidates: Vec<LabeledGraph> = Vec::new();
    for (_, g) in db.iter() {
        let m = g.edge_count();
        assert!(m <= 16, "reference miner limited to tiny graphs, got {m} edges");
        for mask in 1u32..(1 << m) {
            if (mask.count_ones() as usize) > max_edges {
                continue;
            }
            let Some(sub) = edge_subset_subgraph(g, mask) else {
                continue;
            };
            if !sub.is_connected() {
                continue;
            }
            for gen in generalizations(&sub, taxonomy) {
                if !candidates.iter().any(|c| is_isomorphic(c, &gen)) {
                    candidates.push(gen);
                }
            }
        }
    }

    // 2. Frequency: a generalized support recount per candidate.
    let frequent: Vec<(LabeledGraph, usize)> = candidates
        .into_iter()
        .filter_map(|p| {
            let sup = support_count(&p, db, &matcher);
            (sup >= min_support).then_some((p, sup))
        })
        .collect();

    // 3. Minimality: drop P if some *distinct* frequent Q with the same
    //    structure and support specializes it.
    frequent
        .iter()
        .filter(|(p, sup)| {
            !frequent.iter().any(|(q, qsup)| {
                qsup == sup
                    && p.node_count() == q.node_count()
                    && p.edge_count() == q.edge_count()
                    && !is_isomorphic(p, q)
                    && is_gen_iso(p, q, taxonomy)
            })
        })
        .cloned()
        .collect()
}

/// All label-wise generalizations of `g` (each vertex label replaced by
/// each of its reflexive ancestors), including `g` itself.
fn generalizations(g: &LabeledGraph, taxonomy: &Taxonomy) -> Vec<LabeledGraph> {
    let anc_sets: Vec<Vec<NodeLabel>> = g
        .labels()
        .iter()
        .map(|&l| {
            taxonomy
                .ancestors(l)
                .iter()
                .map(|i| NodeLabel(i as u32))
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    let mut choice = vec![0usize; g.node_count()];
    loop {
        let mut gen = g.clone();
        for (v, &c) in choice.iter().enumerate() {
            gen.set_label(v, anc_sets[v][c]);
        }
        out.push(gen);
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == choice.len() {
                return out;
            }
            choice[pos] += 1;
            if choice[pos] < anc_sets[pos].len() {
                break;
            }
            choice[pos] = 0;
            pos += 1;
        }
    }
}

/// The subgraph induced by an edge subset; `None` if the mask is empty.
fn edge_subset_subgraph(g: &LabeledGraph, mask: u32) -> Option<LabeledGraph> {
    if mask == 0 {
        return None;
    }
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
    Some(sub)
}

/// Compares a [`crate::MiningResult`]'s patterns with a reference set,
/// up to isomorphism and with equal supports. Returns a mismatch
/// description, or `None` on agreement.
pub fn compare_with_reference(
    got: &[crate::Pattern],
    want: &[(LabeledGraph, usize)],
) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "pattern count mismatch: taxogram {}, reference {} (taxogram: {:?}, reference: {:?})",
            got.len(),
            want.len(),
            got.iter().map(|p| (p.graph.labels().to_vec(), p.support_count)).collect::<Vec<_>>(),
            want.iter().map(|(g, s)| (g.labels().to_vec(), *s)).collect::<Vec<_>>(),
        ));
    }
    let mut used = vec![false; want.len()];
    for p in got {
        let hit = want.iter().enumerate().find(|(i, (w, s))| {
            !used[*i] && *s == p.support_count && is_isomorphic(&p.graph, w)
        });
        match hit {
            Some((i, _)) => used[i] = true,
            None => {
                return Some(format!(
                    "pattern {:?} (support {}) not in reference set",
                    p.graph.labels(),
                    p.support_count
                ))
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::EdgeLabel;
    use tsg_taxonomy::{samples, taxonomy_from_edges};

    #[test]
    fn generalizations_cover_the_ancestor_product() {
        // Taxonomy 0 > 1 > 2; graph: single vertex pair 2—2.
        let t = taxonomy_from_edges(3, [(1, 0), (2, 1)]).unwrap();
        let mut g = LabeledGraph::with_nodes([NodeLabel(2), NodeLabel(2)]);
        g.add_edge(0, 1, EdgeLabel(0)).unwrap();
        let gens = generalizations(&g, &t);
        assert_eq!(gens.len(), 9, "3 ancestors per vertex, 3×3 combinations");
    }

    #[test]
    fn reference_finds_the_go_pattern() {
        let (names, t, db) = samples::go_excerpt();
        let got = reference_mine(&db, &t, 1.0, 2);
        assert!(!got.is_empty());
        let transporter = names.get("transporter").unwrap();
        let helicase = names.get("helicase").unwrap();
        let mut want = LabeledGraph::with_nodes([transporter, helicase]);
        want.add_edge(0, 1, EdgeLabel(0)).unwrap();
        assert!(
            got.iter().any(|(p, _)| is_isomorphic(p, &want)),
            "reference must find Transporter—Helicase"
        );
        // Minimality: molecular function—molecular function is over-
        // generalized (same support as deeper patterns) and must be gone.
        let mf = names.get("molecular function").unwrap();
        let mut over = LabeledGraph::with_nodes([mf, mf]);
        over.add_edge(0, 1, EdgeLabel(0)).unwrap();
        assert!(!got.iter().any(|(p, _)| is_isomorphic(p, &over)));
    }

    #[test]
    fn reference_agrees_with_taxogram_on_fixture() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        for theta in [1.0, 2.0 / 3.0, 1.0 / 3.0] {
            let r = crate::Taxogram::new(crate::TaxogramConfig::with_threshold(theta).max_edges(2))
                .mine(&db, &t)
                .unwrap();
            let want = reference_mine(&db, &t, theta, 2);
            if let Some(msg) = compare_with_reference(&r.patterns, &want) {
                panic!("θ = {theta}: {msg}");
            }
        }
    }
}
