//! Taxonomy-scaling measurements: how the interval-labeled reachability
//! layer behaves at 10⁵–10⁶ concepts.
//!
//! The measurement behind the `taxonomy_scale` binary (CI smoke stage
//! and standalone reports). Everything here is hand-rolled `Instant` timing
//! over generated [`tsg_datagen::generate_scaled_taxonomy`] inputs; the
//! query timings run millions of iterations per sample so per-call costs
//! resolve at nanosecond granularity.

use std::time::Instant;
use tsg_datagen::{generate_scaled_taxonomy, ScaledTaxonomyConfig};
use tsg_graph::NodeLabel;
use tsg_taxonomy::Taxonomy;

/// One row of the scaling table.
#[derive(Clone, Debug)]
pub struct TaxScaleRow {
    /// Concept count of the generated taxonomy.
    pub concepts: usize,
    /// Cross-link density knob the generator ran with.
    pub cross_links_per_mille: u32,
    /// Wall time to generate and build the taxonomy (edge sampling,
    /// Kahn validation, interval labeling, fallback sets).
    pub build_ms: f64,
    /// Resident bytes of the reachability labeling + cross-link fallback
    /// sets — the replacement for the old dense `O(n²)`-bit closures.
    pub closure_bytes: usize,
    /// Resident bytes of the parent/child adjacency (CSR).
    pub adjacency_bytes: usize,
    /// Concepts carrying a cross-link fallback set.
    pub cross_link_concepts: usize,
    /// Longest-path depth of the generated DAG.
    pub max_depth: u32,
    /// Mean `is_ancestor` cost over uniformly random concept pairs —
    /// the tree path (one interval comparison) dominates this mix.
    pub is_ancestor_ns: f64,
    /// Mean `is_ancestor` cost over true ancestor/descendant chain
    /// pairs (positive interval containment).
    pub is_ancestor_chain_ns: f64,
    /// Mean `ancestors()` query cost: one closure materialized per call.
    pub closure_query_ns: f64,
}

/// What the old dense representation would have cost: two `n × n` bit
/// matrices (ancestor + descendant closures).
pub fn dense_equivalent_bytes(concepts: usize) -> u128 {
    (concepts as u128) * (concepts as u128) * 2 / 8
}

/// Generates a scaled taxonomy and measures build cost and query
/// latencies. Deterministic for a given `(concepts, per_mille, seed)`.
pub fn measure(concepts: usize, cross_links_per_mille: u32, seed: u64) -> TaxScaleRow {
    let start = Instant::now();
    let t = generate_scaled_taxonomy(&ScaledTaxonomyConfig {
        concepts,
        cross_links_per_mille,
        seed,
    });
    let build_ms = start.elapsed().as_nanos() as f64 / 1e6;

    // Deterministic pseudo-random probe pairs (splitmix64), generated
    // outside the timed loops.
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let pair_count = 4096usize;
    let random_pairs: Vec<(NodeLabel, NodeLabel)> = (0..pair_count)
        .map(|_| {
            (
                NodeLabel((next() % concepts as u64) as u32),
                NodeLabel((next() % concepts as u64) as u32),
            )
        })
        .collect();
    // Chain pairs: walk a few primary-parent steps up from a random
    // concept so `is_ancestor` returns true through the interval test.
    let chain_pairs: Vec<(NodeLabel, NodeLabel)> = (0..pair_count)
        .map(|_| {
            let d = NodeLabel((next() % concepts as u64) as u32);
            let mut a = d;
            for _ in 0..(next() % 8) {
                match t.parents(a).first() {
                    Some(&p) => a = p,
                    None => break,
                }
            }
            (a, d)
        })
        .collect();

    let time_pairs = |pairs: &[(NodeLabel, NodeLabel)], rounds: usize| -> f64 {
        let start = Instant::now();
        let mut hits = 0usize;
        for _ in 0..rounds {
            for &(a, d) in pairs {
                hits += usize::from(t.is_ancestor(a, d));
            }
        }
        std::hint::black_box(hits);
        start.elapsed().as_nanos() as f64 / (rounds * pairs.len()) as f64
    };
    // Warm caches once, then measure.
    time_pairs(&random_pairs, 1);
    let is_ancestor_ns = time_pairs(&random_pairs, 500);
    let is_ancestor_chain_ns = time_pairs(&chain_pairs, 500);

    // Closure queries over a small working set of labels, as TAcGM's
    // candidate generation asks them; each call builds its closure.
    let hot: Vec<NodeLabel> = (0..64).map(|_| NodeLabel((next() % concepts as u64) as u32)).collect();
    for &l in &hot {
        std::hint::black_box(t.ancestors(l).len());
    }
    let rounds = 2_000usize;
    let start = Instant::now();
    let mut total = 0usize;
    for _ in 0..rounds {
        for &l in &hot {
            total += t.ancestors(l).len();
        }
    }
    std::hint::black_box(total);
    let closure_query_ns = start.elapsed().as_nanos() as f64 / (rounds * hot.len()) as f64;

    TaxScaleRow {
        concepts,
        cross_links_per_mille,
        build_ms,
        closure_bytes: t.closure_bytes(),
        adjacency_bytes: t.adjacency_bytes(),
        cross_link_concepts: t.cross_link_concepts(),
        max_depth: t.max_depth(),
        is_ancestor_ns,
        is_ancestor_chain_ns,
        closure_query_ns,
    }
}

/// Sanity-checks a generated taxonomy against the old-API semantics on a
/// few spot queries; used by the smoke stage so a wildly wrong labeling
/// cannot produce a fast-but-meaningless benchmark number.
pub fn spot_check(t: &Taxonomy) {
    let root = t.roots()[0];
    let leafish = NodeLabel((t.concept_count() - 1) as u32);
    assert!(t.is_ancestor(root, leafish), "root reaches every concept");
    assert!(t.is_ancestor(leafish, leafish), "reflexive");
    assert!(!t.is_ancestor(leafish, root), "no upward reachability");
    let anc = t.ancestors(leafish);
    assert!(anc.contains(root.index()) && anc.contains(leafish.index()));
    assert_eq!(anc.len(), t.ancestor_count(leafish));
}

impl TaxScaleRow {
    /// The row as a hand-rolled JSON object, indented by `indent` spaces.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        format!(
            "{pad}{{ \"concepts\": {}, \"cross_links_per_mille\": {}, \"build_ms\": {:.1}, \"closure_bytes\": {}, \"adjacency_bytes\": {}, \"cross_link_concepts\": {}, \"max_depth\": {}, \"is_ancestor_ns\": {:.2}, \"is_ancestor_chain_ns\": {:.2}, \"closure_query_ns\": {:.1}, \"dense_equivalent_bytes\": {} }}",
            self.concepts,
            self.cross_links_per_mille,
            self.build_ms,
            self.closure_bytes,
            self.adjacency_bytes,
            self.cross_link_concepts,
            self.max_depth,
            self.is_ancestor_ns,
            self.is_ancestor_chain_ns,
            self.closure_query_ns,
            dense_equivalent_bytes(self.concepts),
        )
    }
}
