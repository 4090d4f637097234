//! Step 3's reverse search against the visited-set traversal it replaced.
//!
//! The oracle below is that traversal, kept here as a test model only: a
//! depth-first walk over one-step child replacements that canonicalizes
//! every frequent child vector under the skeleton's automorphisms and
//! descends into it only if the canonical vector is new to the class.
//! Both must emit the same `(labels, support)` sequence and the same
//! [`EnumerationStats`], on random DAG taxonomies (several roots, so
//! unification's artificial roots appear too), on databases holding the
//! symmetric shapes — edge `a—a`, triangle, 3-star — next to paths, under
//! all 16 [`Enhancements`] combinations, with `keep_overgeneralized` on
//! and off. A reused [`EnumScratch`] must agree with a fresh one.

use proptest::prelude::*;
use std::collections::HashSet;
use taxogram_core::enumerate::{
    enumerate_class_full, enumerate_class_scratch, EnumScratch, EnumerationStats,
};
use taxogram_core::oi::{LocalId, OccurrenceIndex, OiOptions};
use taxogram_core::relabel::relabel;
use taxogram_core::Enhancements;
use tsg_bitset::{distinct_run_count, BitSet};
use tsg_graph::{EdgeLabel, GraphDatabase, LabeledGraph, NodeLabel};
use tsg_gspan::{Embedding, GSpan, GSpanConfig, Grow, MinedPattern, PatternSink};
use tsg_iso::{automorphisms, canonical_under_automorphisms};
use tsg_taxonomy::{Taxonomy, TaxonomyBuilder};

/// A random DAG: concept `i ≥ 1` has up to two parents below `i`, or none
/// (another root).
fn arb_taxonomy(max_concepts: usize) -> impl Strategy<Value = Taxonomy> {
    (2..=max_concepts)
        .prop_flat_map(|n| {
            let parents: Vec<_> = (1..n)
                .map(|i| prop::collection::vec(0..i, 0..=2.min(i)))
                .collect();
            (Just(n), parents)
        })
        .prop_map(|(n, parents)| {
            let mut b = TaxonomyBuilder::with_concepts(n);
            for (i, mut ps) in parents.into_iter().enumerate() {
                ps.sort_unstable();
                ps.dedup();
                for p in ps {
                    b.is_a(NodeLabel((i + 1) as u32), NodeLabel(p as u32))
                        .unwrap();
                }
            }
            b.build().unwrap()
        })
}

/// One database graph: a path with random edge labels, or one of the
/// symmetric shapes with a uniform edge label — an edge, a triangle, a
/// 3-star (center first).
fn shape(kind: u8, labels: &[usize], elabels: &[u32]) -> LabeledGraph {
    let (n, edges): (usize, &[(usize, usize)]) = match kind {
        0 => (2, &[(0, 1)]),
        1 => (3, &[(0, 1), (1, 2), (2, 0)]),
        2 => (4, &[(0, 1), (0, 2), (0, 3)]),
        _ => (labels.len(), &[]),
    };
    let mut g = LabeledGraph::with_nodes(labels.iter().take(n).map(|&l| NodeLabel(l as u32)));
    if edges.is_empty() {
        for i in 1..n {
            g.add_edge(i - 1, i, EdgeLabel(elabels[(i - 1) % elabels.len()]))
                .unwrap();
        }
    } else {
        for &(a, b) in edges {
            g.add_edge(a, b, EdgeLabel(0)).unwrap();
        }
    }
    g
}

fn arb_db(concepts: usize) -> impl Strategy<Value = GraphDatabase> {
    prop::collection::vec(
        (
            0..4u8,
            prop::collection::vec(0..concepts, 4..6),
            prop::collection::vec(0..2u32, 1..4),
        ),
        2..6,
    )
    .prop_map(|graphs| {
        let mut db = GraphDatabase::new();
        for (kind, labels, elabels) in graphs {
            db.push(shape(kind, &labels, &elabels));
        }
        db
    })
}

struct Classes(Vec<(LabeledGraph, Vec<Embedding>)>);

impl PatternSink for Classes {
    fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
        self.0.push((p.graph.clone(), p.embeddings.to_vec()));
        Grow::Continue
    }
}

/// Enhancements from the low four bits of `bits`.
fn enhancements(bits: u8) -> Enhancements {
    Enhancements {
        apriori_child_prune: bits & 1 != 0,
        prune_infrequent_labels: bits & 2 != 0,
        predescend_roots: bits & 4 != 0,
        contract_equal_sets: bits & 8 != 0,
    }
}

type Emitted = Vec<(Vec<NodeLabel>, usize)>;

/// The visited-set traversal: the class's patterns sorted by canonical
/// vector (the emission order), and its counters.
struct Oracle<'a> {
    oi: &'a OccurrenceIndex,
    taxonomy: &'a Taxonomy,
    min_support: usize,
    cfg: Enhancements,
    keep_overgeneralized: bool,
    autos: Vec<Vec<usize>>,
    visited: HashSet<Vec<NodeLabel>>,
    out: Emitted,
    stats: EnumerationStats,
}

impl Oracle<'_> {
    fn key(&self, v: &[LocalId]) -> Vec<NodeLabel> {
        let labels: Vec<NodeLabel> = v
            .iter()
            .zip(&self.oi.entries)
            .map(|(&id, e)| e.label_of(id))
            .collect();
        canonical_under_automorphisms(&labels, &self.autos)
    }

    fn visit(&mut self, v: &mut Vec<LocalId>, ocs: &BitSet, sup: usize) {
        let oi = self.oi;
        self.stats.vectors_visited += 1;
        let mut overgeneralized = false;
        let mut work = Vec::new();
        for (pos, entry) in oi.entries.iter().enumerate() {
            for &child in entry.children(v[pos]) {
                self.stats.intersections += 1;
                let child_sup = distinct_run_count(entry.occs(child), ocs, &oi.graph_starts);
                overgeneralized |= child_sup == sup;
                if child_sup >= self.min_support {
                    work.push((pos, child, child_sup));
                } else if !self.cfg.apriori_child_prune {
                    // One probe per strict descendant of `child`.
                    let mut seen: HashSet<LocalId> =
                        entry.children(child).iter().copied().collect();
                    let mut queue: Vec<LocalId> = seen.iter().copied().collect();
                    while let Some(l) = queue.pop() {
                        self.stats.intersections += 1;
                        queue.extend(entry.children(l).iter().filter(|&&c| seen.insert(c)));
                    }
                }
            }
        }
        if sup >= self.min_support {
            let key = self.key(v);
            let artificial = key.iter().any(|&l| self.taxonomy.is_artificial(l));
            if (self.keep_overgeneralized || !overgeneralized) && !artificial {
                self.stats.emitted += 1;
                self.out.push((key, sup));
            }
            if overgeneralized {
                self.stats.overgeneralized += 1;
            }
        }
        for (pos, child, child_sup) in work {
            let parent = std::mem::replace(&mut v[pos], child);
            if self.visited.insert(self.key(v)) {
                let child_ocs = oi.entries[pos].occs(child).intersection(ocs);
                self.visit(v, &child_ocs, child_sup);
            }
            v[pos] = parent;
        }
    }
}

fn oracle(
    skeleton: &LabeledGraph,
    oi: &OccurrenceIndex,
    taxonomy: &Taxonomy,
    min_support: usize,
    cfg: Enhancements,
    keep_overgeneralized: bool,
) -> (Emitted, EnumerationStats) {
    let mut o = Oracle {
        oi,
        taxonomy,
        min_support,
        cfg,
        keep_overgeneralized,
        autos: automorphisms(skeleton),
        visited: HashSet::new(),
        out: Vec::new(),
        stats: EnumerationStats::default(),
    };
    let mut v: Vec<LocalId> = oi.entries.iter().map(|e| e.root()).collect();
    o.visited.insert(o.key(&v));
    let full = oi.full_set();
    let sup = distinct_run_count(&full, &full, &oi.graph_starts);
    o.visit(&mut v, &full, sup);
    o.out.sort();
    (o.out, o.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reverse_search_matches_the_visited_set_oracle(
        (taxonomy, db) in arb_taxonomy(7).prop_flat_map(|t| {
            let n = t.concept_count();
            (Just(t), arb_db(n))
        }),
        min_support in 1..3usize,
    ) {
        let rel = relabel(&db, &taxonomy).unwrap();
        let mut classes = Classes(Vec::new());
        GSpan::new(&rel.dmg, GSpanConfig { min_support, max_edges: Some(3) }).mine(&mut classes);
        let freqs = rel.taxonomy.generalized_label_frequencies(&db);
        let mut mask = BitSet::new(rel.taxonomy.concept_count());
        for (i, _) in freqs.iter().enumerate().filter(|(_, &f)| f >= min_support) {
            mask.insert(i);
        }
        let mut scratch = EnumScratch::new();
        for bits in 0..16u8 {
            let cfg = enhancements(bits);
            for (skeleton, embeddings) in &classes.0 {
                let oi = OccurrenceIndex::build(
                    embeddings,
                    &rel.originals,
                    skeleton.labels(),
                    &rel.taxonomy,
                    OiOptions {
                        frequent: cfg.prune_infrequent_labels.then_some(&mask),
                        contract_equal_sets: cfg.contract_equal_sets,
                        predescend_roots: cfg.predescend_roots,
                    },
                );
                for keep in [false, true] {
                    let (want, want_stats) =
                        oracle(skeleton, &oi, &rel.taxonomy, min_support, cfg, keep);
                    let mut fresh = Vec::new();
                    let fresh_stats = enumerate_class_full(
                        skeleton, &oi, &rel.taxonomy, min_support, db.len(), &cfg, keep,
                        |p| fresh.push((p.labels.to_vec(), p.support)),
                    );
                    let mut reused = Vec::new();
                    let reused_stats = enumerate_class_scratch(
                        skeleton, &oi, &rel.taxonomy, min_support, db.len(), &cfg, keep,
                        &mut scratch,
                        |p| reused.push((p.labels.to_vec(), p.support)),
                    );
                    let what = format!("{cfg:?}, keep {keep}, skeleton {skeleton:?}");
                    prop_assert_eq!(&fresh, &want, "emitted, {}", what);
                    prop_assert_eq!(fresh_stats, want_stats, "stats, {}", what);
                    prop_assert_eq!(&reused, &want, "emitted with a reused scratch, {}", what);
                    prop_assert_eq!(reused_stats, want_stats, "stats with a reused scratch, {}", what);
                }
            }
        }
    }
}
