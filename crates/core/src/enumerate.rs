//! Step 3: enumerating specialized patterns from a pattern class
//! (paper §3, Step 3).
//!
//! Starting from the class's most-general label vector, each pattern node
//! label is replaced by one of its children in the corresponding occurrence
//! index entry; the candidate's occurrence set is a single bitset
//! intersection (Lemma 7) and its support the count of distinct graphs in
//! it. A pattern is **over-generalized** exactly when some one-step child
//! replacement keeps the support unchanged (support is antitone along
//! specialization — Lemma 2 — so deeper equal-support witnesses imply a
//! one-step witness), which yields the minimality of the output (Lemma 8).
//!
//! ### Duplicate suppression
//!
//! The paper suppresses duplicate label vectors with processed-node sets
//! (PNS) plus a follow-up check for over-generalized patterns hidden by the
//! PNS cutoff (Example 3.8), and marks visited labels to handle shared
//! children in DAG taxonomies. This implementation achieves the same
//! effect with one mechanism: every vector is canonicalized under the
//! skeleton's automorphism group and recorded in a per-class visited set,
//! so each *pattern* (not each vector) is expanded exactly once. This also
//! covers a case the PNS discussion leaves implicit: on symmetric
//! skeletons, distinct vectors (e.g. `(b,c)` and `(c,b)` on the symmetric
//! edge `a—a`) denote the same pattern. Because the over-generalization
//! test always probes *all* positions, no follow-up pass is needed.
//!
//! ### Emission order
//!
//! Which path first reaches a pattern — and so which automorphic vector
//! it arrives as — depends on which paths are frequent, i.e. on θ. The
//! output must not: a run at θ filtered to θ′ ≥ θ has to list exactly
//! what a fresh run at θ′ lists, in the same order (the serve cache
//! relies on it). So a class's patterns are buffered, each as its
//! automorphism-canonical vector, and emitted in ascending order of that
//! vector once the class is done. Every engine enumerates through
//! [`enumerate_class_scratch`], so this is the one place the order is
//! decided.

// tsg-lint: allow(index) — pos walks v, whose entries the traversal itself pushed below the entry count; output rows index the class buffer this file fills

use crate::config::Enhancements;
use crate::oi::{LocalId, OccurrenceIndex};
use tsg_bitset::{distinct_run_count, BitSet};
use tsg_graph::{LabeledGraph, NodeLabel};
use tsg_iso::{automorphisms, canonical_under_automorphisms, canonical_under_automorphisms_into};
use tsg_taxonomy::Taxonomy;
use std::collections::HashSet;

/// Counters reported per mining run (summed over classes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumerationStats {
    /// Label vectors whose candidate children were evaluated.
    pub vectors_visited: usize,
    /// Bitset intersections performed (one per candidate specialization —
    /// the unit of work Lemma 7 reduces support computation to).
    pub intersections: usize,
    /// Patterns emitted (frequent, not over-generalized, no artificial
    /// labels).
    pub emitted: usize,
    /// Frequent patterns suppressed as over-generalized.
    pub overgeneralized: usize,
}

/// One emitted pattern: the specialized label vector and its support
/// count.
pub struct EmittedPattern<'a> {
    /// Labels per skeleton vertex: the automorphism-canonical vector of
    /// the pattern.
    pub labels: &'a [NodeLabel],
    /// Distinct-graph support count.
    pub support: usize,
}

/// Reusable per-worker enumeration scratch: the visited set, the label
/// buffer, the class's pending output, and pools of dense working sets
/// and work vectors. One `EnumScratch` serves
/// any number of classes in sequence; after a few classes of warm-up,
/// enumeration allocates only for visited-set keys (which must be owned
/// by the set).
#[derive(Debug, Default)]
pub struct EnumScratch {
    visited: HashSet<Vec<NodeLabel>>,
    label_buf: Vec<NodeLabel>,
    /// The class's patterns so far, canonical vectors back to back.
    out_labels: Vec<NodeLabel>,
    /// Support of each buffered pattern, in buffer order.
    out_supports: Vec<usize>,
    /// Emission order: buffer indices sorted by canonical vector.
    out_order: Vec<usize>,
    /// Retired dense working sets, re-targeted via
    /// [`BitSet::intersection_into`].
    dense_pool: Vec<BitSet>,
    /// Retired per-vector descent lists.
    work_pool: Vec<Vec<(usize, LocalId, usize)>>,
}

impl EnumScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        EnumScratch::default()
    }

    /// Re-arms the per-class state (pools persist across classes).
    fn begin_class(&mut self) {
        self.visited.clear();
        self.label_buf.clear();
        self.out_labels.clear();
        self.out_supports.clear();
    }
}

struct Ctx<'a> {
    oi: &'a OccurrenceIndex,
    min_support: usize,
    cfg: &'a Enhancements,
    taxonomy: &'a Taxonomy,
    autos: Vec<Vec<usize>>,
    keep_overgeneralized: bool,
    s: &'a mut EnumScratch,
    stats: EnumerationStats,
}

impl Ctx<'_> {
    /// The taxonomy-label vector behind the local-id vector `v`, written
    /// into the reusable buffer.
    fn fill_labels(&mut self, v: &[LocalId]) {
        self.s.label_buf.clear();
        self.s.label_buf.extend(
            v.iter()
                .zip(&self.oi.entries)
                .map(|(&id, e)| e.label_of(id)),
        );
    }
}

/// Enumerates every member of the pattern class rooted at `skeleton` (the
/// class's most-general pattern, as mined from the relabeled database),
/// calling `emit` for each frequent non-over-generalized member.
///
/// Returns the per-class enumeration counters.
pub fn enumerate_class<F: FnMut(EmittedPattern<'_>)>(
    skeleton: &LabeledGraph,
    oi: &OccurrenceIndex,
    taxonomy: &Taxonomy,
    min_support: usize,
    db_len: usize,
    cfg: &Enhancements,
    emit: F,
) -> EnumerationStats {
    enumerate_class_full(skeleton, oi, taxonomy, min_support, db_len, cfg, false, emit)
}

/// Like [`enumerate_class`], with `keep_overgeneralized` also emitting the
/// patterns the minimality filter would drop.
#[allow(clippy::too_many_arguments)]
pub fn enumerate_class_full<F: FnMut(EmittedPattern<'_>)>(
    skeleton: &LabeledGraph,
    oi: &OccurrenceIndex,
    taxonomy: &Taxonomy,
    min_support: usize,
    db_len: usize,
    cfg: &Enhancements,
    keep_overgeneralized: bool,
    emit: F,
) -> EnumerationStats {
    let mut scratch = EnumScratch::new();
    enumerate_class_scratch(
        skeleton,
        oi,
        taxonomy,
        min_support,
        db_len,
        cfg,
        keep_overgeneralized,
        &mut scratch,
        emit,
    )
}

/// Like [`enumerate_class_full`], reusing a caller-owned [`EnumScratch`]
/// across classes — the form the streaming pipeline's workers use so the
/// hot loop allocates ~nothing after warm-up.
#[allow(clippy::too_many_arguments)]
pub fn enumerate_class_scratch<F: FnMut(EmittedPattern<'_>)>(
    skeleton: &LabeledGraph,
    oi: &OccurrenceIndex,
    taxonomy: &Taxonomy,
    min_support: usize,
    db_len: usize,
    cfg: &Enhancements,
    keep_overgeneralized: bool,
    scratch: &mut EnumScratch,
    mut emit: F,
) -> EnumerationStats {
    debug_assert!(
        oi.occ_graph.last().is_none_or(|&g| (g as usize) < db_len),
        "occurrence graph ids lie inside the database"
    );
    scratch.begin_class();
    let mut ctx = Ctx {
        oi,
        min_support,
        cfg,
        taxonomy,
        autos: automorphisms(skeleton),
        keep_overgeneralized,
        s: scratch,
        stats: EnumerationStats::default(),
    };
    // The start vector is each entry's root: the most-general label, or a
    // deeper equal-occurrence label when enhancement (c)/(d) contracted it.
    let mut v: Vec<LocalId> = oi.entries.iter().map(|e| e.root()).collect();
    let ocs = oi.full_set();
    let sup = distinct_run_count(&ocs, &ocs, &oi.graph_starts);
    ctx.fill_labels(&v);
    let key = canonical_under_automorphisms(&ctx.s.label_buf, &ctx.autos);
    ctx.s.visited.insert(key);
    recurse(&mut ctx, &mut v, &ocs, sup);
    let stats = ctx.stats;
    // Emit in canonical-vector order (module docs, "Emission order").
    let n = oi.entries.len();
    let s = scratch;
    s.out_order.clear();
    s.out_order.extend(0..s.out_supports.len());
    let labels = &s.out_labels;
    let row = |i: usize| &labels[i * n..(i + 1) * n];
    // Canonical vectors are unique per class: no ties to keep stable.
    s.out_order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    for &i in &s.out_order {
        emit(EmittedPattern {
            labels: row(i),
            support: s.out_supports[i],
        });
    }
    stats
}

fn recurse(
    ctx: &mut Ctx<'_>,
    v: &mut Vec<LocalId>,
    ocs: &BitSet,
    sup: usize,
) {
    ctx.stats.vectors_visited += 1;
    let mut overgeneralized = false;
    // (position, child local id, child support) triples worth descending
    // into.
    let mut work = ctx.s.work_pool.pop().unwrap_or_default();
    let oi = ctx.oi;
    for (pos, entry) in oi.entries.iter().enumerate() {
        for &child in entry.children(v[pos]) {
            let cset = entry.occs(child);
            ctx.stats.intersections += 1;
            // Lemma 7: the candidate's support is one word-parallel
            // intersection, fused with the per-graph distinct count. Each
            // graph owns one run of occurrence ids, so the count is the
            // runs `cset ∩ ocs` touches: one carry chain over the words
            // and the class's graph-start row, no per-occurrence lookup.
            let child_sup = distinct_run_count(cset, ocs, &oi.graph_starts);
            if child_sup == sup {
                // An equal-support one-step specialization exists; by
                // Lemma 2 this is the complete over-generalization test.
                overgeneralized = true;
            }
            if child_sup >= ctx.min_support {
                work.push((pos, child, child_sup));
            } else if !ctx.cfg.apriori_child_prune {
                // Enhancement (a) disabled — the paper's baseline still
                // "checks patterns created via replacement of n with any
                // descendant of c": probe every descendant's occurrence
                // set (each probe is one wasted intersection). Support is
                // antitone along specialization, so none can be frequent
                // and no recursion or output can result; only the cost is
                // real.
                probe_descendants(ctx, entry, child, ocs);
            }
        }
    }
    if sup >= ctx.min_support {
        ctx.fill_labels(v);
        if (ctx.keep_overgeneralized || !overgeneralized)
            && !has_artificial(ctx.taxonomy, &ctx.s.label_buf)
        {
            ctx.stats.emitted += 1;
            canonical_under_automorphisms_into(
                &ctx.s.label_buf,
                &ctx.autos,
                &mut ctx.s.out_labels,
            );
            ctx.s.out_supports.push(sup);
        }
        if overgeneralized {
            ctx.stats.overgeneralized += 1;
        }
    }
    for (pos, child, child_sup) in work.drain(..) {
        let parent = std::mem::replace(&mut v[pos], child);
        ctx.fill_labels(v);
        let key = canonical_under_automorphisms(&ctx.s.label_buf, &ctx.autos);
        if ctx.s.visited.insert(key) {
            // The next level's working set comes from the per-worker pool
            // (re-targeted in place), so descending allocates nothing once
            // the pool has grown to the recursion depth.
            let mut child_ocs = ctx.s.dense_pool.pop().unwrap_or_default();
            ctx.oi.entries[pos]
                .occs(child)
                .intersection_into(ocs, &mut child_ocs);
            recurse(ctx, v, &child_ocs, child_sup);
            ctx.s.dense_pool.push(child_ocs);
        }
        v[pos] = parent;
    }
    ctx.s.work_pool.push(work);
}

/// Baseline-mode wasted work: computes an intersection count for every
/// strict descendant of `below` present in the entry (BFS over the entry's
/// DAG, each label probed once).
fn probe_descendants(
    ctx: &mut Ctx<'_>,
    entry: &crate::oi::OiEntry,
    below: LocalId,
    ocs: &BitSet,
) {
    let mut queue: Vec<LocalId> = entry.children(below).to_vec();
    let mut seen: HashSet<LocalId> = queue.iter().copied().collect();
    while let Some(l) = queue.pop() {
        ctx.stats.intersections += 1;
        std::hint::black_box(distinct_run_count(entry.occs(l), ocs, &ctx.oi.graph_starts));
        for &c in entry.children(l) {
            if seen.insert(c) {
                queue.push(c);
            }
        }
    }
}

fn has_artificial(taxonomy: &Taxonomy, v: &[NodeLabel]) -> bool {
    v.iter().any(|&l| taxonomy.is_artificial(l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oi::{OccurrenceIndex, OiOptions};
    use crate::relabel::relabel;
    use tsg_gspan::{GSpan, GSpanConfig, Grow, MinedPattern, PatternSink};
    use tsg_taxonomy::samples;

    /// Runs Step 1 + Step 2 on the Figure 1.4 database and enumerates the
    /// 1-edge class with the given enhancements, returning
    /// `(labels, support)` pairs sorted for comparison.
    fn enumerate_figure_1_4(
        min_support: usize,
        cfg: Enhancements,
    ) -> (samples::SampleConcepts, Vec<(Vec<NodeLabel>, usize)>, EnumerationStats) {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let rel = relabel(&db, &t).unwrap();

        struct Grab {
            embs: Vec<tsg_gspan::Embedding>,
            skeleton: Option<LabeledGraph>,
        }
        impl PatternSink for Grab {
            fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
                if p.graph.edge_count() == 1 && self.skeleton.is_none() {
                    self.embs = p.embeddings.to_vec();
                    self.skeleton = Some(p.graph.clone());
                }
                Grow::Continue
            }
        }
        let mut grab = Grab {
            embs: vec![],
            skeleton: None,
        };
        GSpan::new(
            &rel.dmg,
            GSpanConfig {
                min_support,
                max_edges: None,
            },
        )
        .mine(&mut grab);
        let skeleton = grab.skeleton.expect("edge class is frequent");
        let frequent_mask;
        let frequent = if cfg.prune_infrequent_labels {
            let freqs = rel.taxonomy.generalized_label_frequencies(&db);
            let mut mask = BitSet::new(rel.taxonomy.concept_count());
            for (i, &f) in freqs.iter().enumerate() {
                if f >= min_support {
                    mask.insert(i);
                }
            }
            frequent_mask = mask;
            Some(&frequent_mask)
        } else {
            None
        };
        let oi = OccurrenceIndex::build(
            &grab.embs,
            &rel.originals,
            skeleton.labels(),
            &rel.taxonomy,
            OiOptions {
                frequent,
                contract_equal_sets: cfg.contract_equal_sets,
                predescend_roots: cfg.predescend_roots,
            },
        );
        let mut out = Vec::new();
        let stats = enumerate_class(
            &skeleton,
            &oi,
            &rel.taxonomy,
            min_support,
            db.len(),
            &cfg,
            |p| out.push((p.labels.to_vec(), p.support)),
        );
        out.sort();
        (c, out, stats)
    }

    #[test]
    fn figure_1_5_patterns_at_two_thirds() {
        // Analog of paper Figure 1.5 / Example 3.6 on our fixture at
        // θ = 2/3. Database: G1 = d—b, G2 = c—f—g, G3 = w—c.
        let (c, got, _stats) = enumerate_figure_1_4(2, Enhancements::none());
        for (v, sup) in &got {
            assert!(*sup >= 2, "emitted pattern {v:?} below threshold");
        }
        // a—a has support 3, and no single-step specialization keeps
        // support 3 (a—b misses G3, a—c misses G1), so a—a is minimal and
        // must be emitted — mirroring how the paper's Figure 2.4 keeps
        // root-labeled patterns when nothing deeper ties their support.
        let a_a = got.iter().find(|(v, _)| v == &vec![c.a, c.a]);
        assert_eq!(a_a.map(|(_, s)| *s), Some(3));
        // a—b (support 2: G1, G2) is over-generalized by b—b? b—b needs
        // both endpoints under b: G1 (d—b) qualifies, G2's f—g has f
        // under c only — support 1. So a—b is over-generalized only if
        // some equal-support specialization exists: b—b has support 1,
        // d—b support 1 … a—b survives with support 2 unless (a,g)-style
        // patterns tie it. g is under both b and c; a—g occurs in G2
        // only (support 1). Hence a—b must be emitted with support 2.
        let a_b = got
            .iter()
            .find(|(v, _)| {
                let mut k = v.clone();
                k.sort();
                k == vec![c.a, c.b]
            });
        assert_eq!(a_b.map(|(_, s)| *s), Some(2), "a—b missing: {got:?}");
    }

    #[test]
    fn enhancements_do_not_change_the_answer() {
        let variants = [
            Enhancements::none(),
            Enhancements::all(),
            Enhancements {
                apriori_child_prune: true,
                prune_infrequent_labels: false,
                predescend_roots: false,
                contract_equal_sets: false,
            },
            Enhancements {
                apriori_child_prune: false,
                prune_infrequent_labels: true,
                predescend_roots: true,
                contract_equal_sets: false,
            },
            Enhancements {
                apriori_child_prune: false,
                prune_infrequent_labels: false,
                predescend_roots: false,
                contract_equal_sets: true,
            },
        ];
        let mut results = variants
            .iter()
            .map(|cfg| enumerate_figure_1_4(2, *cfg).1);
        let first = results.next().unwrap();
        for (i, r) in results.enumerate() {
            assert_eq!(first, r, "variant {} diverged", i + 1);
        }
    }

    #[test]
    fn enhancement_a_reduces_intersections() {
        let (_, out_off, stats_off) = enumerate_figure_1_4(3, Enhancements::none());
        let (_, out_on, stats_on) = enumerate_figure_1_4(3, Enhancements::all());
        assert_eq!(out_off, out_on);
        assert!(
            stats_on.intersections <= stats_off.intersections,
            "enhancements should not do more work: {} vs {}",
            stats_on.intersections,
            stats_off.intersections
        );
        assert!(stats_on.vectors_visited <= stats_off.vectors_visited);
    }

    #[test]
    fn no_pattern_is_emitted_twice() {
        let (_, got, _) = enumerate_figure_1_4(1, Enhancements::none());
        let mut seen = std::collections::HashSet::new();
        // Canonicalize under the symmetric-edge automorphism by sorting
        // the 2-vector.
        for (v, _) in &got {
            let mut k = v.clone();
            k.sort();
            assert!(seen.insert(k), "duplicate pattern {v:?}");
        }
    }

    #[test]
    fn every_emitted_pattern_is_minimal() {
        // Directly verify the minimality property at θ = 1/3: for every
        // emitted (vector, support) there is no emitted specialization of
        // it with equal support.
        let (_, got, _) = enumerate_figure_1_4(1, Enhancements::none());
        let (_, t) = samples::sample_taxonomy();
        for (v, sup) in &got {
            for (w, wsup) in &got {
                if v == w || sup != wsup {
                    continue;
                }
                // w specializes v positionwise (or under the edge swap)?
                let direct = v
                    .iter()
                    .zip(w)
                    .all(|(&a, &b)| t.is_ancestor(a, b));
                let swapped = v
                    .iter()
                    .zip(w.iter().rev())
                    .all(|(&a, &b)| t.is_ancestor(a, b));
                assert!(
                    !(direct || swapped) || v == w,
                    "{v:?} (sup {sup}) is over-generalized w.r.t. {w:?}"
                );
            }
        }
    }
}
