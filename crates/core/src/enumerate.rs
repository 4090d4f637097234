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
//! children in DAG taxonomies. This implementation needs neither, nor any
//! visited set: it is a reverse search (Avis & Fukuda, 1996). Every
//! vector `w` other than the start vector has one **canonical parent**:
//! `w` with its last non-root position `p` generalized to that label's
//! canonical parent in entry `p` — its smallest-local-id alive parent in
//! the (contracted) entry DAG, recorded by the index build
//! ([`crate::oi::OiEntry::canonical_parent`]). A frequent child
//! `w = v[pos := c]` is descended into only from its canonical parent,
//! which on a skeleton with a trivial automorphism group is the O(1) test
//! `pos ≥ floor && cparent(c) == v[pos]`, `floor` being the position of
//! the move that produced `v` (every later position of `v` is still its
//! root).
//!
//! On a symmetric skeleton, distinct vectors (e.g. `(b,c)` and `(c,b)` on
//! the symmetric edge `a—a`) denote one pattern, so the rule applies to
//! orbits: with `u` the automorphism-canonical form of `w` and `p` its last
//! non-root position, `w` is descended into iff canon(`u[p := cparent]`)
//! equals canon(`v`), and no earlier sibling move from `v` gave the same
//! `u` (siblings are compared in a per-vector list, decided before any
//! child is descended into). Automorphic positions have identical entries
//! up to their rows (the class's embeddings are closed under the
//! skeleton's automorphisms), so local ids are compared across positions.
//!
//! **Exactness.** A canonical parent generalizes its child, so it is
//! frequent (rows are OR-closed upward, hence support is antitone), it is
//! strictly more general, and it reaches the start vector through further
//! canonical parents. By induction on depth, every frequent vector (every
//! frequent orbit, on a symmetric skeleton) is descended into exactly once,
//! as under the visited set this replaces, so the work counters
//! (`vectors_visited`, `intersections`, `emitted`, `overgeneralized`) are
//! the same. Because the over-generalization test always probes *all*
//! positions, no PNS follow-up pass is needed either.
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
use crate::oi::{LocalId, OccurrenceIndex, OiEntry};
use tsg_bitset::{distinct_run_count, BitSet};
use tsg_graph::{LabeledGraph, NodeLabel};
use tsg_iso::{automorphisms, canonical_under_automorphisms_into};
use tsg_taxonomy::Taxonomy;

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

/// Reusable per-worker enumeration scratch: the label buffer, the class's
/// pending output, the reverse-search buffers, the baseline probe's queue
/// and seen mask, and pools of dense working sets and work vectors. One
/// `EnumScratch` serves any number of classes in sequence; after a few
/// classes of warm-up, enumeration allocates nothing per vector.
#[derive(Debug, Default)]
pub struct EnumScratch {
    label_buf: Vec<NodeLabel>,
    /// The class's patterns so far, canonical vectors back to back.
    out_labels: Vec<NodeLabel>,
    /// Support of each buffered pattern, in buffer order.
    out_supports: Vec<usize>,
    /// Emission order: buffer indices sorted by canonical vector.
    out_order: Vec<usize>,
    /// The class's start vector: each entry's root.
    roots: Vec<LocalId>,
    /// Symmetric skeletons: the canonical form of the current vector, a
    /// candidate vector, and the canonical form of a child and of its
    /// canonical parent, all over local ids.
    canon_v: Vec<LocalId>,
    candidate: Vec<LocalId>,
    canon_child: Vec<LocalId>,
    canon_parent: Vec<LocalId>,
    /// Symmetric skeletons: canonical forms of the children accepted from
    /// the current vector, back to back.
    siblings: Vec<LocalId>,
    /// Baseline probe: labels reached below the replaced one, in probe
    /// order, and a dense per-local-id mark of those.
    probe_queue: Vec<LocalId>,
    probe_seen: Vec<bool>,
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
    fn begin_class(&mut self, oi: &OccurrenceIndex) {
        self.label_buf.clear();
        self.out_labels.clear();
        self.out_supports.clear();
        self.roots.clear();
        self.roots.extend(oi.entries.iter().map(OiEntry::root));
    }
}

struct Ctx<'a> {
    oi: &'a OccurrenceIndex,
    min_support: usize,
    cfg: &'a Enhancements,
    taxonomy: &'a Taxonomy,
    autos: Vec<Vec<usize>>,
    /// `true` iff the skeleton has a non-identity automorphism.
    symmetric: bool,
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
/// calling `emit` for each frequent non-over-generalized member — and,
/// with `keep_overgeneralized`, also for the patterns the minimality
/// filter would drop.
///
/// Returns the per-class enumeration counters.
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
    scratch.begin_class(oi);
    let autos = automorphisms(skeleton);
    debug_assert!(
        automorphic_entries_agree(oi, &autos),
        "automorphic positions have identical entries"
    );
    let mut ctx = Ctx {
        oi,
        min_support,
        cfg,
        taxonomy,
        symmetric: autos.len() > 1,
        autos,
        keep_overgeneralized,
        s: scratch,
        stats: EnumerationStats::default(),
    };
    // The start vector is each entry's root: the most-general label, or a
    // deeper equal-occurrence label when enhancement (c)/(d) contracted it.
    let mut v: Vec<LocalId> = ctx.s.roots.clone();
    let ocs = oi.full_set();
    let sup = distinct_run_count(&ocs, &ocs, &oi.graph_starts);
    recurse(&mut ctx, &mut v, &ocs, sup, 0);
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

/// Visits the frequent vector `v` (occurrence set `ocs`, support `sup`):
/// probes every one-step child, emits `v` unless it is over-generalized,
/// and descends into the frequent children whose canonical parent `v` is.
/// `floor` is the position of the move that produced `v`; every later
/// position of `v` holds its entry's root.
fn recurse(ctx: &mut Ctx<'_>, v: &mut Vec<LocalId>, ocs: &BitSet, sup: usize, floor: usize) {
    ctx.stats.vectors_visited += 1;
    let mut overgeneralized = false;
    // (position, child local id, child support) triples worth descending
    // into.
    let mut work = ctx.s.work_pool.pop().unwrap_or_default();
    let oi = ctx.oi;
    for (pos, entry) in oi.entries.iter().enumerate() {
        let here = v[pos];
        for &child in entry.children(here) {
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
                // Reverse search (module docs): without symmetry, `v` is
                // the child's canonical parent iff the move is at or past
                // `v`'s last non-root position and replaces the child's
                // canonical parent. Symmetric skeletons decide per orbit
                // below.
                if ctx.symmetric || (pos >= floor && entry.canonical_parent(child) == here) {
                    work.push((pos, child, child_sup));
                }
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
    if ctx.symmetric {
        retain_canonical_children(ctx, v, &mut work);
    }
    for (pos, child, child_sup) in work.drain(..) {
        let parent = std::mem::replace(&mut v[pos], child);
        // The next level's working set comes from the per-worker pool
        // (re-targeted in place), so descending allocates nothing once
        // the pool has grown to the recursion depth.
        let mut child_ocs = ctx.s.dense_pool.pop().unwrap_or_default();
        ctx.oi.entries[pos]
            .occs(child)
            .intersection_into(ocs, &mut child_ocs);
        recurse(ctx, v, &child_ocs, child_sup, pos);
        ctx.s.dense_pool.push(child_ocs);
        v[pos] = parent;
    }
    ctx.s.work_pool.push(work);
}

/// Symmetric skeletons: keeps the moves of `work` (frequent children of
/// `v`) whose orbit has `v`'s orbit as its canonical parent, one move per
/// child orbit (module docs, "Duplicate suppression"). Runs before any
/// child of `v` is descended into, so the scratch buffers it fills are
/// `v`'s alone while it reads them.
fn retain_canonical_children(
    ctx: &mut Ctx<'_>,
    v: &[LocalId],
    work: &mut Vec<(usize, LocalId, usize)>,
) {
    let Ctx { oi, autos, s, .. } = ctx;
    let n = v.len();
    s.canon_v.clear();
    canonical_under_automorphisms_into(v, autos, &mut s.canon_v);
    s.siblings.clear();
    work.retain(|&(pos, child, _)| {
        s.candidate.clear();
        s.candidate.extend_from_slice(v);
        s.candidate[pos] = child;
        s.canon_child.clear();
        canonical_under_automorphisms_into(&s.candidate, autos, &mut s.canon_child);
        let u = &s.canon_child;
        // `u` differs from the start vector somewhere: the move replaced
        // a label by one of its children, and roots have no parents.
        let Some(p) = (0..n).rev().find(|&i| u[i] != s.roots[i]) else {
            return false;
        };
        s.candidate.clear();
        s.candidate.extend_from_slice(u);
        s.candidate[p] = oi.entries[p].canonical_parent(u[p]);
        s.canon_parent.clear();
        canonical_under_automorphisms_into(&s.candidate, autos, &mut s.canon_parent);
        if s.canon_parent != s.canon_v || s.siblings.chunks_exact(n).any(|w| w == u.as_slice()) {
            return false;
        }
        s.siblings.extend_from_slice(u);
        true
    });
}

/// `true` iff every automorphism maps each position to one whose entry
/// has the same root and the same labels under the same local ids — what
/// lets [`retain_canonical_children`] compare local ids across positions.
fn automorphic_entries_agree(oi: &OccurrenceIndex, autos: &[Vec<usize>]) -> bool {
    autos.iter().all(|pi| {
        pi.iter().enumerate().all(|(i, &j)| {
            let (a, b) = (&oi.entries[i], &oi.entries[j]);
            a.root() == b.root()
                && a.id_bound() == b.id_bound()
                && (0..a.id_bound() as LocalId).all(|id| a.label_of(id) == b.label_of(id))
        })
    })
}

/// Baseline-mode wasted work: computes an intersection count for every
/// strict descendant of `below` present in the entry (a walk over the
/// entry's DAG through a dense seen mask, each label probed once).
fn probe_descendants(ctx: &mut Ctx<'_>, entry: &OiEntry, below: LocalId, ocs: &BitSet) {
    let Ctx { oi, s, stats, .. } = ctx;
    if s.probe_seen.len() < entry.id_bound() {
        s.probe_seen.resize(entry.id_bound(), false);
    }
    s.probe_queue.clear();
    let mut next = below;
    let mut head = 0;
    loop {
        for &c in entry.children(next) {
            if !std::mem::replace(&mut s.probe_seen[c as usize], true) {
                s.probe_queue.push(c);
            }
        }
        let Some(&l) = s.probe_queue.get(head) else {
            break;
        };
        head += 1;
        stats.intersections += 1;
        std::hint::black_box(distinct_run_count(entry.occs(l), ocs, &oi.graph_starts));
        next = l;
    }
    for &l in &s.probe_queue {
        s.probe_seen[l as usize] = false;
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
        enumerate_figure_1_4_full(min_support, cfg, false)
    }

    /// [`enumerate_figure_1_4`], optionally keeping over-generalized
    /// patterns.
    fn enumerate_figure_1_4_full(
        min_support: usize,
        cfg: Enhancements,
        keep_overgeneralized: bool,
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
        let stats = enumerate_class_full(
            &skeleton,
            &oi,
            &rel.taxonomy,
            min_support,
            db.len(),
            &cfg,
            keep_overgeneralized,
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
    fn symmetric_sibling_moves_expand_once() {
        // On the symmetric edge a—a at θ = 2/3, replacing either end by b
        // is a frequent move from the start vector: (b,a) and (a,b) are
        // one pattern, a—b (support 2, see above), and both have the
        // start vector as canonical parent. Only the first sibling may be
        // descended into. With over-generalized patterns kept, every
        // visited vector is emitted, so a second expansion would emit a—b
        // twice.
        let (c, got, stats) = enumerate_figure_1_4_full(2, Enhancements::none(), true);
        assert_eq!(stats.emitted, stats.vectors_visited);
        assert_eq!(got.len(), stats.emitted);
        let a_b: Vec<_> = got
            .iter()
            .filter(|(v, _)| {
                let mut k = v.clone();
                k.sort();
                k == vec![c.a, c.b]
            })
            .collect();
        assert_eq!(a_b.len(), 1, "a—b expanded more than once: {got:?}");
        assert_eq!(a_b[0].1, 2);
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
