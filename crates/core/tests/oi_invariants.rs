//! Structural invariants of occurrence indices on random inputs:
//!
//! * the entry root covers every occurrence of the class;
//! * each child's occurrence set is a subset of its parent's (Lemma 2 at
//!   the index level — this is what makes the enumeration's intersections
//!   antitone);
//! * each label's occurrence set is exactly the set of occurrences whose
//!   original label at that position is a (reflexive) descendant of the
//!   label — verified directly against the embeddings, with and without
//!   a label-frequency mask; under a mask, exactly the admitted labels
//!   that cover an occurrence are present;
//! * the bottom-up build equals a naive per-`(occurrence, ancestor)`
//!   builder label for label, in local-id order, with equal child lists
//!   and update count;
//! * the graph-start row marks exactly the occurrences that open a new
//!   graph's run — the first one, and each whose graph id differs from
//!   its predecessor's;
//! * every non-root alive label's canonical parent is its smallest-id
//!   alive parent, with a row that is a superset of the label's, with and
//!   without contraction (Step 3's reverse search descends along it).

use proptest::prelude::*;
use proptest::TestCaseError;
use taxogram_core::oi::{LocalId, OccurrenceIndex, OiEntry, OiOptions, OiScratch, NO_PARENT};
use taxogram_core::relabel::{relabel, Relabeled};
use tsg_bitset::BitSet;
use tsg_graph::{EdgeLabel, GraphDatabase, LabeledGraph, NodeLabel};
use tsg_gspan::{Embedding, GSpan, GSpanConfig, Grow, MinedPattern, PatternSink};
use tsg_taxonomy::{Taxonomy, TaxonomyBuilder};

fn arb_taxonomy(max_concepts: usize) -> impl Strategy<Value = Taxonomy> {
    (2..=max_concepts)
        .prop_flat_map(|n| {
            let parents: Vec<_> = (1..n)
                .map(|i| prop::collection::vec(0..i, 1..=2.min(i)))
                .collect();
            (Just(n), parents)
        })
        .prop_map(|(n, parents)| {
            let mut b = TaxonomyBuilder::with_concepts(n);
            for (i, ps) in parents.into_iter().enumerate() {
                let mut seen = vec![];
                for p in ps {
                    if !seen.contains(&p) {
                        seen.push(p);
                        b.is_a(NodeLabel((i + 1) as u32), NodeLabel(p as u32)).unwrap();
                    }
                }
            }
            b.build().unwrap()
        })
}

fn arb_db(concepts: usize) -> impl Strategy<Value = GraphDatabase> {
    prop::collection::vec(
        (
            prop::collection::vec(0..concepts, 2..5),
            prop::collection::vec(0..2u32, 1..4),
        ),
        2..5,
    )
    .prop_map(|graphs| {
        let mut db = GraphDatabase::new();
        for (labels, elabels) in graphs {
            let mut g = LabeledGraph::with_nodes(labels.iter().map(|&l| NodeLabel(l as u32)));
            for i in 1..labels.len() {
                let el = elabels[(i - 1) % elabels.len()];
                g.add_edge(i - 1, i, EdgeLabel(el)).unwrap();
            }
            db.push(g);
        }
        db
    })
}

struct Classes {
    items: Vec<(LabeledGraph, Vec<Embedding>)>,
}

impl PatternSink for Classes {
    fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
        self.items.push((p.graph.clone(), p.embeddings.to_vec()));
        Grow::Continue
    }
}

/// Mines `db` under `taxonomy` (≤ 3 edges) at support 1, or, when
/// `filter` holds, at support 2 with the label-frequency mask the engines
/// build at that support: upward-closed, since frequency is antitone
/// along is-a.
fn mine_classes(
    taxonomy: &Taxonomy,
    db: &GraphDatabase,
    filter: bool,
) -> (Relabeled, Option<BitSet>, Classes) {
    let rel = relabel(db, taxonomy).unwrap();
    // Admit labels generalized-frequent in two graphs; classes then need
    // two graphs too, so every class's most-general labels are admitted.
    let frequent = filter.then(|| {
        let freqs = rel.taxonomy.generalized_label_frequencies(db);
        let mut mask = BitSet::new(rel.taxonomy.concept_count());
        for (i, _) in freqs.iter().enumerate().filter(|(_, &f)| f >= 2) {
            mask.insert(i);
        }
        mask
    });
    let mut classes = Classes { items: vec![] };
    let min_support = if filter { 2 } else { 1 };
    GSpan::new(&rel.dmg, GSpanConfig { min_support, max_edges: Some(3) }).mine(&mut classes);
    (rel, frequent, classes)
}

/// One entry as the naive builder sees it: labels in local-id order, each
/// with its occurrences and child ids, plus the root's id.
type NaiveEntry = (Vec<(NodeLabel, Vec<usize>, Vec<u32>)>, u32);

/// A naive per-`(occurrence, ancestor)` builder: originals visited
/// ascending, each one's admitted ancestors ascending, labels interned on
/// first sight, one bit set per (occurrence, admitted ancestor). Returns
/// the entries and the update count.
fn naive_build(
    embeddings: &[Embedding],
    originals: &[Vec<NodeLabel>],
    mg_labels: &[NodeLabel],
    taxonomy: &Taxonomy,
    frequent: Option<&BitSet>,
) -> (Vec<NaiveEntry>, usize) {
    let admitted = |a: usize| frequent.is_none_or(|f| f.contains(a));
    let mut updates = 0;
    let mut entries = Vec::new();
    for (pos, &mg) in mg_labels.iter().enumerate() {
        let of = |e: &Embedding| originals[e.gid][e.map[pos]];
        let mut distinct: Vec<NodeLabel> = embeddings.iter().map(of).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut labels: Vec<NodeLabel> = Vec::new();
        for &o in &distinct {
            for a in taxonomy.ancestors(o).iter().filter(|&a| admitted(a)) {
                if !labels.contains(&NodeLabel(a as u32)) {
                    labels.push(NodeLabel(a as u32));
                }
            }
        }
        let id_of = |l: NodeLabel| labels.iter().position(|&x| x == l).map(|i| i as u32);
        let mut rows = vec![(Vec::new(), Vec::new()); labels.len()];
        for (occ, e) in embeddings.iter().enumerate() {
            for a in taxonomy.ancestors(of(e)).iter().filter(|&a| admitted(a)) {
                rows[id_of(NodeLabel(a as u32)).unwrap() as usize].0.push(occ);
                updates += 1;
            }
        }
        for (id, &l) in labels.iter().enumerate() {
            for &p in taxonomy.parents(l) {
                if let Some(pid) = id_of(p) {
                    rows[pid as usize].1.push(id as u32);
                }
            }
        }
        let root = id_of(mg).unwrap();
        let rows = labels.iter().zip(rows).map(|(&l, (occs, children))| (l, occs, children));
        entries.push((rows.collect(), root));
    }
    (entries, updates)
}

/// Checks that every alive label's canonical parent is its smallest
/// alive parent in the entry ([`NO_PARENT`] at the root, which has none)
/// and that the parent's row is a superset of the label's.
fn check_canonical_parents(entry: &OiEntry) -> Result<(), TestCaseError> {
    let alive: Vec<LocalId> = entry.live_labels().map(|l| entry.lookup(l).unwrap()).collect();
    for &id in &alive {
        let label = entry.label_of(id);
        let smallest = alive.iter().copied().filter(|&p| entry.children(p).contains(&id)).min();
        let canonical = entry.canonical_parent(id);
        if id == entry.root() {
            prop_assert_eq!(smallest, None, "the root {} has a parent", label);
            prop_assert_eq!(canonical, NO_PARENT, "the root {}", label);
            continue;
        }
        prop_assert_eq!(Some(canonical), smallest, "canonical parent of {}", label);
        prop_assert!(
            entry.occs(id).is_subset(entry.occs(canonical)),
            "the canonical parent's row must cover {}'s",
            label
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn oi_invariants_hold(
        (taxonomy, db) in arb_taxonomy(6).prop_flat_map(|t| {
            let n = t.concept_count();
            (Just(t), arb_db(n))
        }),
        filter in prop::bool::ANY,
    ) {
        let (rel, frequent, classes) = mine_classes(&taxonomy, &db, filter);
        for (skeleton, embeddings) in &classes.items {
            let oi = OccurrenceIndex::build(
                embeddings,
                &rel.originals,
                skeleton.labels(),
                &rel.taxonomy,
                OiOptions {
                    frequent: frequent.as_ref(),
                    contract_equal_sets: false,
                    predescend_roots: false,
                },
            );
            prop_assert_eq!(oi.universe, embeddings.len());
            prop_assert_eq!(oi.entries.len(), skeleton.node_count());
            prop_assert_eq!(oi.graph_starts.universe(), oi.universe);
            for i in 0..oi.universe {
                let opens_run = i == 0 || embeddings[i].gid != embeddings[i - 1].gid;
                prop_assert_eq!(oi.graph_starts.contains(i), opens_run, "occurrence {}", i);
            }
            let contracted = OccurrenceIndex::build(
                embeddings,
                &rel.originals,
                skeleton.labels(),
                &rel.taxonomy,
                OiOptions {
                    frequent: frequent.as_ref(),
                    contract_equal_sets: true,
                    predescend_roots: true,
                },
            );
            for entry in oi.entries.iter().chain(&contracted.entries) {
                check_canonical_parents(entry)?;
            }
            for (pos, entry) in oi.entries.iter().enumerate() {
                // Root covers everything.
                let root = entry.root();
                prop_assert_eq!(entry.occs(root).count_ones(), oi.universe);
                // Every admitted label's set matches the embedding-level
                // definition exactly: present iff it covers an occurrence.
                // A pruned label never appears.
                for label in rel.taxonomy.concepts() {
                    let want: Vec<usize> = embeddings
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| {
                            let original = rel.originals[e.gid][e.map[pos]];
                            rel.taxonomy.is_ancestor(label, original)
                        })
                        .map(|(i, _)| i)
                        .collect();
                    let admitted = frequent.as_ref().is_none_or(|f| f.contains(label.index()));
                    let Some(id) = entry.lookup(label) else {
                        prop_assert!(
                            !admitted || want.is_empty(),
                            "admitted label {} covers occurrences at position {} but is missing",
                            label,
                            pos
                        );
                        continue;
                    };
                    prop_assert!(admitted, "pruned label {} at position {}", label, pos);
                    let got: Vec<usize> = entry.occs(id).iter().collect();
                    prop_assert_eq!(&got, &want, "label {} at position {}", label, pos);
                    prop_assert!(!got.is_empty(), "covered labels have occurrences");
                    for &child in entry.children(id) {
                        let cset: Vec<usize> = entry.occs(child).iter().collect();
                        prop_assert!(
                            cset.iter().all(|o| got.contains(o)),
                            "child set must be a subset of the parent's"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn build_matches_the_per_ancestor_oracle(
        (taxonomy, db) in arb_taxonomy(8).prop_flat_map(|t| {
            let n = t.concept_count();
            (Just(t), arb_db(n))
        }),
        filter in prop::bool::ANY,
    ) {
        let (rel, frequent, classes) = mine_classes(&taxonomy, &db, filter);
        for (skeleton, embeddings) in &classes.items {
            let options = OiOptions {
                frequent: frequent.as_ref(),
                contract_equal_sets: false,
                predescend_roots: false,
            };
            let labels = skeleton.labels();
            let oi = OccurrenceIndex::build(embeddings, &rel.originals, labels, &rel.taxonomy, options);
            let (want, updates) =
                naive_build(embeddings, &rel.originals, labels, &rel.taxonomy, frequent.as_ref());
            prop_assert_eq!(oi.updates, updates);
            for (entry, (rows, root)) in oi.entries.iter().zip(&want) {
                prop_assert_eq!(entry.len(), rows.len());
                prop_assert_eq!(entry.root(), *root);
                for (id, (label, occs, children)) in rows.iter().enumerate() {
                    let id = id as u32;
                    prop_assert_eq!(entry.label_of(id), *label, "local id {}", id);
                    prop_assert_eq!(&entry.occs(id).to_vec(), occs, "label {}", label);
                    prop_assert_eq!(entry.children(id), children.as_slice(), "label {}", label);
                }
            }
        }
    }

    #[test]
    fn contraction_preserves_mining_output((taxonomy, db) in arb_taxonomy(6).prop_flat_map(|t| {
        let n = t.concept_count();
        (Just(t), arb_db(n))
    })) {
        // Contraction only removes labels whose patterns would all be
        // over-generalized; outputs with and without it must agree.
        use taxogram_core::{Enhancements, Taxogram, TaxogramConfig};
        let mut with = TaxogramConfig::with_threshold(0.5).max_edges(3);
        with.enhancements = Enhancements { contract_equal_sets: true, ..Enhancements::all() };
        let mut without = with;
        without.enhancements.contract_equal_sets = false;
        without.enhancements.predescend_roots = false;
        let a = Taxogram::new(with).mine(&db, &taxonomy).unwrap();
        let b = Taxogram::new(without).mine(&db, &taxonomy).unwrap();
        prop_assert_eq!(a.patterns.len(), b.patterns.len());
        for p in &a.patterns {
            prop_assert!(
                b.patterns.iter().any(|q| q.support_count == p.support_count
                    && tsg_iso::is_isomorphic(&p.graph, &q.graph)),
                "pattern lost by contraction"
            );
        }
    }

    /// One `OiScratch` carried across the classes of two taxonomies of
    /// different sizes, alternating between them, builds exactly what a
    /// fresh scratch builds: labels in the same order, equal rows, child
    /// lists and root. The scratch's interning slots outlive each class,
    /// so a slot left set would mis-intern a later label without any
    /// other error.
    #[test]
    fn reused_scratch_matches_fresh_builds(
        (small, small_db) in arb_taxonomy(4).prop_flat_map(|t| {
            let n = t.concept_count();
            (Just(t), arb_db(n))
        }),
        (large, large_db) in arb_taxonomy(12).prop_flat_map(|t| {
            let n = t.concept_count();
            (Just(t), arb_db(n))
        }),
        contract in prop::bool::ANY,
        filter in prop::bool::ANY,
    ) {
        prop_assume!(small.concept_count() < large.concept_count());
        let inputs = [(&small, &small_db), (&large, &large_db)];
        let runs: Vec<(Relabeled, Option<BitSet>, Classes)> = inputs
            .into_iter()
            .map(|(taxonomy, db)| {
                let rel = relabel(db, taxonomy).unwrap();
                // Admit labels generalized-frequent in two graphs.
                let frequent = filter.then(|| {
                    let freqs = rel.taxonomy.generalized_label_frequencies(db);
                    let mut mask = BitSet::new(rel.taxonomy.concept_count());
                    for (i, _) in freqs.iter().enumerate().filter(|(_, &f)| f >= 2) {
                        mask.insert(i);
                    }
                    mask
                });
                let mut classes = Classes { items: vec![] };
                let min_support = if filter { 2 } else { 1 };
                GSpan::new(&rel.dmg, GSpanConfig { min_support, max_edges: Some(3) })
                    .mine(&mut classes);
                (rel, frequent, classes)
            })
            .collect();
        let longest = runs.iter().map(|(_, _, c)| c.items.len()).max().unwrap_or(0);
        let mut scratch = OiScratch::new();
        for k in 0..longest {
            for (rel, frequent, classes) in &runs {
                let Some((skeleton, embeddings)) = classes.items.get(k) else {
                    continue;
                };
                let options = OiOptions {
                    frequent: frequent.as_ref(),
                    contract_equal_sets: contract,
                    predescend_roots: contract,
                };
                let args = (embeddings, &rel.originals, skeleton.labels(), &rel.taxonomy);
                let reused = OccurrenceIndex::build_with_scratch(
                    args.0, args.1, args.2, args.3, options, &mut scratch,
                );
                let fresh = OccurrenceIndex::build(args.0, args.1, args.2, args.3, options);
                let concepts = rel.taxonomy.concept_count();
                prop_assert_eq!(&reused, &fresh, "class {} under {} concepts", k, concepts);
            }
        }
    }
}
