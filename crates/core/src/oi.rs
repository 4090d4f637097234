//! Taxonomy-projected occurrence indices (paper §3, Step 2).
//!
//! For a pattern class `P` (a frequent pattern of the relabeled database),
//! the occurrence index `OI(P)` holds one *occurrence index entry* (OIE)
//! per pattern node: a projection of the taxonomy onto the labels covered
//! by the pattern at that position (plus their ancestors), each label
//! carrying the set of occurrences observed under it. Occurrences are
//! gSpan embeddings, numbered densely per class; a map from occurrence to
//! database graph supports the paper's per-graph support counting.
//!
//! Two representation choices matter for performance:
//!
//! * **Occurrence sets are plain bitsets** ([`BitSet`]) over the class's
//!   occurrence universe `0..U`, `U` being its embedding count. The
//!   paper already prescribes this ("Taxogram implements occurrence sets
//!   as bit sets"), and the measured universes agree: at most 2,266 on
//!   the benchmark workloads, so a row is a few dozen words, construction
//!   is one bit store per `(occurrence, ancestor)` update, and every
//!   Lemma 7 intersection is a word-parallel AND fused with the
//!   distinct-graph count ([`tsg_bitset::distinct_monotone_mapped_count`]).
//!   That kernel needs `occ_graph` non-decreasing, which
//!   [`OccurrenceIndex::build`] checks once per class. The trade-off: a
//!   row costs ⌈U/64⌉ words whatever its population, so a class with
//!   tens of thousands of embeddings and hundreds of rarely-hit labels
//!   holds more than a content-proportional encoding would (DESIGN.md §3).
//! * **Labels are interned per entry** into dense local ids. Entries
//!   routinely hold hundreds of labels, and hash-mapping every label
//!   touch dominated index construction before interning; now each label
//!   pays one hash insertion, and construction, contraction, and child
//!   iteration run on dense vectors.

// tsg-lint: allow(index) — occurrence-index rows are indexed by dense entry ids issued during construction of the same index

use std::collections::HashMap;
use tsg_bitset::BitSet;
use tsg_graph::{GraphId, NodeLabel};
use tsg_gspan::Embedding;
use tsg_taxonomy::Taxonomy;

/// Local (per-entry) label id.
pub type LocalId = u32;

/// One taxonomy label's slot inside an OIE.
#[derive(Debug, Clone)]
pub struct OiNode {
    /// The occurrences of the class whose original label at this position
    /// is a (reflexive) descendant of this label, over `0..universe`.
    pub occs: BitSet,
    /// Children of this label *within the entry* (taxonomy children
    /// restricted to covered labels, possibly rewired by contraction), as
    /// local ids.
    pub children: Vec<LocalId>,
    /// `false` once removed by contraction.
    alive: bool,
}

/// The occurrence index entry of one pattern node: a sub-taxonomy rooted
/// at the node's most-general label, with labels interned to local ids.
#[derive(Debug, Clone)]
pub struct OiEntry {
    index: HashMap<NodeLabel, LocalId>,
    labels: Vec<NodeLabel>,
    nodes: Vec<OiNode>,
    root: LocalId,
}

impl OiEntry {
    /// The entry's root (the pattern node's most-general label, possibly
    /// replaced by an equal-occurrence child via enhancement *c*/*d*).
    pub fn root(&self) -> LocalId {
        self.root
    }

    /// The taxonomy label behind a local id.
    #[inline]
    pub fn label_of(&self, id: LocalId) -> NodeLabel {
        self.labels[id as usize]
    }

    /// The local id of a taxonomy label, if present (and alive).
    pub fn lookup(&self, label: NodeLabel) -> Option<LocalId> {
        self.index
            .get(&label)
            .copied()
            .filter(|&id| self.nodes[id as usize].alive)
    }

    /// The occurrence set of a local id.
    #[inline]
    pub fn occs(&self, id: LocalId) -> &BitSet {
        &self.nodes[id as usize].occs
    }

    /// Children of a local id within the entry.
    #[inline]
    pub fn children(&self, id: LocalId) -> &[LocalId] {
        &self.nodes[id as usize].children
    }

    /// `true` iff `label` is present (and not contracted away).
    pub fn contains(&self, label: NodeLabel) -> bool {
        self.lookup(label).is_some()
    }

    /// Number of live labels in the entry.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// `true` iff the entry has no live labels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the live labels (unordered).
    pub fn live_labels(&self) -> impl Iterator<Item = NodeLabel> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| self.labels[i])
    }

    /// Approximate heap footprint, for the memory accounting the scaling
    /// experiments report and governance budgets: ⌈U/64⌉ words per row,
    /// plus child lists and the label interning.
    pub fn heap_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.occs.heap_bytes() + n.children.len() * std::mem::size_of::<LocalId>())
            .sum::<usize>()
            + self.labels.len() * (std::mem::size_of::<NodeLabel>() + 16)
    }
}

/// The occurrence index of one pattern class.
#[derive(Debug, Clone)]
pub struct OccurrenceIndex {
    /// Number of occurrences (embeddings) of the class — the bitset
    /// universe.
    pub universe: usize,
    /// Occurrence id → database graph id.
    pub occ_graph: Vec<u32>,
    /// One entry per pattern node, indexed by DFS vertex id.
    pub entries: Vec<OiEntry>,
    /// Number of `(occurrence, ancestor-label)` insertions performed —
    /// the update count of the paper's Lemma 5 cost model.
    pub updates: usize,
}

/// Options controlling index construction.
#[derive(Debug, Clone, Copy)]
pub struct OiOptions<'a> {
    /// When `Some`, only labels in this set are materialized (enhancement
    /// *b* / Step 2 note (ii): generalized-infrequent labels are skipped).
    pub frequent: Option<&'a BitSet>,
    /// Contract labels whose occurrence set equals their unique equal
    /// child's, anywhere in the entry (enhancement *d*).
    pub contract_equal_sets: bool,
    /// Contract at entry roots only (enhancement *c*); subsumed by
    /// `contract_equal_sets`.
    pub predescend_roots: bool,
}

/// Reusable per-worker scratch for index construction: the by-original
/// grouping table and its retired occurrence vectors. One `OiScratch`
/// serves any number of classes in sequence; the grouping hash table and
/// its vectors are recycled instead of reallocated per pattern node.
#[derive(Debug, Default)]
pub struct OiScratch {
    by_original: HashMap<NodeLabel, Vec<usize>>,
    spare_vecs: Vec<Vec<usize>>,
}

impl OiScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        OiScratch::default()
    }
}

impl OccurrenceIndex {
    /// Builds the index for a pattern class from gSpan's embeddings.
    ///
    /// `mg_labels` are the class's most-general labels per pattern node;
    /// `originals[gid][v]` gives pre-relabeling vertex labels.
    ///
    /// # Panics
    /// Panics if `embeddings` are not in ascending graph-id order — the
    /// order gSpan and the sharded miner's Pass 2b both produce, and the
    /// one Step 3's support count relies on.
    pub fn build(
        embeddings: &[Embedding],
        originals: &[Vec<NodeLabel>],
        mg_labels: &[NodeLabel],
        taxonomy: &Taxonomy,
        options: OiOptions<'_>,
    ) -> OccurrenceIndex {
        let mut scratch = OiScratch::new();
        OccurrenceIndex::build_with_scratch(
            embeddings,
            originals,
            mg_labels,
            taxonomy,
            options,
            &mut scratch,
        )
    }

    /// Like [`OccurrenceIndex::build`], reusing a caller-owned
    /// [`OiScratch`] across classes (the streaming pipeline's workers hold
    /// one per thread).
    pub fn build_with_scratch(
        embeddings: &[Embedding],
        originals: &[Vec<NodeLabel>],
        mg_labels: &[NodeLabel],
        taxonomy: &Taxonomy,
        options: OiOptions<'_>,
        scratch: &mut OiScratch,
    ) -> OccurrenceIndex {
        let universe = embeddings.len();
        let occ_graph: Vec<u32> = embeddings.iter().map(|e| e.gid as u32).collect();
        // Step 3 counts a candidate's graphs as the graph-id changes along
        // its ascending occurrence ids, which is exact only while
        // `occ_graph` is non-decreasing. One O(U) pass per class checks it.
        if occ_graph.windows(2).any(|w| w[0] > w[1]) {
            panic!("class embeddings out of ascending graph-id order"); // tsg-lint: allow(panic) — internal invariant: gSpan and Pass 2b both emit a class's embeddings by ascending graph id; a break would silently corrupt supports
        }
        let mut updates = 0usize;
        let mut entries = Vec::with_capacity(mg_labels.len());
        let OiScratch {
            by_original,
            spare_vecs,
        } = scratch;
        for (pos, &mg) in mg_labels.iter().enumerate() {
            // Group occurrences by original label: original labels repeat
            // heavily across a class's occurrences, so all per-label work
            // below runs once per (distinct original, ancestor). The
            // grouping table and its vectors come from (and return to) the
            // caller's scratch.
            for (occ, emb) in embeddings.iter().enumerate() {
                by_original
                    .entry(originals[emb.gid][emb.map[pos]])
                    .or_insert_with(|| spare_vecs.pop().unwrap_or_default())
                    .push(occ);
            }
            let mut index: HashMap<NodeLabel, LocalId> = HashMap::new();
            let mut labels: Vec<NodeLabel> = Vec::new();
            let mut nodes: Vec<OiNode> = Vec::new();
            // Iterate originals in label order: interning order — and with
            // it entry-children order and final emission order — becomes
            // deterministic across runs and across the serial/parallel
            // pipelines.
            let mut originals_sorted: Vec<(&NodeLabel, &Vec<usize>)> = by_original.iter().collect();
            originals_sorted.sort_unstable_by_key(|(l, _)| **l);
            for (original, occs) in originals_sorted {
                for anc_idx in taxonomy.ancestors(*original).iter() {
                    if options.frequent.is_some_and(|f| !f.contains(anc_idx)) {
                        continue;
                    }
                    let label = NodeLabel(anc_idx as u32);
                    let id = *index.entry(label).or_insert_with(|| {
                        labels.push(label);
                        nodes.push(OiNode {
                            occs: BitSet::new(universe),
                            children: Vec::new(),
                            alive: true,
                        });
                        (labels.len() - 1) as LocalId
                    });
                    // Each occurrence has one original per position and
                    // each ancestor is visited once, so no bit is set twice.
                    let row = &mut nodes[id as usize].occs;
                    for &occ in occs {
                        row.insert(occ);
                    }
                    updates += occs.len();
                }
            }
            for (_, mut v) in by_original.drain() {
                v.clear();
                spare_vecs.push(v);
            }
            // Wire children within the entry, iterating each covered
            // label's *parents* (typically one or two on real ontologies)
            // rather than its taxonomy children (hundreds for top-level
            // concepts in wide taxonomies). Every covered label's admitted
            // ancestors are present — the frequency mask is monotone
            // upward — so parent lookups resolve whenever admitted.
            for id in 0..nodes.len() as u32 {
                for p in taxonomy.parents(labels[id as usize]) {
                    if let Some(&pid) = index.get(p) {
                        nodes[pid as usize].children.push(id);
                    }
                }
            }
            let root = *index
                .get(&mg)
                .expect("the most-general label is an ancestor of every original, so it is covered"); // tsg-lint: allow(panic) — the most-general label covers every original, so the index has it
            let mut entry = OiEntry {
                index,
                labels,
                nodes,
                root,
            };
            if options.contract_equal_sets {
                contract(&mut entry, false);
            } else if options.predescend_roots {
                contract(&mut entry, true);
            }
            entries.push(entry);
        }
        OccurrenceIndex {
            universe,
            occ_graph,
            entries,
            updates,
        }
    }

    /// The full occurrence set of the class (every bit set).
    pub fn full_set(&self) -> BitSet {
        BitSet::full(self.universe)
    }

    /// Approximate heap footprint of all entries.
    pub fn heap_bytes(&self) -> usize {
        self.entries.iter().map(OiEntry::heap_bytes).sum::<usize>()
            + self.occ_graph.len() * std::mem::size_of::<u32>()
    }
}

/// Contracts labels whose occurrence set equals exactly one child's set:
/// the label is removed and the child rewired to its parents (enhancement
/// *d*; with `roots_only`, applied only while the entry root qualifies —
/// enhancement *c*). Any pattern using a removed label is necessarily
/// over-generalized: replacing it by the equal child preserves the
/// occurrence set, hence the support, of every pattern in the class.
fn contract(entry: &mut OiEntry, roots_only: bool) {
    let n = entry.nodes.len();
    // Occurrence sets never change during contraction (only the DAG
    // structure does), so labels are partitioned into equal-set groups up
    // front — one verified comparison per label — and every later
    // equality question is a group-id comparison. Equal sets are the
    // *common* case here (that is why enhancements (c)/(d) exist).
    let group_of = equal_set_groups(entry);
    // Reverse (parent) adjacency, maintained across contractions.
    let mut parents: Vec<Vec<LocalId>> = vec![Vec::new(); n];
    for (id, node) in entry.nodes.iter().enumerate() {
        for &c in &node.children {
            parents[c as usize].push(id as LocalId);
        }
    }
    let mut queue: Vec<LocalId> = if roots_only {
        vec![entry.root]
    } else {
        (0..n as LocalId).collect()
    };
    while let Some(parent) = queue.pop() {
        if roots_only && parent != entry.root {
            continue;
        }
        if !entry.nodes[parent as usize].alive {
            continue;
        }
        let Some(child) = equal_unique_child(entry, parent, &group_of) else {
            continue;
        };
        entry.nodes[parent as usize].alive = false;
        // Rewire: everything that listed `parent` as a child now lists
        // `child` (deduplicated) — and becomes a candidate itself.
        let parent_parents = std::mem::take(&mut parents[parent as usize]);
        for gp in parent_parents {
            if !entry.nodes[gp as usize].alive {
                continue;
            }
            let node = &mut entry.nodes[gp as usize];
            if let Some(i) = node.children.iter().position(|&c| c == parent) {
                node.children.remove(i);
                if !node.children.contains(&child) {
                    node.children.push(child);
                    parents[child as usize].push(gp);
                }
                queue.push(gp);
            }
        }
        // `parent`'s other children were siblings of `child`; they remain
        // reachable below `child` (their sets are subsets of `parent`'s
        // = `child`'s, so the generalization order is preserved).
        let orphans: Vec<LocalId> = entry.nodes[parent as usize]
            .children
            .iter()
            .copied()
            .filter(|&c| c != child)
            .collect();
        for c in orphans {
            if !entry.nodes[child as usize].children.contains(&c) {
                entry.nodes[child as usize].children.push(c);
                parents[c as usize].push(child);
            }
        }
        if entry.root == parent {
            entry.root = child;
            queue.push(child);
        }
    }
}

/// Partitions the entry's labels into equal-occurrence-set groups: equal
/// group id ⇔ equal set. The map hashes each row's words and verifies
/// every hit by comparing them, so correctness never rests on hash
/// quality.
fn equal_set_groups(entry: &OiEntry) -> Vec<u32> {
    let mut groups: HashMap<&BitSet, u32> = HashMap::with_capacity(entry.nodes.len());
    entry
        .nodes
        .iter()
        .map(|node| {
            let next = groups.len() as u32;
            *groups.entry(&node.occs).or_insert(next)
        })
        .collect()
}

/// If exactly one child of `l` has an occurrence set equal to `l`'s,
/// returns it.
fn equal_unique_child(entry: &OiEntry, l: LocalId, group_of: &[u32]) -> Option<LocalId> {
    let node = &entry.nodes[l as usize];
    let group = group_of[l as usize];
    let mut equal = None;
    for &c in &node.children {
        if group_of[c as usize] == group {
            if equal.is_some() {
                return None; // ambiguous — skip contraction for safety
            }
            equal = Some(c);
        }
    }
    equal
}

/// Convenience for tests and examples: the graph ids (sorted,
/// deduplicated) covered by an occurrence set (any iterable of occurrence
/// ids).
pub fn occ_set_graphs(set: impl IntoIterator<Item = usize>, occ_graph: &[u32]) -> Vec<GraphId> {
    let mut gids: Vec<GraphId> = set.into_iter().map(|o| occ_graph[o] as GraphId).collect();
    gids.sort_unstable();
    gids.dedup();
    gids
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_taxonomy::samples;

    /// Grabs the 1-edge (`a—a`) pattern class of the relabeled Figure 1.4
    /// database: its embeddings and most-general labels.
    fn grab_edge_class(
        rel: &crate::relabel::Relabeled,
    ) -> (Vec<tsg_gspan::Embedding>, Vec<NodeLabel>) {
        struct Grab {
            embs: Vec<tsg_gspan::Embedding>,
            labels: Vec<NodeLabel>,
        }
        impl tsg_gspan::PatternSink for Grab {
            fn report(&mut self, p: &tsg_gspan::MinedPattern<'_>) -> tsg_gspan::Grow {
                if p.graph.edge_count() == 1 && self.embs.is_empty() {
                    self.embs = p.embeddings.to_vec();
                    self.labels = p.graph.labels().to_vec();
                }
                tsg_gspan::Grow::Continue
            }
        }
        let mut grab = Grab {
            embs: vec![],
            labels: vec![],
        };
        tsg_gspan::GSpan::new(
            &rel.dmg,
            tsg_gspan::GSpanConfig {
                min_support: 2,
                max_edges: None,
            },
        )
        .mine(&mut grab);
        assert!(!grab.embs.is_empty(), "the a—a class is frequent");
        (grab.embs, grab.labels)
    }

    /// Builds the paper's Figure 3.2 scenario: pattern class `a—a` over
    /// the Figure 1.4 database.
    fn figure_3_2_index() -> (samples::SampleConcepts, OccurrenceIndex) {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let rel = crate::relabel::relabel(&db, &t).unwrap();
        let (embs, labels) = grab_edge_class(&rel);
        let oi = OccurrenceIndex::build(
            &embs,
            &rel.originals,
            &labels,
            &rel.taxonomy,
            OiOptions {
                frequent: None,
                contract_equal_sets: false,
                predescend_roots: false,
            },
        );
        (c, oi)
    }

    #[test]
    fn figure_3_2_entry_structure() {
        let (c, oi) = figure_3_2_index();
        assert_eq!(oi.entries.len(), 2, "one OIE per pattern node");
        // Paper: a—a has 4 subgraph occurrences (1.1, 2.1, 2.2, 3.1); each
        // is found in both vertex orders by gSpan, so 8 embeddings.
        assert_eq!(oi.universe, 8);
        for entry in &oi.entries {
            assert_eq!(entry.label_of(entry.root()), c.a);
            // Root covers every occurrence.
            assert_eq!(entry.occs(entry.root()).count_ones(), 8);
            // b and c are covered (as ancestors of d/b resp. f/g/w/c).
            assert!(entry.contains(c.b));
            assert!(entry.contains(c.c));
            // Deep unrelated labels are not.
            assert!(!entry.contains(c.k));
            let root_children: Vec<NodeLabel> = entry
                .children(entry.root())
                .iter()
                .map(|&id| entry.label_of(id))
                .collect();
            assert!(root_children.contains(&c.b));
            assert!(root_children.contains(&c.c));
        }
        // Each occurrence of graph 0 (d—b) has a b-descendant original at
        // some position, so OcS(b) covers graph 0.
        let e0 = &oi.entries[0];
        let b_id = e0.lookup(c.b).unwrap();
        let graphs_of_b = occ_set_graphs(e0.occs(b_id).iter(), &oi.occ_graph);
        assert!(graphs_of_b.contains(&0));
        let full = oi.full_set();
        assert_eq!(
            tsg_bitset::distinct_monotone_mapped_count(&full, &full, &oi.occ_graph),
            3
        );
    }

    #[test]
    fn frequency_filter_drops_labels() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let rel = crate::relabel::relabel(&db, &t).unwrap();
        let (embs, labels) = grab_edge_class(&rel);
        // Admit only a and b into the index.
        let mut frequent = BitSet::new(rel.taxonomy.concept_count());
        frequent.insert(c.a.index());
        frequent.insert(c.b.index());
        let oi = OccurrenceIndex::build(
            &embs,
            &rel.originals,
            &labels,
            &rel.taxonomy,
            OiOptions {
                frequent: Some(&frequent),
                contract_equal_sets: false,
                predescend_roots: false,
            },
        );
        for e in &oi.entries {
            assert!(e.contains(c.a));
            assert!(e.contains(c.b));
            assert!(!e.contains(c.c), "c filtered out");
            assert!(!e.contains(c.d), "d filtered out");
        }
    }

    /// Hand-builds an entry from `(label, occurrences, children)` rows,
    /// every row over the universe its largest occurrence implies.
    fn make_entry(rows: &[(u32, &[usize], &[u32])], root: u32) -> OiEntry {
        let universe = rows
            .iter()
            .flat_map(|(_, occs, _)| occs.iter())
            .max()
            .map_or(0, |&m| m + 1);
        let mut index = HashMap::new();
        let mut labels = Vec::new();
        let mut nodes = Vec::new();
        for (i, (label, occs, children)) in rows.iter().enumerate() {
            index.insert(NodeLabel(*label), i as LocalId);
            labels.push(NodeLabel(*label));
            nodes.push(OiNode {
                occs: BitSet::from_iter_with_universe(universe, occs.iter().copied()),
                children: children.to_vec(),
                alive: true,
            });
        }
        OiEntry {
            index,
            labels,
            nodes,
            root,
        }
    }

    #[test]
    fn heap_bytes_follows_the_dense_row_layout() {
        let (_, oi) = figure_3_2_index();
        let words = oi.universe.div_ceil(64);
        let want: usize = oi
            .entries
            .iter()
            .map(|e| {
                let children: usize = e.nodes.iter().map(|n| n.children.len()).sum();
                e.nodes.len() * words * 8
                    + children * std::mem::size_of::<LocalId>()
                    + e.labels.len() * (std::mem::size_of::<NodeLabel>() + 16)
            })
            .sum::<usize>()
            + oi.universe * std::mem::size_of::<u32>();
        assert_eq!(oi.heap_bytes(), want);
    }

    #[test]
    #[should_panic(expected = "out of ascending graph-id order")]
    fn out_of_order_embeddings_are_rejected() {
        // Two single-vertex embeddings listed graph 1 before graph 0.
        let (c, t) = samples::sample_taxonomy();
        let originals = vec![vec![c.d], vec![c.b]];
        let emb = |gid| tsg_gspan::Embedding {
            gid,
            map: vec![0],
            edges: vec![],
        };
        OccurrenceIndex::build(
            &[emb(1), emb(0)],
            &originals,
            &[c.a],
            &t,
            OiOptions {
                frequent: None,
                contract_equal_sets: false,
                predescend_roots: false,
            },
        );
    }

    #[test]
    fn contraction_removes_equal_parent() {
        // root r (occs {0,1}) → x (occs {0,1}) → y (occs {0}):
        // contraction removes r, x becomes root.
        let mut entry = make_entry(
            &[(0, &[0, 1], &[1]), (1, &[0, 1], &[2]), (2, &[0], &[])],
            0,
        );
        contract(&mut entry, false);
        assert!(!entry.contains(NodeLabel(0)));
        assert_eq!(entry.label_of(entry.root()), NodeLabel(1));
        assert_eq!(entry.children(entry.root()), &[2]);
        assert_eq!(entry.len(), 2);
    }

    #[test]
    fn ambiguous_equal_children_are_not_contracted() {
        let mut entry = make_entry(
            &[(0, &[0, 1], &[1, 2]), (1, &[0, 1], &[]), (2, &[0, 1], &[])],
            0,
        );
        contract(&mut entry, false);
        assert!(entry.contains(NodeLabel(0)), "two equal children: skipped");
        assert_eq!(entry.len(), 3);
    }

    #[test]
    fn roots_only_contraction_stops_below_root() {
        // r(={0,1}) → {x(={0}), w(={1})}, x → x2(={0}): the non-root pair
        // (x, x2) is only contracted in full mode.
        let rows: &[(u32, &[usize], &[u32])] = &[
            (0, &[0, 1], &[1, 2]),
            (1, &[0], &[3]),
            (2, &[1], &[]),
            (3, &[0], &[]),
        ];
        let mut roots_only_entry = make_entry(rows, 0);
        contract(&mut roots_only_entry, true);
        assert!(
            roots_only_entry.contains(NodeLabel(1)),
            "non-root pair untouched"
        );
        assert_eq!(roots_only_entry.len(), 4);
        let mut full_entry = make_entry(rows, 0);
        contract(&mut full_entry, false);
        assert!(!full_entry.contains(NodeLabel(1)), "full mode removes x");
        let root_children: Vec<NodeLabel> = full_entry
            .children(full_entry.root())
            .iter()
            .map(|&id| full_entry.label_of(id))
            .collect();
        assert!(root_children.contains(&NodeLabel(2)));
        assert!(root_children.contains(&NodeLabel(3)));
    }

    #[test]
    fn contraction_chain_collapses_fully() {
        // r = x = y (all {0,1}), y → z ({0}): r and x both contract down
        // to y; z stays.
        let mut entry = make_entry(
            &[
                (0, &[0, 1], &[1]),
                (1, &[0, 1], &[2]),
                (2, &[0, 1], &[3]),
                (3, &[0], &[]),
            ],
            0,
        );
        contract(&mut entry, false);
        assert_eq!(entry.len(), 2);
        assert_eq!(entry.label_of(entry.root()), NodeLabel(2));
    }

    #[test]
    fn equal_set_groups_verified() {
        let entry = make_entry(
            &[
                (0, &[0, 1], &[]),
                (1, &[0, 1], &[]),
                (2, &[0], &[]),
                (3, &[1], &[]),
            ],
            0,
        );
        let g = equal_set_groups(&entry);
        assert_eq!(g[0], g[1], "equal sets share a group");
        assert_ne!(g[0], g[2]);
        assert_ne!(g[2], g[3], "different singletons differ");
    }
}
