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
//! Three choices matter for performance:
//!
//! * **Occurrence sets are plain bitsets** ([`BitSet`]) over the class's
//!   occurrence universe `0..U`, `U` being its embedding count. The
//!   paper already prescribes this ("Taxogram implements occurrence sets
//!   as bit sets"), and the measured universes agree: at most 2,266 on
//!   the benchmark workloads, so a row is a few dozen words, and every
//!   Lemma 7 intersection is a word-parallel AND fused with the
//!   distinct-graph count ([`tsg_bitset::distinct_run_count`]). Because
//!   `occ_graph` is non-decreasing (checked once per class by
//!   [`OccurrenceIndex::build`]), each graph owns one run of occurrence
//!   ids, and the build marks each run's first id in one more row,
//!   [`OccurrenceIndex::graph_starts`]. The kernel counts the runs a
//!   candidate touches with one carry chain over the words: a member
//!   starts a carry, non-start positions pass it on, and a start that is
//!   not a member stops it, so each start bit of the sum reads "the
//!   previous run held a member" and the last run's hit leaves as the
//!   final carry-out. No occurrence is looked up in `occ_graph`. The
//!   trade-off: a row costs ⌈U/64⌉ words whatever its population, so a
//!   class with tens of thousands of embeddings and hundreds of
//!   rarely-hit labels holds more than a content-proportional encoding
//!   would (DESIGN.md §3).
//! * **Rows are built bottom-up.** An occurrence is inserted only into
//!   its original label's *admitted frontier*: the original itself when
//!   the label-frequency mask admits it (always, without a mask), else
//!   the admitted labels reached from it through pruned labels alone.
//!   Rows then flow to their parents as word ORs, deepest label first,
//!   so each admitted ancestor receives the occurrence once, however
//!   many is-a paths lead there. Frontiers are memoized in [`OiScratch`]
//!   per taxonomy and mask, so no closure is looked up and no pruned
//!   label is walked twice in a run. `updates` is the rows' total
//!   population: Lemma 5's `(occurrence, admitted ancestor)` count.
//! * **Labels are interned per entry** into dense local ids, through a
//!   per-concept slot array in [`OiScratch`]: a label lookup is one array
//!   load, not a hash lookup, and only the entry's own lookup table pays
//!   a hash insertion, once per label. Construction, contraction, and
//!   child iteration run on dense vectors.

// tsg-lint: allow(index) — occurrence-index rows are indexed by dense entry ids issued during construction of the same index

use std::collections::HashMap;
use tsg_bitset::BitSet;
use tsg_graph::{GraphId, NodeLabel};
use tsg_gspan::Embedding;
use tsg_taxonomy::Taxonomy;

/// Local (per-entry) label id.
pub type LocalId = u32;

/// One taxonomy label's slot inside an OIE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OiNode {
    /// The occurrences of the class whose original label at this position
    /// is a (reflexive) descendant of this label, over `0..universe`.
    pub occs: BitSet,
    /// Children of this label *within the entry* (taxonomy children
    /// restricted to covered labels, possibly rewired by contraction), as
    /// local ids.
    pub children: Vec<LocalId>,
    /// The label's canonical parent: its smallest-local-id alive parent
    /// in the entry's DAG (after contraction's rewiring), or [`NO_PARENT`]
    /// at the root. Step 3's reverse search descends into a vector only
    /// from the one vector that generalizes its last non-root position to
    /// this parent (`crate::enumerate`, "Duplicate suppression").
    canonical_parent: LocalId,
    /// `false` once removed by contraction.
    alive: bool,
}

/// The canonical parent recorded for an entry root, which has none.
pub const NO_PARENT: LocalId = LocalId::MAX;

/// The occurrence index entry of one pattern node: a sub-taxonomy rooted
/// at the node's most-general label, with labels interned to local ids.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// The canonical parent of a local id: its smallest-local-id alive
    /// parent within the entry, or [`NO_PARENT`] for the root. Its row is
    /// a superset of the label's.
    #[inline]
    pub fn canonical_parent(&self, id: LocalId) -> LocalId {
        self.nodes[id as usize].canonical_parent
    }

    /// One past the largest local id, dead labels included: the size of a
    /// dense per-label array over the entry.
    pub(crate) fn id_bound(&self) -> usize {
        self.nodes.len()
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccurrenceIndex {
    /// Number of occurrences (embeddings) of the class — the bitset
    /// universe.
    pub universe: usize,
    /// Occurrence id → database graph id.
    pub occ_graph: Vec<u32>,
    /// The first occurrence of every graph's run: bit `i` is set iff
    /// `i == 0` or `occ_graph[i] != occ_graph[i - 1]`. Step 3's support
    /// kernel ([`tsg_bitset::distinct_run_count`]) counts graphs with it.
    pub graph_starts: BitSet,
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

/// Reusable per-worker scratch for index construction: the per-concept
/// slots that intern an entry's labels, and the frontier memo. One
/// `OiScratch` serves any number of classes in sequence, under any
/// taxonomies and masks.
#[derive(Debug, Default)]
pub struct OiScratch {
    /// Concept index → the label's row in the entry under construction,
    /// then its local id; [`UNSET`] everywhere else. Grown to the largest
    /// taxonomy seen, and reset through the entry's label list before the
    /// next entry starts.
    slots: Vec<LocalId>,
    /// Concept index → its admitted frontier as a `(start, len)` span of
    /// `frontier_ids`, or `(UNSET, 0)` until first needed. Only originals
    /// that are themselves pruned (or absent) are ever looked up here: an
    /// admitted original is its own frontier.
    frontiers: Vec<(u32, u32)>,
    frontier_ids: Vec<NodeLabel>,
    /// The taxonomy ([`Taxonomy::id`]) and mask the memo was filled under.
    memo_key: Option<(u64, Option<BitSet>)>,
}

/// A slot holding no row or local id, and a frontier not yet computed.
const UNSET: LocalId = LocalId::MAX;
/// A slot whose label is queued for registration in the current entry.
const PENDING: LocalId = LocalId::MAX - 1;

impl OiScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        OiScratch::default()
    }

    /// Points the frontier memo at `taxonomy` under `frequent`, dropping
    /// every memoized frontier if either differs from the last build's.
    /// The key is the taxonomy's process-unique id plus the mask's
    /// content, so neither a reused address nor a hash collision can
    /// serve a stale frontier.
    fn bind(&mut self, taxonomy: &Taxonomy, frequent: Option<&BitSet>) {
        let current = self
            .memo_key
            .as_ref()
            .is_some_and(|(id, mask)| *id == taxonomy.id() && mask.as_ref() == frequent);
        if !current {
            self.frontiers.clear();
            self.frontier_ids.clear();
            self.memo_key = Some((taxonomy.id(), frequent.cloned()));
        }
        let n = taxonomy.concept_count();
        if self.slots.len() < n {
            self.slots.resize(n, UNSET);
        }
        if self.frontiers.len() < n {
            self.frontiers.resize(n, (UNSET, 0));
        }
    }
}

/// The admitted frontier of `original`: the admitted labels reachable
/// from it through pruned labels alone, as a span of `ids`. Memoized in
/// `frontiers` for every label the walk passes, so each pruned label is
/// expanded once per taxonomy and mask, and a memoized frontier costs
/// one lookup; `stack` is a reusable buffer. An absent concept has an
/// empty frontier (it has no ancestors at all).
fn frontier_span(
    original: NodeLabel,
    taxonomy: &Taxonomy,
    frequent: &BitSet,
    frontiers: &mut [(u32, u32)],
    ids: &mut Vec<NodeLabel>,
    stack: &mut Vec<NodeLabel>,
) -> (usize, usize) {
    stack.push(original);
    while let Some(&x) = stack.last() {
        if frontiers[x.index()].0 != UNSET {
            stack.pop();
            continue;
        }
        // Children before parents: expand every pruned parent first.
        let depth = stack.len();
        for &p in taxonomy.parents(x) {
            if !frequent.contains(p.index()) && frontiers[p.index()].0 == UNSET {
                stack.push(p);
            }
        }
        if stack.len() > depth {
            continue;
        }
        stack.pop();
        // A pruned label with one pruned parent shares that parent's span.
        if let [p] = taxonomy.parents(x) {
            if !frequent.contains(p.index()) {
                frontiers[x.index()] = frontiers[p.index()];
                continue;
            }
        }
        let start = ids.len();
        for &p in taxonomy.parents(x) {
            if frequent.contains(p.index()) {
                ids.push(p);
            } else {
                let (s, len) = frontiers[p.index()];
                ids.extend_from_within(s as usize..(s + len) as usize);
            }
        }
        let mut union = ids.split_off(start);
        union.sort_unstable();
        union.dedup();
        frontiers[x.index()] = (start as u32, union.len() as u32);
        ids.append(&mut union);
    }
    let (s, len) = frontiers[original.index()];
    (s as usize, len as usize)
}

impl OccurrenceIndex {
    /// Builds the index for a pattern class from gSpan's embeddings.
    ///
    /// `mg_labels` are the class's most-general labels per pattern node;
    /// `originals[gid][v]` gives pre-relabeling vertex labels.
    ///
    /// # Panics
    /// Panics if `embeddings` are not in ascending graph-id order — the
    /// order gSpan and the sharded miner's Pass 2 both produce, and the
    /// one Step 3's support count relies on — and if `options.frequent`
    /// admits a label with a pruned ancestor that some occurrence
    /// reaches: generalized frequency is antitone along is-a, so a mask
    /// built from it is upward-closed.
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
        // Step 3 counts a candidate's graphs as the graph runs it touches,
        // which is exact only while `occ_graph` is non-decreasing: then
        // each graph owns one run of occurrence ids. One O(U) pass per
        // class checks the order and marks where each run starts.
        let mut graph_starts = BitSet::new(universe);
        let mut prev = None;
        for (occ, &gid) in occ_graph.iter().enumerate() {
            if prev.is_some_and(|p| p > gid) {
                panic!("class embeddings out of ascending graph-id order"); // tsg-lint: allow(panic) — internal invariant: gSpan and Pass 2 both emit a class's embeddings by ascending graph id; a break would silently corrupt supports
            }
            if prev != Some(gid) {
                graph_starts.insert(occ);
            }
            prev = Some(gid);
        }
        let mut updates = 0usize;
        let mut entries = Vec::with_capacity(mg_labels.len());
        scratch.bind(taxonomy, options.frequent);
        let OiScratch {
            slots,
            frontiers,
            frontier_ids,
            ..
        } = scratch;
        let admitted = |l: NodeLabel| options.frequent.is_none_or(|f| f.contains(l.index()));
        let mut stack: Vec<NodeLabel> = Vec::new();
        for (pos, &mg) in mg_labels.iter().enumerate() {
            // Rows in registration order, with the smallest original that
            // reaches each label; a label's slot holds its row index.
            let mut labels: Vec<NodeLabel> = Vec::new();
            let mut rows: Vec<BitSet> = Vec::new();
            let mut first: Vec<NodeLabel> = Vec::new();
            // Gathering the originals first keeps the scattered loads out
            // of the dependent insert loop below.
            let position_originals: Vec<NodeLabel> = embeddings
                .iter()
                .map(|emb| originals[emb.gid][emb.map[pos]])
                .collect();
            for (occ, &original) in position_originals.iter().enumerate() {
                // Each occurrence enters only its original's admitted
                // frontier; the bottom-up pass below carries it to every
                // admitted ancestor.
                let frontier: &[NodeLabel] = if taxonomy.contains(original) && admitted(original) {
                    std::slice::from_ref(&original)
                } else if let Some(frequent) = options.frequent {
                    let (s, len) = frontier_span(
                        original,
                        taxonomy,
                        frequent,
                        frontiers,
                        frontier_ids,
                        &mut stack,
                    );
                    &frontier_ids[s..s + len]
                } else {
                    &[]
                };
                for &f in frontier {
                    if slots[f.index()] == UNSET {
                        // Register the label and every ancestor not yet
                        // registered, so each row's parents have rows.
                        slots[f.index()] = PENDING;
                        stack.push(f);
                        while let Some(x) = stack.pop() {
                            slots[x.index()] = labels.len() as LocalId;
                            labels.push(x);
                            rows.push(BitSet::new(universe));
                            first.push(NodeLabel(u32::MAX));
                            for &p in taxonomy.parents(x) {
                                if slots[p.index()] == UNSET {
                                    assert!(
                                        admitted(p),
                                        "label-frequency mask must be upward-closed: admitted {x} has pruned parent {p}"
                                    );
                                    slots[p.index()] = PENDING;
                                    stack.push(p);
                                }
                            }
                        }
                    }
                    let row = slots[f.index()] as usize;
                    rows[row].insert(occ);
                    first[row] = first[row].min(original);
                }
            }
            // Bottom-up: a parent is strictly shallower than its child
            // (longest-path depth), so deepest-first finishes every row
            // before it flows into its parents.
            let mut order: Vec<usize> = (0..labels.len()).collect();
            order.sort_unstable_by_key(|&i| std::cmp::Reverse(taxonomy.depth(labels[i])));
            for &i in &order {
                let row = std::mem::take(&mut rows[i]);
                for &p in taxonomy.parents(labels[i]) {
                    let pi = slots[p.index()] as usize;
                    rows[pi].union_with(&row);
                    first[pi] = first[pi].min(first[i]);
                }
                rows[i] = row;
            }
            // Local ids by (smallest original reaching the label, label
            // id): a function of the class alone, so child lists,
            // contraction and emission order repeat across runs and
            // engines.
            order.sort_unstable_by_key(|&i| (first[i], labels[i]));
            let labels: Vec<NodeLabel> = order.iter().map(|&i| labels[i]).collect();
            let mut nodes: Vec<OiNode> = Vec::with_capacity(labels.len());
            for (id, &i) in order.iter().enumerate() {
                let occs = std::mem::take(&mut rows[i]);
                updates += occs.count_ones();
                nodes.push(OiNode {
                    occs,
                    children: Vec::new(),
                    canonical_parent: NO_PARENT,
                    alive: true,
                });
                slots[labels[id].index()] = id as LocalId;
            }
            // Wire children within the entry, iterating each label's
            // *parents* (typically one or two on real ontologies) rather
            // than its taxonomy children (hundreds for top-level concepts
            // in wide taxonomies). Registration gave every parent a row.
            // The smallest parent id is the label's canonical parent.
            for id in 0..nodes.len() as u32 {
                let mut canonical = NO_PARENT;
                for p in taxonomy.parents(labels[id as usize]) {
                    let pid = slots[p.index()];
                    nodes[pid as usize].children.push(id);
                    canonical = canonical.min(pid);
                }
                nodes[id as usize].canonical_parent = canonical;
            }
            let root = slots[mg.index()];
            assert!(
                root != UNSET,
                "the most-general label is an ancestor of every original, so it is covered"
            );
            // The entry's own lookup table: one insertion per label, which
            // also releases the label's slot for the next entry.
            let mut index: HashMap<NodeLabel, LocalId> = HashMap::with_capacity(labels.len());
            for (id, &label) in labels.iter().enumerate() {
                index.insert(label, id as LocalId);
                slots[label.index()] = UNSET;
            }
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
            graph_starts,
            entries,
            updates,
        }
    }

    /// The full occurrence set of the class (every bit set).
    pub fn full_set(&self) -> BitSet {
        BitSet::full(self.universe)
    }

    /// Approximate heap footprint of all entries, the occurrence→graph
    /// map and the graph-start row.
    pub fn heap_bytes(&self) -> usize {
        self.entries.iter().map(OiEntry::heap_bytes).sum::<usize>()
            + self.occ_graph.len() * std::mem::size_of::<u32>()
            + self.graph_starts.heap_bytes()
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
    // Canonical parents over the rewired DAG: `parents` lists every alive
    // parent of an alive label (plus contracted ones, skipped here).
    for (id, ps) in parents.iter().enumerate() {
        let canonical = ps
            .iter()
            .copied()
            .filter(|&p| entry.nodes[p as usize].alive)
            .min()
            .unwrap_or(NO_PARENT);
        entry.nodes[id].canonical_parent = canonical;
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
            tsg_bitset::distinct_run_count(&full, &full, &oi.graph_starts),
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

    /// The DAG `r ← p1 ← o`, `r ← q ← p2 ← o` (ids 0–4): `o` has a
    /// frequent parent `p1` and an infrequent one, `p2`, under the
    /// frequent `q`. Occurrences 0 and 1 have original `o`, occurrence 2
    /// has `p2`.
    fn two_parent_dag() -> (Taxonomy, Vec<Vec<NodeLabel>>, Vec<tsg_gspan::Embedding>) {
        let t = tsg_taxonomy::taxonomy_from_edges(5, [(1, 0), (2, 0), (3, 2), (4, 1), (4, 3)])
            .unwrap();
        let originals = vec![vec![NodeLabel(4)], vec![NodeLabel(4), NodeLabel(3)]];
        let emb = |gid, v| tsg_gspan::Embedding {
            gid,
            map: vec![v],
            edges: vec![],
        };
        (t, originals, vec![emb(0, 0), emb(1, 0), emb(1, 1)])
    }

    #[test]
    fn pruned_original_reaches_its_whole_frontier() {
        let (t, originals, embs) = two_parent_dag();
        let frequent = BitSet::from_iter_with_universe(5, [0usize, 1, 2]);
        let options = OiOptions {
            frequent: Some(&frequent),
            contract_equal_sets: false,
            predescend_roots: false,
        };
        let mut scratch = OiScratch::new();
        let oi = OccurrenceIndex::build_with_scratch(
            &embs,
            &originals,
            &[NodeLabel(0)],
            &t,
            options,
            &mut scratch,
        );
        // F(o) = {p1, q}: one admitted parent, one reached through p2.
        let (s, len) = scratch.frontiers[4];
        let frontier = &scratch.frontier_ids[s as usize..(s + len) as usize];
        assert_eq!(frontier, &[NodeLabel(1), NodeLabel(2)]);
        let entry = &oi.entries[0];
        // Ordered by (smallest original reaching the label, label): r and
        // q are first reached from p2 (3), p1 only from o (4).
        let labels: Vec<NodeLabel> = (0..entry.len() as LocalId).map(|id| entry.label_of(id)).collect();
        assert_eq!(labels, [NodeLabel(0), NodeLabel(2), NodeLabel(1)]);
        let row = |l: u32| entry.occs(entry.lookup(NodeLabel(l)).unwrap()).to_vec();
        // The root gets occurrence 0 through both p1 and q, once.
        assert_eq!(row(0), [0, 1, 2]);
        assert_eq!(row(1), [0, 1]);
        assert_eq!(row(2), [0, 1, 2]);
        assert!(!entry.contains(NodeLabel(3)) && !entry.contains(NodeLabel(4)));
        assert_eq!(entry.children(entry.root()), &[1, 2]);
        // Lemma 5: occurrences 0 and 1 each reach {r, p1, q}, 2 reaches {r, q}.
        assert_eq!(oi.updates, 8);
    }

    #[test]
    #[should_panic(expected = "must be upward-closed")]
    fn non_upward_closed_mask_is_rejected() {
        // p1 and o admitted, their ancestor r and o's parent p2 pruned.
        let (t, originals, embs) = two_parent_dag();
        let frequent = BitSet::from_iter_with_universe(5, [1usize, 4]);
        OccurrenceIndex::build(
            &embs,
            &originals,
            &[NodeLabel(0)],
            &t,
            OiOptions {
                frequent: Some(&frequent),
                contract_equal_sets: false,
                predescend_roots: false,
            },
        );
    }

    #[test]
    fn frontier_memo_follows_taxonomy_and_mask() {
        // Under each (taxonomy, mask) pair o = 4 has a different
        // frontier: {p1, q}, {r, q}, and {1} on a taxonomy where 4 sits
        // below 3 below 1. A clone is a new taxonomy to the memo.
        let (a, originals, embs) = two_parent_dag();
        let b = tsg_taxonomy::taxonomy_from_edges(5, [(1, 0), (2, 0), (3, 1), (4, 3)]).unwrap();
        let wide = BitSet::from_iter_with_universe(5, [0usize, 1, 2]);
        let narrow = BitSet::from_iter_with_universe(5, [0usize, 2]);
        let a_clone = a.clone();
        let mut scratch = OiScratch::new();
        for (t, mask) in [(&a, &wide), (&a, &narrow), (&b, &wide), (&a, &wide), (&a_clone, &wide)] {
            let options = OiOptions {
                frequent: Some(mask),
                contract_equal_sets: false,
                predescend_roots: false,
            };
            let mg = [NodeLabel(0)];
            let reused =
                OccurrenceIndex::build_with_scratch(&embs, &originals, &mg, t, options, &mut scratch);
            assert_eq!(reused, OccurrenceIndex::build(&embs, &originals, &mg, t, options));
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
                canonical_parent: NO_PARENT,
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
            + oi.universe * std::mem::size_of::<u32>()
            + words * 8;
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
