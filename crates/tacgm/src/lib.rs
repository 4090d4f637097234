//! **TAcGM** — the bottom-up, level-wise comparator the paper evaluates
//! against (a reimplementation of Inokuchi's generalized AcGM, "Mining
//! Generalized Substructures from a Set of Labeled Graphs", ICDM 2004; the
//! Taxogram authors also had to reimplement it, as "the source code or
//! executable files for TAcGM were not publicly available").
//!
//! The algorithm works breadth-first over pattern size in edges, directly
//! in the *specialized* label space:
//!
//! * level 1: every generalized single-edge pattern with sufficient
//!   support, each carrying its full embedding list;
//! * level k+1: every frequent size-k pattern is extended by one edge at
//!   every embedding — the fresh endpoint's label generalizes to every
//!   taxonomy ancestor — and candidates are deduplicated up to isomorphism
//!   with their embedding lists merged;
//! * finally, over-generalized patterns (an equally-supported,
//!   structurally identical specialization exists) are pruned pairwise.
//!
//! Because a pattern and each of its generalizations are processed
//! *independently*, the same database occurrence is stored and re-derived
//! once per generalization level (the paper's Example 1.2 critique:
//! `O(dⁿ)` copies, Lemma 1), and because levels are materialized in full
//! breadth-first fashion, memory grows with the number of frequent
//! patterns per level — the cause of the out-of-memory failures the paper
//! reports for databases past 4,000 graphs or 20-edge graphs. This
//! implementation reproduces that behavior honestly through an explicit
//! memory budget: the run aborts with [`TacgmError::MemoryBudgetExceeded`]
//! instead of crashing the process.

// tsg-lint: allow(index) — candidate and embedding tables are indexed by dense ids the mining loop itself issues

use std::collections::{BTreeMap, HashMap, HashSet};
use tsg_graph::{EdgeLabel, GraphDatabase, LabeledGraph, NodeId, NodeLabel};
use tsg_gspan::Embedding;
use tsg_iso::{is_gen_iso, is_isomorphic};
use tsg_taxonomy::Taxonomy;

/// Configuration for a TAcGM run.
#[derive(Clone, Copy, Debug)]
pub struct TacgmConfig {
    /// Fractional support threshold `θ ∈ [0, 1]`.
    pub threshold: f64,
    /// Cap on pattern size in edges.
    pub max_edges: Option<usize>,
    /// Abort when the stored embeddings and candidates exceed this many
    /// bytes (models the 2008 testbed's 4 GB heap; `None` = unlimited).
    pub memory_budget_bytes: Option<usize>,
    /// Prune candidate labels that are generalized-infrequent (AcGM's
    /// standard frequent-label filter).
    pub prune_infrequent_labels: bool,
    /// Run the final over-generalization pruning pass (on by default;
    /// disable to inspect the full frequent generalized set).
    pub prune_overgeneralized: bool,
}

impl TacgmConfig {
    /// A default configuration at the given threshold, unlimited memory.
    pub fn with_threshold(threshold: f64) -> Self {
        TacgmConfig {
            threshold,
            max_edges: None,
            memory_budget_bytes: None,
            prune_infrequent_labels: true,
            prune_overgeneralized: true,
        }
    }

    /// Sets the memory budget.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Sets the pattern-size cap.
    pub fn max_edges(mut self, cap: usize) -> Self {
        self.max_edges = Some(cap);
        self
    }
}

/// Errors from a TAcGM run.
#[derive(Debug, Clone, PartialEq)]
pub enum TacgmError {
    /// The level-wise embedding store outgrew the configured budget — the
    /// analog of the paper's "out-of-memory error" observations.
    MemoryBudgetExceeded {
        /// The level (pattern size in edges) being materialized.
        level: usize,
        /// Bytes accounted when the budget tripped.
        bytes: usize,
    },
    /// The support threshold is outside `[0, 1]`.
    InvalidThreshold {
        /// The offending value.
        theta: f64,
    },
    /// The database contains directed graphs, which this level-wise
    /// comparator does not support (matching the paper's setup, where all
    /// comparator runs used undirected data). Use Taxogram for directed
    /// mining.
    DirectedUnsupported,
}

impl std::fmt::Display for TacgmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TacgmError::MemoryBudgetExceeded { level, bytes } => write!(
                f,
                "memory budget exceeded at level {level} ({bytes} bytes) — TAcGM's breadth-first materialization does not fit"
            ),
            TacgmError::InvalidThreshold { theta } => {
                write!(f, "support threshold {theta} outside [0, 1]")
            }
            TacgmError::DirectedUnsupported => {
                write!(f, "TAcGM supports undirected databases only; use Taxogram for directed mining")
            }
        }
    }
}

impl std::error::Error for TacgmError {}

/// A mined pattern with its support.
#[derive(Clone, Debug)]
pub struct TacgmPattern {
    /// The pattern graph.
    pub graph: LabeledGraph,
    /// Distinct-graph support count.
    pub support_count: usize,
}

/// Run counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TacgmStats {
    /// Candidates generated (before support filtering), all levels.
    pub candidates: usize,
    /// Embeddings stored across all frequent patterns — each database
    /// occurrence is stored once per pattern that matches it, which is the
    /// redundancy Taxogram's shared occurrence indices eliminate.
    pub embeddings_stored: usize,
    /// Peak bytes accounted against the budget.
    pub peak_bytes: usize,
    /// Levels completed.
    pub levels: usize,
    /// Patterns pruned as over-generalized in post-processing.
    pub overgeneralized: usize,
}

/// The result of a successful run.
#[derive(Clone, Debug)]
pub struct TacgmResult {
    /// Frequent, non-over-generalized patterns.
    pub patterns: Vec<TacgmPattern>,
    /// Run counters.
    pub stats: TacgmStats,
    /// Absolute support floor used.
    pub min_support_count: usize,
}

/// One level entry: a pattern with its embeddings.
struct Entry {
    graph: LabeledGraph,
    embeddings: Vec<Embedding>,
    support: usize,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.embeddings
            .iter()
            .map(|e| (e.map.len() + e.edges.len()) * std::mem::size_of::<usize>() + 24)
            .sum::<usize>()
            + self.graph.node_count() * 8
            + self.graph.edge_count() * 24
    }
}

/// Mines `db` over `taxonomy` with the level-wise generalized algorithm.
///
/// # Errors
/// Fails on an invalid threshold or when the memory budget trips.
pub fn mine(
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    config: &TacgmConfig,
) -> Result<TacgmResult, TacgmError> {
    if !(0.0..=1.0).contains(&config.threshold) || config.threshold.is_nan() {
        return Err(TacgmError::InvalidThreshold {
            theta: config.threshold,
        });
    }
    if db.iter().any(|(_, g)| g.is_directed()) {
        return Err(TacgmError::DirectedUnsupported);
    }
    let min_support = db.min_support_count(config.threshold);
    let mut stats = TacgmStats::default();

    // Frequent-label filter (generalized size-1 support per concept).
    let label_ok: Vec<bool> = if config.prune_infrequent_labels {
        taxonomy
            .generalized_label_frequencies(db)
            .into_iter()
            .map(|f| f >= min_support)
            .collect()
    } else {
        vec![true; taxonomy.concept_count()]
    };

    let budget = config.memory_budget_bytes;
    let mut all_frequent: Vec<Entry> = Vec::new();
    let mut level = seed_level(db, taxonomy, &label_ok, min_support, budget, &mut stats)?;
    // AcGM generates size-k candidates by joining size-(k-1) frequent
    // graphs; the equivalent Apriori fact for one-edge extension is that
    // the added edge's own 1-edge pattern must be frequent. Collect the
    // frequent seed triples (both orientations) as that filter.
    let mut frequent_edges: HashSet<(NodeLabel, EdgeLabel, NodeLabel)> = HashSet::new();
    for e in &level {
        let g = &e.graph;
        let (a, b) = (g.label(0), g.label(1));
        let el = g.edges()[0].label;
        frequent_edges.insert((a, el, b));
        frequent_edges.insert((b, el, a));
    }
    let mut level_no = 1usize;
    loop {
        let level_bytes: usize = level.iter().map(Entry::bytes).sum();
        let retained_bytes: usize = all_frequent.iter().map(Entry::bytes).sum();
        let total = level_bytes + retained_bytes;
        stats.peak_bytes = stats.peak_bytes.max(total);
        if config.memory_budget_bytes.is_some_and(|b| total > b) {
            return Err(TacgmError::MemoryBudgetExceeded {
                level: level_no,
                bytes: total,
            });
        }
        if level.is_empty() {
            break;
        }
        stats.levels = level_no;
        stats.embeddings_stored += level.iter().map(|e| e.embeddings.len()).sum::<usize>();
        let grow = config.max_edges.is_none_or(|cap| level_no < cap);
        // The retained frequent set stays resident; only the remaining
        // budget is available to the next level's candidate pool.
        let next_budget = budget.map(|b| b.saturating_sub(retained_bytes + level_bytes));
        let next = if grow {
            extend_level(
                &level,
                db,
                taxonomy,
                &label_ok,
                &frequent_edges,
                min_support,
                level_no,
                next_budget,
                &mut stats,
            )?
        } else {
            Vec::new()
        };
        all_frequent.extend(level);
        level = next;
        level_no += 1;
    }

    // Post-processing: prune over-generalized patterns pairwise within
    // same-size groups.
    let patterns = if config.prune_overgeneralized {
        prune_overgeneralized(all_frequent, taxonomy, &mut stats)
    } else {
        all_frequent
            .into_iter()
            .map(|e| TacgmPattern { graph: e.graph, support_count: e.support })
            .collect()
    };
    Ok(TacgmResult {
        patterns,
        stats,
        min_support_count: min_support,
    })
}

/// Level 1: all generalized single-edge patterns.
///
/// Extensions are grouped by `(label_a, edge label, label_b)` before
/// touching the candidate pool, so graph construction and slot lookup
/// happen once per candidate pattern instead of once per embedding. The
/// groups are visited in key order: the first group of an isomorphism
/// class becomes its printed representative, so the order must not
/// depend on hashing.
fn seed_level(
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    label_ok: &[bool],
    min_support: usize,
    budget: Option<usize>,
    stats: &mut TacgmStats,
) -> Result<Vec<Entry>, TacgmError> {
    let mut groups: BTreeMap<(u32, EdgeLabel, u32), Vec<Embedding>> = BTreeMap::new();
    for (gid, g) in db.iter() {
        for (eid, e) in g.edges().iter().enumerate() {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                for anc_a in taxonomy.ancestors(g.label(a)).iter() {
                    if !label_ok[anc_a] {
                        continue;
                    }
                    for anc_b in taxonomy.ancestors(g.label(b)).iter() {
                        if !label_ok[anc_b] {
                            continue;
                        }
                        groups
                            .entry((anc_a as u32, e.label, anc_b as u32))
                            .or_default()
                            .push(Embedding {
                                gid,
                                map: vec![a, b],
                                edges: vec![eid],
                            });
                    }
                }
            }
        }
    }
    let mut candidates: CandidateSet = CandidateSet::default();
    for ((la, el, lb), embs) in groups {
        let mut pat = LabeledGraph::with_nodes([NodeLabel(la), NodeLabel(lb)]);
        pat.add_edge(0, 1, el).expect("fresh two-node pattern"); // tsg-lint: allow(panic) — the single edge of a fresh two-node pattern cannot collide
        let bytes = candidates.add_batch(pat, embs);
        if budget.is_some_and(|bu| bytes > bu) {
            return Err(TacgmError::MemoryBudgetExceeded { level: 1, bytes });
        }
    }
    Ok(candidates.into_frequent(min_support, stats))
}

/// An extension of a fixed parent pattern, before labels are applied:
/// forward (`to == usize::MAX`, with a generalized label for the fresh
/// node) or backward (between two mapped pattern nodes). Ordered so each
/// parent's extensions reach the candidate pool in a fixed order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ExtSpec {
    from: usize,
    /// `usize::MAX` for forward extensions.
    to: usize,
    elabel: EdgeLabel,
    /// Generalized label of the fresh node (forward only; 0 for backward).
    new_label: u32,
}

/// Level k → k+1 by one-edge extension at every embedding.
#[allow(clippy::too_many_arguments)]
fn extend_level(
    level: &[Entry],
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    label_ok: &[bool],
    frequent_edges: &HashSet<(NodeLabel, EdgeLabel, NodeLabel)>,
    min_support: usize,
    level_no: usize,
    budget: Option<usize>,
    stats: &mut TacgmStats,
) -> Result<Vec<Entry>, TacgmError> {
    let mut candidates = CandidateSet::default();
    for entry in level {
        // Group grown embeddings by extension spec; one pattern graph and
        // one pool insertion per spec, in spec order.
        let mut groups: BTreeMap<ExtSpec, Vec<Embedding>> = BTreeMap::new();
        for emb in &entry.embeddings {
            let g = db.graph(emb.gid);
            for (pnode, &gnode) in emb.map.iter().enumerate() {
                for adj in g.neighbors(gnode) {
                    if emb.edges.contains(&adj.edge) {
                        continue;
                    }
                    if let Some(other) = emb.map.iter().position(|&m| m == adj.to) {
                        // Backward: connect two mapped pattern nodes.
                        if pnode < other
                            && !entry.graph.has_edge(pnode, other)
                            && frequent_edges.contains(&(
                                entry.graph.label(pnode),
                                adj.elabel,
                                entry.graph.label(other),
                            ))
                        {
                            let mut e2 = emb.clone();
                            insert_sorted(&mut e2.edges, adj.edge);
                            groups
                                .entry(ExtSpec {
                                    from: pnode,
                                    to: other,
                                    elabel: adj.elabel,
                                    new_label: 0,
                                })
                                .or_default()
                                .push(e2);
                        }
                    } else {
                        // Forward: fresh node, generalized to every
                        // (frequent) ancestor of the observed label.
                        for anc in taxonomy.ancestors(g.label(adj.to)).iter() {
                            if !label_ok[anc]
                                || !frequent_edges.contains(&(
                                    entry.graph.label(pnode),
                                    adj.elabel,
                                    NodeLabel(anc as u32),
                                ))
                            {
                                continue;
                            }
                            let mut e2 = emb.clone();
                            e2.map.push(adj.to);
                            insert_sorted(&mut e2.edges, adj.edge);
                            groups
                                .entry(ExtSpec {
                                    from: pnode,
                                    to: usize::MAX,
                                    elabel: adj.elabel,
                                    new_label: anc as u32,
                                })
                                .or_default()
                                .push(e2);
                        }
                    }
                }
            }
        }
        for (spec, embs) in groups {
            let mut pat = entry.graph.clone();
            if spec.to == usize::MAX {
                let nn = pat.add_node(NodeLabel(spec.new_label));
                pat.add_edge(spec.from, nn, spec.elabel).expect("fresh node edge"); // tsg-lint: allow(panic) — edge to a just-added node cannot collide
            } else {
                pat.add_edge(spec.from, spec.to, spec.elabel)
                    .expect("backward absence checked during grouping"); // tsg-lint: allow(panic) — backward-edge absence was checked during grouping
            }
            let bytes = candidates.add_batch(pat, embs);
            if budget.is_some_and(|bu| bytes > bu) {
                return Err(TacgmError::MemoryBudgetExceeded {
                    level: level_no + 1,
                    bytes,
                });
            }
        }
    }
    Ok(candidates.into_frequent(min_support, stats))
}

/// Inserts `v` into a sorted vector, keeping it sorted.
fn insert_sorted(edges: &mut Vec<usize>, v: usize) {
    let pos = edges.partition_point(|&e| e < v);
    edges.insert(pos, v);
}

/// The cheap isomorphism-invariant signature of a candidate graph.
type Signature = (Vec<NodeLabel>, Vec<(EdgeLabel, NodeLabel, NodeLabel)>);
/// A candidate graph's exact (vertex-order-sensitive) identity.
type ExactKey = (Vec<NodeLabel>, Vec<(usize, usize, EdgeLabel)>);
/// A candidate slot plus the permutation remapping into its vertex order
/// (`None` = identity).
type SlotRef = (usize, Option<Vec<NodeId>>);

/// Candidate pool with isomorphism-level deduplication and per-candidate
/// embedding sets. Tracks its approximate heap footprint so the memory
/// budget can trip *during* candidate generation — a real 2008-sized heap
/// died mid-level, not between levels.
#[derive(Default)]
struct CandidateSet {
    approx_bytes: usize,
    /// Invariant signature → candidate indices (cheap pre-filter before
    /// the real isomorphism test).
    buckets: HashMap<Signature, Vec<usize>>,
    /// Exact graph → slot. Extensions of the thousands of embeddings of
    /// one parent all build the byte-identical pattern graph, so this
    /// memo turns almost every `add` into a hash lookup instead of an
    /// isomorphism search.
    exact: HashMap<ExactKey, SlotRef>,
    graphs: Vec<LabeledGraph>,
    /// Embeddings per candidate, possibly with duplicates when several
    /// parents regenerate the same one; deduplicated by sort in
    /// [`CandidateSet::into_frequent`]. Edge id lists are kept sorted so
    /// `(gid, edges, map)` is directly a dedup key. Note the key must be
    /// the *full* triple: under generalized matching two distinct
    /// embeddings can share an edge set without being pattern-automorphic
    /// (e.g. pattern `n1—n2` maps onto an `n2—n2` edge both ways), and
    /// each can ground different extensions, so nothing coarser is sound.
    embeddings: Vec<Vec<Embedding>>,
}

impl CandidateSet {
    /// Adds a batch of embeddings of one candidate graph (all expressed
    /// in `pat`'s vertex order); returns the pool's approximate bytes.
    fn add_batch(&mut self, pat: LabeledGraph, embs: Vec<Embedding>) -> usize {
        let exact_key = (
            pat.labels().to_vec(),
            pat.edges().iter().map(|e| (e.u, e.v, e.label)).collect::<Vec<_>>(),
        );
        let (idx, sigma) = match self.exact.get(&exact_key) {
            Some((i, sigma)) => (*i, sigma.clone()),
            None => {
                let sig = pat.invariant_signature();
                let bucket = self.buckets.entry(sig).or_default();
                let slot = match bucket.iter().find(|&&i| is_isomorphic(&self.graphs[i], &pat)) {
                    Some(&i) => {
                        // The embeddings arrived in `pat`'s vertex order;
                        // σ (slot node k ↔ pat node σ[k]) remaps them into
                        // the slot's order, otherwise later extensions
                        // would read labels at the wrong vertices.
                        let sigma = tsg_iso::find_embedding(
                            &self.graphs[i],
                            &pat,
                            &tsg_iso::ExactMatcher,
                        )
                        .expect("is_isomorphic just confirmed a bijection exists"); // tsg-lint: allow(panic) — is_isomorphic just confirmed a bijection exists
                        (i, Some(sigma))
                    }
                    None => {
                        self.graphs.push(pat);
                        self.embeddings.push(Vec::new());
                        let i = self.graphs.len() - 1;
                        bucket.push(i);
                        (i, None)
                    }
                };
                self.exact.insert(exact_key, slot.clone());
                slot
            }
        };
        let slot = &mut self.embeddings[idx];
        for mut emb in embs {
            if let Some(sigma) = &sigma {
                emb.map = sigma.iter().map(|&p| emb.map[p]).collect();
            }
            debug_assert!(emb.edges.windows(2).all(|w| w[0] < w[1]), "edge lists stay sorted");
            self.approx_bytes +=
                (emb.edges.len() + emb.map.len() + 2) * std::mem::size_of::<usize>();
            slot.push(emb);
        }
        self.approx_bytes
    }

    fn into_frequent(self, min_support: usize, stats: &mut TacgmStats) -> Vec<Entry> {
        stats.candidates += self.graphs.len();
        let mut out = Vec::new();
        for (graph, mut embeddings) in self.graphs.into_iter().zip(self.embeddings) {
            embeddings.sort_unstable_by(|a, b| {
                (a.gid, &a.edges, &a.map).cmp(&(b.gid, &b.edges, &b.map))
            });
            embeddings.dedup_by(|a, b| a.gid == b.gid && a.edges == b.edges && a.map == b.map);
            let mut support = 0;
            let mut last = usize::MAX;
            for e in &embeddings {
                if e.gid != last {
                    support += 1;
                    last = e.gid;
                }
            }
            if support >= min_support {
                out.push(Entry {
                    graph,
                    embeddings,
                    support,
                });
            }
        }
        out
    }
}

/// Final pass: drop every pattern with an equally-supported, structurally
/// identical, strictly more specific companion.
fn prune_overgeneralized(
    frequent: Vec<Entry>,
    taxonomy: &Taxonomy,
    stats: &mut TacgmStats,
) -> Vec<TacgmPattern> {
    let mut keep = vec![true; frequent.len()];
    for i in 0..frequent.len() {
        for j in 0..frequent.len() {
            if i == j || !keep[i] {
                continue;
            }
            let (p, q) = (&frequent[i], &frequent[j]);
            if p.support != q.support
                || p.graph.node_count() != q.graph.node_count()
                || p.graph.edge_count() != q.graph.edge_count()
            {
                continue;
            }
            if is_gen_iso(&p.graph, &q.graph, taxonomy) && !is_isomorphic(&p.graph, &q.graph) {
                keep[i] = false;
                stats.overgeneralized += 1;
            }
        }
    }
    frequent
        .into_iter()
        .zip(keep)
        .filter_map(|(e, k)| {
            k.then_some(TacgmPattern {
                graph: e.graph,
                support_count: e.support,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_taxonomy::samples;

    #[test]
    fn rejects_bad_threshold() {
        let (_, t) = samples::sample_taxonomy();
        let db = GraphDatabase::new();
        let err = mine(&db, &t, &TacgmConfig::with_threshold(-1.0)).unwrap_err();
        assert!(matches!(err, TacgmError::InvalidThreshold { .. }));
    }

    #[test]
    fn output_is_identical_across_runs() {
        // Every isomorphism class's printed representative is the first
        // candidate grouped into it, so the grouping order must not vary
        // between runs (each hash map gets its own random seed).
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let cfg = TacgmConfig::with_threshold(1.0 / 3.0);
        let run = || -> Vec<(LabeledGraph, usize)> {
            let r = mine(&db, &t, &cfg).unwrap();
            r.patterns.into_iter().map(|p| (p.graph, p.support_count)).collect()
        };
        let first = run();
        assert!(first.len() > 1);
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn finds_generalized_patterns_on_fixture() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let r = mine(&db, &t, &TacgmConfig::with_threshold(1.0)).unwrap();
        assert!(!r.patterns.is_empty());
        for p in &r.patterns {
            assert_eq!(p.support_count, 3);
        }
        assert!(r.stats.candidates > 0);
        assert!(r.stats.embeddings_stored > 0);
    }

    #[test]
    fn agrees_with_taxogram_on_fixture() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        for theta in [1.0, 2.0 / 3.0, 1.0 / 3.0] {
            let tac = mine(&db, &t, &TacgmConfig::with_threshold(theta)).unwrap();
            let tax = taxogram_core::Taxogram::new(
                taxogram_core::TaxogramConfig::with_threshold(theta),
            )
            .mine(&db, &t)
            .unwrap();
            assert_eq!(tac.patterns.len(), tax.patterns.len(), "θ = {theta}");
            for p in &tac.patterns {
                let m = tax
                    .patterns
                    .iter()
                    .find(|q| is_isomorphic(&p.graph, &q.graph))
                    .unwrap_or_else(|| panic!("taxogram missing {:?}", p.graph.labels()));
                assert_eq!(p.support_count, m.support_count);
            }
        }
    }

    #[test]
    fn memory_budget_trips() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let err = mine(
            &db,
            &t,
            &TacgmConfig::with_threshold(1.0 / 3.0).memory_budget(64),
        )
        .unwrap_err();
        assert!(matches!(err, TacgmError::MemoryBudgetExceeded { .. }));
        let msg = err.to_string();
        assert!(msg.contains("memory budget"));
    }

    #[test]
    fn max_edges_caps_levels() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let r = mine(&db, &t, &TacgmConfig::with_threshold(1.0 / 3.0).max_edges(1)).unwrap();
        assert!(r.patterns.iter().all(|p| p.graph.edge_count() == 1));
        assert!(r.stats.levels <= 1);
    }

    #[test]
    fn embeddings_stored_exceeds_taxogram_occurrences() {
        // The redundancy claim of Example 1.2: TAcGM stores each
        // occurrence once per generalization level, Taxogram once per
        // class.
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let tac = mine(&db, &t, &TacgmConfig::with_threshold(1.0 / 3.0)).unwrap();
        let tax = taxogram_core::Taxogram::new(taxogram_core::TaxogramConfig::with_threshold(
            1.0 / 3.0,
        ))
        .mine(&db, &t)
        .unwrap();
        assert!(
            tac.stats.embeddings_stored > tax.stats.occurrences,
            "TAcGM {} vs Taxogram {}",
            tac.stats.embeddings_stored,
            tax.stats.occurrences
        );
    }
}
