//! Batched candidate-set matching (DESIGN.md §13).
//!
//! The backtracking searcher needs, for every pattern vertex, the set of
//! matcher-compatible target vertices — once to rank vertices by
//! selectivity when choosing a matching order, and again every time a
//! new connected component starts (a full target scan per attempt). The
//! plain path recomputes this per call; when the same target is matched
//! against many patterns (a support recount over a database, a pattern
//! class and its one-step specializations, an oracle sweep), that scan
//! repeats per pattern even though compatibility depends only on the
//! *label*, not the pattern.
//!
//! [`CandidateCache`] batches the work per (target, matcher) pair: a
//! one-time index of each distinct target label to the ascending list of
//! vertices carrying it, plus a memo from pattern label to the dense
//! [`BitSet`] (over `0..node_count`) of compatible vertices. The memo key
//! is the pattern *label*, not the pattern, so it never needs
//! invalidation as a pattern class grows: a rightmost extension that
//! introduces a new label lazily adds one entry, and every label already
//! seen is a hit. Selectivity ordering counts the cached sets' bits, and
//! component starts iterate the candidate set instead of scanning every
//! target vertex — in the same ascending vertex order, so embeddings come
//! out byte-identical to the plain path.

use crate::LabelMatcher;
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::rc::Rc;
use tsg_bitset::BitSet;
use tsg_graph::{GraphDatabase, GraphId, LabeledGraph, NodeId, NodeLabel};

/// Per-target index: each distinct vertex label mapped to the ascending
/// list of target vertices carrying it.
struct LabelIndex {
    labels: Vec<(NodeLabel, Vec<NodeId>)>,
}

impl LabelIndex {
    fn build(g: &LabeledGraph) -> Self {
        let mut labels: Vec<(NodeLabel, Vec<NodeId>)> = Vec::new();
        // Vertices arrive in ascending id order, so each list stays sorted.
        for v in 0..g.node_count() {
            let l = g.label(v);
            match labels.binary_search_by_key(&l, |(k, _)| *k) {
                Ok(i) => labels[i].1.push(v), // tsg-lint: allow(index) — Ok(i) from binary_search is in bounds
                Err(i) => labels.insert(i, (l, vec![v])),
            }
        }
        LabelIndex { labels }
    }
}

/// Cached candidate sets for one target graph under one matcher.
///
/// `candidates(l)` returns the set of target vertices a pattern vertex
/// labeled `l` may map onto, computed once per distinct pattern label
/// and shared (via `Rc`) between the memo and every searcher using it.
pub struct CandidateCache<'a, M: LabelMatcher> {
    target: &'a LabeledGraph,
    matcher: &'a M,
    index: LabelIndex,
    memo: RefCell<Vec<(NodeLabel, Rc<BitSet>)>>,
}

impl<'a, M: LabelMatcher> CandidateCache<'a, M> {
    /// Indexes `target` (one pass over its vertices) and starts with an
    /// empty memo; candidate sets materialize on first use per label.
    pub fn new(target: &'a LabeledGraph, matcher: &'a M) -> Self {
        CandidateCache {
            target,
            matcher,
            index: LabelIndex::build(target),
            memo: RefCell::new(Vec::new()),
        }
    }

    /// The target graph this cache indexes.
    pub fn target(&self) -> &'a LabeledGraph {
        self.target
    }

    /// The matcher candidate sets are computed against.
    pub fn matcher(&self) -> &'a M {
        self.matcher
    }

    /// The set of target vertices compatible with pattern label
    /// `pattern_label` — memoized, so repeat lookups are a binary search
    /// and an `Rc` clone.
    pub fn candidates(&self, pattern_label: NodeLabel) -> Rc<BitSet> {
        let mut memo = self.memo.borrow_mut();
        match memo.binary_search_by_key(&pattern_label, |(k, _)| *k) {
            Ok(i) => memo[i].1.clone(), // tsg-lint: allow(index) — Ok(i) from binary_search is in bounds
            Err(i) => {
                let mut acc = BitSet::new(self.target.node_count());
                for (tl, vertices) in &self.index.labels {
                    if self.matcher.node_match(pattern_label, *tl) {
                        acc.extend(vertices.iter().copied());
                    }
                }
                let rc = Rc::new(acc);
                memo.insert(i, (pattern_label, rc.clone()));
                rc
            }
        }
    }
}

/// Batched matching over a whole database: one [`CandidateCache`] per
/// database graph, built once and reused across every pattern matched
/// against it. This is the right shape for support recounts, oracle
/// sweeps, and reference miners, where each target graph is matched
/// against many patterns in turn.
pub struct BatchedMatcher<'a, M: LabelMatcher> {
    caches: Vec<CandidateCache<'a, M>>,
}

impl<'a, M: LabelMatcher> BatchedMatcher<'a, M> {
    /// Indexes every graph of `db` under `matcher`.
    pub fn new(db: &'a GraphDatabase, matcher: &'a M) -> Self {
        BatchedMatcher {
            caches: db.iter().map(|(_, g)| CandidateCache::new(g, matcher)).collect(),
        }
    }

    /// The per-graph caches, in database iteration order.
    pub fn caches(&self) -> &[CandidateCache<'a, M>] {
        &self.caches
    }

    /// The paper's support *count* (distinct graphs containing at least
    /// one embedding), byte-for-byte equal to
    /// [`crate::support_count`] but amortizing candidate-set work
    /// across patterns.
    pub fn support_count(&self, pattern: &LabeledGraph) -> usize {
        self.caches
            .iter()
            .filter(|c| crate::subiso::contains_subgraph_cached(pattern, c))
            .count()
    }

    /// Streams every embedding of `pattern` in every target graph, in
    /// database order, as `(graph id, pattern vertex → target vertex)`
    /// pairs. The batched Pass-2 entry of the sharded SON miner: the
    /// candidate caches amortize label-compatibility scans across the
    /// whole candidate list, and the mapping slice is borrowed, so
    /// callers copy only the embeddings they keep.
    pub fn for_each_embedding(
        &self,
        pattern: &LabeledGraph,
        mut visit: impl FnMut(GraphId, &[NodeId]),
    ) {
        for (gid, cache) in self.caches.iter().enumerate() {
            crate::subiso::enumerate_embeddings_cached(pattern, cache, |map| {
                visit(gid, map);
                ControlFlow::Continue(())
            });
        }
    }
}
