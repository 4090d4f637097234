//! Pass 1: local candidate-class discovery, one resident shard at a time.
//!
//! Each shard is relabeled and mined independently at the *same
//! fractional* threshold θ. By pigeonhole, a pattern class frequent in
//! the whole database (`sup ≥ ⌈θ·N⌉`) must be frequent in at least one
//! shard (`supᵢ ≥ ⌈θ·nᵢ⌉`): if it were locally infrequent everywhere,
//! `supᵢ < θ·nᵢ` for every shard and the global support would fall below
//! `θ·N ≤ ⌈θ·N⌉`. The union of local class sets is therefore a complete
//! candidate superset; Pass 2 computes exact global supports.
//!
//! What survives a shard is the class identity — the canonical DFS code
//! and its skeleton graph — plus the class's *local support* and the
//! shard's local floor `local_min = ⌈θ·nᵢ⌉`. Those two numbers are what
//! the SON partition bound of Pass 2a needs: a shard that did not report
//! a class holds it in at most `local_min − 1` graphs. Local embeddings
//! are dropped on the spot: keeping them would tie resident memory to
//! the database instead of the shard. Global embeddings are
//! re-enumerated from the spill files in Pass 2b.
//!
//! The pass also sums each shard's generalized-label frequency vector.
//! [`tsg_taxonomy::Taxonomy::generalized_label_frequencies`] counts
//! distinct ancestor concepts *per graph* and sums over graphs, so the
//! element-wise sum over shards equals the whole-database vector — the
//! prune-infrequent-labels mask comes out identical to the single-pass
//! miner's without a second streaming pass.

use crate::config::TaxogramConfig;
use crate::relabel::relabel_in_place;
use tsg_gspan::{mine_frequent, DfsCode, FrequentPattern};
use tsg_graph::{GraphDatabase, LabeledGraph};
use tsg_taxonomy::Taxonomy;

/// What one shard contributes to Pass 1.
pub(crate) struct ShardCandidates {
    /// Locally frequent pattern classes: canonical code, skeleton, and
    /// the number of this shard's graphs containing the skeleton.
    pub classes: Vec<FrequentPattern>,
    /// This shard's local floor `⌈θ·nᵢ⌉`: every class it did not report
    /// occurs in fewer of its graphs than this.
    pub local_min: usize,
    /// This shard's generalized-label frequency vector, indexed by
    /// unified-taxonomy concept id.
    pub label_frequencies: Vec<usize>,
}

/// Mines one resident shard for locally frequent classes, relabeling it
/// in place. `unified` is the run's once-unified taxonomy; the shard's
/// labels were validated at spill time, so relabeling cannot fail on a
/// healthy spill file.
pub(crate) fn mine_shard(
    mut shard_db: GraphDatabase,
    unified: &Taxonomy,
    config: &TaxogramConfig,
) -> ShardCandidates {
    let label_frequencies = unified.generalized_label_frequencies(&shard_db);
    let local_min = shard_db.min_support_count(config.threshold);
    relabel_in_place(&mut shard_db, unified);
    // The serial class search on the scanning worker's own thread:
    // shard-level parallelism lives in the scan loop (one resident shard
    // per worker), and the sink keeps no embeddings.
    ShardCandidates {
        classes: mine_frequent(&shard_db, local_min, config.max_edges),
        local_min,
        label_frequencies,
    }
}

/// One global candidate class: its identity plus every `(shard, local
/// support)` pair Pass 1 reported for it, in ascending shard order.
pub(crate) struct Candidate {
    /// Canonical DFS code — the class identity across shards.
    pub code: DfsCode,
    /// The most-general pattern (vertex ids = DFS ids).
    pub skeleton: LabeledGraph,
    /// `(shard, local support)` for every shard that reported the class.
    pub known: Vec<(usize, usize)>,
}

impl Candidate {
    /// The local support Pass 1 reported in `shard`, if it did.
    pub(crate) fn known_in(&self, shard: usize) -> Option<usize> {
        self.known
            .binary_search_by_key(&shard, |&(s, _)| s)
            .ok()
            .and_then(|i| self.known.get(i))
            .map(|&(_, support)| support)
    }
}

/// Merges per-shard class lists (indexed by shard) into the global
/// candidate set: sorted by canonical DFS-code order — which equals the
/// serial miner's class report order, so downstream passes inherit
/// serial ordering for free — and deduplicated by code equality (equal
/// codes imply equal skeletons), keeping each shard's local support.
pub(crate) fn merge_candidates(per_shard: Vec<Vec<FrequentPattern>>) -> Vec<Candidate> {
    let mut all: Vec<(usize, FrequentPattern)> = per_shard
        .into_iter()
        .enumerate()
        .flat_map(|(shard, classes)| classes.into_iter().map(move |c| (shard, c)))
        .collect();
    // Stable: equal codes keep ascending shard order.
    all.sort_by(|a, b| a.1.code.cmp_code(&b.1.code));
    let mut merged: Vec<Candidate> = Vec::new();
    for (shard, class) in all {
        match merged.last_mut() {
            Some(last) if last.code == class.code => last.known.push((shard, class.support)),
            _ => merged.push(Candidate {
                code: class.code,
                skeleton: class.graph,
                known: vec![(shard, class.support)],
            }),
        }
    }
    merged
}
