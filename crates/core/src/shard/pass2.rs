//! Pass 2: exact global verification, streaming the shards again.
//!
//! * **Bound** ([`bound_prune`]), before any shard is read: Pass 1
//!   reported each candidate's local support in the shards where it was
//!   locally frequent, and a shard that did not report it holds it in at
//!   most `local_minᵢ − 1` graphs. Known supports plus that slack over
//!   every other shard is an upper bound on the global support (the
//!   partition bound of Savasere, Omiecinski and Navathe, VLDB'95); a
//!   candidate whose bound is below the global floor is dropped without
//!   a single match.
//! * **Pass 2a** ([`shard_supports`]) recounts each surviving candidate
//!   only in the shards where its support is unknown, with
//!   [`tsg_iso::BatchedMatcher`] — one candidate-set cache per resident
//!   graph amortizes label-compatibility scans across the recount list —
//!   and fills in the known supports elsewhere. Matching the
//!   most-general skeleton *exactly* against the relabeled shard is the
//!   same predicate gSpan's class support uses on the whole relabeled
//!   database, so summing per-shard counts yields exactly the serial
//!   engine's class supports.
//! * **Pass 2b** re-enumerates each globally frequent class's
//!   embeddings on global data, shard by shard, via
//!   [`BatchedMatcher::for_each_embedding`]. Concatenating per-shard
//!   embedding lists in shard order restores ascending graph-id order,
//!   and each embedding's `map` is indexed by skeleton vertex id = DFS
//!   id — the exact shape Step 3's occurrence index expects from the
//!   single-pass engines.
//!
//! Every shard read relabels against the run's once-unified taxonomy
//! ([`crate::relabel::relabel_in_place`]); unification does not depend
//! on the database, so it is never repeated per shard.

use super::pass1::Candidate;
use crate::relabel::relabel_in_place;
use tsg_gspan::Embedding;
use tsg_graph::{GraphDatabase, NodeLabel};
use tsg_iso::{BatchedMatcher, ExactMatcher};
use tsg_taxonomy::Taxonomy;

/// Splits Pass 1's candidates into `(survivors, pruned)` by the partition
/// bound: `Σ known supports + Σ over unreporting shards (local_minᵢ − 1)`
/// against `min_support`. `local_mins[i]` is shard `i`'s local floor.
/// Exact: every pruned candidate's global support is below
/// `min_support`; survivors keep canonical order.
pub(crate) fn bound_prune(
    candidates: Vec<Candidate>,
    local_mins: &[usize],
    min_support: usize,
) -> (Vec<Candidate>, Vec<Candidate>) {
    let slack = |shard: usize| local_mins.get(shard).map_or(0, |&m| m.saturating_sub(1));
    let total_slack: usize = (0..local_mins.len()).map(slack).sum();
    candidates.into_iter().partition(|c| {
        let known: usize = c.known.iter().map(|&(_, sup)| sup).sum();
        let known_slack: usize = c.known.iter().map(|&(shard, _)| slack(shard)).sum();
        known + (total_slack - known_slack) >= min_support
    })
}

/// Per surviving candidate, its support in this resident shard: the
/// Pass 1 figure where the shard reported it, an exact recount on the
/// relabeled shard otherwise. Also returns the number of recounts run.
pub(crate) fn shard_supports(
    mut shard_db: GraphDatabase,
    unified: &Taxonomy,
    survivors: &[Candidate],
    shard: usize,
) -> (Vec<usize>, usize) {
    relabel_in_place(&mut shard_db, unified);
    let matcher = ExactMatcher;
    let batched = BatchedMatcher::new(&shard_db, &matcher);
    let mut recounts = 0;
    let supports = survivors
        .iter()
        .map(|c| {
            c.known_in(shard).unwrap_or_else(|| {
                recounts += 1;
                batched.support_count(&c.skeleton)
            })
        })
        .collect();
    (supports, recounts)
}

/// What one shard contributes to a Pass 2b class batch.
pub(crate) struct ShardEmbeddings {
    /// Per batch class: this shard's embeddings, graph ids already
    /// globalized.
    pub per_class: Vec<Vec<Embedding>>,
    /// `(global graph id, original vertex labels)` for every shard graph
    /// that hosts at least one embedding — the rows of the global
    /// originals table the occurrence index will actually read.
    pub originals: Vec<(usize, Vec<NodeLabel>)>,
}

/// Collects every embedding of every batch class within one resident
/// shard. `start` is the shard's first global graph id.
pub(crate) fn collect_shard_embeddings(
    shard_db: &GraphDatabase,
    unified: &Taxonomy,
    batch: &[Candidate],
    start: usize,
) -> ShardEmbeddings {
    let mut dmg = shard_db.clone();
    relabel_in_place(&mut dmg, unified);
    let matcher = ExactMatcher;
    let batched = BatchedMatcher::new(&dmg, &matcher);
    let mut touched = vec![false; shard_db.len()];
    let mut per_class = Vec::with_capacity(batch.len());
    for class in batch {
        let mut embeddings = Vec::new();
        batched.for_each_embedding(&class.skeleton, |local, map| {
            touched[local] = true; // tsg-lint: allow(index) — local < shard_db.len(), the shard's graph count
            embeddings.push(Embedding {
                gid: start + local,
                map: map.to_vec(),
                // Step 3 reads only `gid` and `map`; code-edge ids are a
                // gSpan-internal bookkeeping detail with no consumer here.
                edges: Vec::new(),
            });
        });
        per_class.push(embeddings);
    }
    let originals = shard_db
        .iter()
        .zip(&touched)
        .filter(|&(_, &t)| t)
        .map(|((local, g), _)| (start + local, g.labels().to_vec()))
        .collect();
    ShardEmbeddings {
        per_class,
        originals,
    }
}
