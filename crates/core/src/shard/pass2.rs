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
//!   only in the shards where its support is unknown, and fills in the
//!   known supports elsewhere. The recount is one
//!   [`tsg_gspan::walk_codes`] walk of the relabeled shard over the
//!   codes still unknown there; a code's support is the number of
//!   distinct graphs in the embedding list the walk hands over. That is
//!   gSpan's class support restricted to the shard, so summing per-shard
//!   counts yields exactly the serial engine's class supports.
//! * **Pass 2b** ([`collect_shard_embeddings`]) re-grows each globally
//!   frequent class's embeddings on global data, shard by shard, with
//!   the same walk over the batch's codes. Every prefix of a minimal DFS
//!   code is minimal, so the walk replays serial gSpan's growth steps
//!   along the codes alone — no counting, minimality check or
//!   isomorphism test — and each list equals serial gSpan's list for
//!   that code restricted to the shard, in the same order. Concatenating
//!   per-shard lists in shard order therefore restores the single-pass
//!   engines' exact embedding lists, the shape Step 3's occurrence index
//!   expects.
//!
//! Every shard read relabels against the run's once-unified taxonomy
//! ([`crate::relabel::relabel_in_place`]); unification does not depend
//! on the database, so it is never repeated per shard.

use super::pass1::Candidate;
use crate::relabel::relabel_in_place;
use tsg_gspan::{distinct_graph_count, walk_codes, DfsCode, Embedding};
use tsg_graph::{GraphDatabase, NodeLabel};
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
    let mut supports = Vec::with_capacity(survivors.len());
    let mut unknown = Vec::new();
    for (i, c) in survivors.iter().enumerate() {
        let known = c.known_in(shard);
        if known.is_none() {
            unknown.push(i);
        }
        supports.push(known.unwrap_or(0));
    }
    if !unknown.is_empty() {
        relabel_in_place(&mut shard_db, unified);
        // A subsequence of the sorted survivors is sorted too; a code the
        // walk never visits occurs in no graph of this shard.
        let codes: Vec<&DfsCode> = unknown.iter().map(|&i| &survivors[i].code).collect(); // tsg-lint: allow(index) — unknown holds indices of survivors
        walk_codes(&shard_db, &codes, |k, embeddings| {
            supports[unknown[k]] = distinct_graph_count(&embeddings); // tsg-lint: allow(index) — k indexes codes, which is parallel to unknown; its entries index supports
        });
    }
    (supports, unknown.len())
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
/// shard, relabeling it in place. `start` is the shard's first global
/// graph id.
pub(crate) fn collect_shard_embeddings(
    mut shard_db: GraphDatabase,
    unified: &Taxonomy,
    batch: &[Candidate],
    start: usize,
) -> ShardEmbeddings {
    let labels: Vec<Vec<NodeLabel>> = shard_db.iter().map(|(_, g)| g.labels().to_vec()).collect();
    relabel_in_place(&mut shard_db, unified);
    let mut touched = vec![false; shard_db.len()];
    let mut per_class: Vec<Vec<Embedding>> = vec![Vec::new(); batch.len()];
    let codes: Vec<&DfsCode> = batch.iter().map(|c| &c.code).collect();
    walk_codes(&shard_db, &codes, |k, mut embeddings| {
        for e in &mut embeddings {
            touched[e.gid] = true; // tsg-lint: allow(index) — embedding gids index the shard's graphs
            e.gid += start;
        }
        per_class[k] = embeddings; // tsg-lint: allow(index) — k indexes codes, which is parallel to batch
    });
    let originals = labels
        .into_iter()
        .zip(&touched)
        .enumerate()
        .filter(|&(_, (_, &t))| t)
        .map(|(local, (labels, _))| (start + local, labels))
        .collect();
    ShardEmbeddings {
        per_class,
        originals,
    }
}
