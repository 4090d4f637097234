//! Pass 2: global Step 3, streaming the shards once per class batch.
//!
//! [`collect_shard_embeddings`] re-grows each class's embeddings on
//! global data, shard by shard, with a [`tsg_gspan::walk_codes`] walk
//! over the batch's codes. Every prefix of a minimal DFS code is
//! minimal, so the walk replays serial gSpan's growth steps along the
//! codes alone — no counting, minimality check or isomorphism test — and
//! each list equals serial gSpan's list for that code restricted to the
//! shard, in the same order. Concatenating per-shard lists in shard
//! order therefore restores the single-pass engines' exact embedding
//! lists, the shape Step 3's occurrence index expects.
//!
//! Every shard read relabels against the run's once-unified taxonomy
//! ([`crate::relabel::relabel_in_place`]); unification does not depend
//! on the database, so it is never repeated per shard.

use crate::relabel::relabel_in_place;
use tsg_gspan::{walk_codes, DfsCode, Embedding};
use tsg_graph::{GraphDatabase, NodeLabel};
use tsg_taxonomy::Taxonomy;

/// What one shard contributes to a Pass 2 class batch.
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
    batch: &[DfsCode],
    start: usize,
) -> ShardEmbeddings {
    let labels: Vec<Vec<NodeLabel>> = shard_db.iter().map(|(_, g)| g.labels().to_vec()).collect();
    relabel_in_place(&mut shard_db, unified);
    let mut touched = vec![false; shard_db.len()];
    let mut per_class: Vec<Vec<Embedding>> = vec![Vec::new(); batch.len()];
    walk_codes(&shard_db, batch, |k, mut embeddings| {
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
