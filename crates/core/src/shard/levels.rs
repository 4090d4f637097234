//! Pass 1: Step 2's class search over the shard stream, one edge level
//! per stream (the parent module says why the summed counts are exact).
//! Shards only count: [`count_seeds`] on the first stream, [`count_level`]
//! on each later one. [`next_level`] adds the counts up and applies
//! [`tsg_gspan::GSpan`]'s child rule to the sums.
//!
//! The first stream also sums each shard's generalized-label frequency
//! vector. [`tsg_taxonomy::Taxonomy::generalized_label_frequencies`]
//! counts distinct ancestor concepts *per graph* and sums over graphs, so
//! the element-wise sum over shards equals the whole-database vector, and
//! the prune-infrequent-labels mask comes out identical to the
//! single-pass miner's.

use crate::relabel::relabel_in_place;
use tsg_graph::GraphDatabase;
use tsg_gspan::{
    count_extensions, dfs_edge_cmp, frequent_minimal_keys, seed_counts, walk_codes, DfsCode,
    DfsEdge, GSpanStats, MinScratch,
};
use tsg_taxonomy::Taxonomy;

/// One shard's counts for one level: `(index of a level code, that
/// code's extension keys with their distinct-graph counts in the shard)`
/// for every level code the shard holds.
pub(crate) type LevelCounts = Vec<(usize, Vec<(DfsEdge, usize)>)>;

/// One resident shard's seed-key counts, as level counts of the empty
/// code, and its generalized-label frequency vector, indexed by
/// unified-taxonomy concept id. The shard is relabeled in place against
/// `unified`, the run's once-unified taxonomy; its labels were validated
/// at spill time, so relabeling cannot fail on a healthy spill file.
pub(crate) fn count_seeds(
    mut shard_db: GraphDatabase,
    unified: &Taxonomy,
) -> (LevelCounts, Vec<usize>) {
    let label_frequencies = unified.generalized_label_frequencies(&shard_db);
    relabel_in_place(&mut shard_db, unified);
    (vec![(0, seed_counts(&shard_db))], label_frequencies)
}

/// Counts the extensions of every code in `level` (same length, sorted
/// by [`DfsCode::cmp_code`]) that occurs in one resident shard: the codes
/// are re-grown along themselves with [`walk_codes`], and each walked
/// code's embeddings are counted with [`count_extensions`], as serial
/// gSpan counts them over the whole database.
pub(crate) fn count_level(
    mut shard_db: GraphDatabase,
    unified: &Taxonomy,
    level: &[DfsCode],
) -> LevelCounts {
    relabel_in_place(&mut shard_db, unified);
    let mut counts = Vec::new();
    walk_codes(&shard_db, level, |k, embeddings| {
        counts.push((k, count_extensions(&level[k], &embeddings, &shard_db))); // tsg-lint: allow(index) — walk_codes hands over indices into level
    });
    counts
}

/// The codes of the next level. Each parent's per-shard counts are
/// summed into whole-database counts, in canonical key order, and
/// [`frequent_minimal_keys`], the child rule of [`tsg_gspan::GSpan`], is
/// applied to them, with `stats` counting as the serial search does. The
/// children come out sorted by [`DfsCode::cmp_code`]: the parents are,
/// and each parent's keys are in canonical order.
pub(crate) fn next_level(
    parents: &[DfsCode],
    shards: impl IntoIterator<Item = LevelCounts>,
    min_support: usize,
    stats: &mut GSpanStats,
) -> Vec<DfsCode> {
    let mut sums: Vec<Vec<(DfsEdge, usize)>> = vec![Vec::new(); parents.len()];
    for (p, counts) in shards.into_iter().flatten() {
        sums[p].extend(counts); // tsg-lint: allow(index) — parent indices come from walking `parents`
    }
    let mut scratch = MinScratch::new();
    let mut children = Vec::new();
    for (parent, mut counts) in parents.iter().zip(sums) {
        counts.sort_by(|a, b| dfs_edge_cmp(&a.0, &b.0));
        counts.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        let mut code = parent.clone();
        for (key, _) in frequent_minimal_keys(&mut code, counts, min_support, &mut scratch, stats) {
            let mut child = parent.clone();
            child.push(key);
            children.push(child);
        }
    }
    children
}
