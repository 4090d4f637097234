//! Code-guided re-growth: the embeddings of known minimal codes, grown
//! along the codes themselves rather than searched for.
//!
//! Every prefix of a minimal DFS code is itself minimal, so a list of
//! minimal codes spells out a subtree of gSpan's search tree. Walking
//! that subtree with the miner's own growth step rebuilds each listed
//! code's embedding list without counting, minimality checks or any
//! subgraph-isomorphism test.

use crate::dfs_code::{DfsCode, DfsEdge};
use crate::extension::{grow_extensions, seed_embeddings, Embedding};
use tsg_graph::GraphDatabase;

/// Grows the embeddings of every code in `codes` over `db` and hands each
/// listed code's list to `visit` by move, as `visit(index into codes,
/// embeddings)`.
///
/// `codes` must be minimal DFS codes sorted by [`DfsCode::cmp_code`],
/// without duplicates. Codes sharing a prefix are then contiguous, and a
/// code comes right before the codes it prefixes, so the walk needs no
/// trie: each node groups its slice of `codes` by the next edge and grows
/// exactly those keys with [`grow_extensions`].
///
/// Each list equals the one [`crate::GSpan::mine`] builds for that code
/// over `db`, in the same order: the seeds are materialized by the same
/// scan, and every step is the same function over the same parent list.
/// Codes (or prefixes) with no embedding in `db` are never visited, and
/// neither is an empty code. Calls arrive in `codes` order, each after
/// the code's children have been grown, as [`crate::PatternSink::complete`]
/// is called.
pub fn walk_codes(
    db: &GraphDatabase,
    codes: &[DfsCode],
    mut visit: impl FnMut(usize, Vec<Embedding>),
) {
    debug_assert!(
        codes
            .iter()
            .zip(codes.iter().skip(1))
            .all(|(a, b)| a.cmp_code(b).is_lt()),
        "codes not sorted and deduplicated"
    );
    let groups = group_by_edge(codes, 0, 0);
    let keys: Vec<DfsEdge> = groups.iter().map(|&(key, _, _)| key).collect();
    let seeds = seed_embeddings(db, &keys);
    let mut code = DfsCode::new();
    for ((key, lo, hi), embs) in groups.into_iter().zip(seeds) {
        if embs.is_empty() {
            continue;
        }
        code.push(key);
        walk_node(db, codes, lo, hi, &mut code, embs, &mut visit);
        code.pop();
    }
}

/// The trie node `code`, which prefixes every code in `codes[lo..hi]` and
/// has the embeddings `embs`: grows the children those codes continue
/// into, hands `code` over if it is listed, then walks the children in
/// canonical order.
fn walk_node(
    db: &GraphDatabase,
    codes: &[DfsCode],
    lo: usize,
    hi: usize,
    code: &mut DfsCode,
    embs: Vec<Embedding>,
    visit: &mut impl FnMut(usize, Vec<Embedding>),
) {
    let depth = code.len();
    // Sorted order puts the code equal to this prefix, if listed, first.
    let listed = codes
        .get(lo)
        .is_some_and(|c| c.len() == depth)
        .then_some(lo);
    let first_child = lo + usize::from(listed.is_some());
    let groups = group_by_edge(&codes[..hi], first_child, depth); // tsg-lint: allow(index) — hi ≤ codes.len(): node ranges come from group_by_edge over codes
    let keys: Vec<DfsEdge> = groups.iter().map(|&(key, _, _)| key).collect();
    let grown = grow_extensions(code, &embs, db, &keys);
    match listed {
        Some(i) => visit(i, embs),
        None => drop(embs),
    }
    for ((key, lo, hi), child) in groups.into_iter().zip(grown) {
        if child.is_empty() {
            continue;
        }
        code.push(key);
        walk_node(db, codes, lo, hi, code, child, visit);
        code.pop();
    }
}

/// Splits the codes of `codes[start..]` longer than `depth`, which share
/// their first `depth` edges, into maximal runs with equal edge `depth`:
/// `(edge, lo, hi)` per run, in order.
fn group_by_edge(codes: &[DfsCode], start: usize, depth: usize) -> Vec<(DfsEdge, usize, usize)> {
    let mut groups: Vec<(DfsEdge, usize, usize)> = Vec::new();
    for (i, c) in codes.iter().enumerate().skip(start) {
        let Some(&edge) = c.edges().get(depth) else {
            continue;
        };
        match groups.last_mut() {
            Some((key, _, hi)) if *key == edge => *hi = i + 1,
            _ => groups.push((edge, i, i + 1)),
        }
    }
    groups
}
