//! The miner's count → minimality → grow recursion against a reference
//! loop that grows every extension first.
//!
//! The reference is the textbook gSpan step: materialize the embeddings of
//! every rightmost-path extension, keep the groups supported by enough
//! distinct graphs, and test minimality when a child is entered. The miner
//! instead counts keys without growing them and tests minimality before
//! growth. Both must report the same patterns in the same order, each with
//! the same support and byte-identical embedding lists.

mod common;

use common::{arb_digraph, arb_graph};
use proptest::prelude::*;
use proptest::TestCaseResult;
use tsg_graph::GraphDatabase;
use tsg_gspan::{
    count_extensions, distinct_graph_count, grow_extensions, is_min, seed_extensions, DfsCode,
    DfsEdge, Embedding, GSpan, GSpanConfig, GSpanStats, Grow, MinedPattern, PatternSink,
};

/// One reported pattern: its code, support and embedding list.
type Report = (DfsCode, usize, Vec<Embedding>);

#[derive(Default)]
struct Record(Vec<Report>);

impl PatternSink for Record {
    fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
        self.0
            .push((p.code.clone(), p.support, p.embeddings.to_vec()));
        Grow::Continue
    }
}

/// Every extension of `code` with its grown embeddings, in canonical key
/// order. Also checks that each key's count equals the distinct graphs of
/// its grown list.
fn grow_all(
    code: &DfsCode,
    embs: &[Embedding],
    db: &GraphDatabase,
) -> Vec<(DfsEdge, Vec<Embedding>)> {
    let counts = count_extensions(code, embs, db);
    let keys: Vec<DfsEdge> = counts.iter().map(|&(key, _)| key).collect();
    let grown = grow_extensions(code, embs, db, &keys);
    for ((key, count), list) in counts.iter().zip(&grown) {
        assert_eq!(
            *count,
            distinct_graph_count(list),
            "count of {key:?} after {code}"
        );
    }
    keys.into_iter().zip(grown).collect()
}

/// The reference recursion: minimality on entry, then grow everything
/// and filter by support.
fn reference_rec(
    code: &mut DfsCode,
    embs: Vec<Embedding>,
    db: &GraphDatabase,
    min_support: usize,
    max_edges: Option<usize>,
    out: &mut Vec<Report>,
) {
    if !is_min(code) {
        return;
    }
    let children = if max_edges.is_some_and(|m| code.len() >= m) {
        Vec::new()
    } else {
        grow_all(code, &embs, db)
    };
    out.push((code.clone(), distinct_graph_count(&embs), embs));
    for (key, child) in children {
        if distinct_graph_count(&child) >= min_support {
            code.push(key);
            reference_rec(code, child, db, min_support, max_edges, out);
            code.pop();
        }
    }
}

fn reference(db: &GraphDatabase, min_support: usize, max_edges: Option<usize>) -> Vec<Report> {
    let mut out = Vec::new();
    // Every seed, grown, then filtered by support.
    for (key, embs) in seed_extensions(db, 1) {
        if distinct_graph_count(&embs) >= min_support {
            let mut code = DfsCode::from_edges(vec![key]);
            reference_rec(&mut code, embs, db, min_support, max_edges, &mut out);
        }
    }
    out
}

fn check(db: &GraphDatabase, min_support: usize, max_edges: usize) -> TestCaseResult {
    // 0 stands for no edge cap.
    let max_edges = (max_edges > 0).then_some(max_edges);
    let mut sink = Record::default();
    let stats: GSpanStats = GSpan::new(
        db,
        GSpanConfig {
            min_support,
            max_edges,
        },
    )
    .mine(&mut sink);
    let want = reference(db, min_support, max_edges);
    let dump = || tsg_graph::io::write_database(db);
    prop_assert_eq!(sink.0.len(), want.len(), "report count\n{}", dump());
    for (i, (got, want)) in sink.0.iter().zip(&want).enumerate() {
        prop_assert_eq!(got, want, "report {} differs\n{}", i, dump());
    }
    // Every counted key is dropped or grown, and nothing stopped the run,
    // so the grown keys are exactly the reported non-seed patterns.
    let children: Vec<&Report> = sink
        .0
        .iter()
        .filter(|(code, _, _)| code.len() > 1)
        .collect();
    prop_assert_eq!(
        stats.keys_counted,
        stats.infrequent + stats.non_minimal + children.len()
    );
    prop_assert_eq!(
        stats.embeddings_grown,
        children
            .iter()
            .map(|(_, _, embs)| embs.len())
            .sum::<usize>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Undirected databases; two node labels force label ties, and so
    /// automorphic embeddings and non-minimal candidate codes.
    #[test]
    fn undirected_reports_match_the_grow_all_reference(
        db in prop::collection::vec(arb_graph(5, 2, 2), 1..=4)
            .prop_map(GraphDatabase::from_graphs),
        min_support in 1usize..=3,
        max_edges in 0usize..=4,
    ) {
        check(&db, min_support, max_edges)?;
    }

    /// Directed databases, antiparallel arcs included.
    #[test]
    fn directed_reports_match_the_grow_all_reference(
        db in prop::collection::vec(arb_digraph(5, 2, 2), 1..=4)
            .prop_map(GraphDatabase::from_graphs),
        min_support in 1usize..=3,
        max_edges in 0usize..=4,
    ) {
        check(&db, min_support, max_edges)?;
    }
}
