//! The code-guided walk against the miner it replays.
//!
//! `walk_codes` re-grows the embeddings of listed minimal codes along the
//! codes themselves. For any sorted sub-list of the codes `GSpan::mine`
//! reports, every list the walk hands over must equal the miner's list
//! for that code — graph id, vertex map and edge ids, in order — and the
//! walk must visit exactly the listed codes that occur in the database,
//! in list order. The lists mix codes with their own prefixes and codes
//! mined from a second database, which the walked one may not contain.

mod common;

use common::{arb_digraph, arb_graph};
use proptest::prelude::*;
use proptest::TestCaseResult;
use tsg_graph::{GraphDatabase, LabeledGraph};
use tsg_gspan::{
    walk_codes, DfsCode, Embedding, GSpan, GSpanConfig, Grow, MinedPattern, PatternSink,
};

/// Every code the miner reports, with its embedding list.
#[derive(Default)]
struct Record(Vec<(DfsCode, Vec<Embedding>)>);

impl PatternSink for Record {
    fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
        self.0.push((p.code.clone(), p.embeddings.to_vec()));
        Grow::Continue
    }
}

fn mine_all(db: &GraphDatabase, max_edges: usize) -> Vec<(DfsCode, Vec<Embedding>)> {
    let mut sink = Record::default();
    GSpan::new(
        db,
        GSpanConfig {
            min_support: 1,
            max_edges: Some(max_edges),
        },
    )
    .mine(&mut sink);
    sink.0
}

/// Walks `db` over the codes of `db` and of `other` picked by `mask`
/// (cycled), and compares every handoff with the miner's list.
fn check(
    db: &GraphDatabase,
    other: &GraphDatabase,
    mask: &[bool],
    max_edges: usize,
) -> TestCaseResult {
    let mined = mine_all(db, max_edges);
    let mut codes: Vec<DfsCode> = mined
        .iter()
        .map(|(code, _)| code.clone())
        .chain(mine_all(other, max_edges).into_iter().map(|(code, _)| code))
        .collect();
    codes.sort_by(|a, b| a.cmp_code(b));
    codes.dedup();
    let picked: Vec<DfsCode> = codes
        .into_iter()
        .zip(mask.iter().cycle())
        .filter(|&(_, &keep)| keep)
        .map(|(code, _)| code)
        .collect();
    let mut visited: Vec<(usize, Vec<Embedding>)> = Vec::new();
    let listed: Vec<&DfsCode> = picked.iter().collect();
    walk_codes(db, &listed, |i, embeddings| visited.push((i, embeddings)));
    // The listed codes that occur in `db`, in list order, with the
    // miner's lists: the miner reports every occurring code at support 1.
    let want: Vec<(usize, &Vec<Embedding>)> = picked
        .iter()
        .enumerate()
        .filter_map(|(i, code)| {
            mined
                .iter()
                .find(|(c, _)| c == code)
                .map(|(_, embs)| (i, embs))
        })
        .collect();
    let dump = || tsg_graph::io::write_database(db);
    prop_assert_eq!(visited.len(), want.len(), "visit count\n{}", dump());
    for ((got_i, got), (want_i, want)) in visited.iter().zip(&want) {
        prop_assert_eq!(got_i, want_i, "visit order\n{}", dump());
        prop_assert_eq!(got, *want, "embeddings of {}\n{}", picked[*got_i], dump());
    }
    Ok(())
}

fn database(graphs: Vec<LabeledGraph>) -> GraphDatabase {
    GraphDatabase::from_graphs(graphs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Undirected databases; two node labels force label ties, and so
    /// automorphic embeddings that the walk must all re-grow.
    #[test]
    fn undirected_walk_hands_over_the_miners_lists(
        db in prop::collection::vec(arb_graph(5, 2, 2), 1..=4).prop_map(database),
        other in prop::collection::vec(arb_graph(5, 3, 2), 1..=2).prop_map(database),
        mask in prop::collection::vec(prop::bool::ANY, 1..=16),
        max_edges in 1usize..=4,
    ) {
        check(&db, &other, &mask, max_edges)?;
    }

    /// Directed databases, antiparallel arcs included.
    #[test]
    fn directed_walk_hands_over_the_miners_lists(
        db in prop::collection::vec(arb_digraph(5, 2, 2), 1..=4).prop_map(database),
        other in prop::collection::vec(arb_digraph(5, 3, 2), 1..=2).prop_map(database),
        mask in prop::collection::vec(prop::bool::ANY, 1..=16),
        max_edges in 1usize..=4,
    ) {
        check(&db, &other, &mask, max_edges)?;
    }
}

/// A path code and its own prefix, both listed, plus a code the
/// database lacks: the prefix is handed over before its extension and
/// the absent code never.
#[test]
fn prefixes_come_first_and_absent_codes_never() {
    use tsg_graph::{EdgeLabel, NodeLabel};
    let mut g = LabeledGraph::with_nodes([1, 2, 3].map(NodeLabel));
    g.add_edge(0, 1, EdgeLabel(0)).unwrap();
    g.add_edge(1, 2, EdgeLabel(0)).unwrap();
    let db = database(vec![g.clone()]);
    let mut absent = LabeledGraph::with_nodes([1, 4].map(NodeLabel));
    absent.add_edge(0, 1, EdgeLabel(0)).unwrap();
    let other = database(vec![g, absent]);
    let mined = mine_all(&other, 2);
    assert_eq!(mined.len(), 4, "1-2, 1-2-3, 1-4 and 2-3");
    let codes: Vec<&DfsCode> = mined.iter().map(|(code, _)| code).collect();
    let mut visited = Vec::new();
    walk_codes(&db, &codes, |i, embeddings| {
        visited.push((i, embeddings.len()));
    });
    let edge_counts: Vec<usize> = visited.iter().map(|&(i, _)| codes[i].len()).collect();
    assert_eq!(
        edge_counts,
        vec![1, 2, 1],
        "1-2, then 1-2-3, then 2-3; never 1-4"
    );
    assert!(visited.iter().all(|&(_, n)| n == 1));
}
