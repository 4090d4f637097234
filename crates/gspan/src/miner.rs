//! The gSpan mining loop with a visitor (sink) API.

use crate::dfs_code::{DfsCode, DfsEdge};
use crate::extension::{
    count_extensions, distinct_graph_count, grow_extensions, seed_extensions, Embedding,
};
use crate::minimal::{is_min_with_scratch, MinScratch};
use std::ops::ControlFlow;
use tsg_graph::{GraphDatabase, LabeledGraph};

/// Mining parameters.
#[derive(Clone, Copy, Debug)]
pub struct GSpanConfig {
    /// Minimum number of distinct database graphs a pattern must occur in
    /// (the paper's `θ·|D|`, as an absolute count, rounded up).
    pub min_support: usize,
    /// Optional cap on pattern edge count (patterns larger than this are
    /// neither reported nor grown). The 1-edge seeds are always reported,
    /// so `Some(0)` mines as `Some(1)`.
    pub max_edges: Option<usize>,
}

impl GSpanConfig {
    /// A config from a fractional threshold `theta` over `db`.
    pub fn with_threshold(db: &GraphDatabase, theta: f64) -> Self {
        GSpanConfig {
            min_support: db.min_support_count(theta),
            max_edges: None,
        }
    }
}

/// A frequent pattern as handed to a [`PatternSink`].
#[derive(Debug)]
pub struct MinedPattern<'a> {
    /// The pattern's minimal DFS code.
    pub code: &'a DfsCode,
    /// The pattern as a graph (vertex ids = DFS ids).
    pub graph: &'a LabeledGraph,
    /// Number of distinct database graphs containing the pattern.
    pub support: usize,
    /// Every embedding of the pattern in the database, ascending by graph.
    pub embeddings: &'a [Embedding],
}

/// What the miner should do after reporting a pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grow {
    /// Keep growing this pattern (the default).
    Continue,
    /// Do not grow this pattern further (its supergraphs are unwanted, e.g.
    /// a size cap specific to the sink). Siblings are unaffected.
    Prune,
    /// Abort the entire mining run.
    Stop,
}

/// A completed pattern class, handed off **by move** once the miner no
/// longer needs its embeddings.
///
/// The embedding list is the expensive part of a mined class; streaming
/// consumers (e.g. a pipelined Step 3) want to take ownership of it rather
/// than clone it out of [`MinedPattern`]'s borrowed slice. The miner calls
/// [`PatternSink::complete`] with this handoff as soon as the class's
/// extensions have been enumerated — its children's embedding lists exist
/// by then, so the parent's are dead weight to the miner.
#[derive(Debug)]
pub struct ClassHandoff {
    /// The pattern as a graph (vertex ids = DFS ids).
    pub graph: LabeledGraph,
    /// Number of distinct database graphs containing the pattern.
    pub support: usize,
    /// Every embedding of the pattern in the database, ascending by graph;
    /// owned — moved, not cloned, out of the mining frame.
    pub embeddings: Vec<Embedding>,
}

/// Receives every frequent pattern, in DFS (depth-first, canonical) order.
pub trait PatternSink {
    /// Called once per frequent pattern with its embeddings.
    fn report(&mut self, pattern: &MinedPattern<'_>) -> Grow;

    /// Called once per *reported* pattern, after the miner has enumerated
    /// the pattern's extensions, handing the class over by move. Calls
    /// arrive in report (pre-order DFS) order. Not called for a pattern
    /// whose `report` returned [`Grow::Stop`]. The default drops the class.
    fn complete(&mut self, class: ClassHandoff) {
        let _ = class;
    }
}

/// A sink collecting `(graph, support)` pairs.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The collected patterns in discovery order.
    pub patterns: Vec<FrequentPattern>,
}

/// An owned mined pattern.
#[derive(Clone, Debug)]
pub struct FrequentPattern {
    /// The pattern graph.
    pub graph: LabeledGraph,
    /// Its minimal DFS code.
    pub code: DfsCode,
    /// Distinct-graph support count.
    pub support: usize,
}

impl PatternSink for CollectSink {
    fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
        self.patterns.push(FrequentPattern {
            graph: p.graph.clone(),
            code: p.code.clone(),
            support: p.support,
        });
        Grow::Continue
    }
}

/// What one mining run's extension step did. Seeds are not included:
/// every counter covers rightmost-path extensions of reported patterns.
///
/// Each counted key is dropped as infrequent, dropped as non-minimal, or
/// grown; unless a sink stops the run, every grown key is reported, so
/// `embeddings_grown` equals the embeddings of the reported non-seed
/// patterns. All four are deterministic for a given database and config.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GSpanStats {
    /// Distinct extension keys counted, summed over reported patterns.
    pub keys_counted: usize,
    /// Keys supported by fewer than `min_support` graphs.
    pub infrequent: usize,
    /// Frequent keys whose grown code is not minimal (another branch
    /// reaches the same graph).
    pub non_minimal: usize,
    /// Embeddings materialized for the surviving keys.
    pub embeddings_grown: usize,
}

/// The gSpan miner. Mines all connected frequent subgraphs (with at least
/// one edge) of `db`, reporting each exactly once, in canonical DFS-code
/// order, with its full embedding list.
pub struct GSpan<'a> {
    db: &'a GraphDatabase,
    config: GSpanConfig,
}

impl<'a> GSpan<'a> {
    /// Creates a miner over `db`.
    pub fn new(db: &'a GraphDatabase, config: GSpanConfig) -> Self {
        GSpan { db, config }
    }

    /// Runs the mining loop, feeding `sink`, and returns what the
    /// extension step did.
    pub fn mine<S: PatternSink>(&self, sink: &mut S) -> GSpanStats {
        let mut scratch = MinScratch::new();
        let mut stats = GSpanStats::default();
        for (key, embs) in seed_extensions(self.db, self.config.min_support) {
            let mut code = DfsCode::from_edges(vec![key]);
            if !is_min_with_scratch(&code, &mut scratch) {
                continue;
            }
            let support = distinct_graph_count(&embs);
            if self
                .mine_rec(&mut code, embs, support, sink, &mut scratch, &mut stats)
                .is_break()
            {
                break;
            }
        }
        stats
    }

    /// Recursive step: report, then extend — count every extension key,
    /// keep the frequent keys whose grown code is minimal, grow those
    /// only — hand the class off, then mine the children in canonical
    /// order. Precondition: `code` is minimal and `embs` holds its
    /// embeddings, `support` distinct graphs (≥ `min_support`). Owns the
    /// embedding list so completed classes can be handed off by move.
    fn mine_rec<S: PatternSink>(
        &self,
        code: &mut DfsCode,
        embs: Vec<Embedding>,
        support: usize,
        sink: &mut S,
        scratch: &mut MinScratch,
        stats: &mut GSpanStats,
    ) -> ControlFlow<()> {
        debug_assert_eq!(support, distinct_graph_count(&embs));
        let graph = code.to_graph().expect("mined codes denote valid graphs"); // tsg-lint: allow(panic) — codes built edge-by-edge by the miner denote valid graphs
        let decision = sink.report(&MinedPattern {
            code,
            graph: &graph,
            support,
            embeddings: &embs,
        });
        let handoff = |embeddings: Vec<Embedding>, graph: LabeledGraph| ClassHandoff {
            graph,
            support,
            embeddings,
        };
        match decision {
            Grow::Stop => return ControlFlow::Break(()),
            Grow::Prune => {
                sink.complete(handoff(embs, graph));
                return ControlFlow::Continue(());
            }
            Grow::Continue => {}
        }
        if self.config.max_edges.is_some_and(|m| code.len() >= m) {
            sink.complete(handoff(embs, graph));
            return ControlFlow::Continue(());
        }
        let counts = count_extensions(code, &embs, self.db);
        let children = frequent_minimal_keys(code, counts, self.config.min_support, scratch, stats);
        let keys: Vec<DfsEdge> = children.iter().map(|&(key, _)| key).collect();
        let grown = grow_extensions(code, &embs, self.db, &keys);
        stats.embeddings_grown += grown.iter().map(Vec::len).sum::<usize>();
        // The children's embedding lists now exist; the parent's are dead
        // weight to the miner, so the class completes (by move) *before*
        // the subtree is explored — streaming consumers start on it while
        // mining continues.
        sink.complete(handoff(embs, graph));
        for ((key, child_support), child_embs) in children.into_iter().zip(grown) {
            code.push(key);
            let flow = self.mine_rec(code, child_embs, child_support, sink, scratch, stats);
            code.pop();
            flow?;
        }
        ControlFlow::Continue(())
    }
}

/// gSpan's child rule: of `counts`, the extension keys of `code` with
/// their supports in canonical order (as [`count_extensions`] returns
/// them), the keys supported by at least `min_support` graphs whose
/// grown code is minimal, in the same order. `stats` counts every key
/// and the infrequent and non-minimal ones; `code` is left as it was.
pub fn frequent_minimal_keys(
    code: &mut DfsCode,
    counts: Vec<(DfsEdge, usize)>,
    min_support: usize,
    scratch: &mut MinScratch,
    stats: &mut GSpanStats,
) -> Vec<(DfsEdge, usize)> {
    stats.keys_counted += counts.len();
    let mut children = Vec::new();
    for (key, support) in counts {
        if support < min_support {
            stats.infrequent += 1;
            continue;
        }
        // A smaller code reaches this child's graph; that branch
        // reports it, so this one is never grown.
        code.push(key);
        let minimal = is_min_with_scratch(code, scratch);
        code.pop();
        if minimal {
            children.push((key, support));
        } else {
            stats.non_minimal += 1;
        }
    }
    children
}

/// Convenience wrapper: mines and collects all frequent patterns.
pub fn mine_frequent(
    db: &GraphDatabase,
    min_support: usize,
    max_edges: Option<usize>,
) -> Vec<FrequentPattern> {
    let mut sink = CollectSink::default();
    GSpan::new(
        db,
        GSpanConfig {
            min_support,
            max_edges,
        },
    )
    .mine(&mut sink);
    sink.patterns
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::{EdgeLabel, NodeLabel};

    fn nl(v: u32) -> NodeLabel {
        NodeLabel(v)
    }
    fn el(v: u32) -> EdgeLabel {
        EdgeLabel(v)
    }

    fn path_graph(labels: &[u32]) -> LabeledGraph {
        let mut g = LabeledGraph::with_nodes(labels.iter().map(|&x| nl(x)));
        for i in 1..labels.len() {
            g.add_edge(i - 1, i, el(0)).unwrap();
        }
        g
    }

    #[test]
    fn single_shared_edge_is_found() {
        let db = GraphDatabase::from_graphs(vec![
            path_graph(&[1, 2]),
            path_graph(&[1, 2, 3]),
            path_graph(&[4, 5]),
        ]);
        let got = mine_frequent(&db, 2, None);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].support, 2);
        assert_eq!(got[0].graph.node_count(), 2);
        let mut labels: Vec<_> = got[0].graph.labels().to_vec();
        labels.sort();
        assert_eq!(labels, vec![nl(1), nl(2)]);
    }

    #[test]
    fn each_pattern_reported_once() {
        // Two identical triangles: patterns are edge, path-2, triangle —
        // per distinct labeled shape, exactly once.
        let mk = || {
            let mut g = LabeledGraph::with_nodes([nl(1), nl(1), nl(1)]);
            g.add_edge(0, 1, el(0)).unwrap();
            g.add_edge(1, 2, el(0)).unwrap();
            g.add_edge(2, 0, el(0)).unwrap();
            g
        };
        let db = GraphDatabase::from_graphs(vec![mk(), mk()]);
        let got = mine_frequent(&db, 2, None);
        // Patterns: single edge, path of 3, triangle.
        assert_eq!(got.len(), 3, "got: {:?}", got.iter().map(|p| p.code.to_string()).collect::<Vec<_>>());
        let sizes: Vec<_> = got.iter().map(|p| p.graph.edge_count()).collect();
        assert!(sizes.contains(&1) && sizes.contains(&2) && sizes.contains(&3));
        for p in &got {
            assert_eq!(p.support, 2);
        }
    }

    #[test]
    fn max_edges_caps_growth() {
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 1, 1, 1])]);
        let got = mine_frequent(&db, 1, Some(2));
        assert!(got.iter().all(|p| p.graph.edge_count() <= 2));
        assert!(got.iter().any(|p| p.graph.edge_count() == 2));
    }

    #[test]
    fn embeddings_cover_all_occurrences() {
        // Pattern 1-1 in a path 1-1-1: 4 embeddings (2 edges × 2 dirs).
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 1, 1])]);
        struct Check {
            edge_embeddings: usize,
        }
        impl PatternSink for Check {
            fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
                if p.graph.edge_count() == 1 {
                    self.edge_embeddings = p.embeddings.len();
                }
                Grow::Continue
            }
        }
        let mut c = Check { edge_embeddings: 0 };
        GSpan::new(
            &db,
            GSpanConfig {
                min_support: 1,
                max_edges: None,
            },
        )
        .mine(&mut c);
        assert_eq!(c.edge_embeddings, 4);
    }

    #[test]
    fn stop_aborts_run() {
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 1, 1, 1])]);
        struct StopAfterOne(usize);
        impl PatternSink for StopAfterOne {
            fn report(&mut self, _: &MinedPattern<'_>) -> Grow {
                self.0 += 1;
                Grow::Stop
            }
        }
        let mut s = StopAfterOne(0);
        GSpan::new(
            &db,
            GSpanConfig {
                min_support: 1,
                max_edges: None,
            },
        )
        .mine(&mut s);
        assert_eq!(s.0, 1);
    }

    #[test]
    fn prune_skips_supergraphs_only() {
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 2, 3])]);
        struct PruneAll(Vec<usize>);
        impl PatternSink for PruneAll {
            fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
                self.0.push(p.graph.edge_count());
                Grow::Prune
            }
        }
        let mut s = PruneAll(vec![]);
        GSpan::new(
            &db,
            GSpanConfig {
                min_support: 1,
                max_edges: None,
            },
        )
        .mine(&mut s);
        // Only 1-edge patterns get reported: 1-2 and 2-3.
        assert_eq!(s.0, vec![1, 1]);
    }

    #[test]
    fn complete_mirrors_report_with_owned_embeddings() {
        // complete() must fire once per reported pattern, in report order,
        // with the same graph/support/embedding list — including for
        // pruned patterns and patterns at the max_edges cap.
        struct Lifecycle {
            reported: Vec<(Vec<NodeLabel>, usize, usize)>,
            completed: Vec<(Vec<NodeLabel>, usize, usize)>,
            prune_two_edges: bool,
        }
        impl PatternSink for Lifecycle {
            fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
                self.reported
                    .push((p.graph.labels().to_vec(), p.support, p.embeddings.len()));
                if self.prune_two_edges && p.graph.edge_count() >= 2 {
                    Grow::Prune
                } else {
                    Grow::Continue
                }
            }
            fn complete(&mut self, class: ClassHandoff) {
                self.completed.push((
                    class.graph.labels().to_vec(),
                    class.support,
                    class.embeddings.len(),
                ));
            }
        }
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 2, 3, 1])]);
        for (prune, max_edges) in [(false, None), (true, None), (false, Some(2))] {
            let mut s = Lifecycle {
                reported: vec![],
                completed: vec![],
                prune_two_edges: prune,
            };
            GSpan::new(
                &db,
                GSpanConfig {
                    min_support: 1,
                    max_edges,
                },
            )
            .mine(&mut s);
            assert!(!s.reported.is_empty());
            assert_eq!(s.reported, s.completed, "prune={prune} cap={max_edges:?}");
        }
    }

    #[test]
    fn stop_skips_complete() {
        struct StopNow {
            completions: usize,
        }
        impl PatternSink for StopNow {
            fn report(&mut self, _: &MinedPattern<'_>) -> Grow {
                Grow::Stop
            }
            fn complete(&mut self, _: ClassHandoff) {
                self.completions += 1;
            }
        }
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 1, 1])]);
        let mut s = StopNow { completions: 0 };
        GSpan::new(
            &db,
            GSpanConfig {
                min_support: 1,
                max_edges: None,
            },
        )
        .mine(&mut s);
        assert_eq!(s.completions, 0);
    }

    #[test]
    fn infrequent_patterns_are_absent() {
        let db = GraphDatabase::from_graphs(vec![
            path_graph(&[1, 2, 3]),
            path_graph(&[1, 2]),
            path_graph(&[9, 9]),
        ]);
        let got = mine_frequent(&db, 2, None);
        assert_eq!(got.len(), 1, "only the 1-2 edge is frequent");
        assert_eq!(got[0].support, 2);
    }
}
