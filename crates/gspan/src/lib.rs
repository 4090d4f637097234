//! A from-scratch gSpan (Yan & Han, ICDM'02) frequent-subgraph miner.
//!
//! gSpan represents each connected pattern by its minimal DFS code and
//! explores the code tree depth-first, extending patterns only along the
//! rightmost path and pruning every non-minimal code, so each pattern is
//! visited exactly once. Support is counted per distinct database graph.
//!
//! This crate is the general-purpose substrate that Taxogram's Step 2
//! builds on (the paper picks gSpan over FSG/FFSM "because its
//! depth-first-search style candidate enumeration requires less memory,
//! and its running time performance is better than or at least comparable
//! to the other alternatives", citing the ParMol comparison \[19\]). The
//! [`PatternSink`] visitor API is the hook through which Taxogram attaches
//! occurrence-index construction to the mining loop — the pattern and its
//! complete embedding list are handed over at report time, so downstream
//! consumers never re-run isomorphism tests.
//!
//! # Example
//!
//! ```
//! use tsg_graph::{GraphDatabase, LabeledGraph, NodeLabel, EdgeLabel};
//! use tsg_gspan::mine_frequent;
//!
//! let mut g1 = LabeledGraph::with_nodes([NodeLabel(1), NodeLabel(2)]);
//! g1.add_edge(0, 1, EdgeLabel(0)).unwrap();
//! let mut g2 = LabeledGraph::with_nodes([NodeLabel(2), NodeLabel(1), NodeLabel(3)]);
//! g2.add_edge(0, 1, EdgeLabel(0)).unwrap();
//! g2.add_edge(0, 2, EdgeLabel(0)).unwrap();
//! let db = GraphDatabase::from_graphs(vec![g1, g2]);
//!
//! let patterns = mine_frequent(&db, 2, None);
//! assert_eq!(patterns.len(), 1); // the 1—2 edge appears in both graphs
//! assert_eq!(patterns[0].support, 2);
//! ```

mod dfs_code;
mod extension;
mod minimal;
mod miner;
pub mod oracle;
mod walk;

pub use dfs_code::{dfs_edge_cmp, ArcDir, DfsCode, DfsEdge};
pub use extension::{
    count_extensions, distinct_graph_count, embedding_list_bytes, grow_extensions,
    seed_extensions, Embedding,
};
pub use minimal::{is_min, is_min_with_scratch, min_dfs_code, MinScratch};
pub use miner::{
    mine_frequent, ClassHandoff, CollectSink, FrequentPattern, GSpan, GSpanConfig, GSpanStats,
    Grow, MinedPattern, PatternSink,
};
pub use walk::walk_codes;
