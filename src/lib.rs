//! **taxogram** — taxonomy-superimposed graph mining.
//!
//! A Rust implementation of *"Taxonomy-Superimposed Graph Mining"*
//! (Cakmak & Ozsoyoglu, EDBT 2008): frequent-subgraph mining for graph
//! databases whose vertex labels are concepts of an is-a taxonomy (Gene
//! Ontology annotations, product categories, atom families, …). A pattern
//! vertex labeled `l` matches any database vertex whose label is `l` or a
//! descendant of `l`; patterns with an equally-frequent specialization
//! ("over-generalized") are excluded, so the result is the complete,
//! minimal frequent pattern set.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! * [`Taxogram`] / [`TaxogramConfig`] — the paper's algorithm
//!   (crate `taxogram-core`);
//! * [`graph`] — labeled graphs and databases (`tsg-graph`);
//! * [`taxonomy`] — is-a DAGs with closure queries (`tsg-taxonomy`);
//! * [`gspan`] — the general-purpose gSpan miner (`tsg-gspan`);
//! * [`iso`] — exact/generalized subgraph isomorphism (`tsg-iso`);
//! * [`tacgm`] — the bottom-up comparator algorithm (`tsg-tacgm`);
//! * [`datagen`] — workload generators for every dataset in the paper's
//!   evaluation (`tsg-datagen`).
//!
//! # Example
//!
//! ```
//! use taxogram::{Taxogram, TaxogramConfig};
//! use taxogram::taxonomy::samples;
//!
//! let (concepts, taxonomy) = samples::sample_taxonomy();
//! let db = samples::figure_1_4_database(&concepts);
//! let result = Taxogram::new(TaxogramConfig::with_threshold(2.0 / 3.0))
//!     .mine(&db, &taxonomy)
//!     .unwrap();
//! for p in result.sorted_patterns() {
//!     println!("{:?} support {:.2}", p.graph.labels(), p.support);
//! }
//! ```

pub mod cli;

pub use taxogram_core::{
    mine_pipelined, mine_sharded, Enhancements, MiningResult, MiningStats, Pattern, Taxogram,
    TaxogramConfig, TaxogramError,
};

/// Labeled graphs, databases, statistics, text I/O.
pub use tsg_graph as graph;

/// Taxonomies (is-a DAGs), builders, closures, sample fixtures.
pub use tsg_taxonomy as taxonomy;

/// The gSpan frequent-subgraph miner.
pub use tsg_gspan as gspan;

/// Exact and generalized isomorphism testing.
pub use tsg_iso as iso;

/// Dense/sparse occurrence bitsets.
pub use tsg_bitset as bitset;

/// The TAcGM bottom-up baseline.
pub use tsg_tacgm as tacgm;

/// Synthetic workload generators (GO-like, KEGG-like, PTE-like, Table 1).
pub use tsg_datagen as datagen;

/// The Taxogram core internals (occurrence indices, enumeration,
/// relabeling, the brute-force reference miner).
pub use taxogram_core as core;
