//! **Taxogram** — taxonomy-superimposed graph mining (Cakmak & Ozsoyoglu,
//! EDBT 2008).
//!
//! Given a database of labeled graphs whose vertex labels belong to an
//! is-a taxonomy, Taxogram finds every frequent pattern under *generalized*
//! subgraph isomorphism (a pattern label matches itself or any descendant)
//! while excluding *over-generalized* patterns (those with an equally
//! frequent specialization), in three steps:
//!
//! 1. **Relabel** every vertex with the most general ancestor of its label
//!    (keeping originals), collapsing each pattern class to one
//!    representative ([`relabel`]).
//! 2. **Mine pattern classes** with ordinary gSpan on the relabeled
//!    database, building a taxonomy-projected *occurrence index* per class
//!    from the embeddings gSpan already maintains — one isomorphism test
//!    per occurrence, shared by every member of the class ([`oi`]).
//! 3. **Enumerate specialized patterns** per class by child-label
//!    replacement; each candidate's support is a single bitset
//!    intersection (Lemma 7), over-generalized members are detected by
//!    equal-support children, and no further isomorphism tests or database
//!    scans are needed ([`enumerate`]).
//!
//! # Quick start
//!
//! ```
//! use taxogram_core::{Taxogram, TaxogramConfig};
//! use tsg_taxonomy::samples;
//!
//! // The paper's running example: Figure 1.4's database over the
//! // Figure 2.1-style taxonomy.
//! let (c, taxonomy) = samples::sample_taxonomy();
//! let db = samples::figure_1_4_database(&c);
//!
//! let result = Taxogram::new(TaxogramConfig::with_threshold(2.0 / 3.0))
//!     .mine(&db, &taxonomy)
//!     .unwrap();
//! assert!(!result.patterns.is_empty());
//! ```

mod channel;
mod config;
pub mod enumerate;
mod error;
mod gauge;
pub mod govern;
pub mod interest;
pub mod lemmas;
mod miner;
pub mod oi;
pub mod pipeline;
pub mod postprocess;
pub mod reference;
pub mod relabel;
pub mod shard;

/// Sync facade: every atomic, lock, condvar, and thread spawn in this
/// crate's concurrent engines goes through here. In normal builds these
/// are zero-cost re-exports of the `std::sync` / `std::thread` types; a
/// build with `RUSTFLAGS='--cfg tsg_model'` swaps in the `tsg-check`
/// model runtime, whose deterministic scheduler explores thread
/// interleavings and whose vector-clock detector flags data races (see
/// DESIGN.md §12 and `crates/core/tests/model.rs`).
pub mod sync {
    pub use tsg_check::sync::*;
    pub use tsg_check::thread;
}

/// Internals re-exported for the model-checker contract tests only
/// (`crates/core/tests/model.rs`); not part of the public API.
#[cfg(tsg_model)]
#[doc(hidden)]
pub mod model_support {
    pub use crate::channel::Bounded;
    pub use crate::gauge::MemoryGauge;
    pub use crate::govern::Governor;
}

pub use config::{Enhancements, TaxogramConfig};
pub use error::TaxogramError;
pub use govern::{
    Budget, BudgetKind, CancelToken, GovernOptions, MiningOutcome, Termination,
    TerminationReason,
};
pub use miner::{MiningResult, MiningStats, Pattern, Taxogram};
pub use pipeline::{mine_pipelined, mine_pipelined_governed, PipelineOptions};
#[doc(hidden)]
pub use pipeline::{mine_pipelined_faulted, PipelineFaults};
pub use shard::{mine_sharded, mine_sharded_governed, ShardOptions, ShardStats, ShardedOutcome};
#[doc(hidden)]
pub use shard::{mine_sharded_faulted, ShardFaults};
