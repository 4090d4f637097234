//! The benchmark harness: code that regenerates every table and figure of
//! the paper's evaluation (§4).
//!
//! Each experiment is a plain function returning structured rows, shared
//! by the `experiments` binary (pretty-printed reports, any scale) and the
//! Criterion benches (statistical timing at the quick scale). See
//! EXPERIMENTS.md at the workspace root for measured-vs-paper results.

pub mod experiments;
pub mod profile;
pub mod report;
pub mod taxscale;

pub use experiments::*;
pub use profile::Profile;
