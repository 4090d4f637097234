//! Shared test harness for the Taxogram workspace.
//!
//! Before this crate existed, five test files carried near-identical
//! copies of the same proptest strategies for random taxonomies and
//! graph databases, and every new correctness idea (a metamorphic
//! relation, a fault schedule) had to be re-plumbed per crate. This
//! crate centralizes the three layers every suite builds on:
//!
//! * [`gen`] — seeded, structure-aware generators for `(Taxonomy,
//!   GraphDatabase, θ)` triples, usable both as proptest strategies and
//!   as a plain deterministic `seed → Case` function;
//! * [`metamorphic`] — the relation engine: properties that must hold
//!   across *transformations* of the input (taxonomy flattening, graph
//!   duplication, label permutation, …), checked uniformly against the
//!   serial and pipelined engines, plus shard-count invariance for the
//!   sharded miner;
//! * [`fault`] — deterministic fault/schedule plans (injected worker
//!   panics, channel-capacity sweeps, receiver drops, spill-I/O faults,
//!   governance cancel/budget triggers) threaded into the parallel
//!   engines through their `#[doc(hidden)]` faulted entry points;
//! * [`corrupt`] — seeded mutation operators over text serializations,
//!   for the parser-hardening suites (valid input, corrupted);
//! * [`netfault`] — protocol-level wire fault plans (slow loris, torn
//!   and truncated writes, cancel storms) for hardening the serve
//!   daemon's framing and reclamation paths.
//!
//! Everything is deterministic from an explicit `u64` seed — no ambient
//! randomness — so any failure reproduces from its printed seed alone.

pub mod corrupt;
pub mod fault;
pub mod gen;
pub mod metamorphic;
pub mod netfault;
pub mod schedules;

pub use gen::{case, cases, Case};
pub use metamorphic::{Engine, ENGINES};
