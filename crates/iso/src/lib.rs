//! Exact and generalized (taxonomy-aware) isomorphism tests.
//!
//! The paper's matching model (§2):
//!
//! * **Generalized graph isomorphism** `G1 IS_GEN_ISO G2`: a bijection
//!   `φ: V1 → V2` such that every `G1` vertex label equals or is a taxonomy
//!   ancestor of its image's label, and every `G1` edge maps onto a `G2`
//!   edge. (Not commutative; `G2` may carry extra edges.)
//! * **Generalized subgraph isomorphism**: `G` is generalized subgraph
//!   isomorphic to `GS` iff some subgraph `GS'` of `GS` has
//!   `G IS_GEN_ISO GS'` — equivalently, iff there is an *injective*
//!   label-compatible, edge-preserving map from `G` into `GS`. Edge labels
//!   always match exactly (taxonomies cover vertex labels only).
//!
//! The same backtracking engine, parameterized by a [`LabelMatcher`],
//! provides exact matching (ordinary subgraph isomorphism, as used by the
//! gSpan substrate and by test oracles) and generalized matching (as used
//! by the TAcGM baseline and the brute-force reference miner).
//!
//! When one target is matched against many patterns, a
//! [`CandidateCache`] (or a database-wide [`BatchedMatcher`]) batches
//! the per-label candidate-set computation across all of them: the
//! `*_cached` entry points produce byte-identical embeddings while
//! reading candidate sets — and their cardinalities, for selectivity
//! ordering — from adaptive set containers built once per target.

mod automorphism;
mod candidates;
mod matcher;
mod subiso;

pub use automorphism::{
    automorphism_count, automorphisms, canonical_under_automorphisms,
    canonical_under_automorphisms_into,
};
pub use candidates::{BatchedMatcher, CandidateCache};
pub use matcher::{ExactMatcher, GeneralizedMatcher, LabelMatcher};
pub use subiso::{
    contains_subgraph, contains_subgraph_cached, count_embeddings, count_embeddings_cached,
    enumerate_embeddings, enumerate_embeddings_cached, find_embedding, is_gen_iso, is_isomorphic,
    support_count, Embedding,
};
