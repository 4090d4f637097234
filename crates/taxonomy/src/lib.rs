//! Label taxonomies (is-a hierarchies) for taxonomy-superimposed graph
//! mining.
//!
//! A taxonomy `T(V_T, E_T, L_T, λ_T)` is a labeled DAG where an edge from
//! `u` to `v` states that `v` is an ancestor of `u` (paper §2). Its labeling
//! function is one-to-one and onto, so here a concept simply *is* its
//! [`NodeLabel`]; concepts are dense ids `0..concept_count()`.
//!
//! Conventions from the paper that this crate implements exactly:
//!
//! * Ancestorship is reflexive and transitive: every label is an ancestor of
//!   itself, and ancestors of ancestors are ancestors.
//! * A label may have several most-general ancestors when the taxonomy has
//!   multiple roots sharing descendants; [`Taxonomy::unify_most_general`]
//!   introduces artificial roots so that Step 1 of Taxogram (relabeling with
//!   *the* most general ancestor) is well defined (§3, Step 1).
//! * Infrequent-label pruning (§3, enhancement *b*) removes a
//!   downward-closed set of concepts: a concept is generalized-frequent only
//!   if all its parents are, so removing the infrequent ones keeps the
//!   remainder a valid DAG.

mod builder;
pub mod io;
mod reach;
pub mod samples;
#[allow(clippy::module_inception)]
mod taxonomy;

pub use builder::{taxonomy_from_edges, TaxonomyBuilder};
pub use reach::Closure;
pub use taxonomy::Taxonomy;

use tsg_graph::NodeLabel;

/// Errors raised while building or transforming a taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaxonomyError {
    /// The is-a relation contains a cycle through the given concept.
    Cycle {
        /// A concept on the cycle.
        on: NodeLabel,
    },
    /// An is-a edge referenced a concept that was never declared.
    UnknownConcept {
        /// The offending concept id.
        concept: NodeLabel,
        /// Number of declared concepts.
        len: usize,
    },
    /// A concept was declared as its own parent.
    SelfIsA {
        /// The offending concept.
        concept: NodeLabel,
    },
    /// The same is-a edge was declared twice.
    DuplicateIsA {
        /// Child concept.
        child: NodeLabel,
        /// Parent concept.
        parent: NodeLabel,
    },
    /// The taxonomy has no concepts.
    Empty,
}

impl std::fmt::Display for TaxonomyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaxonomyError::Cycle { on } => write!(f, "is-a cycle through concept {on}"),
            TaxonomyError::UnknownConcept { concept, len } => {
                write!(f, "concept {concept} out of bounds ({len} declared)")
            }
            TaxonomyError::SelfIsA { concept } => {
                write!(f, "concept {concept} declared as its own parent")
            }
            TaxonomyError::DuplicateIsA { child, parent } => {
                write!(f, "duplicate is-a edge {child} -> {parent}")
            }
            TaxonomyError::Empty => write!(f, "taxonomy has no concepts"),
        }
    }
}

impl std::error::Error for TaxonomyError {}
