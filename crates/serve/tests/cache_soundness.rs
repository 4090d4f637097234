//! The θ-monotonicity cache soundness property, on the wire rendering.
//!
//! The serve cache answers a query at θ′ by support-filtering a cached
//! complete run mined at θ ≤ θ′. The `cache` module's argument says the
//! filtered pattern stream is *byte-identical* to a fresh mine at θ′ —
//! same patterns, same order, same supports. These properties test that
//! claim end to end through [`tsg_serve::render_patterns`], the exact
//! bytes clients see, plus the config-key hygiene around it.

use proptest::prelude::*;
use std::sync::Arc;
use taxogram_core::{Taxogram, TaxogramConfig, Termination, TerminationReason};
use tsg_graph::GraphDatabase;
use tsg_serve::{filter_run, render_patterns, ConfigKey, ResultCache};
use tsg_taxonomy::Taxonomy;

/// A synthetic complete-run termination for cache inserts (the ungoverned
/// `mine` entry point returns no report of its own).
fn complete() -> Termination {
    Termination {
        reason: TerminationReason::Completed,
        classes_finished: 1,
        classes_abandoned: 0,
        frontier: Vec::new(),
    }
}

fn arb_input() -> impl Strategy<Value = (Taxonomy, GraphDatabase)> {
    tsg_testkit::gen::arb_input_sized(6, 5, 5)
}

/// θ pairs with θ_cached ≤ θ_query, spanning equal, close, and far.
fn arb_theta_pair() -> impl Strategy<Value = (f64, f64)> {
    prop::sample::select(vec![
        (0.25f64, 0.25f64),
        (0.25, 0.4),
        (0.25, 0.6),
        (0.25, 1.0),
        (0.4, 0.6),
        (0.4, 1.0),
        (0.6, 0.6),
        (0.6, 1.0),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Filtering a cached θ run to θ′'s support floor renders
    /// byte-identically to mining fresh at θ′.
    #[test]
    fn theta_filtered_cache_is_byte_identical_to_fresh_mine(
        (taxonomy, db) in arb_input(),
        (theta_cached, theta_query) in arb_theta_pair(),
        max_edges in prop::sample::select(vec![2usize, 3, 4]),
    ) {
        let cfg_cached = TaxogramConfig::with_threshold(theta_cached).max_edges(max_edges);
        let cached = Taxogram::new(cfg_cached).mine(&db, &taxonomy).unwrap();

        let cfg_fresh = TaxogramConfig::with_threshold(theta_query).max_edges(max_edges);
        let fresh = Taxogram::new(cfg_fresh).mine(&db, &taxonomy).unwrap();

        let filtered = filter_run(&cached, db.min_support_count(theta_query));
        prop_assert_eq!(
            render_patterns(&filtered),
            render_patterns(&fresh.patterns),
            "θ={} filtered to θ′={} must match the fresh θ′ run on the wire",
            theta_cached,
            theta_query
        );
    }

    /// The lookup path end to end: insert at θ, look up at θ′ ≥ θ, filter —
    /// still byte-identical; and a lookup below the cached θ refuses.
    #[test]
    fn cache_lookup_then_filter_is_sound(
        (taxonomy, db) in arb_input(),
        (theta_cached, theta_query) in arb_theta_pair(),
    ) {
        let key = ConfigKey { max_edges: Some(3), baseline: false };
        let cfg = TaxogramConfig::with_threshold(theta_cached).max_edges(3);
        let run = Taxogram::new(cfg).mine(&db, &taxonomy).unwrap();
        let cache = ResultCache::new(4);
        cache.insert(key, theta_cached, Arc::new(run), complete());

        let hit = cache.lookup(&key, theta_query).expect("θ′ ≥ θ must hit");
        prop_assert_eq!(hit.theta, theta_cached);
        prop_assert!(hit.termination.is_complete());
        let filtered = filter_run(&hit.run, db.min_support_count(theta_query));

        let cfg_fresh = TaxogramConfig::with_threshold(theta_query).max_edges(3);
        let fresh = Taxogram::new(cfg_fresh).mine(&db, &taxonomy).unwrap();
        prop_assert_eq!(render_patterns(&filtered), render_patterns(&fresh.patterns));

        // Strictly below the cached θ the cache cannot answer: the cached
        // run may be missing patterns frequent only at the lower floor.
        if theta_cached > 0.2 {
            prop_assert!(cache.lookup(&key, theta_cached - 0.1).is_none());
        }
    }

    /// Config-key hygiene: a differing `max_edges` or enhancement set
    /// must bypass the cached entry entirely — filtering across configs
    /// would be unsound, not just stale.
    #[test]
    fn differing_config_never_reuses_the_cache(
        (taxonomy, db) in arb_input(),
        theta in prop::sample::select(vec![0.4f64, 0.6, 1.0]),
    ) {
        let cache = ResultCache::new(4);
        let key = ConfigKey { max_edges: Some(3), baseline: false };
        let run = Taxogram::new(TaxogramConfig::with_threshold(0.25).max_edges(3))
            .mine(&db, &taxonomy)
            .unwrap();
        cache.insert(key, 0.25, Arc::new(run), complete());

        let edges_differ = ConfigKey { max_edges: Some(2), baseline: false };
        let mode_differs = ConfigKey { max_edges: Some(3), baseline: true };
        prop_assert!(cache.lookup(&edges_differ, theta).is_none());
        prop_assert!(cache.lookup(&mode_differs, theta).is_none());
        prop_assert!(cache.lookup(&key, theta).is_some());

        // And the would-be cross-config answer really is wrong whenever
        // the configs disagree on the pattern set: a baseline mine at θ
        // need not equal the enhanced mine filtered to θ.
        let enhanced = Taxogram::new(TaxogramConfig::with_threshold(theta).max_edges(3))
            .mine(&db, &taxonomy)
            .unwrap();
        let capped = Taxogram::new(TaxogramConfig::with_threshold(theta).max_edges(2))
            .mine(&db, &taxonomy)
            .unwrap();
        // Not an equality assertion — the sets may coincide on tiny
        // inputs — but capped patterns must never exceed 2 edges while
        // the enhanced run may: verify the cap actually bites the shape.
        for p in &capped.patterns {
            prop_assert!(p.graph.edge_count() <= 2);
        }
        let _ = enhanced;
    }
}

/// Regression: the deep-taxonomy TD15 input at scale 0.005 (12,546
/// patterns at θ′ = 0.335, floor 7). Raising θ prunes enumeration paths,
/// which used to move the point where Step 3 first reached a pattern —
/// and with it the pattern's position and automorphic representative —
/// so a θ = 0.3 run filtered to θ′ listed the right patterns in another
/// order from index 7377 on. A cache hit must be byte-identical to a
/// miss.
#[test]
fn td15_filtered_cache_matches_fresh_mine_byte_for_byte() {
    use tsg_datagen::registry::{build, DatasetId};
    let ds = build(DatasetId::TD(15), 0.005);
    let (theta_cached, theta_query) = (0.3, 0.335);
    let mine = |theta: f64| {
        Taxogram::new(TaxogramConfig::with_threshold(theta).max_edges(6))
            .mine(&ds.database, &ds.taxonomy)
            .unwrap()
    };
    let floor = ds.database.min_support_count(theta_query);
    assert_eq!(floor, 7);
    let fresh = mine(theta_query);
    assert_eq!(fresh.patterns.len(), 12_546);
    let cached = mine(theta_cached);
    let filtered = filter_run(&cached, floor);
    assert!(
        render_patterns(&filtered) == render_patterns(&fresh.patterns),
        "θ={theta_cached} filtered to θ′={theta_query} must render exactly as a fresh θ′ mine"
    );
}
