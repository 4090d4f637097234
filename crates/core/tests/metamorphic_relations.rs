//! The full metamorphic sweep: every relation in
//! [`tsg_testkit::metamorphic`] against every engine (serial and
//! pipelined; relation 9 covers the sharded miner) on seeded random
//! inputs.
//!
//! Case count defaults to 256 per relation (the acceptance floor) and
//! honors `PROPTEST_CASES`; all cases derive from the fixed base seed
//! below, so a failure message's seed reproduces standalone via
//! `tsg_testkit::case(seed)`. One `#[test]` per relation keeps the
//! relations independently reportable and lets the harness run them on
//! parallel test threads.

use tsg_testkit::gen::{case_count, cases, Case};
use tsg_testkit::metamorphic::{
    self, Engine, ENGINES,
};

/// Base seed for every sweep in this file. Arbitrary but fixed: results
/// must be reproducible across hosts and runs.
const BASE_SEED: u64 = 0x7a78_6f67_7261_6d01;

fn sweep(relation: &str, mut check: impl FnMut(&Case) -> Result<(), String>) {
    let n = case_count(256);
    for c in cases(BASE_SEED, n) {
        if let Err(msg) = check(&c) {
            panic!("relation {relation} violated: {msg}");
        }
    }
}

#[test]
fn engines_agree_byte_identically() {
    sweep("engines-agree", metamorphic::engines_agree);
}

#[test]
fn flattened_taxonomy_reduces_to_plain_gspan() {
    sweep("flatten", |c| {
        for &e in &ENGINES {
            metamorphic::flattening_matches_gspan(c, e)?;
        }
        Ok(())
    });
}

#[test]
fn threshold_monotonicity() {
    sweep("θ-monotone", |c| {
        for &e in &ENGINES {
            metamorphic::theta_monotonicity(c, e)?;
        }
        Ok(())
    });
}

#[test]
fn database_duplication_doubles_supports_only() {
    sweep("duplication", |c| {
        for &e in &ENGINES {
            metamorphic::duplication_invariance(c, e)?;
        }
        Ok(())
    });
}

#[test]
fn isolated_vertices_are_invisible() {
    sweep("isolated-vertex", |c| {
        for &e in &ENGINES {
            metamorphic::isolated_vertex_invariance(c, e)?;
        }
        Ok(())
    });
}

#[test]
fn consistent_label_permutation_is_equivariant() {
    sweep("permutation", |c| {
        for &e in &ENGINES {
            metamorphic::label_permutation_equivariance(c, e)?;
        }
        Ok(())
    });
}

#[test]
fn specialization_never_gains_support() {
    sweep("anti-monotone", |c| {
        for &e in &ENGINES {
            metamorphic::specialization_anti_monotone(c, e)?;
        }
        Ok(())
    });
}

#[test]
fn output_matches_brute_force_reference() {
    // Includes over-generalization absence: the reference miner applies
    // the minimality filter from the problem definition directly.
    sweep("reference", |c| {
        let want = taxogram_core::reference::reference_mine(
            &c.db,
            &c.taxonomy,
            c.theta,
            metamorphic::MAX_EDGES,
        );
        for &e in &ENGINES {
            metamorphic::matches_reference(c, e, Some(&want))?;
        }
        Ok(())
    });
}

#[test]
fn shard_count_never_changes_the_output() {
    sweep("shard-invariance", metamorphic::shard_count_invariance);
}

#[test]
fn sharding_survives_the_locally_overgeneralized_corner() {
    // The corner that breaks naive partition merging: with taxonomy
    // 0 > 1 and shards {1—1} and {0—0}, each half mined alone at θ=1.0
    // would report a *different* most-general pattern — the first shard
    // never sees the label-0 graph, so 1—1 is locally minimal there. The
    // sharded miner never mines a shard alone: it sums the shards'
    // counts and derives class membership on global data, so it must
    // converge on the single global answer 0—0 with support 2.
    use taxogram_core::{mine_sharded, ShardOptions, TaxogramConfig};
    use tsg_graph::{EdgeLabel, GraphDatabase, LabeledGraph, NodeLabel};

    let taxonomy = tsg_taxonomy::taxonomy_from_edges(2, [(1, 0)]).unwrap();
    let mut specific = LabeledGraph::with_nodes([NodeLabel(1), NodeLabel(1)]);
    specific.add_edge(0, 1, EdgeLabel(0)).unwrap();
    let mut general = LabeledGraph::with_nodes([NodeLabel(0), NodeLabel(0)]);
    general.add_edge(0, 1, EdgeLabel(0)).unwrap();
    let db = GraphDatabase::from_graphs(vec![specific, general]);
    let cfg = TaxogramConfig::with_threshold(1.0);

    for threads in [1, 2] {
        let opts = ShardOptions {
            shards: 2,
            threads,
            ..ShardOptions::default()
        };
        let out = mine_sharded(&cfg, &db, &taxonomy, &opts).unwrap();
        assert!(out.termination.is_complete());
        assert_eq!(out.shard_stats.shards, 2);
        assert_eq!(
            out.result.patterns.len(),
            1,
            "exactly the global most-general pattern must survive"
        );
        let p = &out.result.patterns[0];
        assert_eq!(p.graph.labels(), [NodeLabel(0), NodeLabel(0)]);
        assert_eq!(p.support_count, 2);
    }
}

#[test]
fn serial_engine_satisfies_every_relation_jointly() {
    // The per-relation sweeps above share mining work per relation; this
    // sweep runs the whole suite per case on a smaller budget to catch
    // inter-relation interference (e.g. a relation mutating its case).
    let n = case_count(256) / 8;
    for c in cases(BASE_SEED ^ 0xff, n.max(16)) {
        if let Err(msg) = metamorphic::run_suite(&c, &[Engine::Serial]) {
            panic!("joint suite violated: {msg}");
        }
    }
}
