//! Serial equivalence of the pipelined engine: on random small inputs,
//! the streaming pipelined miner must reproduce the serial result
//! *exactly* — same patterns, same order, same supports — at every
//! thread count. The reorder buffer is what makes this hold; these tests
//! are its contract.

use proptest::prelude::*;
use taxogram_core::{
    mine_pipelined_faulted, MiningResult, PipelineFaults, PipelineOptions, Taxogram, TaxogramConfig,
};
use tsg_graph::GraphDatabase;
use tsg_taxonomy::Taxonomy;

/// Coupled inputs at this suite's historical shape (up to 6 concepts,
/// 2–5 graphs of up to 5 vertices), via the shared [`tsg_testkit::gen`]
/// generators.
fn arb_input() -> impl Strategy<Value = (Taxonomy, GraphDatabase)> {
    tsg_testkit::gen::arb_input_sized(6, 5, 5)
}

/// The pipelined engine, ungoverned and unfaulted, with explicit options.
fn pipelined(
    cfg: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    options: PipelineOptions,
) -> MiningResult {
    mine_pipelined_faulted(cfg, db, taxonomy, options, None, PipelineFaults::default())
        .unwrap()
        .result
}

/// Patterns, order, and supports must all match — not just as sets.
fn assert_streams_identical(serial: &MiningResult, other: &MiningResult, what: &str) {
    assert_eq!(
        serial.patterns.len(),
        other.patterns.len(),
        "{what}: pattern count"
    );
    for (i, (a, b)) in serial.patterns.iter().zip(&other.patterns).enumerate() {
        assert_eq!(a.graph.labels(), b.graph.labels(), "{what}: labels at {i}");
        assert_eq!(a.graph.edges(), b.graph.edges(), "{what}: edges at {i}");
        assert_eq!(
            a.support_count, b.support_count,
            "{what}: support at {i}"
        );
    }
    assert_eq!(serial.stats.classes, other.stats.classes, "{what}: classes");
    assert_eq!(
        serial.stats.enumeration.emitted, other.stats.enumeration.emitted,
        "{what}: emitted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pipelined_equals_serial_at_every_thread_count(
        (taxonomy, db) in arb_input(),
        theta in prop::sample::select(vec![1.0f64, 0.6, 0.4, 0.25]),
    ) {
        let cfg = TaxogramConfig::with_threshold(theta).max_edges(3);
        let serial = Taxogram::new(cfg).mine(&db, &taxonomy).unwrap();
        for threads in [1usize, 2, 8] {
            // clamp_to_cores off: the reorder buffer must be exercised
            // regardless of how many cores the test host has.
            let piped = pipelined(
                &cfg,
                &db,
                &taxonomy,
                PipelineOptions { threads, channel_capacity: 0, clamp_to_cores: false },
            );
            assert_streams_identical(&serial, &piped, &format!("pipelined t={threads}"));
        }
    }

    #[test]
    fn pipelined_survives_minimal_channel_capacity(
        (taxonomy, db) in arb_input(),
    ) {
        // Capacity 1 maximizes producer/worker interleavings: any
        // ordering bug in the reorder buffer shows up here first.
        let cfg = TaxogramConfig::with_threshold(0.4).max_edges(3);
        let serial = Taxogram::new(cfg).mine(&db, &taxonomy).unwrap();
        let piped = pipelined(
            &cfg,
            &db,
            &taxonomy,
            PipelineOptions { threads: 4, channel_capacity: 1, clamp_to_cores: false },
        );
        assert_streams_identical(&serial, &piped, "pipelined cap=1");
    }
}
