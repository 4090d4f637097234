//! Micro-benchmarks for the design choices DESIGN.md calls out:
//!
//! * occurrence-set intersection on dense bitsets (the paper's choice)
//!   across set densities;
//! * generalized vs exact subgraph isomorphism cost (the paper's claim
//!   that generalized matching is "at least as hard");
//! * occurrence-index construction cost per embedding;
//! * the fused Lemma 7 support kernel on an occurrence-index-shaped row
//!   (DESIGN.md §8);
//! * the serial engine vs the streaming pipelined engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tsg_bitset::BitSet;
use tsg_datagen::{generate_database, go_like_taxonomy_scaled, GraphGenConfig, LabelPool, Sizing};
use tsg_iso::{count_embeddings, ExactMatcher, GeneralizedMatcher};

/// Dense occurrence-set intersection at several densities.
fn occset_representation(c: &mut Criterion) {
    let universe = 20_000usize;
    let mut group = c.benchmark_group("occset_repr");
    for fill_permille in [5usize, 50, 500] {
        let step = 1000 / fill_permille.min(1000);
        let members_a: Vec<usize> = (0..universe).step_by(step.max(1)).collect();
        let members_b: Vec<usize> = (0..universe).skip(step / 2).step_by(step.max(1)).collect();
        let da = BitSet::from_iter_with_universe(universe, members_a.iter().copied());
        let db = BitSet::from_iter_with_universe(universe, members_b.iter().copied());
        group.bench_with_input(
            BenchmarkId::new("dense", fill_permille),
            &(&da, &db),
            |bench, (a, b)| bench.iter(|| a.intersection_count(b)),
        );
    }
    group.finish();
}

/// Exact vs generalized subgraph isomorphism on the same workload.
fn iso_cost(c: &mut Criterion) {
    let tax = go_like_taxonomy_scaled(200);
    let db = generate_database(
        &tax,
        &GraphGenConfig {
            graph_count: 50,
            max_edges: 15,
            edge_density: 0.25,
            sizing: Sizing::EdgeDriven,
            edge_labels: 4,
            label_pool: LabelPool::ByLevelUniform,
            directed: false,
            seed: 3,
        },
    );
    // A small pattern: first graph's first two edges, relabeled to roots
    // for the generalized case.
    let pattern = db.graph(0).induced_subgraph(&[0, 1, 2]);
    let mut general = pattern.clone();
    for v in 0..general.node_count() {
        let mga = tax.most_general_ancestor(general.label(v)).unwrap();
        general.set_label(v, mga);
    }
    let mut group = c.benchmark_group("iso_cost");
    group.bench_function("exact", |b| {
        b.iter(|| {
            db.iter()
                .map(|(_, g)| count_embeddings(&pattern, g, &ExactMatcher))
                .sum::<usize>()
        });
    });
    let gm = GeneralizedMatcher::new(&tax);
    group.bench_function("generalized", |b| {
        b.iter(|| {
            db.iter()
                .map(|(_, g)| count_embeddings(&general, g, &gm))
                .sum::<usize>()
        });
    });
    group.finish();
}

/// gSpan alone vs the full Taxogram pipeline on the relabeled database —
/// the overhead of occurrence-index construction and specialization.
fn pipeline_overhead(c: &mut Criterion) {
    let tax = go_like_taxonomy_scaled(400);
    let db = generate_database(
        &tax,
        &GraphGenConfig {
            graph_count: 60,
            max_edges: 12,
            edge_density: 0.25,
            sizing: Sizing::EdgeDriven,
            edge_labels: 10,
            label_pool: LabelPool::ByLevelUniform,
            directed: false,
            seed: 4,
        },
    );
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("gspan_on_dmg_only", |b| {
        let rel = taxogram_core::relabel::relabel(&db, &tax).unwrap();
        b.iter(|| tsg_gspan::mine_frequent(&rel.dmg, 12, Some(5)).len());
    });
    group.bench_function("full_taxogram", |b| {
        let cfg = taxogram_core::TaxogramConfig::with_threshold(0.2).max_edges(5);
        b.iter(|| {
            taxogram_core::Taxogram::new(cfg)
                .mine(&db, &tax)
                .unwrap()
                .patterns
                .len()
        });
    });
    group.finish();
}

/// An occurrence-index-shaped Step 3 operand pair: a class of 2,048
/// occurrences over ~1,576 graphs (≈1.3 occurrences per graph, ascending
/// like every engine's embeddings), one label row holding every third
/// occurrence, and a working set holding three occurrences in four.
/// Returns `(row, working set, occurrence→graph map)`.
fn oi_row_workload() -> (BitSet, BitSet, Vec<u32>) {
    let universe = 2048usize;
    let occ_graph: Vec<u32> = (0..universe as u32).map(|o| o * 10 / 13).collect();
    let row = BitSet::from_iter_with_universe(universe, (0..universe).step_by(3));
    let working = BitSet::from_iter_with_universe(universe, (0..universe).filter(|o| o % 4 != 0));
    (row, working, occ_graph)
}

/// The Lemma 7 support kernel: distinct graphs of an occurrence-index
/// row ∩ the working set.
fn fused_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused");
    let (row, working, occ_graph) = oi_row_workload();
    group.bench_function("oi_row_distinct_graphs", |b| {
        b.iter(|| tsg_bitset::distinct_monotone_mapped_count(&row, &working, &occ_graph));
    });
    group.finish();
}

/// Serial vs pipelined engine, end to end.
fn engines(c: &mut Criterion) {
    let ds = tsg_datagen::registry::build(
        tsg_datagen::registry::DatasetId::D(1000),
        tsg_bench::Profile::quick().scale,
    );
    let cfg = taxogram_core::TaxogramConfig::with_threshold(0.2).max_edges(5);
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("serial", |b| {
        b.iter(|| {
            taxogram_core::Taxogram::new(cfg)
                .mine(&ds.database, &ds.taxonomy)
                .unwrap()
                .patterns
                .len()
        });
    });
    for threads in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("pipelined", threads), &threads, |b, &t| {
            b.iter(|| {
                taxogram_core::mine_pipelined(&cfg, &ds.database, &ds.taxonomy, t)
                    .unwrap()
                    .patterns
                    .len()
            });
        });
    }
    group.finish();
}

criterion_group!(
    micro,
    occset_representation,
    iso_cost,
    pipeline_overhead,
    fused_kernels,
    engines
);
criterion_main!(micro);
