//! Micro-benchmarks for the design choices DESIGN.md calls out:
//!
//! * occurrence-set intersection on dense bitsets (the paper's choice)
//!   across set densities;
//! * generalized vs exact subgraph isomorphism cost (the paper's claim
//!   that generalized matching is "at least as hard");
//! * occurrence-index construction cost per embedding, the index build
//!   alone over every class of the same database, and Step 3 alone over
//!   prebuilt indices of a deep taxonomy;
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
    group.bench_function("oi_build", |b| {
        // The serial engine's Step 2 index builds at θ = 0.2, without the
        // class search: every class's embeddings are collected up front,
        // then each iteration indexes them all with one scratch, as one
        // mine does.
        let rel = taxogram_core::relabel::relabel(&db, &tax).unwrap();
        let min_support = db.min_support_count(0.2);
        let mut frequent = BitSet::new(rel.taxonomy.concept_count());
        for (i, &f) in rel.taxonomy.generalized_label_frequencies(&db).iter().enumerate() {
            if f >= min_support {
                frequent.insert(i);
            }
        }
        let classes = collect_classes(&rel.dmg, min_support, 5);
        let options = taxogram_core::oi::OiOptions {
            frequent: Some(&frequent),
            contract_equal_sets: true,
            predescend_roots: true,
        };
        b.iter(|| {
            let mut scratch = taxogram_core::oi::OiScratch::new();
            classes
                .iter()
                .map(|(skeleton, embeddings)| {
                    taxogram_core::oi::OccurrenceIndex::build_with_scratch(
                        embeddings,
                        &rel.originals,
                        skeleton.labels(),
                        &rel.taxonomy,
                        options,
                        &mut scratch,
                    )
                    .updates
                })
                .sum::<usize>()
        });
    });
    group.bench_function("enumerate", |b| {
        // The serial engine's Step 3 alone on the deep-taxonomy shape: TD15
        // (quick scale) at θ 0.3, ≤ 6 edges, every enhancement on. Every
        // class's index is built up front; each iteration enumerates them
        // all with one reused scratch, as one mine does.
        let ds = tsg_datagen::registry::build(
            tsg_datagen::registry::DatasetId::TD(15),
            tsg_bench::Profile::quick().scale,
        );
        let rel = taxogram_core::relabel::relabel(&ds.database, &ds.taxonomy).unwrap();
        let min_support = ds.database.min_support_count(0.3);
        let mut frequent = BitSet::new(rel.taxonomy.concept_count());
        for (i, &f) in rel.taxonomy.generalized_label_frequencies(&ds.database).iter().enumerate() {
            if f >= min_support {
                frequent.insert(i);
            }
        }
        let options = taxogram_core::oi::OiOptions {
            frequent: Some(&frequent),
            contract_equal_sets: true,
            predescend_roots: true,
        };
        let indexed: Vec<_> = collect_classes(&rel.dmg, min_support, 6)
            .into_iter()
            .map(|(skeleton, embeddings)| {
                let oi = taxogram_core::oi::OccurrenceIndex::build(
                    &embeddings,
                    &rel.originals,
                    skeleton.labels(),
                    &rel.taxonomy,
                    options,
                );
                (skeleton, oi)
            })
            .collect();
        let cfg = taxogram_core::Enhancements::all();
        let mut scratch = taxogram_core::enumerate::EnumScratch::new();
        b.iter(|| {
            indexed
                .iter()
                .map(|(skeleton, oi)| {
                    let mut emitted = 0usize;
                    taxogram_core::enumerate::enumerate_class_scratch(
                        skeleton,
                        oi,
                        &rel.taxonomy,
                        min_support,
                        ds.database.len(),
                        &cfg,
                        false,
                        &mut scratch,
                        |_| emitted += 1,
                    );
                    emitted
                })
                .sum::<usize>()
        });
    });
    group.finish();
}

/// Every frequent class of `db` with its skeleton (most-general labels)
/// and its embeddings, in gSpan's report order.
fn collect_classes(
    db: &tsg_graph::GraphDatabase,
    min_support: usize,
    max_edges: usize,
) -> Vec<(tsg_graph::LabeledGraph, Vec<tsg_gspan::Embedding>)> {
    struct Collect(Vec<(tsg_graph::LabeledGraph, Vec<tsg_gspan::Embedding>)>);
    impl tsg_gspan::PatternSink for Collect {
        fn report(&mut self, p: &tsg_gspan::MinedPattern<'_>) -> tsg_gspan::Grow {
            self.0.push((p.graph.clone(), p.embeddings.to_vec()));
            tsg_gspan::Grow::Continue
        }
    }
    let mut sink = Collect(Vec::new());
    tsg_gspan::GSpan::new(
        db,
        tsg_gspan::GSpanConfig {
            min_support,
            max_edges: Some(max_edges),
        },
    )
    .mine(&mut sink);
    sink.0
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
/// row ∩ the working set, counted over the class's graph-start row (bit
/// `o` set iff occurrence `o` opens a graph's run in the map).
fn fused_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused");
    let (row, working, occ_graph) = oi_row_workload();
    let starts = BitSet::from_iter_with_universe(
        occ_graph.len(),
        (0..occ_graph.len()).filter(|&o| o == 0 || occ_graph[o] != occ_graph[o - 1]),
    );
    group.bench_function("oi_row_distinct_graphs", |b| {
        b.iter(|| {
            tsg_bitset::distinct_run_count(
                std::hint::black_box(&row),
                std::hint::black_box(&working),
                std::hint::black_box(&starts),
            )
        });
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
