//! Micro-benchmarks for the design choices DESIGN.md calls out:
//!
//! * occurrence-set representation: dense bitsets (the paper's choice)
//!   versus adaptive Roaring-style containers, across set densities;
//! * generalized vs exact subgraph isomorphism cost (the paper's claim
//!   that generalized matching is "at least as hard");
//! * occurrence-index construction cost per embedding;
//! * fused intersection kernels vs their materialize-then-count
//!   equivalents (DESIGN.md §8), plus the adaptive containers against
//!   the retired sorted-vec gallop kernel on Roaring-favorable
//!   clustered operands (DESIGN.md §13);
//! * the serial engine vs the streaming pipelined engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tsg_bench::kernels::{baseline_gallop_count, clustered_members, oi_row_workload};
use tsg_bitset::{AdaptiveBitSet, BitSet};
use tsg_datagen::{generate_database, go_like_taxonomy_scaled, GraphGenConfig, LabelPool, Sizing};
use tsg_iso::{count_embeddings, ExactMatcher, GeneralizedMatcher};

/// Dense vs adaptive occurrence-set intersection at several densities.
fn occset_representation(c: &mut Criterion) {
    let universe = 20_000usize;
    let mut group = c.benchmark_group("occset_repr");
    for fill_permille in [5usize, 50, 500] {
        let step = 1000 / fill_permille.min(1000);
        let members_a: Vec<usize> = (0..universe).step_by(step.max(1)).collect();
        let members_b: Vec<usize> = (0..universe).skip(step / 2).step_by(step.max(1)).collect();
        let da = BitSet::from_iter_with_universe(universe, members_a.iter().copied());
        let db = BitSet::from_iter_with_universe(universe, members_b.iter().copied());
        let sa = AdaptiveBitSet::from_members(members_a);
        let sb = AdaptiveBitSet::from_members(members_b);
        group.bench_with_input(
            BenchmarkId::new("dense", fill_permille),
            &(&da, &db),
            |bench, (a, b)| bench.iter(|| a.intersection_count(b)),
        );
        group.bench_with_input(
            BenchmarkId::new("adaptive", fill_permille),
            &(&sa, &sb),
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

/// The Lemma 7 support kernel on an occurrence-index-shaped row, the
/// old skewed sparse∩sparse workload on both the retired sorted-vec
/// gallop and the adaptive dispatch, and the acceptance-criterion
/// comparison: adaptive containers vs the retired gallop kernel on
/// clustered operands with both sides ≥ 4096 members (bitmap/run
/// territory, where word-parallel AND should win by well over 2×).
fn fused_kernels(c: &mut Criterion) {
    let universe = 20_000usize;
    let mut group = c.benchmark_group("fused");
    // Lemma 7's unit of work: distinct graphs of an occurrence-index
    // row ∩ the working set.
    let (row, working, occ_graph) = oi_row_workload();
    group.bench_function("oi_row_distinct_graphs", |b| {
        b.iter(|| tsg_bitset::distinct_monotone_mapped_count(&row, &working, &occ_graph));
    });
    // Skewed sparse∩sparse: 64 members probing 20k. The retired kernel
    // keeps its historical name for BENCH continuity; the adaptive
    // dispatch runs the same operands (the 20k side is bitmap-encoded).
    let small_members: Vec<usize> = (0..universe).step_by(universe / 64).collect();
    let large_members: Vec<usize> = (0..universe).collect();
    let small: AdaptiveBitSet = small_members.iter().copied().collect();
    let large: AdaptiveBitSet = large_members.iter().copied().collect();
    group.bench_function("sparse_sparse_gallop", |b| {
        b.iter(|| baseline_gallop_count(&small_members, &large_members));
    });
    group.bench_function("adaptive_small_probe_large", |b| {
        b.iter(|| small.intersection_count(&large));
    });
    // Acceptance criterion: clustered, both sides ≥ 4096.
    let (ca, cb) = clustered_members();
    let ra: AdaptiveBitSet = ca.iter().copied().collect();
    let rb: AdaptiveBitSet = cb.iter().copied().collect();
    group.bench_function("roaring_clustered_count", |b| {
        b.iter(|| ra.intersection_count(&rb));
    });
    group.bench_function("gallop_baseline_clustered", |b| {
        b.iter(|| baseline_gallop_count(&ca, &cb));
    });
    group.finish();
}

/// The adaptive array×array dispatch against both forced kernels, in
/// both regimes it must cover: comparable sizes (linear merge should
/// win) and heavy skew (galloping should win). The ratio sweep brackets
/// the `GALLOP_RATIO = 16` crossover so a regression in either kernel —
/// or a misplaced threshold — shows up directly.
///
/// Every set here keeps per-chunk cardinality below `BITMAP_MIN` so the
/// containers stay arrays and the merge/gallop pair is actually what
/// runs; bigger sets would silently promote to bitmaps and measure a
/// different kernel.
fn sparse_intersection_regimes(c: &mut Criterion) {
    let universe = 65_536usize;
    let card = 4_000usize; // < ARRAY_MAX: one array container per set
    let mut group = c.benchmark_group("sparse_regimes");
    // Regime 1: comparable sizes (ratio 1): two ~4k-member arrays.
    let a: AdaptiveBitSet = (0..universe).step_by(16).take(card).collect();
    let b: AdaptiveBitSet = (8..universe)
        .step_by(16)
        .take(card / 2)
        .chain((0..universe).step_by(32).take(card / 2))
        .collect();
    group.bench_function("comparable/adaptive", |bench| {
        bench.iter(|| a.intersection_count(&b));
    });
    group.bench_function("comparable/merge", |bench| {
        bench.iter(|| a.intersection_count_merge(&b));
    });
    group.bench_function("comparable/gallop", |bench| {
        bench.iter(|| a.intersection_count_gallop(&b));
    });
    // Regime 2: heavy skew (ratio ~31): 128 members probing 4k.
    let small: AdaptiveBitSet = (0..universe).step_by(512).collect();
    let large: AdaptiveBitSet = (0..universe).step_by(16).take(card).collect();
    group.bench_function("skewed/adaptive", |bench| {
        bench.iter(|| small.intersection_count(&large));
    });
    group.bench_function("skewed/merge", |bench| {
        bench.iter(|| small.intersection_count_merge(&large));
    });
    group.bench_function("skewed/gallop", |bench| {
        bench.iter(|| small.intersection_count_gallop(&large));
    });
    // Ratio sweep across the crossover: the large side is fixed at 4k
    // members; the small side shrinks by the sweep ratio.
    let large: AdaptiveBitSet = (0..universe).step_by(16).take(card).collect();
    for ratio in [4usize, 8, 16, 32, 64] {
        let small: AdaptiveBitSet = (0..universe)
            .step_by(16 * ratio)
            .take(card / ratio)
            .collect();
        group.bench_with_input(
            BenchmarkId::new("sweep_merge", ratio),
            &(&small, &large),
            |bench, (s, l)| bench.iter(|| s.intersection_count_merge(l)),
        );
        group.bench_with_input(
            BenchmarkId::new("sweep_gallop", ratio),
            &(&small, &large),
            |bench, (s, l)| bench.iter(|| s.intersection_count_gallop(l)),
        );
    }
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
    sparse_intersection_regimes,
    engines
);
criterion_main!(micro);
