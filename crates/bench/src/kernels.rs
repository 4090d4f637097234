//! Shared kernel-timing workloads and the retired sorted-vec baseline.
//!
//! Three consumers time exactly the same workloads so their numbers are
//! comparable: the `bench_snapshot` binary (dated `BENCH_<date>.json`
//! records), the `kernel_gate` binary (the CI kernel-regression stage,
//! which re-times the set and compares against the newest recorded
//! snapshot), and the criterion `fused` group (statistical timing).
//!
//! The baseline kernels here are the former two-representation sparse
//! set's merge/gallop intersection, preserved verbatim over sorted
//! `usize` slices after the representation itself was replaced by the
//! adaptive containers — they exist so "adaptive vs the old kernel"
//! stays a measurable comparison from one snapshot to the next, not a
//! claim about deleted code.

use std::time::Instant;
use tsg_bitset::{distinct_monotone_mapped_count, AdaptiveBitSet, BitSet};

/// Median ns/iter over `samples` batches of `batch` calls each.
pub fn median_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    // Warm up caches and scratch pools.
    for _ in 0..batch {
        f();
    }
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    per_iter[per_iter.len() / 2]
}

/// The retired linear two-pointer merge over sorted `usize` slices
/// (regression baseline).
pub fn baseline_merge_count(a: &[usize], b: &[usize]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The retired galloping intersection over sorted `usize` slices
/// (regression baseline): for each member of the smaller side,
/// exponential-probe forward in the shrinking tail of the larger side,
/// then binary-search the bracketed window.
pub fn baseline_gallop_count(a: &[usize], b: &[usize]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut rest: &[usize] = large;
    let mut n = 0;
    for &v in small {
        let i = if rest.first().is_none_or(|&x| x >= v) {
            0
        } else {
            let mut hi = 1usize;
            while hi < rest.len() && rest[hi] < v {
                hi <<= 1;
            }
            let lo = hi >> 1;
            let hi = hi.min(rest.len());
            lo + rest[lo..hi].partition_point(|&x| x < v)
        };
        if i == rest.len() {
            break;
        }
        rest = &rest[i..];
        if rest[0] == v {
            n += 1;
            rest = &rest[1..];
            if rest.is_empty() {
                break;
            }
        }
    }
    n
}

/// The Roaring-favorable clustered workload of the acceptance criterion:
/// two sets of well over 4096 members each, clustered into contiguous
/// blocks with partial overlap (occurrence ids cluster by graph, so this
/// is the realistic shape). Returns the two member lists.
pub fn clustered_members() -> (Vec<usize>, Vec<usize>) {
    // 16 blocks of 8192 ids; `a` takes the first 3000 of each block, `b`
    // a 3000-wide window shifted by 1500 → 1500 common members per block.
    let block = 8192usize;
    let mut a = Vec::new();
    let mut b = Vec::new();
    for k in 0..16 {
        let base = k * block;
        a.extend(base..base + 3000);
        b.extend(base + 1500..base + 4500);
    }
    (a, b)
}

/// An occurrence-index-shaped Step 3 operand pair: a class of 2,048
/// occurrences over ~1,576 graphs (≈1.3 occurrences per graph, ascending
/// like every engine's embeddings), one label row holding every third
/// occurrence, and a working set holding three occurrences in four.
/// Returns `(row, working set, occurrence→graph map)`.
pub fn oi_row_workload() -> (BitSet, BitSet, Vec<u32>) {
    let universe = 2048usize;
    let occ_graph: Vec<u32> = (0..universe as u32).map(|o| o * 10 / 13).collect();
    let row = BitSet::from_iter_with_universe(universe, (0..universe).step_by(3));
    let working = BitSet::from_iter_with_universe(universe, (0..universe).filter(|o| o % 4 != 0));
    (row, working, occ_graph)
}

/// Times the hot-kernel set: `(name, median ns)` rows, identical between
/// `bench_snapshot` (which records them) and `kernel_gate` (which checks
/// them against the record).
pub fn kernel_medians() -> Vec<(&'static str, f64)> {
    let (row, working, occ_graph) = oi_row_workload();
    let universe = 20_000usize;
    let small_members: Vec<usize> = (0..universe).step_by(universe / 64).collect();
    let large_members: Vec<usize> = (0..universe).collect();
    let small: AdaptiveBitSet = small_members.iter().copied().collect();
    let large: AdaptiveBitSet = large_members.iter().copied().collect();
    let (ca, cb) = clustered_members();
    let ra: AdaptiveBitSet = ca.iter().copied().collect();
    let rb: AdaptiveBitSet = cb.iter().copied().collect();

    vec![
        // Lemma 7's unit of work on an occurrence-index-shaped row.
        (
            "oi_row_distinct_graphs",
            median_ns(31, 200, || {
                std::hint::black_box(distinct_monotone_mapped_count(&row, &working, &occ_graph));
            }),
        ),
        // The old two-representation kernel on its old workload (64
        // members galloping over 20k), kept timing-comparable across the
        // representation change…
        (
            "sparse_sparse_gallop",
            median_ns(31, 200, || {
                std::hint::black_box(baseline_gallop_count(&small_members, &large_members));
            }),
        ),
        // …and the adaptive dispatch on the same workload (the large side
        // is a bitmap container; the small side probes it).
        (
            "adaptive_small_probe_large",
            median_ns(31, 200, || {
                std::hint::black_box(small.intersection_count(&large));
            }),
        ),
        // Roaring-favorable clustered ≥4096×≥4096 (acceptance criterion:
        // adaptive must beat the baseline gallop ≥2× here).
        (
            "adaptive_clustered_count",
            median_ns(31, 50, || {
                std::hint::black_box(ra.intersection_count(&rb));
            }),
        ),
        (
            "gallop_baseline_clustered",
            median_ns(31, 50, || {
                std::hint::black_box(baseline_gallop_count(&ca, &cb));
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_agree_with_adaptive() {
        let (ca, cb) = clustered_members();
        let ra: AdaptiveBitSet = ca.iter().copied().collect();
        let rb: AdaptiveBitSet = cb.iter().copied().collect();
        let want = ra.intersection_count(&rb);
        assert_eq!(baseline_gallop_count(&ca, &cb), want);
        assert_eq!(baseline_merge_count(&ca, &cb), want);
        assert_eq!(want, 16 * 1500, "1500 overlapping ids per block");
        assert!(ca.len() >= 4096 && cb.len() >= 4096);
    }
}
