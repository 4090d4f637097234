//! Bitset algebra checked against naive set computations on occurrence
//! sets derived from seeded [`tsg_testkit`] databases — the exact shape
//! the mining kernels feed through these primitives.

use std::collections::BTreeSet;
use tsg_bitset::{distinct_monotone_mapped_count, BitSet};
use tsg_graph::NodeLabel;
use tsg_testkit::gen::{case_count, cases};

const BASE_SEED: u64 = 0x7a78_6f67_7261_6d04;

/// Graphs (by id) whose vertex labels include `label`.
fn occurrence_set(c: &tsg_testkit::Case, label: NodeLabel) -> (BitSet, BTreeSet<usize>) {
    let mut bits = BitSet::new(c.db.len());
    let mut naive = BTreeSet::new();
    for (gid, g) in c.db.iter() {
        if g.labels().contains(&label) {
            bits.insert(gid);
            naive.insert(gid);
        }
    }
    (bits, naive)
}

#[test]
fn occurrence_algebra_matches_naive_sets() {
    for c in cases(BASE_SEED, case_count(64)) {
        let concepts = c.taxonomy.concept_count();
        let sets: Vec<_> = (0..concepts)
            .map(|l| occurrence_set(&c, NodeLabel(l as u32)))
            .collect();
        for (a_bits, a_naive) in &sets {
            assert_eq!(a_bits.count_ones(), a_naive.len());
            assert_eq!(&a_bits.to_vec(), &a_naive.iter().copied().collect::<Vec<_>>());
            for (b_bits, b_naive) in &sets {
                let want: BTreeSet<_> = a_naive.intersection(b_naive).copied().collect();
                assert_eq!(a_bits.intersection_count(b_bits), want.len());
                assert_eq!(a_bits.intersection(b_bits).to_vec(), want.iter().copied().collect::<Vec<_>>());
                let union: BTreeSet<_> = a_naive.union(b_naive).copied().collect();
                assert_eq!(a_bits.union(b_bits).count_ones(), union.len());
                assert_eq!(a_bits.is_subset(b_bits), a_naive.is_subset(b_naive));
                assert_eq!(a_bits.intersects(b_bits), !want.is_empty());
            }
        }
    }
}

#[test]
fn distinct_monotone_mapped_count_matches_naive_projection() {
    // Map each graph id to a coarser group (id / 2): non-decreasing, the
    // shape of a class's embedding→graph projection.
    for c in cases(BASE_SEED ^ 1, case_count(64)) {
        let map: Vec<u32> = (0..c.db.len() as u32).map(|g| g / 2).collect();
        let sets: Vec<_> = (0..c.taxonomy.concept_count())
            .map(|l| occurrence_set(&c, NodeLabel(l as u32)))
            .collect();
        for (l, (a_bits, a_naive)) in sets.iter().enumerate() {
            for (b_bits, b_naive) in &sets {
                let want: BTreeSet<_> = a_naive.intersection(b_naive).map(|&g| map[g]).collect();
                assert_eq!(
                    distinct_monotone_mapped_count(a_bits, b_bits, &map),
                    want.len(),
                    "seed {:#x} label {l}",
                    c.seed
                );
            }
        }
    }
}
