//! Dense bitsets tuned for the occurrence-set algebra of taxonomy-superimposed
//! graph mining (Taxogram, EDBT 2008).
//!
//! The Taxogram algorithm stores, for every taxonomy label covered by a
//! pattern node, the set of pattern occurrences (embeddings) observed under
//! that label. Support computation for a specialized pattern is then a single
//! set intersection (paper, Lemma 7), so the dominant operations are:
//!
//! * `insert` while occurrence indices are built (Step 2),
//! * `a ∩ b` fused with a count of the *distinct graphs* among its members
//!   while specialized patterns are enumerated (Step 3 — the paper's
//!   support is per-graph, not per-occurrence).
//!
//! [`BitSet`] is a plain `Vec<u64>`-backed fixed-universe bitset.
//! Occurrence sets live here: a class's occurrence universe is its
//! embedding count (hundreds to a few thousand on the benchmark
//! workloads), so one row is a few dozen words and every Lemma 7
//! intersection is a word-parallel AND. Deliberately minimal — no
//! compression, no rank/select. [`distinct_monotone_mapped_count`] is the
//! support kernel: the distinct graphs of `a ∩ b` under an ascending
//! embedding→graph map. The matcher's candidate sets (vertex ids of one
//! database graph) use the same type over `0..node_count`.

// tsg-lint: allow(index) — word indices are bit / 64 within the fixed universe the set was created with

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

const BITS: usize = u64::BITS as usize;

#[inline]
fn blocks_for(nbits: usize) -> usize {
    nbits.div_ceil(BITS)
}

/// A fixed-universe dense bitset over `0..len()`.
///
/// All binary operations require both operands to share the same universe
/// length; this is asserted in debug builds. Occurrence sets of a single
/// pattern class always share a universe (the class's occurrence count), so
/// the restriction never bites in practice and keeps the hot loops free of
/// bounds juggling.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct BitSet {
    blocks: Vec<u64>,
    /// Number of addressable bits (the universe size, *not* the population).
    nbits: usize,
}

impl BitSet {
    /// Creates an empty set over the universe `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            blocks: vec![0; blocks_for(nbits)],
            nbits,
        }
    }

    /// Creates a set over `0..nbits` with every bit set.
    pub fn full(nbits: usize) -> Self {
        let mut s = BitSet {
            blocks: vec![!0u64; blocks_for(nbits)],
            nbits,
        };
        s.trim_tail();
        s
    }

    /// Builds a set from an iterator of members. The universe must be given
    /// explicitly so that sets built from different member lists remain
    /// intersectable.
    pub fn from_iter_with_universe(nbits: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(nbits);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// The universe size (number of addressable bits).
    #[inline]
    pub fn universe(&self) -> usize {
        self.nbits
    }

    /// Clears bits beyond `nbits` in the last block (they must stay zero for
    /// `count_ones`/`is_empty` to be correct).
    #[inline]
    fn trim_tail(&mut self) {
        let rem = self.nbits % BITS;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts `bit`. Returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `bit >= universe()`.
    #[inline]
    pub fn insert(&mut self, bit: usize) -> bool {
        assert!(bit < self.nbits, "bit {bit} out of universe {}", self.nbits);
        let (b, m) = (bit / BITS, 1u64 << (bit % BITS));
        let fresh = self.blocks[b] & m == 0;
        self.blocks[b] |= m;
        fresh
    }

    /// Removes `bit`. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, bit: usize) -> bool {
        if bit >= self.nbits {
            return false;
        }
        let (b, m) = (bit / BITS, 1u64 << (bit % BITS));
        let present = self.blocks[b] & m != 0;
        self.blocks[b] &= !m;
        present
    }

    /// Membership test. Out-of-universe bits are reported absent.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        if bit >= self.nbits {
            return false;
        }
        self.blocks[bit / BITS] & (1u64 << (bit % BITS)) != 0
    }

    /// Population count.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `true` iff no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Heap bytes of the block vector: ⌈universe / 64⌉ words whatever the
    /// population.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.blocks[..])
    }

    /// Removes all members, keeping the universe.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    #[inline]
    fn check_same_universe(&self, other: &BitSet) {
        debug_assert_eq!(
            self.nbits, other.nbits,
            "bitset universe mismatch: {} vs {}",
            self.nbits, other.nbits
        );
    }

    /// `self ∩ other` as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        self.check_same_universe(other);
        BitSet {
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a & b)
                .collect(),
            nbits: self.nbits,
        }
    }

    /// Writes `self ∩ other` into `out`, re-targeting it to this universe
    /// and reusing its allocation — with a pooled `out`, the Step-3
    /// descent allocates nothing.
    pub fn intersection_into(&self, other: &BitSet, out: &mut BitSet) {
        self.check_same_universe(other);
        out.blocks.clear();
        out.blocks
            .extend(self.blocks.iter().zip(&other.blocks).map(|(a, b)| a & b));
        out.nbits = self.nbits;
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        self.check_same_universe(other);
        BitSet {
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a | b)
                .collect(),
            nbits: self.nbits,
        }
    }

    /// `self \ other` as a new set.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        self.check_same_universe(other);
        BitSet {
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a & !b)
                .collect(),
            nbits: self.nbits,
        }
    }

    /// In-place `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.check_same_universe(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        self.check_same_universe(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// `|self ∩ other|` without materializing the intersection.
    ///
    /// This is the hot operation of Taxogram's Step 3: every candidate
    /// specialization costs exactly one of these.
    #[inline]
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.check_same_universe(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `true` iff `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.check_same_universe(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` iff the sets share at least one member.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.check_same_universe(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> Ones<'_> {
        Ones {
            blocks: &self.blocks,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Collects the members into a vector (mostly for tests and display).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<usize> for BitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Ascending iterator over the members of a [`BitSet`].
pub struct Ones<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
        let t = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.block_idx * BITS + t)
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Ones<'a>;
    fn into_iter(self) -> Ones<'a> {
        self.iter()
    }
}

/// Counts the distinct values of `map[v]` over the members `v` of
/// `a ∩ b`, for a **non-decreasing** `map`.
///
/// Taxogram's support is the number of distinct **graphs** containing an
/// occurrence, while occurrence sets index **embeddings**; `map` is the
/// class's embedding→graph projection. Every engine numbers a class's
/// embeddings in ascending graph-id order, so equal graphs sit in one
/// contiguous run of occurrence ids and the distinct count is the number
/// of value changes along the ascending walk: one AND per word, set bits
/// visited by trailing-zero count, and no marking area to clear.
///
/// An unsorted `map` makes the result meaningless (a count of runs, not
/// of distinct values); callers establish the order once per map.
///
/// # Panics
/// Panics if some member of `a ∩ b` is out of bounds of `map`.
pub fn distinct_monotone_mapped_count(a: &BitSet, b: &BitSet, map: &[u32]) -> usize {
    a.check_same_universe(b);
    let mut n = 0;
    let mut last = u64::MAX;
    for (i, (x, y)) in a.blocks.iter().zip(&b.blocks).enumerate() {
        let mut w = x & y;
        while w != 0 {
            let g = u64::from(map[i * BITS + w.trailing_zeros() as usize]);
            n += usize::from(g != last);
            last = g;
            w &= w - 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_set_has_no_members() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.to_vec(), Vec::<usize>::new());
        assert!(!s.contains(0));
        assert!(!s.contains(99));
        assert!(!s.contains(1000));
    }

    #[test]
    fn zero_universe_is_fine() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.universe(), 0);
        assert_eq!(s.iter().count(), 0);
        let t = BitSet::full(0);
        assert!(t.is_empty());
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports not-fresh");
        assert_eq!(s.count_ones(), 4);
        assert_eq!(s.to_vec(), vec![0, 63, 64, 129]);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.remove(500), "out-of-universe remove is a no-op");
        assert_eq!(s.to_vec(), vec![0, 63, 129]);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn full_respects_universe_boundary() {
        let s = BitSet::full(70);
        assert_eq!(s.count_ones(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        // Exactly block-aligned universe.
        let t = BitSet::full(128);
        assert_eq!(t.count_ones(), 128);
    }

    #[test]
    fn intersection_count_matches_materialized() {
        let a = BitSet::from_iter_with_universe(200, [1, 5, 64, 65, 127, 199]);
        let b = BitSet::from_iter_with_universe(200, [5, 64, 100, 199]);
        assert_eq!(a.intersection_count(&b), 3);
        assert_eq!(a.intersection(&b).to_vec(), vec![5, 64, 199]);
    }

    #[test]
    fn set_algebra_small() {
        let a = BitSet::from_iter_with_universe(10, [1, 2, 3]);
        let b = BitSet::from_iter_with_universe(10, [3, 4]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 2]);
        assert!(!a.is_subset(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.intersects(&b));
        let c = BitSet::from_iter_with_universe(10, [7]);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn in_place_ops_match_functional_ones() {
        let a = BitSet::from_iter_with_universe(300, [0, 100, 200, 299]);
        let b = BitSet::from_iter_with_universe(300, [100, 299]);
        let mut c = a.clone();
        c.intersect_with(&b);
        assert_eq!(c, a.intersection(&b));
        let mut d = a.clone();
        d.union_with(&b);
        assert_eq!(d, a.union(&b));
    }

    #[test]
    fn distinct_monotone_mapped_count_counts_graphs_not_occurrences() {
        // Occurrences 0..6 live in graphs [0,0,1,1,2,2].
        let map = [0u32, 0, 1, 1, 2, 2];
        let set = BitSet::from_iter_with_universe(6, [0, 1, 2]);
        assert_eq!(distinct_monotone_mapped_count(&set, &set, &map), 2);
        let other = BitSet::from_iter_with_universe(6, [1, 5]);
        assert_eq!(distinct_monotone_mapped_count(&set, &other, &map), 1);
        let disjoint = BitSet::from_iter_with_universe(6, [3, 4]);
        assert_eq!(distinct_monotone_mapped_count(&set, &disjoint, &map), 0);
        // A graph whose occurrences straddle a word boundary counts once.
        let map: Vec<u32> = (0..130).map(|o| u32::from(o >= 60)).collect();
        let full = BitSet::full(130);
        assert_eq!(distinct_monotone_mapped_count(&full, &full, &map), 2);
    }

    #[test]
    fn distinct_monotone_mapped_count_edge_universes() {
        for universe in [0usize, 1, 63, 64, 65, 128, 130] {
            let full = BitSet::full(universe);
            let empty = BitSet::new(universe);
            let single = vec![7u32; universe];
            let distinct: Vec<u32> = (0..universe as u32).collect();
            assert_eq!(
                distinct_monotone_mapped_count(&full, &full, &single),
                usize::from(universe > 0)
            );
            assert_eq!(
                distinct_monotone_mapped_count(&full, &full, &distinct),
                universe
            );
            assert_eq!(distinct_monotone_mapped_count(&full, &empty, &distinct), 0);
        }
    }

    #[test]
    fn intersection_into_retargets_and_reuses() {
        let a = BitSet::from_iter_with_universe(130, [0, 64, 129]);
        let b = BitSet::from_iter_with_universe(130, [64, 100, 129]);
        let mut out = BitSet::from_iter_with_universe(300, [5, 299]);
        a.intersection_into(&b, &mut out);
        assert_eq!(out, a.intersection(&b));
        assert_eq!(out.universe(), 130);
    }

    #[test]
    fn heap_bytes_is_one_word_per_64_bits() {
        assert_eq!(BitSet::new(0).heap_bytes(), 0);
        assert_eq!(BitSet::new(1).heap_bytes(), 8);
        assert_eq!(BitSet::full(64).heap_bytes(), 8);
        assert_eq!(BitSet::new(65).heap_bytes(), 16);
        assert_eq!(BitSet::new(902).heap_bytes(), 15 * 8);
    }

    #[test]
    fn extend_collects_members() {
        let mut s = BitSet::new(8);
        s.extend([1usize, 3, 5]);
        assert_eq!(s.to_vec(), vec![1, 3, 5]);
    }

    #[test]
    fn debug_formats_as_set() {
        let s = BitSet::from_iter_with_universe(8, [1, 3]);
        assert_eq!(format!("{s:?}"), "{1, 3}");
    }

    fn model_and_bits(universe: usize) -> impl Strategy<Value = (BTreeSet<usize>, BitSet)> {
        prop::collection::btree_set(0..universe, 0..universe).prop_map(move |m| {
            let b = BitSet::from_iter_with_universe(universe, m.iter().copied());
            (m, b)
        })
    }

    proptest! {
        #[test]
        fn prop_matches_btreeset_model(
            (ma, a) in model_and_bits(257),
            (mb, b) in model_and_bits(257),
        ) {
            prop_assert_eq!(a.count_ones(), ma.len());
            prop_assert_eq!(a.to_vec(), ma.iter().copied().collect::<Vec<_>>());
            let inter: Vec<_> = ma.intersection(&mb).copied().collect();
            prop_assert_eq!(a.intersection(&b).to_vec(), inter.clone());
            prop_assert_eq!(a.intersection_count(&b), inter.len());
            let uni: Vec<_> = ma.union(&mb).copied().collect();
            prop_assert_eq!(a.union(&b).to_vec(), uni);
            let diff: Vec<_> = ma.difference(&mb).copied().collect();
            prop_assert_eq!(a.difference(&b).to_vec(), diff);
            prop_assert_eq!(a.is_subset(&b), ma.is_subset(&mb));
            prop_assert_eq!(a.intersects(&b), !ma.is_disjoint(&mb));
        }

        #[test]
        fn prop_intersection_is_commutative_and_idempotent(
            (_, a) in model_and_bits(200),
            (_, b) in model_and_bits(200),
        ) {
            prop_assert_eq!(a.intersection(&b), b.intersection(&a));
            prop_assert_eq!(a.intersection(&a), a.clone());
        }

        #[test]
        fn prop_distinct_monotone_mapped_count_matches_btreeset_projection(
            (_, a) in model_and_bits(193),
            (_, b) in model_and_bits(193),
            graphs in 1u32..=193,
        ) {
            // Universe 193 is off the 64-bit grid. `o * graphs / 193` is
            // non-decreasing with runs of every width: one graph at
            // `graphs` = 1, every occurrence its own graph at 193.
            let map: Vec<u32> = (0..193u32).map(|o| o * graphs / 193).collect();
            let want: BTreeSet<u32> = a.intersection(&b).iter().map(|o| map[o]).collect();
            prop_assert_eq!(distinct_monotone_mapped_count(&a, &b, &map), want.len());
        }
    }
}
