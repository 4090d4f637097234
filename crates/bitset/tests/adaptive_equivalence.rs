//! Seeded equivalence suite: [`AdaptiveBitSet`] against reference
//! models — `BTreeSet<usize>` for exact member semantics — over every
//! public operation, including in-place mutation across the array↔bitmap
//! promotion boundary and run-container coalescing/splitting.
//!
//! Member lists and mutation scripts come from the shared
//! [`tsg_testkit::gen`] strategies ([`arb_members`], [`arb_set_ops`]),
//! so the shapes that stress the containers (chunk-edge values, runs
//! straddling the 4096-member promotion threshold) are generated in one
//! canonical place. Deterministic under `PROPTEST_RNG_SEED`, scaled by
//! `PROPTEST_CASES` (CI's deep stage runs 256).

use proptest::prelude::*;
use std::collections::BTreeSet;
use tsg_bitset::{AdaptiveBitSet, ARRAY_MAX, BITMAP_MIN};
use tsg_testkit::gen::{arb_members, arb_set_ops};

/// Two chunks plus a partial third, so chunk-crossing paths run.
const UNIVERSE: usize = 150_000;

fn model_of(members: &[usize]) -> BTreeSet<usize> {
    members.iter().copied().collect()
}

fn assert_matches_model(set: &AdaptiveBitSet, model: &BTreeSet<usize>, ctx: &str) {
    assert_eq!(set.len(), model.len(), "{ctx}: cardinality");
    assert!(
        set.iter().eq(model.iter().copied()),
        "{ctx}: member sequence diverges from model"
    );
}

proptest! {
    #[test]
    fn construction_and_queries_match_model(members in arb_members(UNIVERSE)) {
        let model = model_of(&members);
        let set = AdaptiveBitSet::from_members(members.clone());
        assert_matches_model(&set, &model, "from_members");
        prop_assert_eq!(set.is_empty(), model.is_empty());
        // Probe membership around every member and both chunk edges.
        for &v in model.iter().take(64) {
            prop_assert!(set.contains(v));
            prop_assert_eq!(set.contains(v + 1), model.contains(&(v + 1)));
        }
        prop_assert_eq!(set.contains(UNIVERSE + 5), false);
        // optimize() may re-encode containers but never changes members.
        let mut opt = set.clone();
        opt.optimize();
        assert_matches_model(&opt, &model, "optimize");
        prop_assert_eq!(&opt, &set);
        prop_assert_eq!(set.to_vec(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn pairwise_algebra_matches_model(
        a in arb_members(UNIVERSE),
        b in arb_members(UNIVERSE),
    ) {
        let (ma, mb) = (model_of(&a), model_of(&b));
        let sa = AdaptiveBitSet::from_members(a);
        let mut sb = AdaptiveBitSet::from_members(b);
        sb.optimize(); // one side re-encoded: kernels must not care

        let inter: BTreeSet<usize> = ma.intersection(&mb).copied().collect();
        assert_matches_model(&sa.intersection(&sb), &inter, "intersection");
        prop_assert_eq!(sa.intersection_count(&sb), inter.len());
        prop_assert_eq!(sa.intersection_count_merge(&sb), inter.len());
        prop_assert_eq!(sa.intersection_count_gallop(&sb), inter.len());
        let mut seen = Vec::new();
        sa.for_each_in_intersection(&sb, |v| seen.push(v));
        prop_assert_eq!(seen, inter.iter().copied().collect::<Vec<_>>());

        let union: BTreeSet<usize> = ma.union(&mb).copied().collect();
        let mut su = sa.clone();
        su.union_with(&sb);
        assert_matches_model(&su, &union, "union_with");

        let diff: BTreeSet<usize> = ma.difference(&mb).copied().collect();
        assert_matches_model(&sa.difference(&sb), &diff, "difference");

        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sa.is_subset(&su), true);
        prop_assert_eq!(sa.intersects(&sb), !inter.is_empty());
    }

    #[test]
    fn mutation_scripts_match_model(
        seed_members in arb_members(UNIVERSE),
        ops in arb_set_ops(UNIVERSE, 512),
    ) {
        let mut model = model_of(&seed_members);
        let mut set = AdaptiveBitSet::from_members(seed_members);
        for (i, &(insert, v)) in ops.iter().enumerate() {
            if insert {
                prop_assert_eq!(set.insert(v), model.insert(v), "insert {v}");
            } else {
                prop_assert_eq!(set.remove(v), model.remove(&v), "remove {v}");
            }
            // Re-encode mid-script sometimes: later mutations then hit
            // run containers, exercising coalesce/split-in-place.
            if i % 128 == 127 {
                set.optimize();
            }
        }
        assert_matches_model(&set, &model, "after mutation script");
    }

    #[test]
    fn to_dense_matches_model(members in arb_members(UNIVERSE)) {
        let model = model_of(&members);
        let set = AdaptiveBitSet::from_members(members);
        prop_assert_eq!(
            set.to_dense(UNIVERSE).to_vec(),
            model.iter().copied().collect::<Vec<_>>()
        );
    }
}

/// The 4095↔4096 promotion/demotion boundary, walked exactly: inserts
/// promote the chunk's array to a bitmap at `BITMAP_MIN` members, one
/// removal demotes it back, and membership is model-exact on both sides.
#[test]
fn promotion_boundary_roundtrip_matches_model() {
    let mut model = BTreeSet::new();
    let mut set = AdaptiveBitSet::new();
    // Spread: every 16th value keeps us in one chunk (4096·16 = 65536).
    for i in 0..BITMAP_MIN {
        let v = i * 16;
        assert!(set.insert(v));
        model.insert(v);
        if i == ARRAY_MAX - 1 || i == ARRAY_MAX || i == BITMAP_MIN - 1 {
            assert_matches_model(&set, &model, &format!("growing through {i}"));
        }
    }
    assert_eq!(set.len(), BITMAP_MIN);
    // Demote: drop back below the threshold and re-check everything.
    for i in (ARRAY_MAX - 2..BITMAP_MIN).rev() {
        let v = i * 16;
        assert!(set.remove(v));
        model.remove(&v);
        assert_matches_model(&set, &model, &format!("shrinking through {i}"));
    }
    // And the set still mutates correctly post-demotion.
    assert!(set.insert(7));
    model.insert(7);
    assert_matches_model(&set, &model, "post-demotion insert");
}

/// Run containers under mutation: a coalesced run splits on interior
/// removal, glues back on re-insertion, and extends at both edges —
/// always agreeing with the model.
#[test]
fn run_container_coalescing_matches_model() {
    let members: Vec<usize> = (1000..3000).chain(5000..5100).collect();
    let mut model = model_of(&members);
    let mut set = AdaptiveBitSet::from_members(members);
    set.optimize(); // contiguous blocks: run-encoded

    for v in [2000usize, 1000, 2999, 5050] {
        assert!(set.remove(v), "remove {v}");
        model.remove(&v);
        assert_matches_model(&set, &model, &format!("run split at {v}"));
    }
    for v in [2000usize, 999, 3000, 5100] {
        assert!(set.insert(v), "insert {v}");
        model.insert(v);
        assert_matches_model(&set, &model, &format!("run glue at {v}"));
    }
}
