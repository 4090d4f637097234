//! Property tests for the per-step support modules on seeded
//! [`tsg_testkit`] inputs: Step 1 relabeling (`relabel`), the sharded
//! miner's run-level counters (`shard`), and the Srikant–Agrawal
//! R-interestingness filter (`interest`).
//!
//! The full-pipeline agreement suites already exercise these modules
//! end-to-end; the relations here pin down each module's own contract so
//! a regression localizes to the step that broke it.

use taxogram_core::interest::{r_interesting, score_pattern};
use taxogram_core::relabel::relabel;
use taxogram_core::{mine_sharded, ShardOptions, Taxogram, TaxogramConfig};
use tsg_testkit::gen::{case_count, cases, Case};
use tsg_testkit::metamorphic::MAX_EDGES;

const BASE_SEED: u64 = 0x7a78_6f67_7261_6d02;

fn sweep(what: &str, mut check: impl FnMut(&Case) -> Result<(), String>) {
    for c in cases(BASE_SEED, case_count(64)) {
        if let Err(msg) = check(&c) {
            panic!("{what} violated on seed {:#x}: {msg}", c.seed);
        }
    }
}

fn config(c: &Case) -> TaxogramConfig {
    TaxogramConfig::with_threshold(c.theta).max_edges(MAX_EDGES)
}

// ---------------------------------------------------------------- relabel

/// Step 1 contract: every vertex's new label is *the* most general
/// ancestor of its old one (unique after unification), the old labels are
/// preserved verbatim in `originals`, and the graph structure does not
/// move at all.
#[test]
fn relabel_maps_every_vertex_to_its_most_general_ancestor() {
    sweep("relabel/mga", |c| {
        let r = relabel(&c.db, &c.taxonomy).map_err(|e| e.to_string())?;
        for (gid, g) in c.db.iter() {
            let relabeled = &r.dmg[gid];
            if relabeled.edges() != g.edges() {
                return Err(format!("graph {gid}: edges changed"));
            }
            for (node, &orig) in g.labels().iter().enumerate() {
                if r.originals[gid][node] != orig {
                    return Err(format!("graph {gid} node {node}: original label lost"));
                }
                let mga = r
                    .taxonomy
                    .most_general_ancestor(orig)
                    .ok_or_else(|| format!("no unique mga for {orig:?} after unification"))?;
                if relabeled.label(node) != mga {
                    return Err(format!(
                        "graph {gid} node {node}: relabeled to {:?}, mga is {mga:?}",
                        relabeled.label(node)
                    ));
                }
            }
        }
        Ok(())
    });
}

/// Relabeling is idempotent: running Step 1 on `D_mg` (under the working
/// taxonomy) changes nothing — most-general ancestors are fixed points.
#[test]
fn relabel_is_idempotent() {
    sweep("relabel/idempotent", |c| {
        let once = relabel(&c.db, &c.taxonomy).map_err(|e| e.to_string())?;
        let twice = relabel(&once.dmg, &once.taxonomy).map_err(|e| e.to_string())?;
        for (gid, g) in once.dmg.iter() {
            if twice.dmg[gid].labels() != g.labels() {
                return Err(format!("graph {gid}: labels moved on second pass"));
            }
        }
        Ok(())
    });
}

// ------------------------------------------------------------------ shard

/// The sharded miner reports the *global* support floor and database
/// size at every shard count, never a shard's local ones. (Pattern
/// byte-identity is metamorphic relation 9; this pins the run-level
/// fields that relation does not compare.)
#[test]
fn sharded_mining_reports_the_global_support_floor() {
    sweep("shard/global-floor", |c| {
        let single = Taxogram::new(config(c))
            .mine(&c.db, &c.taxonomy)
            .map_err(|e| e.to_string())?;
        for shards in [1usize, 2, 3] {
            let options = ShardOptions {
                shards,
                ..ShardOptions::default()
            };
            let sharded = mine_sharded(&config(c), &c.db, &c.taxonomy, &options)
                .map_err(|e| e.to_string())?
                .result;
            if sharded.min_support_count != single.min_support_count {
                return Err(format!(
                    "P={shards}: support floor {} vs {}",
                    sharded.min_support_count, single.min_support_count
                ));
            }
            if sharded.database_size != single.database_size {
                return Err(format!(
                    "P={shards}: database size {} vs {}",
                    sharded.database_size, single.database_size
                ));
            }
        }
        Ok(())
    });
}

// --------------------------------------------------------------- interest

/// The R-interestingness filter is monotone in `r`: `r = 0` keeps every
/// mined pattern, raising `r` only removes patterns, and the survivor set
/// at a higher `r` is a subset of the survivor set at any lower `r`.
#[test]
fn interest_filter_is_monotone_in_r() {
    sweep("interest/monotone", |c| {
        let mined = Taxogram::new(config(c))
            .mine(&c.db, &c.taxonomy)
            .map_err(|e| e.to_string())?;
        let mut previous = mined.patterns.len();
        let all = r_interesting(&mined.patterns, &c.db, &c.taxonomy, 0.0);
        if all.len() != mined.patterns.len() {
            return Err(format!(
                "r=0 kept {} of {} patterns",
                all.len(),
                mined.patterns.len()
            ));
        }
        for r in [0.5, 1.0, 1.5, 10.0] {
            let kept = r_interesting(&mined.patterns, &c.db, &c.taxonomy, r);
            if kept.len() > previous {
                return Err(format!("r={r}: {} survivors > {previous} at lower r", kept.len()));
            }
            for (_, score) in &kept {
                if !score.is_interesting(r) {
                    return Err(format!("r={r}: filter kept an uninteresting score"));
                }
            }
            previous = kept.len();
        }
        Ok(())
    });
}

/// Patterns labeled entirely by root concepts have no one-step
/// generalization, so they are vacuously interesting at every factor.
#[test]
fn root_only_patterns_are_vacuously_interesting() {
    sweep("interest/root-vacuous", |c| {
        let mined = Taxogram::new(config(c))
            .mine(&c.db, &c.taxonomy)
            .map_err(|e| e.to_string())?;
        let freq = c.taxonomy.generalized_label_frequencies(&c.db);
        for p in &mined.patterns {
            let root_only = p
                .graph
                .labels()
                .iter()
                .all(|&l| c.taxonomy.parents(l).is_empty());
            let score = score_pattern(p, &c.db, &c.taxonomy, &freq);
            if root_only && score.min_ratio.is_some() {
                return Err(format!(
                    "root-only pattern {:?} got ratio {:?}",
                    p.graph.labels(),
                    score.min_ratio
                ));
            }
            if root_only && !score.is_interesting(f64::MAX) {
                return Err("vacuous pattern rejected".into());
            }
        }
        Ok(())
    });
}
