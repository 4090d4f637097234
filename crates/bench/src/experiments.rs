//! One function per table/figure of §4. Every function returns structured
//! rows so callers can print, assert, or bench them.

use crate::profile::Profile;
use std::time::Instant;
use taxogram_core::{Enhancements, GovernOptions, MiningOutcome, MiningResult, Taxogram, TaxogramConfig};
use tsg_datagen::registry::{build, table1_ids, DatasetId};
use tsg_datagen::{go_like_taxonomy_scaled, pathway_corpus, GO_CONCEPTS};
use tsg_graph::{DatabaseStats, GraphDatabase};
use tsg_tacgm::{TacgmConfig, TacgmError};
use tsg_taxonomy::Taxonomy;

/// Wall-clock timing of a closure, in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64() * 1000.0)
}

/// Runs Taxogram with the given enhancements; returns the result and ms.
pub fn run_taxogram(
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    theta: f64,
    profile: &Profile,
    enhancements: Enhancements,
) -> (MiningResult, f64) {
    run_taxogram_threads(db, taxonomy, theta, profile, enhancements, 1)
}

/// [`run_taxogram`] on `threads` workers: the serial miner for
/// `threads <= 1`, the streaming pipelined engine otherwise.
pub fn run_taxogram_threads(
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    theta: f64,
    profile: &Profile,
    enhancements: Enhancements,
    threads: usize,
) -> (MiningResult, f64) {
    let mut cfg = TaxogramConfig::with_threshold(theta);
    cfg.max_edges = profile.max_edges;
    cfg.enhancements = enhancements;
    let (r, t) = time_ms(|| {
        if threads <= 1 {
            Taxogram::new(cfg).mine(db, taxonomy).expect("valid input")
        } else {
            taxogram_core::mine_pipelined(&cfg, db, taxonomy, threads).expect("valid input")
        }
    });
    (r, t)
}

/// Runs TAcGM under the profile's memory budget; `Err` carries the
/// out-of-memory (or other) failure message, mirroring the paper's
/// "TAcGM does not run for this data set" annotations.
pub fn run_tacgm(
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    theta: f64,
    profile: &Profile,
) -> Result<(usize, f64), String> {
    let mut cfg = TacgmConfig::with_threshold(theta).memory_budget(profile.tacgm_budget_bytes);
    cfg.max_edges = profile.max_edges;
    let start = Instant::now();
    match tsg_tacgm::mine(db, taxonomy, &cfg) {
        Ok(r) => Ok((r.patterns.len(), start.elapsed().as_secs_f64() * 1000.0)),
        Err(TacgmError::MemoryBudgetExceeded { level, .. }) => {
            Err(format!("out-of-memory (level {level})"))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// One row of the three-algorithm comparisons (Figures 4.2, 4.3).
#[derive(Debug)]
pub struct AlgoRow {
    /// Dataset label (e.g. `D1000`).
    pub label: String,
    /// Taxogram running time (ms).
    pub taxogram_ms: f64,
    /// Baseline (enhancements off) running time (ms).
    pub baseline_ms: f64,
    /// TAcGM time (ms) or failure reason.
    pub tacgm: Result<f64, String>,
    /// Final pattern count (identical across algorithms that complete).
    pub patterns: usize,
}

/// One row of the time+pattern-count figures (4.4, 4.5, 4.6, 4.8).
#[derive(Debug)]
pub struct CountRow {
    /// X-axis label (density, depth, concept count, or support).
    pub label: String,
    /// Taxogram running time (ms).
    pub time_ms: f64,
    /// Number of produced patterns.
    pub patterns: usize,
}

const THETA: f64 = 0.2;

fn algo_row(id: DatasetId, theta: f64, profile: &Profile, threads: usize) -> AlgoRow {
    let ds = build(id, profile.scale);
    let (full, t_full) =
        run_taxogram_threads(&ds.database, &ds.taxonomy, theta, profile, Enhancements::all(), threads);
    let (_, t_base) = run_taxogram(&ds.database, &ds.taxonomy, theta, profile, Enhancements::none());
    let tacgm = run_tacgm(&ds.database, &ds.taxonomy, theta, profile).map(|(_, t)| t);
    AlgoRow {
        label: id.to_string(),
        taxogram_ms: t_full,
        baseline_ms: t_base,
        tacgm,
        patterns: full.patterns.len(),
    }
}

/// Figure 4.2: running time vs database size (D1000–D5000), θ = 0.2.
/// The Taxogram column runs on `threads` workers (1 = serial, as in the
/// paper; more = pipelined engine).
pub fn fig4_2(profile: &Profile, threads: usize) -> Vec<AlgoRow> {
    [1000, 2000, 3000, 4000, 5000]
        .into_iter()
        .map(|n| algo_row(DatasetId::D(n), THETA, profile, threads))
        .collect()
}

/// Figure 4.3: running time vs max graph size (NC10–NC40), θ = 0.2.
pub fn fig4_3(profile: &Profile) -> Vec<AlgoRow> {
    [10, 20, 30, 40]
        .into_iter()
        .map(|m| algo_row(DatasetId::NC(m), THETA, profile, 1))
        .collect()
}

/// Figure 4.4: Taxogram running time and pattern count vs edge density
/// (ED06–ED11), θ = 0.2.
pub fn fig4_4(profile: &Profile) -> Vec<CountRow> {
    [0.06, 0.09, 0.10, 0.11]
        .into_iter()
        .map(|d| {
            let ds = build(DatasetId::ED(d), profile.scale);
            let (r, t) =
                run_taxogram(&ds.database, &ds.taxonomy, THETA, profile, Enhancements::all());
            CountRow {
                label: format!("{d:.2}"),
                time_ms: t,
                patterns: r.patterns.len(),
            }
        })
        .collect()
}

/// Figure 4.5: running time and pattern count vs taxonomy depth
/// (TD5–TD15), θ = 0.2. (The paper reports TAcGM out-of-memory on every
/// TD dataset; [`run_tacgm`] reproduces that under the profile budget.)
pub fn fig4_5(profile: &Profile) -> Vec<CountRow> {
    (5..=15)
        .map(|k| {
            let ds = build(DatasetId::TD(k), profile.scale);
            let (r, t) =
                run_taxogram(&ds.database, &ds.taxonomy, THETA, profile, Enhancements::all());
            CountRow {
                label: format!("{k}"),
                time_ms: t,
                patterns: r.patterns.len(),
            }
        })
        .collect()
}

/// Figure 4.6: running time and pattern count vs taxonomy concept count
/// (TS25–TS3200), θ = 0.2.
pub fn fig4_6(profile: &Profile) -> Vec<CountRow> {
    [25, 50, 100, 200, 400, 800, 1600, 3200]
        .into_iter()
        .map(|c| {
            let ds = build(DatasetId::TS(c), profile.scale);
            let (r, t) =
                run_taxogram(&ds.database, &ds.taxonomy, THETA, profile, Enhancements::all());
            CountRow {
                label: format!("{c}"),
                time_ms: t,
                patterns: r.patterns.len(),
            }
        })
        .collect()
}

/// One row of Figure 4.7 (support-threshold sweep on D4000).
#[derive(Debug)]
pub struct SupportRow {
    /// The support threshold.
    pub theta: f64,
    /// Taxogram time (ms).
    pub taxogram_ms: f64,
    /// TAcGM time (ms) or failure.
    pub tacgm: Result<f64, String>,
    /// Pattern count.
    pub patterns: usize,
}

/// Figure 4.7: Taxogram vs TAcGM across support thresholds 0.6 → 0.02 on
/// the D4000 dataset. Taxogram runs on `threads` workers (1 = serial).
pub fn fig4_7(profile: &Profile, threads: usize) -> Vec<SupportRow> {
    let ds = build(DatasetId::D(4000), profile.scale);
    [0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02]
        .into_iter()
        .map(|theta| {
            let (r, t) = run_taxogram_threads(
                &ds.database,
                &ds.taxonomy,
                theta,
                profile,
                Enhancements::all(),
                threads,
            );
            let tacgm = run_tacgm(&ds.database, &ds.taxonomy, theta, profile).map(|(_, t)| t);
            SupportRow {
                theta,
                taxogram_ms: t,
                tacgm,
                patterns: r.patterns.len(),
            }
        })
        .collect()
}

/// Table 1: properties of every experimental dataset.
pub fn table1(profile: &Profile) -> Vec<(String, DatabaseStats)> {
    table1_ids()
        .into_iter()
        .map(|id| {
            let ds = build(id, profile.scale);
            (id.to_string(), ds.database.stats())
        })
        .collect()
}

/// One row of Table 2 (pathway mining).
#[derive(Debug)]
pub struct Table2Row {
    /// Pathway name.
    pub name: &'static str,
    /// Taxogram time (ms).
    pub time_ms: f64,
    /// Pattern count (the paper's conservation proxy).
    pub patterns: usize,
    /// Average graph size (nodes).
    pub avg_nodes: f64,
    /// Average graph size (edges).
    pub avg_edges: f64,
}

/// Table 2: 25 metabolic pathways × 30 organisms at θ = 0.2, sorted by
/// running time like the paper's table.
pub fn table2(profile: &Profile) -> Vec<Table2Row> {
    // The pathway corpus is small (25 × 30 graphs); use a taxonomy scaled
    // like the GO substitute but at least 400 concepts for subtree depth.
    let concepts = ((GO_CONCEPTS as f64 * profile.scale) as usize).clamp(400, GO_CONCEPTS);
    let taxonomy = go_like_taxonomy_scaled(concepts);
    let corpus = pathway_corpus(&taxonomy, 30, 0xEDB7);
    let mut rows: Vec<Table2Row> = corpus
        .iter()
        .map(|ds| {
            let (r, t) = run_taxogram(&ds.database, &taxonomy, THETA, profile, Enhancements::all());
            let stats = ds.database.stats();
            Table2Row {
                name: ds.spec.name,
                time_ms: t,
                patterns: r.patterns.len(),
                avg_nodes: stats.avg_nodes,
                avg_edges: stats.avg_edges,
            }
        })
        .collect();
    rows.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
    rows
}

/// Figure 4.8: PTE running time and pattern count at support 0.30, 0.50,
/// 0.60.
pub fn fig4_8(profile: &Profile) -> Vec<CountRow> {
    let ds = build(DatasetId::PTE, profile.scale.max(0.5));
    [0.6, 0.5, 0.3]
        .into_iter()
        .map(|theta| {
            let (r, t) =
                run_taxogram(&ds.database, &ds.taxonomy, theta, profile, Enhancements::all());
            CountRow {
                label: format!("{:.0}", theta * 100.0),
                time_ms: t,
                patterns: r.patterns.len(),
            }
        })
        .collect()
}

/// One ablation row: an enhancement configuration and its cost metrics.
#[derive(Debug)]
pub struct AblationRow {
    /// Configuration name.
    pub config: &'static str,
    /// Running time (ms).
    pub time_ms: f64,
    /// Step 3 bitset intersections performed.
    pub intersections: usize,
    /// Step 3 label vectors visited.
    pub vectors: usize,
    /// Peak occurrence-index bytes.
    pub peak_oi_bytes: usize,
    /// Pattern count (must be identical across rows).
    pub patterns: usize,
}

/// Beyond the paper: per-enhancement ablation on the D2000 dataset at
/// θ = 0.2. Every configuration must produce the same pattern set; the
/// deltas isolate what each enhancement buys.
pub fn ablation(profile: &Profile) -> Vec<AblationRow> {
    let ds = build(DatasetId::D(2000), profile.scale);
    let configs: [(&'static str, Enhancements); 6] = [
        ("all", Enhancements::all()),
        ("baseline (none)", Enhancements::none()),
        ("no apriori-prune (a)", Enhancements { apriori_child_prune: false, ..Enhancements::all() }),
        ("no label-prune (b)", Enhancements { prune_infrequent_labels: false, ..Enhancements::all() }),
        ("no predescend (c)", Enhancements { predescend_roots: false, ..Enhancements::all() }),
        ("no contraction (d)", Enhancements { contract_equal_sets: false, ..Enhancements::all() }),
    ];
    configs
        .into_iter()
        .map(|(name, enh)| {
            let (r, t) = run_taxogram(&ds.database, &ds.taxonomy, THETA, profile, enh);
            AblationRow {
                config: name,
                time_ms: t,
                intersections: r.stats.enumeration.intersections,
                vectors: r.stats.enumeration.vectors_visited,
                peak_oi_bytes: r.stats.peak_oi_bytes,
                patterns: r.patterns.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Profile {
        Profile {
            name: "tiny",
            scale: 0.01,
            tacgm_budget_bytes: 2 << 20,
            max_edges: Some(4),
        }
    }

    #[test]
    fn fig4_2_rows_complete_and_agree() {
        // threads = 2 exercises the pipelined engine path end to end.
        let rows = fig4_2(&tiny(), 2);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.taxogram_ms >= 0.0);
            assert!(r.baseline_ms >= 0.0);
        }
    }

    #[test]
    fn parallel_scaling_engines_agree() {
        let rows = parallel_scaling(&tiny());
        assert_eq!(rows.len(), 4);
        let first = rows[0].patterns;
        for r in &rows {
            assert_eq!(r.patterns, first, "{} threads diverged", r.threads);
        }
    }

    #[test]
    fn ablation_configs_agree_on_patterns() {
        let rows = ablation(&tiny());
        assert_eq!(rows.len(), 6);
        let first = rows[0].patterns;
        for r in &rows {
            assert_eq!(r.patterns, first, "{} diverged", r.config);
        }
        // Enhancements never do more intersections than the baseline.
        let all = rows.iter().find(|r| r.config == "all").unwrap();
        let none = rows.iter().find(|r| r.config == "baseline (none)").unwrap();
        assert!(all.intersections <= none.intersections);
    }

    #[test]
    fn fig4_8_counts_grow_as_support_drops() {
        let rows = fig4_8(&tiny());
        assert_eq!(rows.len(), 3);
        // Rows ordered 60, 50, 30: pattern counts must not decrease.
        assert!(rows[0].patterns <= rows[2].patterns);
    }
}

/// One row of the parallel-scaling experiment: the pipelined engine at
/// one requested thread count.
#[derive(Debug)]
pub struct ParallelRow {
    /// Requested worker thread count.
    pub threads: usize,
    /// Pipelined engine (`mine_pipelined`) wall-clock time (ms).
    pub pipelined_ms: f64,
    /// Classes the producer took back from a full channel.
    pub steals: usize,
    /// Pipelined peak resident embedding bytes (channel-bounded).
    pub pipelined_emb_bytes: usize,
    /// Pattern count (identical across rows).
    pub patterns: usize,
}

/// One row of the governed-run experiment: one engine under a budget.
#[derive(Debug)]
pub struct GovernedRow {
    /// Engine label (`serial, ungoverned`, `serial`, `pipelined`).
    pub engine: &'static str,
    /// Wall-clock time (ms) — for partial runs, the time to the stop.
    pub time_ms: f64,
    /// Patterns in the (possibly partial) result stream.
    pub patterns: usize,
    /// Truthful termination reason rendered for display.
    pub reason: String,
    /// Equivalence classes fully mined before the stop.
    pub finished: usize,
    /// Classes abandoned (admitted classes always finish; these never
    /// started Step 3).
    pub abandoned: usize,
}

/// Back-to-back (ungoverned, governed) serial pairs timed after one
/// untimed warm-up. A change in host speed mostly hits both halves of a
/// pair, so the median pair ratio is the overhead; each row shows its
/// side's best time.
const GOVERNED_REPS: usize = 25;

/// Beyond the paper: budget-bounded mining on D1000 at θ = 0.2. Both
/// in-memory engines run under the same [`GovernOptions`]; each row
/// reports the truthful [`taxogram_core::Termination`] alongside how much
/// of the result stream survived. With an unlimited budget this doubles
/// as a smoke test that governance is invisible: every engine must
/// complete with zero abandoned classes and identical pattern counts.
///
/// The first row is the serial engine with governance off. The second
/// value is the governed serial run's overhead over it, in percent —
/// `None` when the budget stopped that run early, since a partial run's
/// time says nothing about the cost of governance.
pub fn governed(
    profile: &Profile,
    threads: usize,
    govern: &GovernOptions,
) -> (Vec<GovernedRow>, Option<f64>) {
    let ds = build(DatasetId::D(1000), profile.scale);
    let mut cfg = TaxogramConfig::with_threshold(THETA);
    cfg.max_edges = profile.max_edges;
    let row = |engine: &'static str, (outcome, t): (MiningOutcome, f64)| GovernedRow {
        engine,
        time_ms: t,
        patterns: outcome.result.patterns.len(),
        reason: outcome.termination.reason.to_string(),
        finished: outcome.termination.classes_finished,
        abandoned: outcome.termination.classes_abandoned,
    };
    let ungoverned = || {
        Taxogram::new(cfg)
            .mine(&ds.database, &ds.taxonomy)
            .expect("valid input")
    };
    let serial = || {
        Taxogram::new(cfg)
            .mine_governed(&ds.database, &ds.taxonomy, govern)
            .expect("valid input")
    };
    ungoverned();
    let (mut plain, mut t_plain) = time_ms(ungoverned);
    let (mut outcome, mut t_serial) = time_ms(serial);
    let mut ratios = vec![t_serial / t_plain];
    for _ in 1..GOVERNED_REPS {
        let (p, tp) = time_ms(ungoverned);
        let (o, ts) = time_ms(serial);
        ratios.push(ts / tp);
        if tp < t_plain {
            (plain, t_plain) = (p, tp);
        }
        if ts < t_serial {
            (outcome, t_serial) = (o, ts);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let overhead_pct = outcome
        .termination
        .is_complete()
        .then(|| (ratios[GOVERNED_REPS / 2] - 1.0) * 100.0);
    let rows = vec![
        GovernedRow {
            engine: "serial, ungoverned",
            time_ms: t_plain,
            patterns: plain.patterns.len(),
            reason: "completed".to_string(),
            finished: plain.stats.classes,
            abandoned: 0,
        },
        row("serial", (outcome, t_serial)),
        row(
            "pipelined",
            time_ms(|| {
                taxogram_core::mine_pipelined_governed(
                    &cfg,
                    &ds.database,
                    &ds.taxonomy,
                    taxogram_core::PipelineOptions { threads, ..Default::default() },
                    govern,
                )
                .expect("valid input")
            }),
        ),
    ];
    (rows, overhead_pct)
}

/// Beyond the paper: thread scaling of the pipelined engine on the D3000
/// dataset at θ = 0.2 (the shared-memory half of the paper's
/// "disk-based algorithms" future work; the out-of-core half is the
/// sharded miner, `taxogram_core::shard`). Thread counts are taken as
/// given, so rows past the host's cores oversubscribe them.
pub fn parallel_scaling(profile: &Profile) -> Vec<ParallelRow> {
    let ds = build(DatasetId::D(3000), profile.scale);
    let mut cfg = TaxogramConfig::with_threshold(THETA);
    cfg.max_edges = profile.max_edges;
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| {
            let (p, t_piped) = time_ms(|| {
                taxogram_core::mine_pipelined(&cfg, &ds.database, &ds.taxonomy, threads)
                    .expect("valid input")
            });
            ParallelRow {
                threads,
                pipelined_ms: t_piped,
                steals: p.stats.steals,
                pipelined_emb_bytes: p.stats.peak_embedding_bytes,
                patterns: p.patterns.len(),
            }
        })
        .collect()
}
