//! Governance acceptance matrix: deterministic cancellation triggers and
//! budget ceilings across the serial, pipelined and sharded engines, at
//! the acceptance thread counts (1/2/4) with capacity 1 (maximum
//! contention).
//!
//! The invariant under every stop: the run returns `Ok(MiningOutcome)`
//! whose patterns are a **byte-identical completed prefix** of the full
//! serial output — no lost, duplicated, or torn classes — and whose
//! `Termination` is truthful (reason, finished/abandoned arithmetic,
//! frontier only on early stops). Every engine admits classes in serial
//! class order, so each also stops at the *exact* Nth class.

use std::time::Duration;
use taxogram_core::{
    mine_pipelined_governed, mine_sharded_governed, Budget, CancelToken, GovernOptions,
    MiningOutcome, MiningResult, PipelineOptions, ShardOptions, ShardedOutcome, Taxogram,
    TaxogramConfig, TerminationReason,
};
use tsg_testkit::fault::{assert_completed_prefix, FaultPlan, FAULT_THREADS};
use tsg_testkit::gen::{case, Case};
use tsg_testkit::metamorphic::{assert_engines_identical, MAX_EDGES};

/// Same seeds as the fault-injection matrix: several distinct shapes,
/// each deterministic via `tsg_testkit::case(seed)`.
const CASE_SEEDS: [u64; 4] = [3, 17, 101, 0xbeef];

fn config(c: &Case) -> TaxogramConfig {
    TaxogramConfig::with_threshold(c.theta).max_edges(MAX_EDGES)
}

fn serial(c: &Case) -> MiningResult {
    Taxogram::new(config(c)).mine(&c.db, &c.taxonomy).unwrap()
}

/// Cancel at the Nth class, swept over N, threads 1/2/4, capacity 1.
/// Serial and pipelined admit in serial class order, so each must finish
/// *exactly* min(N, total) classes and emit the byte-identical prefix.
#[test]
fn cancel_at_nth_class_yields_exact_prefix() {
    for &seed in &CASE_SEEDS {
        let c = case(seed);
        let full = serial(&c);
        let total = full.stats.classes;
        for &threads in &FAULT_THREADS {
            for n in [0usize, 1, 2, 3, 5, 8] {
                let plan = FaultPlan::shape(threads, 1).cancel_after(n);
                let want_finished = n.min(total);
                let want_reason = if n < total {
                    TerminationReason::Cancelled
                } else {
                    TerminationReason::Completed
                };
                let tag = |engine: &str| format!("seed {seed:#x} {engine} t={threads} n={n}");

                for (engine, outcome) in [
                    ("serial", plan.run_serial_governed(&c)),
                    ("pipelined", plan.run_pipelined_governed(&c)),
                ] {
                    let outcome = outcome.unwrap_or_else(|e| panic!("{}: {e}", tag(engine)));
                    assert_completed_prefix(&outcome, &full)
                        .unwrap_or_else(|msg| panic!("{}: {msg}", tag(engine)));
                    assert_eq!(
                        outcome.termination.classes_finished,
                        want_finished,
                        "{}: wrong class count",
                        tag(engine)
                    );
                    assert_eq!(
                        outcome.termination.reason,
                        want_reason,
                        "{}: wrong reason",
                        tag(engine)
                    );
                }
            }
        }
    }
}

/// The same deterministic stop point must yield the same bytes on every
/// run and at every thread count — partial results are reproducible.
#[test]
fn partial_results_are_schedule_independent() {
    let c = case(CASE_SEEDS[1]);
    for n in [1usize, 3] {
        let want = FaultPlan::shape(1, 1)
            .cancel_after(n)
            .run_serial_governed(&c)
            .unwrap();
        for &threads in &FAULT_THREADS {
            let plan = FaultPlan::shape(threads, 1).cancel_after(n);
            for _ in 0..2 {
                let outcome = plan.run_pipelined_governed(&c).unwrap();
                assert_engines_identical(&want.result, &outcome.result)
                    .unwrap_or_else(|msg| panic!("t={threads} n={n}: {msg}"));
            }
        }
    }
}

/// Class-count budget: same exactness contract as cancellation, but the
/// reason must name the ceiling.
#[test]
fn class_budget_stops_exactly() {
    // Seed 23 mines 5 classes (8 patterns) at its θ — enough room for
    // the ceiling to land strictly inside the class stream.
    let c = case(23);
    let full = serial(&c);
    let total = full.stats.classes;
    assert!(total >= 2, "case too small to exercise the budget");
    for &threads in &FAULT_THREADS {
        for n in [1usize, 2] {
            let plan = FaultPlan::shape(threads, 1).budget_classes(n);
            for outcome in [
                plan.run_serial_governed(&c).unwrap(),
                plan.run_pipelined_governed(&c).unwrap(),
            ] {
                assert_completed_prefix(&outcome, &full).unwrap();
                assert_eq!(outcome.termination.classes_finished, n);
                assert_eq!(
                    outcome.termination.reason,
                    TerminationReason::BudgetExceeded {
                        which: taxogram_core::BudgetKind::Classes
                    }
                );
                assert!(!outcome.termination.frontier.is_empty());
            }
        }
    }
}

/// Pattern-count budget on the serial engine: admission stops at the
/// first class after the ceiling is crossed, so the final count may
/// overshoot by at most one class's patterns and never undershoots a
/// reachable ceiling.
#[test]
fn pattern_budget_stops_after_crossing_class() {
    let mut tripped = 0;
    for &seed in &CASE_SEEDS {
        let c = case(seed);
        let full = serial(&c);
        let outcome = FaultPlan::shape(1, 1)
            .budget_patterns(1)
            .run_serial_governed(&c)
            .unwrap();
        assert_completed_prefix(&outcome, &full).unwrap();
        if outcome.termination.is_complete() {
            // Every pattern came from the final admitted class, so no
            // admission point saw the crossed ceiling; legal, but only
            // if the prefix really is everything (checked above).
            continue;
        }
        tripped += 1;
        assert!(
            !outcome.result.patterns.is_empty(),
            "seed {seed:#x}: the crossing class itself completes"
        );
        assert!(outcome.result.patterns.len() < full.patterns.len());
        assert_eq!(
            outcome.termination.reason,
            TerminationReason::BudgetExceeded {
                which: taxogram_core::BudgetKind::Patterns
            },
            "seed {seed:#x}"
        );
    }
    assert!(tripped >= 1, "no seed ever tripped the pattern budget");
}

/// Pattern-count budget on the pipelined engine. The stop point is
/// schedule-dependent (the ceiling is observed while workers race the
/// producer), but the contract is not: a byte-identical completed
/// prefix, and a truthful `Patterns` reason whenever the stream was
/// actually cut.
#[test]
fn pattern_budget_binds_on_every_parallel_engine() {
    let c = case(23); // 5 classes / 8 patterns: ceiling 1 cuts early
    let full = serial(&c);
    for &threads in &FAULT_THREADS {
        let outcome = FaultPlan::shape(threads, 1)
            .budget_patterns(1)
            .run_pipelined_governed(&c)
            .unwrap();
        let tag = format!("pipelined t={threads}");
        assert_completed_prefix(&outcome, &full).unwrap_or_else(|msg| panic!("{tag}: {msg}"));
        // With >1 worker, admission can legally outrun pattern
        // accumulation and complete the run; one worker is
        // deterministic. Wherever a cut happened — or had to — the
        // reason must name the pattern ceiling.
        let must_cut = threads == 1;
        if must_cut {
            assert!(
                outcome.result.patterns.len() < full.patterns.len(),
                "{tag}: ceiling 1 of {} patterns must cut the stream",
                full.patterns.len()
            );
        }
        if !outcome.termination.is_complete() {
            assert_eq!(
                outcome.termination.reason,
                TerminationReason::BudgetExceeded {
                    which: taxogram_core::BudgetKind::Patterns
                },
                "{tag}"
            );
        } else {
            assert!(!must_cut, "{tag}: complete run where a cut was mandatory");
        }
    }
}

/// Pipelined options that force the channel machinery at capacity 1.
fn forced_channel(threads: usize) -> PipelineOptions {
    PipelineOptions {
        threads,
        channel_capacity: 1,
        clamp_to_cores: false,
    }
}

/// A token cancelled before the run starts yields zero classes, zero
/// patterns, and a `Cancelled` report — on every engine.
#[test]
fn pre_cancelled_token_yields_empty_cancelled_outcome() {
    let c = case(CASE_SEEDS[0]);
    let full = serial(&c);
    let token = CancelToken::new();
    token.cancel();
    let govern = GovernOptions::with_cancel(token);
    let outcomes = [
        Taxogram::new(config(&c))
            .mine_governed(&c.db, &c.taxonomy, &govern)
            .unwrap(),
        mine_pipelined_governed(&config(&c), &c.db, &c.taxonomy, forced_channel(2), &govern)
            .unwrap(),
    ];
    for outcome in outcomes {
        assert!(outcome.result.patterns.is_empty());
        assert_eq!(outcome.termination.classes_finished, 0);
        assert_eq!(outcome.termination.reason, TerminationReason::Cancelled);
        assert_completed_prefix(&outcome, &full).unwrap();
    }
}

/// An already-expired deadline stops every engine before any class.
#[test]
fn zero_deadline_stops_immediately() {
    let c = case(CASE_SEEDS[0]);
    let govern = GovernOptions::with_budget(Budget::unlimited().deadline(Duration::ZERO));
    let serial_outcome = Taxogram::new(config(&c))
        .mine_governed(&c.db, &c.taxonomy, &govern)
        .unwrap();
    assert!(serial_outcome.result.patterns.is_empty());
    assert_eq!(
        serial_outcome.termination.reason,
        TerminationReason::DeadlineExceeded
    );
    let pipelined =
        mine_pipelined_governed(&config(&c), &c.db, &c.taxonomy, forced_channel(4), &govern)
            .unwrap();
    assert!(pipelined.result.patterns.is_empty());
    assert_eq!(
        pipelined.termination.reason,
        TerminationReason::DeadlineExceeded
    );
}

/// A one-byte memory ceiling trips as soon as the tracked peak becomes
/// visible at an admission point; the partial output is still a clean
/// prefix.
#[test]
fn tiny_memory_budget_trips_with_clean_prefix() {
    let c = case(23); // 5 classes: the ceiling trips mid-stream
    let full = serial(&c);
    assert!(full.stats.classes >= 2, "case too small to trip the budget");
    let govern = GovernOptions::with_budget(Budget::unlimited().max_peak_bytes(1));
    let outcome = Taxogram::new(config(&c))
        .mine_governed(&c.db, &c.taxonomy, &govern)
        .unwrap();
    assert_completed_prefix(&outcome, &full).unwrap();
    assert_eq!(
        outcome.termination.reason,
        TerminationReason::BudgetExceeded {
            which: taxogram_core::BudgetKind::Memory
        }
    );
    assert!(outcome.termination.classes_finished < full.stats.classes);
}

/// Governance with an unlimited budget and an untouched token is
/// invisible: every engine produces the byte-identical complete result
/// and reports `Completed` with an empty frontier.
#[test]
fn unlimited_governance_is_invisible() {
    for &seed in &CASE_SEEDS[..2] {
        let c = case(seed);
        let full = serial(&c);
        for &threads in &FAULT_THREADS {
            let plan = FaultPlan::shape(threads, 1);
            for (engine, outcome) in [
                ("serial", plan.run_serial_governed(&c)),
                ("pipelined", plan.run_pipelined_governed(&c)),
            ] {
                let outcome = outcome.unwrap();
                assert!(
                    outcome.termination.is_complete(),
                    "seed {seed:#x} {engine} t={threads}: {:?}",
                    outcome.termination
                );
                assert_eq!(outcome.termination.classes_abandoned, 0);
                assert!(outcome.termination.frontier.is_empty());
                assert_engines_identical(&full, &outcome.result)
                    .unwrap_or_else(|msg| panic!("seed {seed:#x} {engine} t={threads}: {msg}"));
            }
        }
    }
}

/// Views a sharded outcome through the common prefix-contract checker.
fn as_outcome(sharded: ShardedOutcome) -> MiningOutcome {
    MiningOutcome {
        result: sharded.result,
        termination: sharded.termination,
    }
}

/// Cancellation tripping **mid-Pass-2b** of the sharded miner: like the
/// serially-admitting engines, it admits one class at a time in serial
/// code order, so a cancel at the Nth admission finishes *exactly*
/// min(N, total) classes and emits the byte-identical serial prefix —
/// at every shard and thread count.
#[test]
fn sharded_cancel_mid_pass2_yields_exact_prefix() {
    for &seed in &CASE_SEEDS[..2] {
        let c = case(seed);
        let full = serial(&c);
        let total = full.stats.classes;
        for &threads in &FAULT_THREADS {
            for shards in [2usize, 3] {
                for n in [0usize, 1, 2, 5] {
                    let plan = FaultPlan::shape(threads, 1).cancel_after(n);
                    let outcome = as_outcome(plan.run_sharded_governed(&c, shards).unwrap());
                    let tag = format!("seed {seed:#x} P={shards} t={threads} n={n}");
                    assert_completed_prefix(&outcome, &full)
                        .unwrap_or_else(|msg| panic!("{tag}: {msg}"));
                    assert_eq!(
                        outcome.termination.classes_finished,
                        n.min(total),
                        "{tag}: wrong class count"
                    );
                    let want_reason = if n < total {
                        TerminationReason::Cancelled
                    } else {
                        TerminationReason::Completed
                    };
                    assert_eq!(outcome.termination.reason, want_reason, "{tag}");
                    if n < total {
                        assert_eq!(
                            outcome.termination.classes_abandoned,
                            total - n,
                            "{tag}: abandoned arithmetic"
                        );
                        assert!(!outcome.termination.frontier.is_empty(), "{tag}");
                    }
                }
            }
        }
    }
}

/// Budget ceilings binding mid-Pass-2b: the class ceiling stops at
/// exactly N finished classes with the ceiling named in the reason; the
/// pattern ceiling stops at the first admission after crossing.
#[test]
fn sharded_budgets_bind_mid_pass2() {
    let c = case(23); // 5 classes / 8 patterns: ceilings land mid-stream
    let full = serial(&c);
    assert!(full.stats.classes >= 2);
    for &threads in &FAULT_THREADS {
        for n in [1usize, 2] {
            let plan = FaultPlan::shape(threads, 1).budget_classes(n);
            let outcome = as_outcome(plan.run_sharded_governed(&c, 2).unwrap());
            assert_completed_prefix(&outcome, &full).unwrap();
            assert_eq!(outcome.termination.classes_finished, n);
            assert_eq!(
                outcome.termination.reason,
                TerminationReason::BudgetExceeded {
                    which: taxogram_core::BudgetKind::Classes
                }
            );
            assert!(!outcome.termination.frontier.is_empty());
        }
        let plan = FaultPlan::shape(threads, 1).budget_patterns(1);
        let outcome = as_outcome(plan.run_sharded_governed(&c, 2).unwrap());
        assert_completed_prefix(&outcome, &full).unwrap();
        assert!(outcome.result.patterns.len() < full.patterns.len());
        assert_eq!(
            outcome.termination.reason,
            TerminationReason::BudgetExceeded {
                which: taxogram_core::BudgetKind::Patterns
            }
        );
    }
}

/// Governance tripping **mid-Pass-1/2a** of the sharded miner (a
/// pre-cancelled token or an expired deadline is observed at the first
/// shard claim): no class ever finishes, the result is empty, and the
/// termination truthfully reports zero finished, at least one abandoned,
/// and the exact reason — never a silently short "complete" result.
#[test]
fn sharded_trips_mid_pass1_truthfully() {
    let c = case(CASE_SEEDS[0]);
    let full = serial(&c);
    assert!(full.stats.classes >= 1, "case too small to abandon work");
    for &threads in &FAULT_THREADS {
        let opts = ShardOptions {
            shards: 2,
            threads,
            ..ShardOptions::default()
        };

        let token = CancelToken::new();
        token.cancel();
        let cancelled = mine_sharded_governed(
            &config(&c),
            &c.db,
            &c.taxonomy,
            &opts,
            &GovernOptions::with_cancel(token),
        )
        .unwrap();
        assert!(cancelled.result.patterns.is_empty(), "t={threads}");
        assert_eq!(cancelled.termination.classes_finished, 0);
        assert!(cancelled.termination.classes_abandoned >= 1);
        assert_eq!(cancelled.termination.reason, TerminationReason::Cancelled);
        assert_completed_prefix(&as_outcome(cancelled), &full).unwrap();

        let expired = mine_sharded_governed(
            &config(&c),
            &c.db,
            &c.taxonomy,
            &opts,
            &GovernOptions::with_budget(Budget::unlimited().deadline(Duration::ZERO)),
        )
        .unwrap();
        assert!(expired.result.patterns.is_empty(), "t={threads}");
        assert_eq!(expired.termination.classes_finished, 0);
        assert!(expired.termination.classes_abandoned >= 1);
        assert_eq!(
            expired.termination.reason,
            TerminationReason::DeadlineExceeded
        );
        assert_completed_prefix(&as_outcome(expired), &full).unwrap();
    }
}

/// Unlimited governance is invisible on the sharded miner too: complete,
/// nothing abandoned, byte-identical to serial.
#[test]
fn sharded_unlimited_governance_is_invisible() {
    for &seed in &CASE_SEEDS[..2] {
        let c = case(seed);
        let full = serial(&c);
        for &threads in &FAULT_THREADS {
            let outcome = FaultPlan::shape(threads, 1)
                .run_sharded_governed(&c, 3)
                .unwrap();
            assert!(outcome.termination.is_complete());
            assert_eq!(outcome.termination.classes_abandoned, 0);
            assert!(outcome.termination.frontier.is_empty());
            assert_engines_identical(&full, &outcome.result)
                .unwrap_or_else(|msg| panic!("seed {seed:#x} t={threads}: {msg}"));
        }
    }
}

/// Governance composed with injected faults: a cancel trigger and a
/// receiver that drops mid-stream together still yield a clean prefix
/// — never a hang, a torn class, or a silent loss.
#[test]
fn governance_composes_with_fault_injection() {
    let c = case(CASE_SEEDS[3]);
    let full = serial(&c);
    for &threads in &FAULT_THREADS {
        for n in [1usize, 3] {
            let plan = FaultPlan::shape(threads, 1)
                .cancel_after(n)
                .drop_receiver_after(1);
            let outcome = plan.run_pipelined_governed(&c).unwrap();
            assert_completed_prefix(&outcome, &full).unwrap();
        }
    }
}
