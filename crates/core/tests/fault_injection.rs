//! Fault-injection matrix for the pipelined engine: injected worker
//! panics, simulated receiver drops, and capacity sweeps — all
//! deterministic, all at the acceptance matrix's thread counts with
//! channel capacity 1 (maximum contention). The sharded miner's spill
//! faults live in `shard_faults.rs`.
//!
//! The invariant under every fault: the run *returns* — an
//! `Err(WorkerPanicked)` when a panic was injected and fired, a
//! byte-identical `Ok` otherwise. No abort, no deadlock, no poisoned-lock
//! `.expect` cascade. Every test here would hang or abort the process on
//! the pre-panic-safety engines.

use taxogram_core::{MiningResult, Taxogram, TaxogramConfig, TaxogramError};
use tsg_testkit::fault::{FaultPlan, FAULT_CAPACITIES, FAULT_THREADS};
use tsg_testkit::gen::{case, Case};
use tsg_testkit::metamorphic::{assert_engines_identical, MAX_EDGES};

/// Seeds chosen so the suite sees several distinct input shapes; each is
/// deterministic via `tsg_testkit::case(seed)`.
const CASE_SEEDS: [u64; 4] = [3, 17, 101, 0xbeef];

fn serial(c: &Case) -> MiningResult {
    Taxogram::new(TaxogramConfig::with_threshold(c.theta).max_edges(MAX_EDGES))
        .mine(&c.db, &c.taxonomy)
        .unwrap()
}

/// Panic injected into the pipelined engine's `n`th class, for every
/// `n` in a prefix sweep: either the class exists and the run must
/// return the panic as an error, or it does not and the run must be
/// byte-identical to serial. The pipeline needs ≥ 2 threads for the
/// channel to exist, so the matrix starts at 2.
#[test]
fn pipelined_panic_at_every_early_class_returns_error() {
    for &seed in &CASE_SEEDS {
        let c = case(seed);
        let want = serial(&c);
        for threads in [2usize, 3, 4] {
            for n in 1..=6usize {
                let plan = FaultPlan::shape(threads, 1).panic_at(n);
                match plan.run_pipelined(&c) {
                    Err(TaxogramError::WorkerPanicked { message }) => {
                        assert!(
                            message.contains("injected fault"),
                            "seed {seed:#x} t={threads} n={n}: unexpected panic: {message}"
                        );
                    }
                    Ok(got) => {
                        assert_engines_identical(&want, &got).unwrap_or_else(|msg| {
                            panic!("seed {seed:#x} t={threads} n={n}: {msg}")
                        });
                    }
                    Err(e) => panic!("seed {seed:#x} t={threads} n={n}: wrong error {e}"),
                }
            }
        }
    }
}

/// A worker that stops receiving (simulated dropped `PipeSink` receiver)
/// must not lose classes: the producer's post-close drain rescues them
/// and the output stays byte-identical.
#[test]
fn pipelined_receiver_drop_loses_nothing() {
    for &seed in &CASE_SEEDS {
        let c = case(seed);
        let want = serial(&c);
        for threads in [2usize, 4] {
            for after in [1usize, 2, 3] {
                let plan = FaultPlan::shape(threads, 1).drop_receiver_after(after);
                let got = plan.run_pipelined(&c).unwrap_or_else(|e| {
                    panic!("seed {seed:#x} t={threads} drop-after={after}: {e}")
                });
                assert_engines_identical(&want, &got).unwrap_or_else(|msg| {
                    panic!("seed {seed:#x} t={threads} drop-after={after}: {msg}")
                });
            }
        }
    }
}

/// Bounded channel capacity sweep: every (threads, capacity) cell of the
/// clean matrix reproduces serial output exactly.
#[test]
fn capacity_matrix_is_clean() {
    for &seed in &CASE_SEEDS[..2] {
        let c = case(seed);
        let want = serial(&c);
        for &threads in &FAULT_THREADS {
            for &capacity in &FAULT_CAPACITIES {
                let got = FaultPlan::shape(threads, capacity)
                    .run_pipelined(&c)
                    .unwrap();
                assert_engines_identical(&want, &got).unwrap();
            }
        }
    }
}

/// Panic + receiver drop + capacity 1 together: the compound worst case
/// still terminates with a clean error or untouched output.
#[test]
fn compound_faults_terminate_cleanly() {
    let c = case(CASE_SEEDS[0]);
    let want = serial(&c);
    for &threads in &FAULT_THREADS {
        for n in [1usize, 3, 30] {
            let plan = FaultPlan::shape(threads, 1)
                .panic_at(n)
                .drop_receiver_after(1);
            match plan.run_pipelined(&c) {
                Err(TaxogramError::WorkerPanicked { .. }) => {}
                Ok(got) => assert_engines_identical(&want, &got).unwrap(),
                Err(e) => panic!("t={threads} n={n}: wrong error {e}"),
            }
        }
    }
}
