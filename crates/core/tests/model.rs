//! Model-checked concurrency contracts for the mining engines.
//!
//! Compiled only under `RUSTFLAGS='--cfg tsg_model'` (the `model` CI
//! stage): the `tsg-check` runtime replaces the `taxogram_core::sync`
//! facade, runs every closure under a deterministic scheduler that
//! explores thread interleavings (bounded-exhaustive DFS within a
//! preemption bound, seeded-random beyond), and checks each execution
//! with a vector-clock data-race detector. A test here is a *contract*:
//! the asserted property must hold on **every** explored interleaving,
//! and a deadlock, lost wakeup, or Relaxed-ordering race anywhere in the
//! exercised code fails the test with a replayable schedule.
//!
//! The four contracts mirror the invariants the engines' correctness
//! arguments lean on (see DESIGN.md §12):
//!
//! 1. closing the channel on the producer's panic path never strands a
//!    parked consumer;
//! 2. `send_or_swap` neither duplicates nor drops a class under racing
//!    consumers;
//! 3. the governor's CAS admission gate admits *exactly* its class
//!    budget under racing workers;
//! 4. the memory gauge balances back to zero when classes are abandoned
//!    mid-run (asserted here for real — the engines only
//!    `debug_assert` it).
//!
//! The `replays_bit_for_bit` tests pin three fault-injection scenarios
//! from the testkit matrix to *named deterministic schedules*: the same
//! schedule replays the same interleaving — and therefore the same
//! event log — every time, on any host.

#![cfg(tsg_model)]

use std::panic::AssertUnwindSafe;

use taxogram_core::model_support::{Bounded, Governor, MemoryGauge};
use taxogram_core::sync::thread;
use taxogram_core::sync::{Arc, AtomicUsize, Mutex, Ordering};
use taxogram_core::{Budget, GovernOptions};
use tsg_check::model::{Checker, Report};

/// Every contract must be checked on at least 1,000 distinct
/// interleavings, or on the complete bounded-exhaustive set if that is
/// smaller.
fn assert_coverage(report: &Report) {
    assert!(
        report.exhaustive || report.interleavings >= 1000,
        "only {} interleavings explored (and not exhaustive)",
        report.interleavings
    );
}

/// Contract 1: the pipeline producer closes the channel on **every**
/// exit path, including a panic mid-stream (pipeline.rs catches the
/// mining panic precisely so the close still runs). If the close were
/// skipped, the parked consumer would never wake — which the model
/// checker reports as a deadlock, failing this test with the schedule
/// that exposed it.
#[test]
fn close_on_panic_never_strands_a_consumer() {
    let report = Checker::new().check(|| {
        let ch = Arc::new(Bounded::new(1));
        let consumer = {
            let ch = Arc::clone(&ch);
            thread::spawn(move || {
                let mut got = 0usize;
                while ch.recv().is_some() {
                    got += 1;
                }
                got
            })
        };
        // Producer: one class out, then the injected death — mirroring
        // the pipeline's catch_unwind-then-close recovery.
        let died = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ch.send_or_swap(7usize);
            panic!("injected: producer died mid-stream");
        }));
        assert!(died.is_err());
        ch.close();
        let got = consumer.join().expect("consumer exits cleanly");
        assert!(got <= 1, "one class was sent; consumer saw {got}");
    });
    assert_coverage(&report);
    report.assert_race_free();
}

/// Contract 2: `send_or_swap` is an atomic exchange — across every
/// interleaving of a racing consumer, each class ends up processed
/// exactly once, either by a consumer (received) or by the producer
/// (handed back by the swap). No duplicates, no drops.
#[test]
fn send_or_swap_neither_duplicates_nor_drops() {
    let report = Checker::new().check(|| {
        let ch = Arc::new(Bounded::new(1));
        let received = Arc::new(Mutex::new(Vec::new()));
        let consumer = {
            let ch = Arc::clone(&ch);
            let received = Arc::clone(&received);
            thread::spawn(move || {
                while let Some(v) = ch.recv() {
                    received.lock().expect("unpoisoned").push(v);
                }
            })
        };
        let mut stolen = Vec::new();
        for class in 0..3usize {
            if let Some(back) = ch.send_or_swap(class) {
                stolen.push(back);
            }
        }
        ch.close();
        consumer.join().expect("consumer exits cleanly");
        let mut all = received.lock().expect("unpoisoned").clone();
        all.extend(stolen);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "every class exactly once");
    });
    assert_coverage(&report);
    report.assert_race_free();
}

/// Contract 3: the governor's CAS admission gate (`fetch_update` on the
/// admitted counter) lets *exactly* `max_classes` admissions win, no
/// matter how the workers' calls interleave — and the run reports a
/// truthful non-complete termination.
#[test]
fn governor_cas_admits_exactly_the_class_budget() {
    let report = Checker::new().check(|| {
        let gov = Arc::new(Governor::new(&GovernOptions::with_budget(
            Budget::unlimited().max_classes(2),
        )));
        let wins = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let gov = Arc::clone(&gov);
                let wins = Arc::clone(&wins);
                thread::spawn(move || {
                    if gov.admit_class(0) {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        // The root races a third admission against the two workers.
        if gov.admit_class(0) {
            wins.fetch_add(1, Ordering::SeqCst);
        }
        for w in workers {
            w.join().expect("worker exits cleanly");
        }
        assert_eq!(
            wins.load(Ordering::SeqCst),
            2,
            "exactly the class budget admits"
        );
        let termination = gov.finish(2, 1, vec!["frontier".into()]);
        assert!(
            !termination.is_complete(),
            "a rejected class is a partial run"
        );
    });
    assert_coverage(&report);
    report.assert_race_free();
}

/// Contract 4: the gauge balances back to zero when classes are
/// abandoned — workers release every reservation they took, even for
/// classes they never enumerated (the pipeline's post-close drain
/// path). The engines only `debug_assert_eq!` this;
/// here it is a hard assertion on every interleaving, and the peak must
/// land between the largest single reservation and the sum.
#[test]
fn gauge_balances_to_zero_on_abandoned_classes() {
    let report = Checker::new().check(|| {
        let gauge = Arc::new(MemoryGauge::new());
        let worker = {
            let gauge = Arc::clone(&gauge);
            thread::spawn(move || {
                gauge.add(100);
                // Abandoned: the stop tripped before enumeration, but the
                // reservation is still released on the drain path.
                gauge.sub(100);
            })
        };
        gauge.add(50);
        gauge.sub(50);
        worker.join().expect("worker exits cleanly");
        assert_eq!(gauge.current(), 0, "every reservation released");
        let peak = gauge.peak();
        assert!(
            (100..=150).contains(&peak),
            "peak {peak} outside [max single, sum]"
        );
    });
    assert_coverage(&report);
    report.assert_race_free();
}

// ---------------------------------------------------------------------
// Named deterministic schedules: three scenarios from the testkit
// fault-injection matrix, pinned to the explicit schedules published in
// `tsg_testkit::schedules`. A schedule is a list of scheduler decisions
// (ordinals into the sorted set of runnable threads at each visible
// op); replaying one reproduces the exact interleaving — and hence the
// exact event log — on any host.
// ---------------------------------------------------------------------

/// Matches the workspace's pinned proptest seed convention
/// (PROPTEST_RNG_SEED); used by the replay harness for its random
/// top-up phase, irrelevant to the pinned prefix itself.
const PINNED_SEED: u64 = 0x007a_78c0_ffee;

/// Runs `scenario` once under `schedule` (prefix decisions; the
/// scheduler continues prev-first past the end) and returns its event
/// log.
fn replay_logged<F>(schedule: &[usize], scenario: F) -> Vec<String>
where
    F: Fn(&Mutex<Vec<String>>),
{
    let captured = std::sync::Mutex::new(Vec::new());
    Checker::new().seed(PINNED_SEED).replay(schedule, || {
        let log = Mutex::new(Vec::new());
        scenario(&log);
        // Only the root vthread runs here, after all joins: move the
        // facade-logged events out to the (off-model) capture slot.
        let events = std::mem::take(&mut *log.lock().expect("unpoisoned"));
        *captured.lock().expect("unpoisoned") = events;
    });
    captured.into_inner().expect("unpoisoned")
}

fn log_event(log: &Mutex<Vec<String>>, event: String) {
    log.lock().expect("unpoisoned").push(event);
}

/// Scenario: the receiver drops mid-stream (testkit `recv_drop` fault).
/// The producer keeps swapping into a full channel, closes, then drains
/// the leftovers itself — the pipeline's gauge-balancing recovery path.
fn receiver_drop_scenario(log: &Mutex<Vec<String>>) {
    let ch = Arc::new(Bounded::new(1));
    let consumer = {
        let ch = Arc::clone(&ch);
        thread::spawn(move || ch.recv())
    };
    for class in 0..3usize {
        if let Some(back) = ch.send_or_swap(class) {
            log_event(log, format!("producer reclaimed {back}"));
        } else {
            log_event(log, format!("producer queued {class}"));
        }
    }
    ch.close();
    let first = consumer.join().expect("consumer exits cleanly");
    log_event(log, format!("consumer took {first:?} then dropped"));
    while let Some(left) = ch.try_recv() {
        log_event(log, format!("producer drained {left}"));
    }
}

#[test]
fn receiver_drop_mid_stream_replays_bit_for_bit() {
    const SCHEDULE: &[usize] = tsg_testkit::schedules::RECEIVER_DROP_MID_STREAM;
    let first = replay_logged(SCHEDULE, receiver_drop_scenario);
    let second = replay_logged(SCHEDULE, receiver_drop_scenario);
    assert!(!first.is_empty(), "scenario logged nothing");
    assert_eq!(first, second, "same schedule, same event log");
}

/// Scenario: a worker panics at the Nth claimed ticket. Tickets come
/// off a Relaxed cursor (the shard scan's claim idiom); the surviving
/// worker finishes its share, and the panic propagates through `join`,
/// where the engines turn it into `WorkerPanicked`.
fn panic_at_nth_claim_scenario(log: &Mutex<Vec<String>>) {
    const PANIC_AT: usize = 2;
    let cursor = Arc::new(AtomicUsize::new(0));
    let faulty = {
        let cursor = Arc::clone(&cursor);
        thread::spawn(move || loop {
            let ticket = cursor.fetch_add(1, Ordering::Relaxed);
            if ticket >= 4 {
                break;
            }
            assert_ne!(ticket, PANIC_AT, "injected: panic at claim {PANIC_AT}");
        })
    };
    loop {
        let ticket = cursor.fetch_add(1, Ordering::Relaxed);
        if ticket >= 4 {
            break;
        }
        log_event(log, format!("survivor executed {ticket}"));
    }
    match faulty.join() {
        Ok(()) => log_event(log, "faulty worker finished clean".into()),
        Err(_) => log_event(log, "faulty worker panicked; caught at join".into()),
    }
}

#[test]
fn panic_at_nth_claim_replays_bit_for_bit() {
    const SCHEDULE: &[usize] = tsg_testkit::schedules::PANIC_AT_NTH_CLAIM;
    let first = replay_logged(SCHEDULE, panic_at_nth_claim_scenario);
    let second = replay_logged(SCHEDULE, panic_at_nth_claim_scenario);
    assert!(!first.is_empty(), "scenario logged nothing");
    assert_eq!(first, second, "same schedule, same event log");
}

/// Scenario: a budget trip races admission (testkit `cancel_after` /
/// class-budget fault). Two workers hit a one-class governor; under a
/// pinned schedule the *same* worker wins every replay, and exactly one
/// admission ever succeeds.
fn budget_trip_scenario(log: &Mutex<Vec<String>>) {
    let gov = Arc::new(Governor::new(&GovernOptions::with_budget(
        Budget::unlimited().max_classes(1),
    )));
    let racer = {
        let gov = Arc::clone(&gov);
        thread::spawn(move || gov.admit_class(0))
    };
    let root_won = gov.admit_class(0);
    let racer_won = racer.join().expect("racer exits cleanly");
    assert!(
        root_won ^ racer_won,
        "exactly one admission wins a one-class budget"
    );
    let winner = if root_won { "root" } else { "racer" };
    log_event(log, format!("{winner} admitted the class"));
}

#[test]
fn budget_trip_racing_admission_replays_bit_for_bit() {
    const SCHEDULE: &[usize] = tsg_testkit::schedules::BUDGET_TRIP_RACING_ADMISSION;
    let first = replay_logged(SCHEDULE, budget_trip_scenario);
    let second = replay_logged(SCHEDULE, budget_trip_scenario);
    assert_eq!(first.len(), 1, "one winner per run");
    assert_eq!(first, second, "same schedule, same winner");
}
