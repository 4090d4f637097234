//! Resource governance: cooperative cancellation, deadlines, and budgets.
//!
//! A low-θ run on a large database can take unbounded time and memory;
//! production services need mining that *degrades gracefully* instead of
//! finishing-or-being-killed. This module provides the governance layer
//! every engine threads through:
//!
//! * [`CancelToken`] — a cloneable atomic flag the caller flips from any
//!   thread; engines poll it cooperatively at class granularity.
//! * [`Budget`] — optional deadline, peak-memory, pattern-count, and
//!   class-count ceilings, checked against the engines' existing
//!   [`MemoryGauge`](crate::MiningStats::peak_oi_bytes) high-water marks.
//! * [`Termination`] — a truthful report of *why* a run ended
//!   ([`TerminationReason`]), how many classes finished vs. were
//!   abandoned, and the DFS-code frontier at the stop point.
//! * [`MiningOutcome`] — a [`MiningResult`] plus its [`Termination`]:
//!   the partial pattern set of an early-stopped run, guaranteed to be a
//!   *completed prefix* of the full serial output (see below).
//!
//! # Poll points and the determinism contract
//!
//! Every engine gates **class admission** through [`Governor::admit_class`]
//! once per pattern class, before any Step 3 work for that class starts:
//! the serial and pipelined engines at their
//! [`PatternSink::report`](tsg_gspan::PatternSink::report) call, the
//! sharded miner before each Pass 2 class. A rejected admission makes
//! the sink return [`Grow::Stop`](tsg_gspan::Grow::Stop), which unwinds
//! the gSpan search, or ends the sharded miner's Pass 2 loop.
//! Classes already admitted are always finished — budgets never tear a
//! class in half — so an early stop can overshoot each budget by at most
//! the classes in flight (1 for the serial engines, ≤ threads + channel
//! capacity for the parallel ones).
//!
//! Every engine admits classes in serial (canonical pre-order) class
//! order, so stopping after `N` admissions yields exactly the first `N`
//! classes' patterns — byte-identical to a prefix of the full serial
//! output.

use crate::channel::recover;
use crate::sync::{Arc, AtomicBool, AtomicUsize, Mutex, Ordering};
use std::time::{Duration, Instant};

use crate::miner::MiningResult;

/// A cloneable cancellation flag shared between the caller and a running
/// mining engine. Cancelling is a one-way, idempotent operation; engines
/// poll the token cooperatively at class granularity (every worker
/// observes it within one task).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Safe from any thread, any number of times.
    pub fn cancel(&self) {
        // Release: everything the cancelling thread did before `cancel`
        // happens-before a worker that observes the flag (workers act on
        // the observation — the store is a happens-before carrier, not a
        // plain counter).
        self.flag.store(true, Ordering::Release); // tsg-lint: ordering(ORD-01)
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        // Acquire: pairs with the Release store in `cancel`.
        self.flag.load(Ordering::Acquire) // tsg-lint: ordering(ORD-01)
    }
}

/// Resource ceilings for a mining run. All fields default to unlimited;
/// each is checked at class-admission time and never tears a class.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Wall-clock limit from the start of the run.
    pub deadline: Option<Duration>,
    /// Ceiling on the engines' tracked peak resident bytes (occurrence
    /// indices plus in-flight embedding lists — the same high-water marks
    /// reported as `peak_oi_bytes` / `peak_embedding_bytes`).
    pub max_peak_bytes: Option<usize>,
    /// Stop admitting classes once this many patterns have been emitted.
    /// The class that crosses the ceiling still completes, so the final
    /// count may overshoot by the last class's patterns.
    pub max_patterns: Option<usize>,
    /// Admit at most this many pattern classes.
    pub max_classes: Option<usize>,
}

impl Budget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock deadline.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Sets the peak-resident-bytes ceiling.
    pub fn max_peak_bytes(mut self, bytes: usize) -> Self {
        self.max_peak_bytes = Some(bytes);
        self
    }

    /// Sets the emitted-pattern ceiling.
    pub fn max_patterns(mut self, patterns: usize) -> Self {
        self.max_patterns = Some(patterns);
        self
    }

    /// Sets the admitted-class ceiling.
    pub fn max_classes(mut self, classes: usize) -> Self {
        self.max_classes = Some(classes);
        self
    }

    /// Whether every ceiling is unset.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_peak_bytes.is_none()
            && self.max_patterns.is_none()
            && self.max_classes.is_none()
    }
}

/// Which [`Budget`] ceiling a run exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// `max_peak_bytes`.
    Memory,
    /// `max_patterns`.
    Patterns,
    /// `max_classes`.
    Classes,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetKind::Memory => "memory",
            BudgetKind::Patterns => "patterns",
            BudgetKind::Classes => "classes",
        })
    }
}

/// Why a mining run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationReason {
    /// The search space was exhausted; the result is complete.
    Completed,
    /// A [`CancelToken`] was cancelled (or a deterministic test trigger
    /// fired).
    Cancelled,
    /// The [`Budget::deadline`] passed.
    DeadlineExceeded,
    /// A non-time budget ceiling was hit.
    BudgetExceeded {
        /// The ceiling that was hit.
        which: BudgetKind,
    },
}

impl std::fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TerminationReason::Completed => f.write_str("completed"),
            TerminationReason::Cancelled => f.write_str("cancelled"),
            TerminationReason::DeadlineExceeded => f.write_str("deadline exceeded"),
            TerminationReason::BudgetExceeded { which } => {
                write!(f, "budget exceeded ({which})")
            }
        }
    }
}

/// How (and how far) a governed run got.
#[derive(Clone, Debug)]
pub struct Termination {
    /// Why the run stopped.
    pub reason: TerminationReason,
    /// Pattern classes fully enumerated and present in the output.
    pub classes_finished: usize,
    /// Classes observed but not in the output: rejected at admission,
    /// still queued at the stop point, or completed past the
    /// deterministic prefix cut and discarded.
    pub classes_abandoned: usize,
    /// DFS codes of the unfinished work at the stop point, in canonical
    /// order, capped at [`FRONTIER_CAP`] entries. Empty for a completed
    /// run. Resuming a run from here is possible in principle: the
    /// frontier plus the finished-class count identify the exact cut.
    pub frontier: Vec<String>,
}

/// Maximum frontier codes retained in a [`Termination`] (the abandoned
/// *count* is always exact; only the code listing is capped).
pub const FRONTIER_CAP: usize = 32;

impl Termination {
    /// A completed run over `classes` classes.
    pub(crate) fn completed(classes: usize) -> Self {
        Termination {
            reason: TerminationReason::Completed,
            classes_finished: classes,
            classes_abandoned: 0,
            frontier: Vec::new(),
        }
    }

    /// Whether the run exhausted the search space.
    pub fn is_complete(&self) -> bool {
        self.reason == TerminationReason::Completed
    }
}

/// A mining result together with its termination report. Produced by the
/// `*_governed` engine entry points; `result.patterns` is always a
/// completed prefix of the full serial pattern stream (the whole stream
/// when `termination.is_complete()`).
#[derive(Clone, Debug)]
pub struct MiningOutcome {
    /// The (possibly partial) mining result.
    pub result: MiningResult,
    /// Why and where the run stopped.
    pub termination: Termination,
}

/// Caller-side governance inputs for a `*_governed` engine run.
#[derive(Clone, Debug, Default)]
pub struct GovernOptions {
    /// Cooperative cancellation flag, polled at class granularity.
    pub cancel: Option<CancelToken>,
    /// Resource ceilings.
    pub budget: Budget,
    /// Deterministic test trigger: behave as if the cancel token flipped
    /// at the admission of class `N` (0-based count of prior admissions;
    /// `Some(0)` cancels before any class). Unlike a real token or
    /// deadline this fires at an exact, reproducible point, so the
    /// fault-injection matrix can assert byte-identical partial results
    /// without wall-clock flakiness. Test-only plumbing (driven by
    /// `tsg-testkit`).
    #[doc(hidden)]
    pub cancel_after_classes: Option<usize>,
}

impl GovernOptions {
    /// Governance with a budget and no cancel token.
    pub fn with_budget(budget: Budget) -> Self {
        GovernOptions {
            budget,
            ..GovernOptions::default()
        }
    }

    /// Governance with a cancel token and an unlimited budget.
    pub fn with_cancel(cancel: CancelToken) -> Self {
        GovernOptions {
            cancel: Some(cancel),
            ..GovernOptions::default()
        }
    }
}

/// The engines' shared admission gate. One `Governor` lives per run,
/// shared by reference across workers; all state is atomic or
/// first-wins-locked, so any thread can trip it and every thread observes
/// the stop on its next poll.
#[derive(Debug)]
#[doc(hidden)] // public only for the model-checker contract tests
pub struct Governor {
    /// Disabled governors (the ungoverned entry points) short-circuit
    /// every check to a single branch.
    enabled: bool,
    cancel: Option<CancelToken>,
    start: Instant,
    deadline: Option<Duration>,
    max_peak_bytes: Option<usize>,
    max_patterns: Option<usize>,
    /// Effective admission ceiling: `min(max_classes, cancel_after)`,
    /// with the reason to report if it is the binding one.
    class_limit: Option<(usize, TerminationReason)>,
    admitted: AtomicUsize,
    patterns: AtomicUsize,
    stopped: AtomicBool,
    reason: Mutex<Option<TerminationReason>>,
}

impl Governor {
    /// A no-op governor for the ungoverned entry points: `admit_class`
    /// costs one branch, nothing is counted.
    pub fn disabled() -> Self {
        Governor {
            enabled: false,
            ..Governor::new(&GovernOptions::default())
        }
    }

    pub fn new(opts: &GovernOptions) -> Self {
        let class_limit = match (opts.budget.max_classes, opts.cancel_after_classes) {
            (Some(m), Some(n)) if n < m => Some((n, TerminationReason::Cancelled)),
            (Some(m), _) => Some((
                m,
                TerminationReason::BudgetExceeded {
                    which: BudgetKind::Classes,
                },
            )),
            (None, Some(n)) => Some((n, TerminationReason::Cancelled)),
            (None, None) => None,
        };
        Governor {
            enabled: true,
            cancel: opts.cancel.clone(),
            start: Instant::now(),
            deadline: opts.budget.deadline,
            max_peak_bytes: opts.budget.max_peak_bytes,
            max_patterns: opts.budget.max_patterns,
            class_limit,
            admitted: AtomicUsize::new(0),
            patterns: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            reason: Mutex::new(None),
        }
    }

    /// Records the first stop reason and halts admissions. Later trips
    /// (races from other workers) keep the first reason.
    fn trip(&self, reason: TerminationReason) {
        let mut slot = recover(self.reason.lock());
        if slot.is_none() {
            *slot = Some(reason);
        }
        drop(slot);
        // Release: pairs with the Acquire load in `admit_class` — a
        // worker that sees the stop also sees the recorded reason (and
        // whatever state the tripping thread settled before stopping).
        self.stopped.store(true, Ordering::Release); // tsg-lint: ordering(ORD-02)
    }

    /// The class-granularity admission gate: checks the cancel token, the
    /// deadline, and every budget ceiling, with `peak_bytes` the caller's
    /// current tracked high-water mark. Returns `false` — permanently,
    /// for every subsequent caller — once any check fails.
    pub fn admit_class(&self, peak_bytes: usize) -> bool {
        if !self.enabled {
            return true;
        }
        // Acquire: pairs with the Release store in `trip`.
        if self.stopped.load(Ordering::Acquire) { // tsg-lint: ordering(ORD-02)
            return false;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.trip(TerminationReason::Cancelled);
            return false;
        }
        if self.deadline.is_some_and(|d| self.start.elapsed() >= d) {
            self.trip(TerminationReason::DeadlineExceeded);
            return false;
        }
        if self.max_peak_bytes.is_some_and(|m| peak_bytes > m) {
            self.trip(TerminationReason::BudgetExceeded {
                which: BudgetKind::Memory,
            });
            return false;
        }
        if self
            .max_patterns
            .is_some_and(|m| self.patterns.load(Ordering::Acquire) >= m) // tsg-lint: ordering(ORD-03)
        {
            self.trip(TerminationReason::BudgetExceeded {
                which: BudgetKind::Patterns,
            });
            return false;
        }
        if let Some((limit, reason)) = self.class_limit {
            // CAS admission: exactly `limit` classes pass, even when
            // parallel workers race this gate. Genuinely relaxed: the
            // ticket count is the whole payload and the location's
            // modification order already totally orders the RMWs — no
            // other memory rides on the edge.
            let won = self
                .admitted
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| { // tsg-lint: ordering(ORD-04)
                    (k < limit).then_some(k + 1)
                })
                .is_ok();
            if !won {
                self.trip(reason);
                return false;
            }
        } else {
            // Genuinely relaxed: a pure tally, only read after workers
            // join.
            self.admitted.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-05)
        }
        true
    }

    /// Mid-run poll for non-admission points (e.g. the sharded miner's
    /// shard claims): checks only the cancel token and the deadline —
    /// the conditions that stay in force after tripping. Deliberately
    /// *not* the stop flag: a budget trip at admission time must not
    /// abandon classes that were already admitted (admitted classes
    /// always finish), whereas a cancelled token or expired deadline
    /// keeps reading true here and stops in-flight work within one class.
    pub fn should_stop(&self) -> bool {
        if !self.enabled {
            return false;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.trip(TerminationReason::Cancelled);
            return true;
        }
        if self.deadline.is_some_and(|d| self.start.elapsed() >= d) {
            self.trip(TerminationReason::DeadlineExceeded);
            return true;
        }
        false
    }

    /// Class-boundary poll, run by the sharded miner's Pass 2 after each
    /// enumerated class: the [`Self::should_stop`] conditions plus the
    /// pattern ceiling, so a crossed ceiling ends the run before another
    /// batch of shard reads starts. Safe at class boundaries only —
    /// between classes nothing admitted is in flight, so stopping here
    /// never tears a class.
    pub fn should_stop_class_boundary(&self) -> bool {
        if !self.enabled {
            return false;
        }
        if self.should_stop() {
            return true;
        }
        if self
            .max_patterns
            .is_some_and(|m| self.patterns.load(Ordering::Acquire) >= m) // tsg-lint: ordering(ORD-03)
        {
            self.trip(TerminationReason::BudgetExceeded {
                which: BudgetKind::Patterns,
            });
            return true;
        }
        false
    }

    /// Accumulates emitted patterns toward `max_patterns`. Called after a
    /// class finishes; the ceiling is enforced at the next admission.
    pub fn add_patterns(&self, n: usize) {
        if self.enabled && self.max_patterns.is_some() {
            // Release: the ceiling check in `admit_class` reads this
            // counter with Acquire and *acts* on it (stops the run), so
            // the classes counted must be visible to the thread that
            // trips the ceiling — a happens-before carrier, not a stat.
            self.patterns.fetch_add(n, Ordering::Release); // tsg-lint: ordering(ORD-03)
        }
    }

    /// Assembles the termination report. `frontier` should arrive in
    /// canonical order; it is capped at [`FRONTIER_CAP`] entries here.
    ///
    /// A run that abandoned nothing is `Completed` no matter what the
    /// trip state says: a ceiling or deadline observed at a poll point
    /// *after* the last class finished cost the run nothing, and
    /// reporting it would claim a partial result where the stream is in
    /// fact whole.
    pub fn finish(
        &self,
        classes_finished: usize,
        classes_abandoned: usize,
        mut frontier: Vec<String>,
    ) -> Termination {
        let reason = if classes_abandoned == 0 && frontier.is_empty() {
            TerminationReason::Completed
        } else {
            recover(self.reason.lock()).unwrap_or(TerminationReason::Completed)
        };
        frontier.truncate(FRONTIER_CAP);
        Termination {
            reason,
            classes_finished,
            classes_abandoned,
            frontier,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancel_is_idempotent_and_shared() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        u.cancel();
        assert!(t.is_cancelled() && u.is_cancelled());
    }

    #[test]
    fn disabled_governor_admits_everything() {
        let g = Governor::disabled();
        for _ in 0..1000 {
            assert!(g.admit_class(usize::MAX));
        }
        assert!(!g.should_stop());
        assert!(g.finish(1000, 0, Vec::new()).is_complete());
    }

    #[test]
    fn unlimited_governor_completes() {
        let g = Governor::new(&GovernOptions::default());
        for _ in 0..100 {
            assert!(g.admit_class(1 << 40));
        }
        let t = g.finish(100, 0, Vec::new());
        assert_eq!(t.reason, TerminationReason::Completed);
    }

    #[test]
    fn cancel_token_trips_admission() {
        let token = CancelToken::new();
        let g = Governor::new(&GovernOptions::with_cancel(token.clone()));
        assert!(g.admit_class(0));
        token.cancel();
        assert!(!g.admit_class(0));
        assert!(g.should_stop());
        let t = g.finish(1, 1, vec!["(0,1,a-b)".into()]);
        assert_eq!(t.reason, TerminationReason::Cancelled);
        assert_eq!(t.classes_finished, 1);
        assert_eq!(t.classes_abandoned, 1);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = Governor::new(&GovernOptions::with_budget(
            Budget::unlimited().deadline(Duration::ZERO),
        ));
        assert!(!g.admit_class(0));
        // The rejected class counts as abandoned — the engines always
        // report it, and `finish` treats a nothing-lost run as complete.
        assert_eq!(
            g.finish(0, 1, Vec::new()).reason,
            TerminationReason::DeadlineExceeded
        );
    }

    #[test]
    fn class_budget_admits_exactly_the_limit() {
        let g = Governor::new(&GovernOptions::with_budget(
            Budget::unlimited().max_classes(3),
        ));
        let admitted = (0..10).filter(|_| g.admit_class(0)).count();
        assert_eq!(admitted, 3);
        assert_eq!(
            g.finish(3, 7, Vec::new()).reason,
            TerminationReason::BudgetExceeded {
                which: BudgetKind::Classes
            }
        );
    }

    #[test]
    fn class_budget_is_race_free() {
        let g = Governor::new(&GovernOptions::with_budget(
            Budget::unlimited().max_classes(50),
        ));
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        if g.admit_class(0) {
                            admitted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(admitted.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn memory_budget_compares_peak() {
        let g = Governor::new(&GovernOptions::with_budget(
            Budget::unlimited().max_peak_bytes(100),
        ));
        assert!(g.admit_class(100), "at the ceiling is still within budget");
        assert!(!g.admit_class(101));
        assert_eq!(
            g.finish(1, 1, Vec::new()).reason,
            TerminationReason::BudgetExceeded {
                which: BudgetKind::Memory
            }
        );
    }

    #[test]
    fn pattern_budget_trips_next_admission() {
        let g = Governor::new(&GovernOptions::with_budget(
            Budget::unlimited().max_patterns(10),
        ));
        assert!(g.admit_class(0));
        g.add_patterns(4);
        assert!(g.admit_class(0), "under the ceiling");
        g.add_patterns(7);
        assert!(!g.admit_class(0), "11 ≥ 10");
        assert_eq!(
            g.finish(2, 1, Vec::new()).reason,
            TerminationReason::BudgetExceeded {
                which: BudgetKind::Patterns
            }
        );
    }

    #[test]
    fn cancel_after_trigger_reports_cancelled() {
        let g = Governor::new(&GovernOptions {
            cancel_after_classes: Some(2),
            ..GovernOptions::default()
        });
        assert!(g.admit_class(0));
        assert!(g.admit_class(0));
        assert!(!g.admit_class(0));
        assert_eq!(g.finish(2, 1, Vec::new()).reason, TerminationReason::Cancelled);
    }

    #[test]
    fn first_trip_wins() {
        let g = Governor::new(&GovernOptions::with_budget(
            Budget::unlimited().max_classes(1),
        ));
        assert!(g.admit_class(0));
        assert!(!g.admit_class(0)); // classes ceiling
        g.trip(TerminationReason::Cancelled); // later trip must not override
        assert_eq!(
            g.finish(1, 1, Vec::new()).reason,
            TerminationReason::BudgetExceeded {
                which: BudgetKind::Classes
            }
        );
    }

    #[test]
    fn class_boundary_poll_sees_pattern_ceiling() {
        let g = Governor::new(&GovernOptions::with_budget(
            Budget::unlimited().max_patterns(5),
        ));
        assert!(!g.should_stop_class_boundary(), "under the ceiling");
        g.add_patterns(5);
        assert!(g.should_stop_class_boundary());
        assert!(
            !g.should_stop(),
            "the plain poll stays blind to budgets: admitted classes finish"
        );
    }

    #[test]
    fn nothing_lost_reports_completed_despite_late_trip() {
        let g = Governor::new(&GovernOptions::with_budget(
            Budget::unlimited().max_patterns(5),
        ));
        assert!(g.admit_class(0));
        g.add_patterns(9);
        // A poll after the final class crossed the ceiling trips the
        // governor, but the run lost nothing — it completed.
        assert!(g.should_stop_class_boundary());
        assert!(g.finish(1, 0, Vec::new()).is_complete());
    }

    #[test]
    fn frontier_is_capped_but_counts_are_exact() {
        let g = Governor::new(&GovernOptions::default());
        let frontier: Vec<String> = (0..100).map(|i| format!("code-{i}")).collect();
        let t = g.finish(5, 100, frontier);
        assert_eq!(t.frontier.len(), FRONTIER_CAP);
        assert_eq!(t.classes_abandoned, 100);
    }
}
