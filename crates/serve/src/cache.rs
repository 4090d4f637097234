//! The θ-keyed result cache.
//!
//! # Soundness argument
//!
//! Generalized-frequency is a pure threshold filter: the frequent
//! pattern set at θ′ is by definition `{p : sup(p) ≥ ⌈θ′·|D|⌉}`, and a
//! pattern is *over-generalized* iff some specialization has **equal**
//! support — a property that never mentions θ. An equally-frequent
//! specialization is therefore frequent at θ′ exactly when the pattern
//! itself is, so minimality (non-over-generalization) is
//! θ-independent for every pattern above threshold. Hence for θ′ ≥ θ:
//!
//! ```text
//! P(θ′)  =  { p ∈ P(θ) : sup(p) ≥ ⌈θ′·|D|⌉ }
//! ```
//!
//! and since every engine emits patterns in one canonical,
//! support-independent order (classes in canonical DFS-code pre-order,
//! members in structural enumeration order — the θ-monotonicity
//! metamorphic relation of `tsg-testkit` checks the subset direction on
//! every engine), filtering a cached θ run by the θ′ support floor
//! reproduces the fresh θ′ run *byte-identically*. The serve crate's
//! `cache_soundness` suite proptests exactly that, comparing the wire
//! rendering of both sides.
//!
//! # Policy
//!
//! * Only **complete** runs are cached — a budget- or deadline-tripped
//!   partial prefix is truthful but not the full θ answer, and filtering
//!   it would silently under-report. The server enforces this; the cache
//!   also asserts it.
//! * Entries are keyed by the full non-θ configuration
//!   ([`ConfigKey`]); a lookup with a different `max_edges` or
//!   enhancement set never matches.
//! * A run at θ subsumes every cached run at θ″ ≥ θ with the same key,
//!   so inserts drop subsumed entries and skip self-subsumed ones.
//! * Capacity is a simple entry cap with least-recently-used eviction;
//!   the resident sets are pattern lists, small next to the database.

use std::sync::Arc;
use std::sync::Mutex; // tsg-lint: allow(facade) — serve is std-only-threaded by design (DESIGN.md §16); the cache lock is leaf-level, no cross-lock protocol to model-check
use taxogram_core::{MiningResult, Pattern, Termination};

/// Everything about a mining request that changes the answer *except* θ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigKey {
    /// Pattern-size cap in edges.
    pub max_edges: Option<usize>,
    /// Baseline (no-enhancements) configuration.
    pub baseline: bool,
}

#[derive(Debug)]
struct Entry {
    key: ConfigKey,
    theta: f64,
    run: Arc<MiningResult>,
    /// The cached run's own termination report, echoed on hits.
    termination: Termination,
    /// Monotone recency stamp for LRU eviction.
    used: u64,
}

/// What [`ResultCache::lookup`] hands back: the cached run, the θ it was
/// mined at, and the **real** [`Termination`] of that run — a hit echoes
/// the cached run's report instead of fabricating one, keeping the
/// protocol's truthful-termination claim honest.
#[derive(Clone, Debug)]
pub struct CacheHit {
    /// The cached complete run.
    pub run: Arc<MiningResult>,
    /// The θ the run was mined at (≤ the query θ).
    pub theta: f64,
    /// The cached run's termination report.
    pub termination: Termination,
}

/// A bounded, thread-safe θ-keyed cache of complete mining runs.
#[derive(Debug)]
pub struct ResultCache {
    entries: Mutex<(Vec<Entry>, u64)>,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` runs; zero disables caching.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: Mutex::new((Vec::new(), 0)),
            capacity,
        }
    }

    /// Whether caching is disabled.
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Finds the best cached run able to answer a query at `theta`: the
    /// entry with the same key and the **largest** cached θ ≤ `theta`
    /// (fewest patterns to filter through).
    pub fn lookup(&self, key: &ConfigKey, theta: f64) -> Option<CacheHit> {
        let mut guard = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let (entries, clock) = &mut *guard;
        *clock += 1;
        let now = *clock;
        let best = entries
            .iter_mut()
            .filter(|e| e.key == *key && e.theta <= theta)
            .max_by(|a, b| a.theta.partial_cmp(&b.theta).expect("cached θ is finite"))?; // tsg-lint: allow(panic) — cached theta values are validated finite at admission
        best.used = now;
        Some(CacheHit {
            run: Arc::clone(&best.run),
            theta: best.theta,
            termination: best.termination.clone(),
        })
    }

    /// Caches a **complete** run mined at `theta`, together with its
    /// own `termination` report. Subsumed entries (same key, θ″ ≥ θ)
    /// are dropped; if an entry already subsumes this run, the insert
    /// is a no-op.
    pub fn insert(
        &self,
        key: ConfigKey,
        theta: f64,
        run: Arc<MiningResult>,
        termination: Termination,
    ) {
        debug_assert!(termination.is_complete(), "only complete runs are cacheable");
        debug_assert!(theta.is_finite());
        if self.capacity == 0 {
            return;
        }
        let mut guard = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let (entries, clock) = &mut *guard;
        if entries.iter().any(|e| e.key == key && e.theta <= theta) {
            return;
        }
        entries.retain(|e| !(e.key == key && e.theta >= theta));
        *clock += 1;
        let used = *clock;
        entries.push(Entry {
            key,
            theta,
            run,
            termination,
            used,
        });
        while entries.len() > self.capacity {
            let lru = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.used)
                .map(|(i, _)| i)
                .expect("non-empty above capacity"); // tsg-lint: allow(panic) — entries is non-empty when above capacity
            entries.swap_remove(lru);
        }
    }

    /// Cached entry count (for stats reporting).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).0.len()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Filters a cached run down to the patterns frequent at the (higher)
/// support floor `min_support_count`, preserving the engine's emission
/// order — by the module-level soundness argument, byte-identical to a
/// fresh mine at the corresponding θ′. The patterns are borrowed from the
/// run, not cloned: a hit costs one pointer per surviving pattern.
pub fn filter_run(run: &MiningResult, min_support_count: usize) -> Vec<&Pattern> {
    run.patterns
        .iter()
        .filter(|p| p.support_count >= min_support_count)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxogram_core::{MiningStats, TerminationReason};
    use tsg_graph::LabeledGraph;

    fn done() -> Termination {
        Termination {
            reason: TerminationReason::Completed,
            classes_finished: 1,
            classes_abandoned: 0,
            frontier: Vec::new(),
        }
    }

    fn run(pattern_supports: &[usize]) -> Arc<MiningResult> {
        Arc::new(MiningResult {
            patterns: pattern_supports
                .iter()
                .map(|&s| Pattern {
                    graph: LabeledGraph::with_nodes([tsg_graph::NodeLabel(0)]),
                    support_count: s,
                    support: s as f64 / 4.0,
                })
                .collect(),
            stats: MiningStats::default(),
            min_support_count: 1,
            database_size: 4,
        })
    }

    const KEY: ConfigKey = ConfigKey {
        max_edges: Some(3),
        baseline: false,
    };

    #[test]
    fn lookup_prefers_the_largest_covering_theta() {
        let cache = ResultCache::new(4);
        cache.insert(KEY, 0.2, run(&[4, 3, 2, 1]), done());
        // 0.2 subsumes 0.5, so inserting 0.5 afterwards is a no-op…
        cache.insert(KEY, 0.5, run(&[4, 3]), done());
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup(&KEY, 0.9).unwrap();
        assert_eq!(hit.theta, 0.2);
        assert_eq!(hit.run.patterns.len(), 4);
        assert!(hit.termination.is_complete());
        // …and a lower-θ insert replaces the subsumed 0.2 entry.
        cache.insert(KEY, 0.1, run(&[4, 3, 2, 1, 1]), done());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&KEY, 0.2).unwrap().theta, 0.1);
        // A cached θ above the query θ can not answer it.
        assert!(cache.lookup(&KEY, 0.05).is_none());
    }

    #[test]
    fn different_configs_never_match() {
        let cache = ResultCache::new(4);
        cache.insert(KEY, 0.2, run(&[4]), done());
        let other_edges = ConfigKey {
            max_edges: Some(5),
            ..KEY
        };
        let other_cfg = ConfigKey {
            baseline: true,
            ..KEY
        };
        assert!(cache.lookup(&other_edges, 0.9).is_none());
        assert!(cache.lookup(&other_cfg, 0.9).is_none());
        assert!(cache.lookup(&KEY, 0.9).is_some());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        let k = |e: usize| ConfigKey {
            max_edges: Some(e),
            baseline: false,
        };
        cache.insert(k(1), 0.5, run(&[1]), done());
        cache.insert(k(2), 0.5, run(&[1]), done());
        assert!(cache.lookup(&k(1), 0.5).is_some()); // refresh k(1)
        cache.insert(k(3), 0.5, run(&[1]), done());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&k(2), 0.5).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&k(1), 0.5).is_some());
        assert!(cache.lookup(&k(3), 0.5).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResultCache::new(0);
        assert!(cache.is_disabled());
        cache.insert(KEY, 0.2, run(&[4]), done());
        assert!(cache.is_empty());
        assert!(cache.lookup(&KEY, 0.9).is_none());
    }

    #[test]
    fn filter_preserves_order_and_applies_floor() {
        let r = run(&[4, 1, 3, 2, 1]);
        let f = filter_run(&r, 2);
        assert_eq!(
            f.iter().map(|p| p.support_count).collect::<Vec<_>>(),
            vec![4, 3, 2]
        );
    }
}
