//! Concurrent high-water-mark byte accounting.

use crate::sync::{AtomicUsize, Ordering};

/// Tracks a current byte total and its high-water mark across threads.
///
/// `peak()` is a true high-water mark of *concurrently resident* bytes:
/// every `add` bumps the current total and folds it into the peak before
/// the matching `sub` releases it. (The peak can slightly overestimate
/// the instantaneous maximum when two `add`s race their `fetch_max`es,
/// but it never underestimates — the conservative direction for a
/// memory bound.)
#[derive(Debug, Default)]
#[doc(hidden)] // public only for the model-checker contract tests
pub struct MemoryGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl MemoryGauge {
    pub fn new() -> Self {
        MemoryGauge::default()
    }

    /// Records `bytes` becoming resident.
    pub fn add(&self, bytes: usize) {
        // Release on both counters: `current()` feeds live admission
        // decisions and `peak()` is read by the reporting thread — both
        // reads act on the value, so the updates carry happens-before
        // (post-join reads are *additionally* ordered by the join edge).
        let now = self.current.fetch_add(bytes, Ordering::Release) + bytes; // tsg-lint: ordering(ORD-06)
        self.peak.fetch_max(now, Ordering::Release); // tsg-lint: ordering(ORD-06)
    }

    /// Records `bytes` being released.
    pub fn sub(&self, bytes: usize) {
        // Release: pairs with the Acquire read in `current()`.
        self.current.fetch_sub(bytes, Ordering::Release); // tsg-lint: ordering(ORD-06)
    }

    /// Highest value `current` has reached.
    pub fn peak(&self) -> usize {
        // Acquire: pairs with the Release `fetch_max` in `add`. The
        // reporting thread reads this after joining the workers — the
        // join already synchronizes-with their updates — but the Acquire
        // keeps the read well-ordered even from monitoring threads that
        // never join.
        self.peak.load(Ordering::Acquire) // tsg-lint: ordering(ORD-07)
    }

    /// Bytes resident right now. Returns to zero after a run — including
    /// an early-terminated one — once every reservation has been released
    /// (the governance tests assert this balance).
    pub fn current(&self) -> usize {
        // Acquire: pairs with the Release updates in `add`/`sub`.
        self.current.load(Ordering::Acquire) // tsg-lint: ordering(ORD-07)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_concurrent_residency_not_per_item_max() {
        let g = MemoryGauge::new();
        g.add(100);
        g.add(50); // two items resident at once: 150
        g.sub(100);
        g.add(20);
        g.sub(50);
        g.sub(20);
        assert_eq!(g.peak(), 150);
    }

    #[test]
    fn peak_is_monotone_under_threads() {
        let g = MemoryGauge::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        g.add(3);
                        g.sub(3);
                    }
                });
            }
        });
        assert!(g.peak() >= 3);
        assert!(g.peak() <= 24, "peak {} exceeds 8 threads * 3 bytes", g.peak());
        assert_eq!(g.current.load(Ordering::Relaxed), 0);
    }
}
