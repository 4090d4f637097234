//! Reducers over timing samples and the failure ledger.

/// Nearest-rank percentile: the smallest sample with at least `q·n`
/// samples at or below it. `q` in `(0, 1]`; `None` on no samples.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The median (nearest rank at ½).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// The mean of the samples left after dropping the lowest and the
/// highest `trim` share (rounded down) of them; `trim` in `[0, ½)`.
/// `None` on no samples.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> Option<f64> {
    debug_assert!((0.0..0.5).contains(&trim));
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (trim * v.len() as f64).floor() as usize;
    let kept = &v[cut..v.len() - cut];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// The p50 reported for request latencies: the mean of the middle tenth
/// of the samples (a 45% trimmed mean). It estimates the median, but
/// where the middle rank falls on the gap between two groups of requests
/// of different cost it averages across the gap instead of jumping to
/// whichever side host noise puts that one rank on.
pub fn centre(samples: &[f64]) -> Option<f64> {
    trimmed_mean(samples, 0.45)
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The rank reported as "p95": the nearest-rank 95th percentile, lowered
/// until at least [`TAIL_BEYOND`] samples lie beyond it, and never below
/// the median. Returns the value and the percentile actually used.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let p95 = (0.95 * n as f64).ceil() as usize;
    let half = n.div_ceil(2);
    let rank = p95.min(n.saturating_sub(TAIL_BEYOND)).max(half);
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some((v[rank - 1], rank as f64 / n as f64))
}

/// Outcome of one attempted operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, complete, and equal to the reference.
    Ok,
    /// Answered but different from the reference.
    Wrong,
    /// Refused admission by the server.
    Shed,
    /// A truthful but partial (budget/deadline-tripped) answer.
    Degraded,
    /// No answer: connection error or a typed error response.
    Lost,
}

/// Counts operations attempted and failed; every non-`Ok` outcome fails.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Shed responses.
    pub shed: u64,
    /// Degraded (partial) responses.
    pub degraded: u64,
    /// Lost requests or error responses.
    pub lost: u64,
    /// Answers that did not match the reference.
    pub wrong: u64,
}

impl Ledger {
    /// Records one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Wrong => self.wrong += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Degraded => self.degraded += 1,
            Outcome::Lost => self.lost += 1,
        }
    }

    /// Records a check that either matched or did not.
    pub fn check(&mut self, matched: bool) {
        self.record(if matched { Outcome::Ok } else { Outcome::Wrong });
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.shed + self.degraded + self.lost + self.wrong
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(nearest_rank(&v, 0.5), Some(3.0));
        assert_eq!(nearest_rank(&v, 0.2), Some(1.0));
        assert_eq!(nearest_rank(&v, 0.21), Some(2.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(5.0));
        assert_eq!(median(&[7.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        // 10 samples at 10%: the 1 and the 100 go, 2..=9 remain.
        let mut v: Vec<f64> = (1..=9).map(f64::from).collect();
        v.push(100.0);
        assert_eq!(trimmed_mean(&v, 0.1), Some(5.5));
        // Fewer than 10 samples at 10%: nothing is dropped.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0], 0.1), Some(3.0));
        assert_eq!(trimmed_mean(&[4.0], 0.1), Some(4.0));
        assert_eq!(trimmed_mean(&[], 0.1), None);
        // Two clusters: the mean moves with their shares, by a step per
        // sample, where the median jumps from one cluster to the other.
        let mix = |slow: usize| -> Vec<f64> {
            (0..20)
                .map(|i| if i < slow { 14.0 } else { 10.0 })
                .collect()
        };
        assert_eq!(median(&mix(9)), Some(10.0));
        assert_eq!(median(&mix(11)), Some(14.0));
        let (a, b) = (
            trimmed_mean(&mix(9), 0.1).unwrap(),
            trimmed_mean(&mix(11), 0.1).unwrap(),
        );
        assert!((b - a - 0.5).abs() < 1e-9, "{a} {b}");
        // Two equal groups: the median is the top of the lower one, the
        // centre averages the middle tenth across the gap.
        let halves: Vec<f64> = (0..40).map(|i| if i < 20 { 10.0 } else { 14.0 }).collect();
        assert_eq!(median(&halves), Some(10.0));
        assert_eq!(centre(&halves), Some(12.0));
        assert_eq!(centre(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 400 samples: the true p95 (rank 380) has 20 beyond it.
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&v), Some((380.0, 0.95)));
        // 100 samples: p95 would leave 5 beyond, so rank 90 is used.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 0.9)));
        // 200 samples: exactly 10 beyond rank 190 = p95.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), Some((190.0, 0.95)));
        // Too few samples for any tail: falls back to the median.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v), Some((6.0, 0.5)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn ledger_counts_every_failure_kind() {
        let mut l = Ledger::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Shed,
            Outcome::Degraded,
            Outcome::Lost,
            Outcome::Wrong,
            Outcome::Ok,
            Outcome::Ok,
        ] {
            l.record(o);
        }
        assert_eq!(l.attempted, 8);
        assert_eq!(l.failed(), 4);
        assert_eq!(l.failed_frac(), 0.5);
        l.check(true);
        l.check(false);
        assert_eq!((l.attempted, l.failed(), l.wrong), (10, 5, 2));
        assert_eq!(Ledger::default().failed_frac(), 0.0);
    }
}
