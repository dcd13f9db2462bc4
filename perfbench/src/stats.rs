//! Latency summaries: nearest-rank percentiles over recorded samples, and
//! completion rates over fixed windows of a measured phase.

use std::time::{Duration, Instant};

/// The highest percentile this benchmark reports. A run needs at least
/// [`MIN_SAMPLES_FOR_P99`] samples so that ten of them lie beyond it.
pub const P99: f64 = 0.99;

/// Sample count at which ten samples lie beyond the 99th percentile.
pub const MIN_SAMPLES_FOR_P99: usize = 1_000;

/// Windows a measured phase is cut into for [`Samples::windowed_rate`].
pub const RATE_WINDOWS: usize = 10;

/// A set of latency samples in nanoseconds, with the completion time of
/// each operation that was [`Samples::record`]ed.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    done_ns: Vec<u64>,
}

impl Samples {
    /// Records an operation that started at `started` and has just
    /// completed, within a phase that began at `phase`.
    pub fn record(&mut self, phase: Instant, started: Instant) {
        let now = Instant::now();
        self.ns.push((now - started).as_nanos() as u64);
        self.done_ns.push((now - phase).as_nanos() as u64);
    }

    /// Records one sample given in nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Appends every sample of `other` (recorded against the same phase
    /// start).
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.done_ns.extend_from_slice(&other.done_ns);
    }

    /// Operations completed per second: the median over [`RATE_WINDOWS`]
    /// equal windows of `wall`, so a disturbance shorter than half the phase
    /// does not move it.
    pub fn windowed_rate(&self, wall: Duration) -> f64 {
        let window_ns = (wall.as_nanos() as u64 / RATE_WINDOWS as u64).max(1);
        let mut counts = [0u64; RATE_WINDOWS];
        for &done in &self.done_ns {
            counts[((done / window_ns) as usize).min(RATE_WINDOWS - 1)] += 1;
        }
        let rates: Vec<f64> = counts
            .iter()
            .map(|&n| n as f64 * 1e9 / window_ns as f64)
            .collect();
        median(&rates)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Sum of all samples, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`) in nanoseconds, or 0
    /// for an empty set.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, q)
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_ns(0.5) / 1e3
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.quantile_ns(P99) / 1e3
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
fn nearest_rank(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of a list of measurements (the mean of the middle two for an
/// even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for ns in 1..=1_000 {
            s.push_ns(ns * 1_000);
        }
        assert_eq!(s.p50_us(), 500.0);
        assert_eq!(s.p99_us(), 990.0);
        assert_eq!(s.quantile_ns(1.0), 1_000_000.0);
        assert_eq!(Samples::default().p99_us(), 0.0);
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        let phase = Instant::now();
        let mut s = Samples::default();
        // 10 windows of 100 ms: nine with 5 completions, one with 50.
        for w in 0..10u64 {
            for _ in 0..if w == 3 { 50 } else { 5 } {
                s.ns.push(1);
                s.done_ns.push(w * 100_000_000 + 1);
            }
        }
        assert_eq!(s.windowed_rate(Duration::from_secs(1)), 50.0);
        s.record(phase, phase);
        assert_eq!(s.len(), 96);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
