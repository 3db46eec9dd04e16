//! Latency accumulation for the L2-miss-latency study (Figs 12–13).

use dca_sim_core::{Duration, Histogram, RunningMean, SimTime};

/// Accumulates request latencies with both a mean and a log2 histogram.
#[derive(Clone, Debug, Default)]
pub struct LatencyStat {
    mean: RunningMean,
    hist: Histogram,
}

impl LatencyStat {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one request: issued at `start`, data at `end`.
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        let d = end.since(start);
        self.mean.push(d.as_ns_f64());
        self.hist.record(d.ps());
    }

    /// Record a pre-computed duration.
    pub fn record_duration(&mut self, d: Duration) {
        self.mean.push(d.as_ns_f64());
        self.hist.record(d.ps());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.mean.count()
    }

    /// Mean latency in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.mean.mean()
    }

    /// Approximate p99 in nanoseconds (log2-bucket resolution).
    pub fn p99_ns(&self) -> f64 {
        self.hist.quantile(0.99) as f64 / 1000.0
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: &LatencyStat) {
        self.mean.merge(&other.mean);
        self.hist.merge(&other.hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + Duration::from_ns(ns)
    }

    #[test]
    fn records_and_averages() {
        let mut l = LatencyStat::new();
        l.record(t(0), t(100));
        l.record(t(50), t(150));
        l.record(t(0), t(400));
        assert_eq!(l.count(), 3);
        assert!((l.mean_ns() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyStat::new();
        let mut b = LatencyStat::new();
        a.record_duration(Duration::from_ns(100));
        b.record_duration(Duration::from_ns(300));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_ns() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn p99_reflects_tail() {
        let mut l = LatencyStat::new();
        for _ in 0..99 {
            l.record_duration(Duration::from_ns(10));
        }
        l.record_duration(Duration::from_ns(10_000));
        assert!(l.p99_ns() >= 10.0);
    }
}
