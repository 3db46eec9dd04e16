//! Statistics primitives.
//!
//! The device and controller models record raw counts; the figure harness
//! converts them into the paper's metrics. Everything here is plain data —
//! no interior mutability, no floating-point accumulation surprises (means
//! use the numerically stable Welford update).

use std::fmt;

/// A simple saturating event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Running mean / variance via Welford's algorithm, plus min/max.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningMean {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningMean {
    /// Empty accumulator.
    pub fn new() -> Self {
        RunningMean {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one sample in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with < 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningMean) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A histogram over power-of-two buckets, for latency distributions.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` except bucket 0 which covers `[0, 2)`.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram with 64 log2 buckets.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            total: 0,
            sum: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = if value < 2 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        let idx = idx.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile: returns the *upper bound* of the bucket that
    /// contains the q-th sample (q in \[0,1\]). Log2 buckets make this a
    /// within-2x estimate, which is plenty for latency tail reporting.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    /// Per-bucket counts, for tests and debugging dumps.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(format!("{c}"), "5");
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn running_mean_matches_direct_computation() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut rm = RunningMean::new();
        for &x in &xs {
            rm.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((rm.mean() - mean).abs() < 1e-12);
        assert!((rm.variance() - var).abs() < 1e-12);
        assert_eq!(rm.min(), 1.0);
        assert_eq!(rm.max(), 9.0);
        assert_eq!(rm.count(), 8);
    }

    #[test]
    fn running_mean_merge_equals_sequential() {
        let xs: Vec<f64> = (0..57).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningMean::new();
        for &x in &xs {
            whole.push(x);
        }
        let (a, b) = xs.split_at(23);
        let mut left = RunningMean::new();
        let mut right = RunningMean::new();
        for &x in a {
            left.push(x);
        }
        for &x in b {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn empty_running_mean_is_safe() {
        let rm = RunningMean::new();
        assert_eq!(rm.mean(), 0.0);
        assert_eq!(rm.variance(), 0.0);
        assert!(rm.min().is_nan());
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[1], 2); // 2 and 3
        assert_eq!(h.buckets()[10], 1); // 1024
        assert!((h.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantile_is_monotone() {
        let mut h = Histogram::new();
        for i in 0..1000u64 {
            h.record(i);
        }
        let q50 = h.quantile(0.5);
        let q90 = h.quantile(0.9);
        let q99 = h.quantile(0.99);
        assert!(q50 <= q90 && q90 <= q99);
        assert!(
            (256..=1024).contains(&q50),
            "median of 0..1000 ~512, got {q50}"
        );
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 252.5).abs() < 1e-9);
    }
}
