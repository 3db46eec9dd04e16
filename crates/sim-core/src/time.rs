//! Simulated time.
//!
//! The whole stack runs on a single picosecond-resolution clock. One CPU
//! cycle at the paper's 4 GHz is exactly 250 ps and every Table II DRAM
//! parameter is an integer number of picoseconds (e.g. tBURST = 3.33 ns is
//! stored as 3330 ps), so no rounding ever accumulates.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Picoseconds per CPU cycle at the paper's 4 GHz core clock.
pub const PS_PER_CPU_CYCLE: u64 = 250;

/// An absolute instant on the simulated clock, in picoseconds since the
/// start of simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// Time zero: the start of simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as "never" sentinel.
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Raw picosecond count.
    #[inline]
    pub fn ps(self) -> u64 {
        self.0
    }

    /// Fractional nanoseconds, for human-readable reporting.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Whole CPU cycles at 4 GHz (truncating).
    #[inline]
    pub fn as_cpu_cycles(self) -> u64 {
        self.0 / PS_PER_CPU_CYCLE
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is in
    /// the future (callers use this for latency accounting where clock skew
    /// is impossible but defensive saturation is still cheap).
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Duration {
        Duration(ps)
    }

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Duration {
        Duration(ns * 1000)
    }

    /// Construct from a fractional nanosecond value. Table II quotes
    /// e.g. tRTW = 1.67 ns; `from_ns_f64(1.67)` stores exactly 1670 ps.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Duration {
        Duration((ns * 1000.0).round() as u64)
    }

    /// Construct from CPU cycles at the 4 GHz core clock.
    #[inline]
    pub const fn from_cpu_cycles(cycles: u64) -> Duration {
        Duration(cycles * PS_PER_CPU_CYCLE)
    }

    /// Raw picosecond count.
    #[inline]
    pub fn ps(self) -> u64 {
        self.0
    }

    /// Fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Scale by an integer factor (burst-length multiples etc.).
    #[inline]
    pub fn times(self, n: u64) -> Duration {
        Duration(self.0 * n)
    }

    /// The longer of two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_cycle_is_250ps() {
        assert_eq!(Duration::from_cpu_cycles(1).ps(), 250);
        assert_eq!(Duration::from_cpu_cycles(4).as_ns_f64(), 1.0);
    }

    #[test]
    fn fractional_ns_round_trips() {
        // Table II values with fractional nanoseconds.
        assert_eq!(Duration::from_ns_f64(3.33).ps(), 3330);
        assert_eq!(Duration::from_ns_f64(1.67).ps(), 1670);
        assert_eq!(Duration::from_ns_f64(7.5).ps(), 7500);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::ZERO + Duration::from_ns(10);
        assert_eq!(t.ps(), 10_000);
        let u = t + Duration::from_ns(5);
        assert_eq!((u - t).ps(), 5_000);
        assert_eq!(u.since(t).ps(), 5_000);
        assert_eq!(t.since(u).ps(), 0, "since saturates");
    }

    #[test]
    fn min_max_ordering() {
        let a = SimTime(100);
        let b = SimTime(200);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(SimTime::NEVER > b);
    }

    #[test]
    fn duration_scaling() {
        // Direct-mapped TAD burst = 1.25x the 64B burst; modelled as 5/4.
        let burst = Duration::from_ns_f64(3.33);
        assert_eq!(burst.times(5).ps() / 4, 4162);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime(3330)), "3.330ns");
        assert_eq!(format!("{:?}", Duration(250)), "250ps");
    }
}
