//! Two-threshold hysteresis state machines.
//!
//! Two places in the paper use a high/low threshold pair:
//!
//! * the **write-queue drain** (§II-A): a forced flush triggers when the
//!   write queue crosses its high mark (85 %) and runs until it falls to
//!   the low mark (50 %); additionally, when there are *no pending reads*
//!   and occupancy exceeds the low mark, the controller drains writes
//!   opportunistically;
//! * **DCA's Algorithm 1** (§IV-B): `ScheduleAll` flips on when read-queue
//!   occupancy exceeds 85 % and off when it falls below 75 %, temporarily
//!   letting low-priority reads compete with priority reads.

/// A generic high/low hysteresis band.
#[derive(Clone, Copy, Debug)]
pub struct Hysteresis {
    /// Turn-on fraction (exclusive: `occ > hi` activates).
    pub hi: f64,
    /// Turn-off fraction (exclusive: `occ < lo` deactivates).
    pub lo: f64,
    active: bool,
}

impl Hysteresis {
    /// A band with the given thresholds, initially inactive.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "low threshold must not exceed high");
        Hysteresis {
            hi,
            lo,
            active: false,
        }
    }

    /// Update with the current occupancy fraction; returns the new state.
    pub fn update(&mut self, occupancy: f64) -> bool {
        if occupancy > self.hi {
            self.active = true;
        } else if occupancy < self.lo {
            self.active = false;
        }
        self.active
    }

    /// Current state without updating.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

/// The paper's optimized write-drain policy (§II-A), at Table II's
/// thresholds.
///
/// A controller consults it twice per scheduling slot:
/// [`DrainPolicy::update_forced`] first, and, after any other work it
/// interleaves (DCA's LR flushing sits between the two),
/// [`DrainPolicy::opportunistic`] last.
#[derive(Clone, Copy, Debug)]
pub struct DrainPolicy {
    band: Hysteresis,
}

impl DrainPolicy {
    /// Low write-drain mark (Table II: 50 %): a forced drain runs until
    /// occupancy falls below it, and an opportunistic drain needs
    /// occupancy above it.
    pub const LO: f64 = 0.50;
    /// High write-drain mark (Table II: 85 %): occupancy above it forces
    /// a drain.
    pub const HI: f64 = 0.85;

    /// The drain policy at [`DrainPolicy::LO`] and [`DrainPolicy::HI`].
    pub fn paper() -> Self {
        DrainPolicy {
            band: Hysteresis::new(Self::LO, Self::HI),
        }
    }

    /// Update the forced-drain band with the write-queue fill fraction
    /// and return whether a forced drain is in progress: it starts above
    /// the high mark and persists until occupancy falls below the low
    /// mark.
    pub fn update_forced(&mut self, occupancy: f64) -> bool {
        self.band.update(occupancy)
    }

    /// The stateless opportunistic clause: drain when the read path is
    /// idle and occupancy is above the low mark.
    pub fn opportunistic(&self, occupancy: f64, reads_pending: bool) -> bool {
        !reads_pending && occupancy > self.band.lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_switches_with_hysteresis() {
        let mut h = Hysteresis::new(0.75, 0.85);
        assert!(!h.update(0.80), "below hi: stays off");
        assert!(h.update(0.90), "above hi: on");
        assert!(h.update(0.80), "inside band: stays on");
        assert!(!h.update(0.70), "below lo: off");
        assert!(!h.update(0.80), "inside band: stays off");
        assert!(!h.is_active());
    }

    /// One slot's drain decision, made with the calls the controller
    /// makes: `(drain, forced)`.
    fn slot(d: &mut DrainPolicy, occupancy: f64, reads_pending: bool) -> (bool, bool) {
        let forced = d.update_forced(occupancy);
        (forced || d.opportunistic(occupancy, reads_pending), forced)
    }

    #[test]
    fn forced_drain_runs_to_low_mark() {
        let mut d = DrainPolicy::paper();
        assert!(!slot(&mut d, 0.80, true).0, "below high, reads pending");
        let (drain, forced) = slot(&mut d, 0.90, true);
        assert!(drain, "forced at high mark");
        assert!(forced);
        assert!(slot(&mut d, 0.60, true).0, "keeps draining inside band");
        let (drain, forced) = slot(&mut d, 0.45, true);
        assert!(!drain, "stops below low mark");
        assert!(!forced);
    }

    #[test]
    fn opportunistic_drain_when_reads_idle() {
        let mut d = DrainPolicy::paper();
        assert!(slot(&mut d, 0.60, false).0, "no reads + above low: drain");
        assert!(!slot(&mut d, 0.40, false).0, "below low: idle");
        assert!(!slot(&mut d, 0.60, true).0, "reads pending: hold writes");
    }

    #[test]
    #[should_panic(expected = "low threshold")]
    fn inverted_thresholds_panic() {
        Hysteresis::new(0.9, 0.1);
    }
}
