//! The Blacklisting memory scheduler (BLISS) of Subramanian et al. \[11\].
//!
//! BLISS observes which application each serviced access belongs to. If
//! one application receives `streak_threshold` (default 4) *consecutive*
//! services, it is blacklisted. Blacklists clear wholesale every
//! `clear_interval`. Arbitration priority is then:
//!
//! 1. non-blacklisted applications over blacklisted ones,
//! 2. row-buffer hits over non-hits,
//! 3. older entries over younger ones (FCFS age).
//!
//! The paper uses BLISS as the underlying arbiter for CD, ROD *and* DCA
//! (Table II), so design differences are attributable purely to queue
//! policy; we follow suit.

use dca_dram::RowOutcome;
use dca_sim_core::{Duration, SimTime};

use crate::queue::QueueEntry;

/// Maximum applications BLISS tracks (4 cores in the paper; sized for 16).
pub const MAX_APPS: usize = 16;

/// BLISS arbiter state.
#[derive(Clone, Debug)]
pub struct Bliss {
    blacklisted: [bool; MAX_APPS],
    last_app: Option<u8>,
    streak: u32,
    streak_threshold: u32,
    clear_interval: Duration,
    next_clear: SimTime,
    /// Total blacklisting events, for diagnostics.
    blacklist_events: u64,
}

impl Bliss {
    /// BLISS with the paper's parameters: blacklist after 4 consecutive
    /// services, clear every `clear_interval` (the original paper uses
    /// 10 000 memory cycles; we default to 12.5 µs which matches 10 000
    /// cycles of a 1.25 ns stacked-DRAM clock).
    pub fn new() -> Self {
        Self::with_params(4, Duration::from_ns(12_500))
    }

    /// Fully parameterised constructor.
    pub fn with_params(streak_threshold: u32, clear_interval: Duration) -> Self {
        assert!(streak_threshold > 0);
        Bliss {
            blacklisted: [false; MAX_APPS],
            last_app: None,
            streak: 0,
            streak_threshold,
            clear_interval,
            next_clear: SimTime::ZERO + clear_interval,
            blacklist_events: 0,
        }
    }

    /// Whether `app` is currently blacklisted.
    pub fn is_blacklisted(&self, app: u8) -> bool {
        self.blacklisted[app as usize % MAX_APPS]
    }

    /// Number of blacklisting events so far.
    pub fn blacklist_events(&self) -> u64 {
        self.blacklist_events
    }

    /// Clear blacklists if the clearing interval has elapsed.
    pub fn maybe_clear(&mut self, now: SimTime) {
        while now >= self.next_clear {
            self.blacklisted = [false; MAX_APPS];
            self.next_clear += self.clear_interval;
        }
    }

    /// Record that an access of `app` was serviced; updates the streak and
    /// blacklist state.
    pub fn on_service(&mut self, app: u8, now: SimTime) {
        self.maybe_clear(now);
        if self.last_app == Some(app) {
            self.streak += 1;
        } else {
            self.last_app = Some(app);
            self.streak = 1;
        }
        if self.streak >= self.streak_threshold {
            let slot = app as usize % MAX_APPS;
            if !self.blacklisted[slot] {
                self.blacklisted[slot] = true;
                self.blacklist_events += 1;
            }
        }
    }

    /// Choose the best entry among `candidates` (positions into the
    /// caller's queue paired with entries). `row_outcome` reports how each
    /// entry would meet its bank's row buffer *right now*.
    ///
    /// The priority order is one lexicographic key: not blacklisted, then
    /// row hit, then oldest, then lowest id (the deterministic tiebreak).
    /// Returns the winning position, or `None` when there are no
    /// candidates.
    pub fn pick<'a, I, F>(&self, candidates: I, mut row_outcome: F) -> Option<usize>
    where
        I: IntoIterator<Item = (usize, &'a QueueEntry)>,
        F: FnMut(&QueueEntry) -> RowOutcome,
    {
        // The two flags fold into one class byte (0 = clean row hit, 3 =
        // blacklisted non-hit). Class 4 ranks below every real key, so
        // the first candidate always takes over from it.
        let mut best = (None, (4u8, SimTime::ZERO, 0u64));
        for (pos, e) in candidates {
            let class =
                (self.is_blacklisted(e.app) as u8) << 1 | (row_outcome(e) != RowOutcome::Hit) as u8;
            let key = (class, e.enqueued_at, e.id);
            if key < best.1 {
                best = (Some(pos), key);
            }
        }
        best.0
    }
}

impl Default for Bliss {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ReadClass;
    use dca_dram::DramAccess;

    fn entry(id: u64, app: u8, bank: u32, row: u32, at: u64) -> QueueEntry {
        QueueEntry {
            id,
            access: DramAccess::read(bank, row),
            app,
            class: ReadClass::Priority,
            enqueued_at: SimTime(at),
        }
    }

    #[test]
    fn four_consecutive_services_blacklist() {
        let mut b = Bliss::new();
        let t = SimTime(1);
        for _ in 0..3 {
            b.on_service(2, t);
            assert!(!b.is_blacklisted(2));
        }
        b.on_service(2, t);
        assert!(b.is_blacklisted(2));
        assert_eq!(b.blacklist_events(), 1);
    }

    #[test]
    fn interleaved_services_reset_streak() {
        let mut b = Bliss::new();
        let t = SimTime(1);
        for i in 0..20 {
            b.on_service((i % 2) as u8, t);
        }
        assert!(!b.is_blacklisted(0));
        assert!(!b.is_blacklisted(1));
    }

    #[test]
    fn blacklist_clears_after_interval() {
        let mut b = Bliss::with_params(4, Duration::from_ns(100));
        let t0 = SimTime(1);
        for _ in 0..4 {
            b.on_service(1, t0);
        }
        assert!(b.is_blacklisted(1));
        b.maybe_clear(SimTime(99_999));
        assert!(b.is_blacklisted(1), "99.999ns: interval not yet elapsed");
        b.maybe_clear(SimTime(100_000));
        assert!(!b.is_blacklisted(1), "cleared after 100ns interval");
    }

    #[test]
    fn pick_prefers_non_blacklisted() {
        let mut b = Bliss::new();
        for _ in 0..4 {
            b.on_service(0, SimTime(1));
        }
        let e0 = entry(0, 0, 0, 0, 0); // older, blacklisted app
        let e1 = entry(1, 1, 1, 0, 10); // younger, clean app
        let picked = b
            .pick([(0, &e0), (1, &e1)], |_| RowOutcome::Closed)
            .unwrap();
        assert_eq!(picked, 1);
    }

    #[test]
    fn pick_prefers_row_hits_within_class() {
        let b = Bliss::new();
        let e0 = entry(0, 0, 0, 5, 0); // older, will be a conflict
        let e1 = entry(1, 1, 1, 7, 10); // younger, row hit
        let picked = b
            .pick([(0, &e0), (1, &e1)], |e| {
                if e.access.bank == 1 {
                    RowOutcome::Hit
                } else {
                    RowOutcome::Conflict
                }
            })
            .unwrap();
        assert_eq!(picked, 1);
    }

    #[test]
    fn pick_falls_back_to_age_then_id() {
        let b = Bliss::new();
        let e0 = entry(7, 0, 0, 0, 50);
        let e1 = entry(3, 1, 1, 0, 50); // same age, smaller id
        let picked = b
            .pick([(0, &e0), (1, &e1)], |_| RowOutcome::Closed)
            .unwrap();
        assert_eq!(picked, 1);
        let e2 = entry(9, 0, 0, 0, 40); // strictly older
        let picked = b
            .pick([(0, &e0), (1, &e1), (2, &e2)], |_| RowOutcome::Closed)
            .unwrap();
        assert_eq!(picked, 2);
    }

    #[test]
    fn empty_candidates_pick_none() {
        let b = Bliss::new();
        assert_eq!(b.pick(std::iter::empty(), |_| RowOutcome::Hit), None);
    }

    #[test]
    fn blacklisted_row_hit_loses_to_clean_conflict() {
        // BLISS rule 1 dominates rule 2.
        let mut b = Bliss::new();
        for _ in 0..4 {
            b.on_service(0, SimTime(1));
        }
        let hog = entry(0, 0, 0, 5, 0);
        let clean = entry(1, 1, 1, 9, 100);
        let picked = b
            .pick([(0, &hog), (1, &clean)], |e| {
                if e.app == 0 {
                    RowOutcome::Hit
                } else {
                    RowOutcome::Conflict
                }
            })
            .unwrap();
        assert_eq!(picked, 1);
    }
}
