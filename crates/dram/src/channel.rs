//! One DRAM channel: a set of banks sharing a data bus.

use dca_sim_core::{Counter, SimTime};

use crate::access::{AccessKind, DramAccess};
use crate::bank::{Bank, RowOutcome};
use crate::bus::DataBus;
use crate::params::{Organization, TimingParams};

/// Timing result of issuing one access.
#[derive(Clone, Copy, Debug)]
pub struct IssueInfo {
    /// How the access met the row buffer.
    pub outcome: RowOutcome,
    /// Start of the data burst on the bus.
    pub burst_start: SimTime,
    /// End of the data burst — when read data is available / write data
    /// is absorbed, and when the bank frees up for its next access.
    pub burst_end: SimTime,
}

/// Per-channel statistics, split by access direction.
///
/// `read_*` row-outcome counters feed the paper's row-buffer hit rate for
/// read accesses (Figs 16–17); the bus keeps the turnaround counters
/// (Figs 14–15).
#[derive(Clone, Debug, Default)]
pub struct ChannelStats {
    /// Read accesses issued.
    pub reads: Counter,
    /// Write accesses issued.
    pub writes: Counter,
    /// Read accesses that hit an open row.
    pub read_row_hits: Counter,
    /// Read accesses to a closed bank.
    pub read_row_closed: Counter,
    /// Read accesses that forced a precharge.
    pub read_row_conflicts: Counter,
    /// Write accesses that hit an open row.
    pub write_row_hits: Counter,
    /// Write accesses to a closed bank.
    pub write_row_closed: Counter,
    /// Write accesses that forced a precharge.
    pub write_row_conflicts: Counter,
}

impl ChannelStats {
    /// Row-buffer hit rate over read accesses (the Fig 16/17 metric).
    pub fn read_row_hit_rate(&self) -> f64 {
        let total = self.reads.get();
        if total == 0 {
            0.0
        } else {
            self.read_row_hits.get() as f64 / total as f64
        }
    }

    /// Row-buffer hit rate over all accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.reads.get() + self.writes.get();
        if total == 0 {
            0.0
        } else {
            (self.read_row_hits.get() + self.write_row_hits.get()) as f64 / total as f64
        }
    }

    /// Merge counters from another channel (for device-wide reporting).
    pub fn merge(&mut self, other: &ChannelStats) {
        self.reads.add(other.reads.get());
        self.writes.add(other.writes.get());
        self.read_row_hits.add(other.read_row_hits.get());
        self.read_row_closed.add(other.read_row_closed.get());
        self.read_row_conflicts.add(other.read_row_conflicts.get());
        self.write_row_hits.add(other.write_row_hits.get());
        self.write_row_closed.add(other.write_row_closed.get());
        self.write_row_conflicts
            .add(other.write_row_conflicts.get());
    }
}

/// Most banks a channel may have: [`DramChannel::free_banks`] reports
/// them as one `u64` mask.
pub const MAX_CHANNEL_BANKS: u32 = u64::BITS;

/// A DRAM channel: banks + data bus + timing parameters.
#[derive(Clone, Debug)]
pub struct DramChannel {
    params: TimingParams,
    banks: Vec<Bank>,
    /// Each bank's `busy_until`, mirrored densely so
    /// [`DramChannel::free_banks`] scans one short array instead of
    /// striding over the bank records.
    busy_until: Vec<SimTime>,
    bus: DataBus,
    stats: ChannelStats,
}

impl DramChannel {
    /// A channel with `org.banks_per_channel()` idle banks.
    ///
    /// # Panics
    /// Panics if the organisation has more than [`MAX_CHANNEL_BANKS`]
    /// banks per channel.
    pub fn new(params: TimingParams, org: &Organization) -> Self {
        let banks = org.banks_per_channel();
        assert!(
            banks <= MAX_CHANNEL_BANKS,
            "{banks} banks per channel exceed the {MAX_CHANNEL_BANKS}-bank free mask"
        );
        DramChannel {
            params,
            banks: vec![Bank::new(); banks as usize],
            busy_until: vec![SimTime::ZERO; banks as usize],
            bus: DataBus::new(),
            stats: ChannelStats::default(),
        }
    }

    /// Number of banks on this channel.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Timing parameters in force.
    pub fn params(&self) -> &TimingParams {
        &self.params
    }

    /// Banks that can accept a new access at `now`, bit `b` for bank
    /// `b`. Controllers intersect this with their queues' per-bank index
    /// (`dca_sched::AccessQueue::in_banks`) to find issuable entries
    /// without visiting the busy ones.
    #[inline]
    pub fn free_banks(&self, now: SimTime) -> u64 {
        // Four banks per step, each at a constant shift: cheaper than one
        // variable shift per bank on this once-per-slot path.
        let mut quads = self.busy_until.chunks_exact(4);
        let mut mask = 0;
        let mut base = 0;
        for q in &mut quads {
            let bits = (q[0] <= now) as u64
                | ((q[1] <= now) as u64) << 1
                | ((q[2] <= now) as u64) << 2
                | ((q[3] <= now) as u64) << 3;
            mask |= bits << base;
            base += 4;
        }
        for (i, &until) in quads.remainder().iter().enumerate() {
            mask |= ((until <= now) as u64) << (base + i);
        }
        mask
    }

    /// When `bank` finishes its in-flight access.
    pub fn bank_busy_until(&self, bank: u32) -> SimTime {
        self.busy_until[bank as usize]
    }

    /// Row-outcome an access to (`bank`, `row`) would see right now — the
    /// query the DCA opportunistic flushing scheme and BLISS row-hit rule
    /// are built on. Pure.
    pub fn peek_outcome(&self, bank: u32, row: u32) -> RowOutcome {
        self.banks[bank as usize].classify(row)
    }

    /// When the bus frees for the next burst.
    pub fn bus_free_at(&self) -> SimTime {
        self.bus.free_at()
    }

    /// Issue `access` at `now`.
    ///
    /// Computes the access's full timing — precharge/activate as needed,
    /// bus serialisation, turnaround penalty — reserves the bank and bus,
    /// updates statistics, and returns the burst window.
    ///
    /// # Panics
    /// Panics if the bank is still busy (`debug_assert` in release-opt
    /// simulations would silently corrupt timing; failing fast is worth
    /// the branch).
    pub fn issue(&mut self, access: DramAccess, now: SimTime) -> IssueInfo {
        let bank = &mut self.banks[access.bank as usize];
        assert!(
            bank.is_free(now),
            "issue to busy bank {} (busy until {:?}, now {:?})",
            access.bank,
            bank.busy_until(),
            now
        );

        let (outcome, cas_at_bank) = bank.cas_ready(access.row, now, &self.params);

        // The data burst must also wait for the bus (plus turnaround).
        let bus_ok = self.bus.earliest_start(access.kind, &self.params);
        let data_earliest_from_bank = cas_at_bank + self.params.t_cas;
        let burst_start = data_earliest_from_bank.max(bus_ok);
        let burst_end = burst_start + access.burst.duration(&self.params);

        // Effective CAS time moves with the burst (a CAS is held back until
        // its data window is clear); tRTP is measured from the CAS.
        let cas_at = burst_start - self.params.t_cas;
        let activated = outcome != RowOutcome::Hit;
        // ACT completes tRCD before the CAS could first use the row.
        let act_at = match outcome {
            RowOutcome::Hit => SimTime::ZERO,
            RowOutcome::Closed => now,
            RowOutcome::Conflict => {
                // PRE happened at cas_at_bank - tRCD - tRP relative window;
                // the ACT directly follows the precharge.
                cas_at_bank - self.params.t_rcd
            }
        };

        self.bus
            .reserve(access.kind, burst_start, burst_end, &self.params);
        bank.commit(
            access.row,
            cas_at,
            burst_end,
            access.kind.is_read(),
            activated,
            act_at,
        );
        self.busy_until[access.bank as usize] = burst_end;

        match (access.kind, outcome) {
            (AccessKind::Read, RowOutcome::Hit) => self.stats.read_row_hits.inc(),
            (AccessKind::Read, RowOutcome::Closed) => self.stats.read_row_closed.inc(),
            (AccessKind::Read, RowOutcome::Conflict) => self.stats.read_row_conflicts.inc(),
            (AccessKind::Write, RowOutcome::Hit) => self.stats.write_row_hits.inc(),
            (AccessKind::Write, RowOutcome::Closed) => self.stats.write_row_closed.inc(),
            (AccessKind::Write, RowOutcome::Conflict) => self.stats.write_row_conflicts.inc(),
        }
        match access.kind {
            AccessKind::Read => self.stats.reads.inc(),
            AccessKind::Write => self.stats.writes.inc(),
        }

        IssueInfo {
            outcome,
            burst_start,
            burst_end,
        }
    }

    /// Channel statistics so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Bus-level statistics (turnarounds, accesses per turnaround).
    pub fn bus(&self) -> &DataBus {
        &self.bus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::BurstLen;
    use dca_sim_core::Duration;

    fn ch() -> DramChannel {
        DramChannel::new(TimingParams::paper_stacked(), &Organization::paper())
    }

    fn t(ns_x10: u64) -> SimTime {
        SimTime::ZERO + Duration::from_ps(ns_x10 * 100)
    }

    #[test]
    fn cold_read_takes_act_cas_burst() {
        let mut c = ch();
        let info = c.issue(DramAccess::read(0, 10), SimTime::ZERO);
        assert_eq!(info.outcome, RowOutcome::Closed);
        // tRCD(8) + tCAS(8) = 16ns to burst start, +3.33ns burst.
        assert_eq!(info.burst_start.ps(), 16_000);
        assert_eq!(info.burst_end.ps(), 19_330);
    }

    #[test]
    fn row_hit_back_to_back_reads_pipeline_on_bus() {
        let mut c = ch();
        let a = c.issue(DramAccess::read(0, 10), SimTime::ZERO);
        let b = c.issue(DramAccess::read(0, 10), a.burst_end);
        assert_eq!(b.outcome, RowOutcome::Hit);
        // Bank free at burst_end; CAS+burst from there, bus already free.
        assert_eq!(b.burst_start.ps(), a.burst_end.ps() + 8_000);
    }

    #[test]
    fn different_banks_overlap_prep_but_serialise_bursts() {
        let mut c = ch();
        let a = c.issue(DramAccess::read(0, 10), SimTime::ZERO);
        // Bank 1 starts at time 0 too (both banks free initially)... but we
        // must issue sequentially; issue bank 1 right away at time ZERO.
        let mut c2 = ch();
        let a2 = c2.issue(DramAccess::read(0, 10), SimTime::ZERO);
        let b2 = c2.issue(DramAccess::read(1, 20), SimTime::ZERO);
        // Both pay ACT+CAS = 16ns from t=0, but bursts serialise.
        assert_eq!(a2.burst_start.ps(), 16_000);
        assert_eq!(b2.burst_start.ps(), a2.burst_end.ps());
        assert_eq!(a.burst_end.ps(), 19_330);
    }

    #[test]
    fn same_bank_conflict_respects_tras() {
        let mut c = ch();
        let a = c.issue(DramAccess::read(0, 10), SimTime::ZERO);
        // Conflict on another row, issued as soon as bank frees (19.33ns).
        let b = c.issue(DramAccess::read(0, 99), a.burst_end);
        assert_eq!(b.outcome, RowOutcome::Conflict);
        // earliest PRE = max(act@0 + tRAS 30, cas@8 + tRTP 7.5, 0+tWR... ) = 30ns.
        // CAS = 30 + 8 + 8 = 46ns; burst start = 46+8 = 54ns.
        assert_eq!(b.burst_start.ps(), 54_000);
        assert_eq!(c.stats().read_row_conflicts.get(), 1);
    }

    #[test]
    fn turnaround_penalty_applies_between_directions() {
        let mut c = ch();
        let a = c.issue(DramAccess::read(0, 10), SimTime::ZERO);
        let w = c.issue(DramAccess::write(1, 20), SimTime::ZERO);
        // Write burst must wait for read burst end + tRTW(1.67ns); bank-1
        // prep (16ns) is fully hidden under the read burst (ends 19.33ns).
        assert_eq!(w.burst_start.ps(), a.burst_end.ps() + 1_670);
        assert_eq!(c.bus().turnarounds(), 1);
        // Back to read: burst start = max(bank prep from issue, write burst
        // end + tWTR). Issue late enough that the turnaround term dominates.
        let issue_at = w.burst_start;
        let r2 = c.issue(DramAccess::read(2, 30), issue_at);
        let bank_ready = issue_at.ps() + 16_000; // ACT+CAS on a closed bank
        let turnaround_ready = w.burst_end.ps() + 5_000; // tWTR
        assert_eq!(r2.burst_start.ps(), bank_ready.max(turnaround_ready));
        assert_eq!(c.bus().turnarounds(), 2);

        // And a read issued after the write completes *is* bounded by tWTR.
        let mut c2 = ch();
        let w2 = c2.issue(DramAccess::write(0, 1), SimTime::ZERO);
        let r3 = c2.issue(DramAccess::read(1, 1), SimTime::ZERO);
        // Bank-1 prep (16ns) vs write burst end (14.33+3.33=...)+tWTR.
        assert_eq!(
            r3.burst_start.ps(),
            16_000u64.max(w2.burst_end.ps() + 5_000)
        );
    }

    #[test]
    fn tad_burst_is_longer() {
        let mut c = ch();
        let acc = DramAccess {
            bank: 0,
            row: 1,
            kind: AccessKind::Read,
            burst: BurstLen::Tad80,
        };
        let info = c.issue(acc, SimTime::ZERO);
        assert_eq!(info.burst_end.ps() - info.burst_start.ps(), 4_162);
    }

    #[test]
    #[should_panic(expected = "busy bank")]
    fn issuing_to_busy_bank_panics() {
        let mut c = ch();
        c.issue(DramAccess::read(0, 1), SimTime::ZERO);
        c.issue(DramAccess::read(0, 1), t(1)); // 0.1ns later: bank still busy
    }

    #[test]
    fn peek_matches_issue_outcome() {
        let mut c = ch();
        assert_eq!(c.peek_outcome(0, 5), RowOutcome::Closed);
        let i = c.issue(DramAccess::read(0, 5), SimTime::ZERO);
        assert_eq!(c.peek_outcome(0, 5), RowOutcome::Hit);
        assert_eq!(c.peek_outcome(0, 6), RowOutcome::Conflict);
        assert_eq!(c.bank_busy_until(0), i.burst_end);
        assert_eq!(c.free_banks(i.burst_end) & 1, 1);
        let busy = c.free_banks(SimTime::ZERO + Duration::from_ns(1));
        assert_eq!(busy, 0xFFFE, "bank 0 busy, the other 15 free");
    }

    #[test]
    fn free_banks_covers_bank_counts_off_the_four_bank_step() {
        let org = Organization {
            banks_per_rank: 6,
            ..Organization::paper()
        };
        let mut c = DramChannel::new(TimingParams::paper_stacked(), &org);
        assert_eq!(c.free_banks(SimTime::ZERO), 0b11_1111);
        let i = c.issue(DramAccess::read(5, 0), SimTime::ZERO);
        c.issue(DramAccess::read(1, 0), SimTime::ZERO);
        assert_eq!(c.free_banks(SimTime::ZERO), 0b01_1101);
        assert_eq!(c.free_banks(i.burst_end) & 1 << 5, 1 << 5);
    }

    #[test]
    fn stats_merge() {
        let mut c = ch();
        c.issue(DramAccess::read(0, 5), SimTime::ZERO);
        c.issue(DramAccess::write(1, 5), SimTime::ZERO);
        let mut total = ChannelStats::default();
        total.merge(c.stats());
        total.merge(c.stats());
        assert_eq!(total.reads.get(), 2);
        assert_eq!(total.writes.get(), 2);
        assert_eq!(total.read_row_closed.get(), 2);
    }

    #[test]
    fn hit_rate_metrics() {
        let mut c = ch();
        let a = c.issue(DramAccess::read(0, 5), SimTime::ZERO);
        let b = c.issue(DramAccess::read(0, 5), a.burst_end);
        let _ = c.issue(DramAccess::read(0, 5), b.burst_end);
        // 1 closed + 2 hits.
        assert!((c.stats().read_row_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.stats().row_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
