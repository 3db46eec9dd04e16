//! The per-channel DRAM-cache controller: CD, ROD, DCA and the
//! Banshee-style BAN.
//!
//! All designs share the same machinery — a bounded read queue, a
//! bounded write queue, a base arbiter (BLISS), and the two-threshold
//! write-drain policy — and differ *only* in:
//!
//! 1. **queue placement** ([`ChannelController::enqueue`]): CD, DCA and
//!    BAN place accesses by access type; ROD places them by request type
//!    (with the paper's footnote: a read request's tag write still goes
//!    to the write queue). BAN's defining mechanism — the frequency-
//!    gated fill — lives upstream in the system's refill submission,
//!    not here: its controller scheduling is CD's;
//! 2. **read-queue arbitration** ([`ChannelController::schedule_one`]):
//!    CD and ROD arbitrate over every read-queue entry; DCA normally
//!    arbitrates over priority reads only, holding low-priority reads
//!    back and releasing them through the Opportunistic Flushing Scheme
//!    or Algorithm 1's occupancy band.
//!
//! The scheduling slot ordering implemented here follows §IV:
//! forced write drain → PRs (or all reads) → OFS LR flushing (DCA) →
//! opportunistic write drain.

use dca_dram::{AccessKind, DramChannel, IssueInfo, RowOutcome};
use dca_dram_cache::{AccessRole, AccessSpec, CacheReqKind, RequestId};
use dca_sched::{
    AccessQueue, Bliss, DrainPolicy, FrFcfs, Hysteresis, QueueEntry, ReadClass, SlotSet,
};
use dca_sim_core::{Counter, SimTime};
use std::collections::VecDeque;

use crate::config::{Arbiter, Design, SystemConfig};
use crate::rrpc::Rrpc;

/// Free slots each bounded queue needs before the controller admits a
/// new cache request (a whole request's worth of accesses). The gate
/// therefore closes at `capacity - (ADMIT_SLOTS - 1)` queued entries, and
/// only issuing from the queue reopens it — the bound
/// [`SystemConfig::validate`] checks queue sizes against.
pub const ADMIT_SLOTS: usize = 3;

/// Controller statistics (per channel).
#[derive(Clone, Debug, Default)]
pub struct CtrlStats {
    /// Priority reads served.
    pub pr_served: Counter,
    /// Low-priority reads served (from the read queue).
    pub lr_served: Counter,
    /// Writes served.
    pub writes_served: Counter,
    /// LRs admitted by OFS because the bank row state was friendly.
    pub ofs_row_friendly: Counter,
    /// LRs admitted by OFS because the bank's RRPC was cold.
    pub ofs_rrpc_cold: Counter,
    /// Scheduling slots spent in forced write drain.
    pub forced_drain_slots: Counter,
    /// Entries that overflowed a bounded queue into the spill buffer.
    pub spilled: Counter,
    /// Times Algorithm 1's ScheduleAll band was entered.
    pub sched_all_entries: Counter,
    /// Total picoseconds priority reads spent queued.
    pub pr_wait_ps: u64,
    /// Total picoseconds low-priority reads spent queued.
    pub lr_wait_ps: u64,
    /// Total picoseconds writes spent queued.
    pub write_wait_ps: u64,
}

impl CtrlStats {
    /// Mean queue wait of priority reads, in nanoseconds.
    pub fn pr_wait_ns(&self) -> f64 {
        if self.pr_served.get() == 0 {
            0.0
        } else {
            self.pr_wait_ps as f64 / self.pr_served.get() as f64 / 1000.0
        }
    }

    /// Mean queue wait of low-priority reads, in nanoseconds.
    pub fn lr_wait_ns(&self) -> f64 {
        if self.lr_served.get() == 0 {
            0.0
        } else {
            self.lr_wait_ps as f64 / self.lr_served.get() as f64 / 1000.0
        }
    }

    /// Mean queue wait of writes, in nanoseconds.
    pub fn write_wait_ns(&self) -> f64 {
        if self.writes_served.get() == 0 {
            0.0
        } else {
            self.write_wait_ps as f64 / self.writes_served.get() as f64 / 1000.0
        }
    }
}

/// An access the controller has issued to the device.
#[derive(Clone, Copy, Debug)]
pub struct Issued {
    /// The queue entry that was issued.
    pub entry: QueueEntry,
    /// Device timing for it.
    pub info: IssueInfo,
    /// Whether it came from the write queue.
    pub from_write_q: bool,
}

/// Metadata the controller keeps per enqueued access, so completions can
/// be routed back to their request FSM.
#[derive(Clone, Copy, Debug)]
pub struct AccessMeta {
    /// Owning request.
    pub request: RequestId,
    /// Role within the request.
    pub role: AccessRole,
}

/// One channel's controller.
pub struct ChannelController {
    design: Design,
    arbiter: Arbiter,
    channel_index: u32,
    banks_per_channel: u32,
    read_q: AccessQueue,
    write_q: AccessQueue,
    /// Overflow buffers: accesses that must eventually enter a bounded
    /// queue (FSM-generated work cannot be refused without deadlock).
    spill_read: VecDeque<QueueEntry>,
    spill_write: VecDeque<QueueEntry>,
    bliss: Bliss,
    frfcfs: FrFcfs,
    drain: DrainPolicy,
    sched_all: Hysteresis,
    flushing_factor: u8,
    stats: CtrlStats,
    was_sched_all: bool,
    /// Sticky opportunistic-drain mode: once the controller starts an
    /// opportunistic write drain it keeps draining until the queue falls
    /// below the low mark or demand reads arrive — batching writes to
    /// amortise the bus turnaround, as a real drain burst would.
    opp_drain: bool,
}

impl ChannelController {
    /// A controller for channel `channel_index` configured per `cfg`.
    pub fn new(cfg: &SystemConfig, channel_index: u32) -> Self {
        ChannelController {
            design: cfg.design,
            arbiter: cfg.arbiter,
            channel_index,
            banks_per_channel: cfg.dram_org.banks_per_channel(),
            read_q: AccessQueue::new(cfg.read_q_cap),
            write_q: AccessQueue::new(cfg.write_q_cap),
            spill_read: VecDeque::new(),
            spill_write: VecDeque::new(),
            bliss: Bliss::new(),
            frfcfs: FrFcfs::new(),
            drain: DrainPolicy::new(cfg.write_lo, cfg.write_hi),
            sched_all: Hysteresis::new(cfg.dca.read_q_lo, cfg.dca.read_q_hi),
            flushing_factor: cfg.dca.flushing_factor,
            stats: CtrlStats::default(),
            was_sched_all: false,
            opp_drain: false,
        }
    }

    /// Design under test.
    pub fn design(&self) -> Design {
        self.design
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Read-queue occupancy (bounded queue only).
    pub fn read_occupancy(&self) -> f64 {
        self.read_q.occupancy()
    }

    /// Write-queue occupancy (bounded queue only).
    pub fn write_occupancy(&self) -> f64 {
        self.write_q.occupancy()
    }

    /// Total queued accesses, including spill buffers.
    pub fn backlog(&self) -> usize {
        self.read_q.len() + self.write_q.len() + self.spill_read.len() + self.spill_write.len()
    }

    /// Whether the bounded queues have room for a whole request's worth
    /// of accesses — the admission gate for new cache requests.
    pub fn can_admit(&self) -> bool {
        self.spill_read.is_empty()
            && self.spill_write.is_empty()
            && self.read_q.len() + ADMIT_SLOTS <= self.read_q.capacity()
            && self.write_q.len() + ADMIT_SLOTS <= self.write_q.capacity()
    }

    /// Queue placement (the design-defining function, Fig 3 / Fig 6).
    fn target_is_write_q(&self, spec: &AccessSpec, req_kind: CacheReqKind) -> bool {
        match self.design {
            // CD, DCA and Banshee: by access type (Banshee reshapes the
            // *fill stream*, not the queue placement).
            Design::Cd | Design::Dca | Design::Banshee => spec.access.kind == AccessKind::Write,
            // ROD: by request type, except a read request's tag write
            // which goes to the write queue (§III-B footnote).
            Design::Rod => match req_kind {
                CacheReqKind::Read => spec.access.kind == AccessKind::Write,
                CacheReqKind::Writeback | CacheReqKind::Refill => true,
            },
        }
    }

    /// Enqueue one translated access.
    pub fn enqueue(
        &mut self,
        id: u64,
        spec: AccessSpec,
        req_kind: CacheReqKind,
        app: u8,
        now: SimTime,
    ) {
        let entry = QueueEntry {
            id,
            access: spec.access,
            app,
            class: spec.class,
            enqueued_at: now,
        };
        if self.target_is_write_q(&spec, req_kind) {
            if let Err(e) = self.write_q.push(entry) {
                self.stats.spilled.inc();
                self.spill_write.push_back(e);
            }
        } else if let Err(e) = self.read_q.push(entry) {
            self.stats.spilled.inc();
            self.spill_read.push_back(e);
        }
    }

    /// Move spilled entries into the bounded queues as room appears.
    fn drain_spill(&mut self) {
        while let Some(e) = self.spill_read.front() {
            if self.read_q.is_full() {
                break;
            }
            let e = *e;
            self.spill_read.pop_front();
            self.read_q.push(e).expect("read_q had room");
        }
        while let Some(e) = self.spill_write.front() {
            if self.write_q.is_full() {
                break;
            }
            let e = *e;
            self.spill_write.pop_front();
            self.write_q.push(e).expect("write_q had room");
        }
    }

    /// "Are demand reads pending?" for the drain policy: CD/ROD count any
    /// read-queue entry; DCA counts only PRs (LRs are held like writes).
    /// O(1): the queue keeps its PR slot set incrementally.
    fn reads_pending(&self) -> bool {
        match self.design {
            Design::Cd | Design::Rod | Design::Banshee => !self.read_q.is_empty(),
            Design::Dca => self.read_q.priority() != 0,
        }
    }

    /// Arbitrate with the configured base arbiter over the entries of
    /// `q` in `set` that `keep` accepts. An empty set — the common case
    /// when every candidate bank is busy — returns without entering the
    /// arbiter.
    fn pick_in(
        &self,
        q: &AccessQueue,
        set: SlotSet,
        keep: impl Fn(&QueueEntry) -> bool,
        ch: &DramChannel,
    ) -> Option<usize> {
        if set == 0 {
            return None;
        }
        let candidates = q.iter_in(set).filter(|(_, e)| keep(e));
        let outcome = |e: &QueueEntry| ch.peek_outcome(e.access.bank, e.access.row);
        match self.arbiter {
            Arbiter::Bliss => self.bliss.pick(candidates, outcome),
            Arbiter::FrFcfs => self.frfcfs.pick(candidates, outcome),
        }
    }

    /// Arbitrate over the write-queue entries on banks in `free` — the
    /// shared candidate set of all three drain modes (forced, sticky,
    /// opportunistic).
    fn pick_write(&self, free: u64, ch: &DramChannel) -> Option<usize> {
        self.pick_in(&self.write_q, self.write_q.in_banks(free), |_| true, ch)
    }

    /// Issue the entry at `pos` of the read or write queue.
    fn issue_at(
        &mut self,
        pos: usize,
        from_write_q: bool,
        ch: &mut DramChannel,
        rrpc: &mut Rrpc,
        now: SimTime,
    ) -> Issued {
        let entry = if from_write_q {
            self.write_q.remove(pos)
        } else {
            self.read_q.remove(pos)
        };
        let info = ch.issue(entry.access, now);
        self.bliss.on_service(entry.app, now);
        let waited = now.since(entry.enqueued_at).ps();
        if entry.access.kind == AccessKind::Read {
            match entry.class {
                ReadClass::Priority => {
                    self.stats.pr_served.inc();
                    self.stats.pr_wait_ps += waited;
                    rrpc.on_priority_read(
                        self.channel_index * self.banks_per_channel + entry.access.bank,
                    );
                }
                ReadClass::LowPriority => {
                    self.stats.lr_served.inc();
                    self.stats.lr_wait_ps += waited;
                }
            }
        } else {
            self.stats.writes_served.inc();
            self.stats.write_wait_ps += waited;
        }
        self.drain_spill();
        Issued {
            entry,
            info,
            from_write_q,
        }
    }

    /// One scheduling slot: choose and issue at most one access.
    ///
    /// Every phase arbitrates over a candidate set built from bit masks:
    /// the channel's free banks intersected with the queue's per-bank
    /// index (and, for reads, its PR slot set), so entries on busy banks
    /// are never visited and a slot whose candidate banks are all busy
    /// touches no entry.
    ///
    /// Returns `None` when nothing can issue right now (queues empty, all
    /// candidate banks busy, or policy holds everything back).
    pub fn schedule_one(
        &mut self,
        ch: &mut DramChannel,
        rrpc: &mut Rrpc,
        now: SimTime,
    ) -> Option<Issued> {
        self.drain_spill();
        self.bliss.maybe_clear(now);

        let reads_pending = self.reads_pending();
        let wq_occ = self.write_q.occupancy();
        let free = ch.free_banks(now);

        // Sticky opportunistic drain: exits when demand reads arrive or
        // the queue reaches the low mark.
        if self.opp_drain && (reads_pending || !self.drain.opportunistic(wq_occ, reads_pending)) {
            self.opp_drain = false;
        }

        // Phase 1: forced write drain (write queue past the high mark).
        // The drain holds the bus for writes until the low mark is
        // reached — batching writes is what keeps turnarounds rare.
        if self.drain.update_forced(wq_occ) {
            self.stats.forced_drain_slots.inc();
            let pos = self.pick_write(free, ch)?;
            return Some(self.issue_at(pos, true, ch, rrpc, now));
        }

        // Sticky drain in progress: keep serving writes ahead of LR/OFS
        // work (demand reads already cleared the mode above).
        if self.opp_drain {
            if let Some(pos) = self.pick_write(free, ch) {
                return Some(self.issue_at(pos, true, ch, rrpc, now));
            }
        }

        // Phase 2: reads. DCA restricts to PRs unless Algorithm 1's
        // occupancy band says schedule everything.
        let sched_all = match self.design {
            Design::Dca => {
                let active = self.sched_all.update(self.read_q.occupancy());
                if active && !self.was_sched_all {
                    self.stats.sched_all_entries.inc();
                }
                self.was_sched_all = active;
                active
            }
            _ => true,
        };
        let reads = self.read_q.in_banks(free);
        let eligible = if sched_all {
            reads
        } else {
            reads & self.read_q.priority()
        };
        if let Some(pos) = self.pick_in(&self.read_q, eligible, |_| true, ch) {
            return Some(self.issue_at(pos, false, ch, rrpc, now));
        }

        // Phase 3 (DCA only): Opportunistic Flushing Scheme for LRs.
        // Row-friendly LRs (hit or closed bank) are preferred over cold-
        // bank conflict admissions across the whole pool, so DCA's LR
        // stream keeps the row-buffer locality that CD's interleaving
        // destroys (Figs 16–17). No PR sits on a free bank here (phase 2
        // would have issued it), so every read candidate left is an LR.
        if self.design == Design::Dca && !sched_all {
            let friendly = |e: &QueueEntry| {
                ch.peek_outcome(e.access.bank, e.access.row) != RowOutcome::Conflict
            };
            if let Some(pos) = self.pick_in(&self.read_q, reads, friendly, ch) {
                self.stats.ofs_row_friendly.inc();
                return Some(self.issue_at(pos, false, ch, rrpc, now));
            }
            let bank_base = self.channel_index * self.banks_per_channel;
            let rrpc_ref: &Rrpc = rrpc;
            let cold =
                |e: &QueueEntry| rrpc_ref.is_cold(bank_base + e.access.bank, self.flushing_factor);
            if let Some(pos) = self.pick_in(&self.read_q, reads, cold, ch) {
                self.stats.ofs_rrpc_cold.inc();
                return Some(self.issue_at(pos, false, ch, rrpc, now));
            }
        }

        // Phase 4: opportunistic write drain when the read path is idle.
        if self.drain.opportunistic(wq_occ, reads_pending) {
            if let Some(pos) = self.pick_write(free, ch) {
                self.opp_drain = true;
                return Some(self.issue_at(pos, true, ch, rrpc, now));
            }
        }

        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_dram::{BurstLen, DramAccess, Organization, TimingParams};
    use dca_dram_cache::OrgKind;

    fn channel() -> DramChannel {
        DramChannel::new(TimingParams::paper_stacked(), &Organization::paper())
    }

    fn ctrl(design: Design) -> (ChannelController, Rrpc) {
        let cfg = SystemConfig::paper(design, OrgKind::DirectMapped);
        (
            ChannelController::new(&cfg, 0),
            Rrpc::new(cfg.dram_org.total_banks()),
        )
    }

    fn spec(bank: u32, row: u32, kind: AccessKind, class: ReadClass) -> AccessSpec {
        AccessSpec {
            access: DramAccess {
                bank,
                row,
                kind,
                burst: BurstLen::Block64,
            },
            role: if kind == AccessKind::Read {
                AccessRole::TagRead
            } else {
                AccessRole::TagWrite
            },
            class,
        }
    }

    #[test]
    fn cd_routes_by_access_type() {
        let (mut c, _) = ctrl(Design::Cd);
        // A writeback's tag READ still lands in the read queue under CD —
        // the root of read priority inversion.
        c.enqueue(
            0,
            spec(0, 0, AccessKind::Read, ReadClass::LowPriority),
            CacheReqKind::Writeback,
            0,
            SimTime::ZERO,
        );
        c.enqueue(
            1,
            spec(0, 0, AccessKind::Write, ReadClass::LowPriority),
            CacheReqKind::Writeback,
            0,
            SimTime::ZERO,
        );
        assert_eq!(c.read_q.len(), 1);
        assert_eq!(c.write_q.len(), 1);
    }

    #[test]
    fn banshee_routes_like_cd_and_schedules_all_reads() {
        let (mut c, mut r) = ctrl(Design::Banshee);
        // By access type: a writeback's tag read lands in the read queue.
        c.enqueue(
            0,
            spec(0, 5, AccessKind::Read, ReadClass::LowPriority),
            CacheReqKind::Writeback,
            0,
            SimTime(0),
        );
        c.enqueue(
            1,
            spec(0, 0, AccessKind::Write, ReadClass::LowPriority),
            CacheReqKind::Writeback,
            0,
            SimTime(0),
        );
        assert_eq!(c.read_q.len(), 1);
        assert_eq!(c.write_q.len(), 1);
        // And the LR is schedulable immediately — no DCA-style holdback.
        let mut ch = channel();
        let issued = c.schedule_one(&mut ch, &mut r, SimTime(20)).unwrap();
        assert_eq!(issued.entry.class, ReadClass::LowPriority);
    }

    #[test]
    fn rod_routes_by_request_type() {
        let (mut c, _) = ctrl(Design::Rod);
        // Writeback tag read → write queue under ROD.
        c.enqueue(
            0,
            spec(0, 0, AccessKind::Read, ReadClass::LowPriority),
            CacheReqKind::Writeback,
            0,
            SimTime::ZERO,
        );
        // Read request's tag write → write queue (footnote).
        c.enqueue(
            1,
            spec(0, 0, AccessKind::Write, ReadClass::LowPriority),
            CacheReqKind::Read,
            0,
            SimTime::ZERO,
        );
        // Read request's data read → read queue.
        c.enqueue(
            2,
            spec(0, 0, AccessKind::Read, ReadClass::Priority),
            CacheReqKind::Read,
            0,
            SimTime::ZERO,
        );
        assert_eq!(c.read_q.len(), 1);
        assert_eq!(c.write_q.len(), 2);
    }

    #[test]
    fn cd_schedules_lr_ahead_of_pr_when_older() {
        // The priority-inversion mechanic: CD's arbiter sees one read
        // queue and (ceteris paribus) serves the older LR first.
        let (mut c, mut r) = ctrl(Design::Cd);
        let mut ch = channel();
        c.enqueue(
            0,
            spec(0, 5, AccessKind::Read, ReadClass::LowPriority),
            CacheReqKind::Writeback,
            0,
            SimTime(0),
        );
        c.enqueue(
            1,
            spec(1, 7, AccessKind::Read, ReadClass::Priority),
            CacheReqKind::Read,
            1,
            SimTime(10),
        );
        let issued = c.schedule_one(&mut ch, &mut r, SimTime(20)).unwrap();
        assert_eq!(issued.entry.class, ReadClass::LowPriority, "CD inverts");
    }

    #[test]
    fn dca_holds_lr_and_serves_pr_first() {
        let (mut c, mut r) = ctrl(Design::Dca);
        let mut ch = channel();
        c.enqueue(
            0,
            spec(0, 5, AccessKind::Read, ReadClass::LowPriority),
            CacheReqKind::Writeback,
            0,
            SimTime(0),
        );
        c.enqueue(
            1,
            spec(1, 7, AccessKind::Read, ReadClass::Priority),
            CacheReqKind::Read,
            1,
            SimTime(10),
        );
        let issued = c.schedule_one(&mut ch, &mut r, SimTime(20)).unwrap();
        assert_eq!(
            issued.entry.class,
            ReadClass::Priority,
            "DCA serves the younger PR first"
        );
        assert_eq!(c.stats().pr_served.get(), 1);
    }

    #[test]
    fn dca_ofs_releases_lr_when_no_pr_pending() {
        let (mut c, mut r) = ctrl(Design::Dca);
        let mut ch = channel();
        c.enqueue(
            0,
            spec(0, 5, AccessKind::Read, ReadClass::LowPriority),
            CacheReqKind::Writeback,
            0,
            SimTime(0),
        );
        // Bank 0 is closed → row-friendly → OFS admits.
        let issued = c.schedule_one(&mut ch, &mut r, SimTime(10)).unwrap();
        assert_eq!(issued.entry.class, ReadClass::LowPriority);
        assert_eq!(c.stats().ofs_row_friendly.get(), 1);
    }

    #[test]
    fn dca_ofs_blocks_conflicting_lr_on_hot_bank() {
        let (mut c, mut r) = ctrl(Design::Dca);
        let mut ch = channel();
        // Heat bank 0 with PR traffic and open row 1.
        let pr = ch.issue(DramAccess::read(0, 1), SimTime::ZERO);
        r.on_priority_read(0); // global bank 0 of channel 0
                               // LR to bank 0, *different row* → conflict; RRPC hot → hold.
        c.enqueue(
            0,
            spec(0, 9, AccessKind::Read, ReadClass::LowPriority),
            CacheReqKind::Writeback,
            0,
            SimTime(0),
        );
        let after = pr.burst_end;
        assert!(c.schedule_one(&mut ch, &mut r, after).is_none());
        // Cool the bank below FF-4 (7 → 3 takes four decays).
        for b in 1..5u32 {
            r.on_priority_read(b);
        }
        let issued = c.schedule_one(&mut ch, &mut r, after).unwrap();
        assert_eq!(issued.entry.class, ReadClass::LowPriority);
        assert_eq!(c.stats().ofs_rrpc_cold.get(), 1);
    }

    #[test]
    fn forced_drain_blocks_reads_until_low_mark() {
        let (mut c, mut r) = ctrl(Design::Cd);
        let mut ch = channel();
        // Fill write queue past 85% of 64 = 55 entries.
        for i in 0..56 {
            c.enqueue(
                i,
                spec(
                    (i % 16) as u32,
                    0,
                    AccessKind::Write,
                    ReadClass::LowPriority,
                ),
                CacheReqKind::Writeback,
                0,
                SimTime(0),
            );
        }
        c.enqueue(
            99,
            spec(0, 3, AccessKind::Read, ReadClass::Priority),
            CacheReqKind::Read,
            0,
            SimTime(0),
        );
        let issued = c.schedule_one(&mut ch, &mut r, SimTime(10)).unwrap();
        assert!(issued.from_write_q, "forced drain serves writes first");
        assert!(c.stats().forced_drain_slots.get() >= 1);
    }

    #[test]
    fn opportunistic_drain_when_no_reads() {
        let (mut c, mut r) = ctrl(Design::Cd);
        let mut ch = channel();
        // 60% full write queue (> lo=50%), empty read queue.
        for i in 0..39 {
            c.enqueue(
                i,
                spec(
                    (i % 16) as u32,
                    0,
                    AccessKind::Write,
                    ReadClass::LowPriority,
                ),
                CacheReqKind::Writeback,
                0,
                SimTime(0),
            );
        }
        let issued = c.schedule_one(&mut ch, &mut r, SimTime(10)).unwrap();
        assert!(issued.from_write_q);
    }

    #[test]
    fn below_low_mark_writes_wait() {
        let (mut c, mut r) = ctrl(Design::Cd);
        let mut ch = channel();
        for i in 0..10 {
            c.enqueue(
                i,
                spec(
                    (i % 16) as u32,
                    0,
                    AccessKind::Write,
                    ReadClass::LowPriority,
                ),
                CacheReqKind::Writeback,
                0,
                SimTime(0),
            );
        }
        assert!(c.schedule_one(&mut ch, &mut r, SimTime(10)).is_none());
    }

    #[test]
    fn spill_buffers_absorb_overflow_and_refill() {
        let (mut c, mut r) = ctrl(Design::Cd);
        let mut ch = channel();
        // Overfill the 64-entry read queue.
        for i in 0..70 {
            c.enqueue(
                i,
                spec(
                    (i % 16) as u32,
                    i as u32,
                    AccessKind::Read,
                    ReadClass::Priority,
                ),
                CacheReqKind::Read,
                0,
                SimTime(0),
            );
        }
        assert_eq!(c.read_q.len(), 64);
        assert_eq!(c.backlog(), 70);
        assert!(c.stats().spilled.get() == 6);
        assert!(!c.can_admit());
        // Issue one; spill refills the queue.
        c.schedule_one(&mut ch, &mut r, SimTime(10)).unwrap();
        assert_eq!(c.read_q.len(), 64);
        assert_eq!(c.backlog(), 69);
    }

    #[test]
    fn busy_banks_block_scheduling() {
        let (mut c, mut r) = ctrl(Design::Cd);
        let mut ch = channel();
        let first = ch.issue(DramAccess::read(3, 1), SimTime::ZERO);
        c.enqueue(
            0,
            spec(3, 2, AccessKind::Read, ReadClass::Priority),
            CacheReqKind::Read,
            0,
            SimTime(0),
        );
        assert!(
            c.schedule_one(&mut ch, &mut r, SimTime(100)).is_none(),
            "bank 3 busy until {:?}",
            first.burst_end
        );
        assert!(c.schedule_one(&mut ch, &mut r, first.burst_end).is_some());
    }

    #[test]
    fn dca_schedule_all_band_admits_lrs_under_pressure() {
        let (mut c, mut r) = ctrl(Design::Dca);
        let mut ch = channel();
        // Fill the read queue past 85% with LRs on *hot* conflicting banks
        // so OFS would refuse them, then verify ScheduleAll releases them.
        for b in 0..16u32 {
            ch.issue(DramAccess::read(b, 1), SimTime::ZERO);
            r.on_priority_read(b);
        }
        // Re-heat so all RRPCs are high.
        for b in 0..16u32 {
            r.on_priority_read(b);
        }
        for i in 0..60u64 {
            c.enqueue(
                i,
                spec((i % 16) as u32, 9, AccessKind::Read, ReadClass::LowPriority),
                CacheReqKind::Writeback,
                0,
                SimTime(0),
            );
        }
        // Banks all busy until their bursts end; pick a late time.
        let t = SimTime(1_000_000);
        let issued = c.schedule_one(&mut ch, &mut r, t).unwrap();
        assert_eq!(issued.entry.class, ReadClass::LowPriority);
        assert!(c.stats().sched_all_entries.get() >= 1);
    }
}
