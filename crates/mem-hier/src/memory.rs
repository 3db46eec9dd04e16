//! Off-chip main memory behind the DRAM cache, selectable per run via
//! [`MainMemConfig`]:
//!
//! * [`MainMemConfig::Flat`] — Table II's "Memory latency 50 ns" behind
//!   a 2 GHz × 64-bit off-chip bus: a fixed access latency
//!   ([`FLAT_LATENCY`]) plus bus-bandwidth serialisation (a 64-byte
//!   block on a 16 GB/s bus takes [`FLAT_BUS_TIME`], 4 ns). This is the
//!   original seed model, preserved bit-for-bit — the analytic
//!   `read(now) -> done` contract and its arithmetic are untouched.
//! * [`MainMemConfig::Cycle`] — a real DDR-style device: the same
//!   tier-generic [`DramChannel`] bank/row/bus machinery the stacked
//!   DRAM cache uses, instantiated with the configured timing
//!   (DDR4-2400 or 3DXPoint-like) on the [`CYCLE_ORG`] geometry behind
//!   a bounded FR-FCFS-scheduled access queue of [`CYCLE_QUEUE_CAP`]
//!   entries ([`dca_sched::AccessQueue`] + [`dca_sched::FrFcfs`]), with
//!   [`CYCLE_EXTRA_LATENCY`] added to every read. Miss refills,
//!   dirty-victim writebacks and Lee-writeback traffic contend for real
//!   banks and a real bus, so row conflicts, turnaround penalties and
//!   queueing delay shape the miss penalty exactly as the traffic mix
//!   demands — the behaviour a flat latency cannot express.
//!
//! The cycle-level backend is *event-driven*: the system enqueues
//! accesses ([`MainMemory::enqueue_read`] / [`MainMemory::enqueue_write`]),
//! pumps the scheduler ([`MainMemory::schedule`]) and asks when to pump
//! next ([`MainMemory::next_wakeup`] — the earliest instant a queued
//! access's bank frees). Read completions carry the caller's token back
//! so the system can route the arrival to its request. The flat backend
//! never generates events of its own, which is what keeps `FlatLatency`
//! runs bit-identical to the pre-refactor model (locked by
//! `tests/main_mem_equivalence.rs`).

use std::collections::VecDeque;

use dca_dram::{
    AccessKind, AddressMapper, BurstLen, DramAccess, DramChannel, MappingScheme, Organization,
    TimingParams,
};
use dca_sched::{AccessQueue, FrFcfs, QueueEntry, ReadClass, MAX_BANKS, MAX_CAPACITY};
use dca_sim_core::{Counter, Duration, FastHashMap, SimTime};

/// Flat backend: fixed access latency (Table II: 50 ns).
pub const FLAT_LATENCY: Duration = Duration::from_ns(50);

/// Flat backend: bus occupancy per 64-byte block (Table II: a 2 GHz ×
/// 64-bit bus, 4 ns).
pub const FLAT_BUS_TIME: Duration = Duration::from_ns(4);

/// Cycle backend geometry: one 16-bank DDR4-style channel with 8 KB rows.
pub const CYCLE_ORG: Organization = Organization::ddr4_main();

/// Cycle backend: controller + on-chip interconnect latency added to
/// every read completion (the part of the flat model's 50 ns that is not
/// the DRAM array itself).
pub const CYCLE_EXTRA_LATENCY: Duration = Duration::from_ns(20);

/// Cycle backend: bounded per-channel access-queue capacity; overflow
/// spills into an unbounded buffer so traffic is never dropped.
pub const CYCLE_QUEUE_CAP: usize = 64;

// The cycle backend's queue must fit the access queue's bank index.
const _: () = assert!(
    CYCLE_QUEUE_CAP <= MAX_CAPACITY && CYCLE_ORG.banks_per_channel() as usize <= MAX_BANKS,
    "the main-memory queue exceeds the access queue's bank index"
);

/// Which main-memory model backs the DRAM cache. Everything but the
/// cycle backend's timing is a constant of this module.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MainMemConfig {
    /// Fixed latency + bus serialisation (the seed model):
    /// [`FLAT_LATENCY`] + [`FLAT_BUS_TIME`] per block.
    Flat,
    /// Cycle-level DDR-style device: banks, rows, bus, FR-FCFS queue.
    Cycle {
        /// Device timing (e.g. [`TimingParams::ddr4_2400`]).
        timing: TimingParams,
    },
}

impl MainMemConfig {
    /// The seed model's Table II parameters: 50 ns + 4 ns/block.
    pub fn paper_flat() -> Self {
        MainMemConfig::Flat
    }

    /// Cycle-level DDR4-2400 main memory. With the [`CYCLE_ORG`] channel
    /// and the [`CYCLE_EXTRA_LATENCY`] overhead, an unloaded row-conflict
    /// read lands near the flat model's 50 ns while loaded behaviour
    /// diverges with the traffic mix.
    pub fn ddr4() -> Self {
        MainMemConfig::Cycle {
            timing: TimingParams::ddr4_2400(),
        }
    }

    /// Cycle-level 3DXPoint-like slow main memory: the same DDR4-style
    /// channel geometry driven with [`TimingParams::xpoint`] — ~120 ns
    /// media reads and ~400 ns write recovery behind a DDR4-like link.
    /// With main memory this slow the DRAM cache becomes load-bearing,
    /// the regime where the controller designs diverge hardest.
    pub fn xpoint() -> Self {
        MainMemConfig::Cycle {
            timing: TimingParams::xpoint(),
        }
    }

    /// [`MainMemConfig::ddr4`] with the data bandwidth divided by `div`
    /// (burst time multiplied), the main-memory-bandwidth sensitivity
    /// knob.
    pub fn ddr4_bandwidth_div(div: u32) -> Self {
        MainMemConfig::Cycle {
            timing: TimingParams::ddr4_2400().with_bandwidth_divisor(div),
        }
    }

    /// True for the cycle-level backend.
    pub fn is_cycle(&self) -> bool {
        matches!(self, MainMemConfig::Cycle { .. })
    }
}

/// Snapshot of a backend's statistics for reporting.
#[derive(Clone, Debug, Default)]
pub struct MainMemStats {
    /// Backend label: `"flat"` or `"cycle"`.
    pub backend: &'static str,
    /// Reads served (flat) or read accesses issued to the device (cycle).
    pub reads: u64,
    /// Writes absorbed / write accesses issued.
    pub writes: u64,
    /// Data-bus busy time, in picoseconds.
    pub busy_ps: u64,
    /// Row-buffer hits (cycle backend only).
    pub row_hits: u64,
    /// Row-buffer conflicts (cycle backend only).
    pub row_conflicts: u64,
    /// Bus direction switches (cycle backend only).
    pub turnarounds: u64,
    /// Highest access-queue occupancy observed, spill included (cycle).
    pub peak_queue: u64,
    /// Total picoseconds accesses spent queued before issue (cycle).
    pub queue_wait_ps: u64,
}

impl MainMemStats {
    /// Row-buffer hit rate over all issued accesses (0 for flat).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 || self.backend != "cycle" {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The seed main-memory model: fixed latency + bus serialisation.
#[derive(Clone, Debug, Default)]
pub struct FlatMemory {
    bus_free_at: SimTime,
    reads: Counter,
    writes: Counter,
    busy_ps: u64,
}

impl FlatMemory {
    /// Accept a read at `now`; returns when the data is available.
    pub fn read(&mut self, now: SimTime) -> SimTime {
        self.reads.inc();
        self.schedule(now)
    }

    /// Accept a write at `now`; returns when the write has drained (used
    /// only for bandwidth accounting — callers fire-and-forget).
    pub fn write(&mut self, now: SimTime) -> SimTime {
        self.writes.inc();
        self.schedule(now)
    }

    fn schedule(&mut self, now: SimTime) -> SimTime {
        let start = now.max(self.bus_free_at);
        self.bus_free_at = start + FLAT_BUS_TIME;
        self.busy_ps += FLAT_BUS_TIME.ps();
        start + FLAT_LATENCY + FLAT_BUS_TIME
    }
}

/// A read completion the cycle-level backend hands back to the system:
/// the caller's token and the instant the block is on chip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemArrival {
    /// Caller-supplied token (the owning request id).
    pub token: u64,
    /// When the data arrives (burst end + controller latency).
    pub at: SimTime,
}

/// Cycle-level main memory: one FR-FCFS-scheduled [`DramChannel`] per
/// [`CYCLE_ORG`] channel, fed by a bounded [`AccessQueue`] with an
/// unbounded spill buffer.
#[derive(Debug)]
pub struct CycleMemory {
    timing: TimingParams,
    /// [`CYCLE_ORG`]'s row frames → (channel, bank, row).
    mapper: AddressMapper,
    channels: Vec<DramChannel>,
    queues: Vec<AccessQueue>,
    spill: Vec<VecDeque<QueueEntry>>,
    /// Queue-entry id → caller token, for read completions.
    read_tokens: FastHashMap<u64, u64>,
    next_id: u64,
    reads: Counter,
    writes: Counter,
    peak_queue: u64,
    queue_wait_ps: u64,
    frfcfs: FrFcfs,
}

impl CycleMemory {
    fn new(timing: TimingParams) -> Self {
        let channels = CYCLE_ORG.channels;
        CycleMemory {
            timing,
            mapper: AddressMapper::new(&CYCLE_ORG, MappingScheme::Direct),
            channels: (0..channels)
                .map(|_| DramChannel::new(timing, &CYCLE_ORG))
                .collect(),
            queues: (0..channels)
                .map(|_| AccessQueue::new(CYCLE_QUEUE_CAP))
                .collect(),
            spill: (0..channels).map(|_| VecDeque::new()).collect(),
            read_tokens: FastHashMap::default(),
            next_id: 0,
            reads: Counter::default(),
            writes: Counter::default(),
            peak_queue: 0,
            queue_wait_ps: 0,
            frfcfs: FrFcfs::new(),
        }
    }

    /// Map a 64-byte block address onto (channel, bank, row) in
    /// row:bank:channel:column order (RoBaChCo, the paper's order minus
    /// the rank level the preset does not use): the block's row frame,
    /// wrapped onto the device, through the direct [`AddressMapper`].
    fn locate(&self, block: u64) -> (usize, u32, u32) {
        let blocks_per_row = (CYCLE_ORG.row_bytes / 64).max(1) as u64;
        let frame = block / blocks_per_row % self.mapper.frames();
        let loc = self.mapper.locate(frame);
        (loc.channel as usize, loc.bank, loc.row)
    }

    fn enqueue(&mut self, kind: AccessKind, block: u64, token: Option<u64>, now: SimTime) {
        let (ch, bank, row) = self.locate(block);
        let id = self.next_id;
        self.next_id += 1;
        if let Some(token) = token {
            self.read_tokens.insert(id, token);
        }
        let entry = QueueEntry {
            id,
            access: DramAccess {
                bank,
                row,
                kind,
                burst: BurstLen::Block64,
            },
            app: 0,
            class: ReadClass::Priority,
            enqueued_at: now,
        };
        if let Err(e) = self.queues[ch].push(entry) {
            self.spill[ch].push_back(e);
        }
        self.peak_queue = self.peak_queue.max(self.backlog() as u64);
    }

    fn drain_spill(&mut self, ch: usize) {
        while let Some(e) = self.spill[ch].front() {
            if self.queues[ch].is_full() {
                break;
            }
            let e = *e;
            self.spill[ch].pop_front();
            self.queues[ch].push(e).expect("queue had room");
        }
    }

    /// Issue every access whose bank is free at `now`, FR-FCFS order
    /// (row hits first, then oldest), appending read completions to
    /// `out`. Candidates come from the queue's per-bank index intersected
    /// with the channel's free banks, so busy banks' entries are never
    /// visited.
    fn schedule(&mut self, now: SimTime, out: &mut Vec<MemArrival>) {
        for ch in 0..self.channels.len() {
            self.drain_spill(ch);
            loop {
                let channel = &self.channels[ch];
                let queue = &self.queues[ch];
                let picked = self.frfcfs.pick(
                    queue.iter_in(queue.in_banks(channel.free_banks(now))),
                    |e| channel.peek_outcome(e.access.bank, e.access.row),
                );
                let Some(pos) = picked else { break };
                let entry = self.queues[ch].remove(pos);
                let info = self.channels[ch].issue(entry.access, now);
                self.queue_wait_ps += now.since(entry.enqueued_at).ps();
                match entry.access.kind {
                    AccessKind::Read => {
                        self.reads.inc();
                        let token = self
                            .read_tokens
                            .remove(&entry.id)
                            .expect("read access carries a token");
                        out.push(MemArrival {
                            token,
                            at: info.burst_end + CYCLE_EXTRA_LATENCY,
                        });
                    }
                    AccessKind::Write => self.writes.inc(),
                }
                self.drain_spill(ch);
            }
        }
    }

    /// Earliest instant a queued access's bank frees — the next time a
    /// pump could make progress. `None` when nothing is queued. Reads one
    /// busy-until per occupied bank, not one per entry.
    fn next_wakeup(&self) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        for (channel, queue) in self.channels.iter().zip(&self.queues) {
            let mut banks = queue.banks();
            while banks != 0 {
                let t = channel.bank_busy_until(banks.trailing_zeros());
                earliest = Some(earliest.map_or(t, |b| b.min(t)));
                banks &= banks - 1;
            }
            // Spilled entries wait on queue room, which opens when any
            // queued entry issues — covered by the loop above (a spill
            // with an empty bounded queue cannot happen: push fills the
            // bounded queue first).
        }
        earliest
    }

    /// Queued accesses, spill included.
    fn backlog(&self) -> usize {
        self.queues.iter().map(AccessQueue::len).sum::<usize>()
            + self.spill.iter().map(VecDeque::len).sum::<usize>()
    }

    fn busy_ps(&self) -> u64 {
        // Burst time actually spent on each channel's data bus.
        self.channels
            .iter()
            .map(|c| {
                let s = c.stats();
                let bursts = s.reads.get() + s.writes.get();
                bursts * BurstLen::Block64.duration(&self.timing).ps()
            })
            .sum()
    }
}

/// Main memory: the backend selected by [`MainMemConfig`].
#[derive(Debug)]
pub enum MainMemory {
    /// Fixed latency + bus serialisation (seed model).
    Flat(FlatMemory),
    /// Cycle-level DDR-style device.
    Cycle(Box<CycleMemory>),
}

impl MainMemory {
    /// Build the backend `cfg` describes.
    pub fn build(cfg: &MainMemConfig) -> Self {
        match *cfg {
            MainMemConfig::Flat => MainMemory::Flat(FlatMemory::default()),
            MainMemConfig::Cycle { timing } => {
                MainMemory::Cycle(Box::new(CycleMemory::new(timing)))
            }
        }
    }

    /// Table II parameters: 50 ns latency, 2 GHz × 64-bit bus ⇒ 4 ns per
    /// 64-byte block (the flat seed model).
    pub fn paper() -> Self {
        Self::build(&MainMemConfig::paper_flat())
    }

    /// True for the cycle-level backend.
    pub fn is_cycle(&self) -> bool {
        matches!(self, MainMemory::Cycle(_))
    }

    /// Flat backend: accept a read at `now`, returning the completion.
    ///
    /// # Panics
    /// Panics on the cycle backend — cycle reads go through
    /// [`MainMemory::enqueue_read`].
    pub fn read(&mut self, now: SimTime) -> SimTime {
        match self {
            MainMemory::Flat(m) => m.read(now),
            MainMemory::Cycle(_) => panic!("analytic read() on the cycle-level backend"),
        }
    }

    /// Flat backend: accept a write at `now` (see [`FlatMemory::write`]).
    ///
    /// # Panics
    /// Panics on the cycle backend.
    pub fn write(&mut self, now: SimTime) -> SimTime {
        match self {
            MainMemory::Flat(m) => m.write(now),
            MainMemory::Cycle(_) => panic!("analytic write() on the cycle-level backend"),
        }
    }

    /// Cycle backend: queue a read for `block`; `token` rides back on
    /// the completion.
    ///
    /// # Panics
    /// Panics on the flat backend.
    pub fn enqueue_read(&mut self, token: u64, block: u64, now: SimTime) {
        match self {
            MainMemory::Cycle(m) => m.enqueue(AccessKind::Read, block, Some(token), now),
            MainMemory::Flat(_) => panic!("enqueue_read() on the flat backend"),
        }
    }

    /// Cycle backend: queue a write for `block` (fire-and-forget).
    ///
    /// # Panics
    /// Panics on the flat backend.
    pub fn enqueue_write(&mut self, block: u64, now: SimTime) {
        match self {
            MainMemory::Cycle(m) => m.enqueue(AccessKind::Write, block, None, now),
            MainMemory::Flat(_) => panic!("enqueue_write() on the flat backend"),
        }
    }

    /// Cycle backend: issue everything issuable at `now` (no-op on
    /// flat), appending read completions to `out`.
    pub fn schedule(&mut self, now: SimTime, out: &mut Vec<MemArrival>) {
        if let MainMemory::Cycle(m) = self {
            m.schedule(now, out);
        }
    }

    /// Cycle backend: when the scheduler could next make progress
    /// (`None` on flat or when idle).
    pub fn next_wakeup(&self) -> Option<SimTime> {
        match self {
            MainMemory::Cycle(m) => m.next_wakeup(),
            MainMemory::Flat(_) => None,
        }
    }

    /// Reads served.
    pub fn reads(&self) -> u64 {
        match self {
            MainMemory::Flat(m) => m.reads.get(),
            MainMemory::Cycle(m) => m.reads.get(),
        }
    }

    /// Writes absorbed.
    pub fn writes(&self) -> u64 {
        match self {
            MainMemory::Flat(m) => m.writes.get(),
            MainMemory::Cycle(m) => m.writes.get(),
        }
    }

    /// Total data-bus busy time, for bandwidth-utilisation reporting.
    pub fn busy_time_ps(&self) -> u64 {
        match self {
            MainMemory::Flat(m) => m.busy_ps,
            MainMemory::Cycle(m) => m.busy_ps(),
        }
    }

    /// Statistics snapshot for the run report.
    pub fn stats(&self) -> MainMemStats {
        match self {
            MainMemory::Flat(m) => MainMemStats {
                backend: "flat",
                reads: m.reads.get(),
                writes: m.writes.get(),
                busy_ps: m.busy_ps,
                ..MainMemStats::default()
            },
            MainMemory::Cycle(m) => {
                let mut row_hits = 0;
                let mut row_conflicts = 0;
                let mut turnarounds = 0;
                for c in &m.channels {
                    let s = c.stats();
                    row_hits += s.read_row_hits.get() + s.write_row_hits.get();
                    row_conflicts += s.read_row_conflicts.get() + s.write_row_conflicts.get();
                    turnarounds += c.bus().turnarounds();
                }
                MainMemStats {
                    backend: "cycle",
                    reads: m.reads.get(),
                    writes: m.writes.get(),
                    busy_ps: m.busy_ps(),
                    row_hits,
                    row_conflicts,
                    turnarounds,
                    peak_queue: m.peak_queue,
                    queue_wait_ps: m.queue_wait_ps,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + Duration::from_ns(ns)
    }

    #[test]
    fn unloaded_latency_is_54ns() {
        let mut m = MainMemory::paper();
        let done = m.read(t(100));
        assert_eq!(done, t(154)); // 50ns + 4ns bus
    }

    #[test]
    fn bandwidth_serialises_bursts() {
        let mut m = MainMemory::paper();
        let d1 = m.read(t(0));
        let d2 = m.read(t(0));
        let d3 = m.read(t(0));
        assert_eq!(d1, t(54));
        assert_eq!(d2, t(58), "second blocked 4ns behind the first");
        assert_eq!(d3, t(62));
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut m = MainMemory::paper();
        m.read(t(0));
        let d = m.read(t(1000));
        assert_eq!(d, t(1054), "bus long idle: full speed again");
    }

    #[test]
    fn writes_share_the_bus() {
        let mut m = MainMemory::paper();
        m.write(t(0));
        let d = m.read(t(0));
        assert_eq!(d, t(58), "read queues behind write's bus slot");
        assert_eq!(m.reads(), 1);
        assert_eq!(m.writes(), 1);
        assert_eq!(m.busy_time_ps(), 8_000);
    }

    fn cycle() -> MainMemory {
        MainMemory::build(&MainMemConfig::ddr4())
    }

    fn pump(m: &mut MainMemory, now: SimTime) -> Vec<MemArrival> {
        let mut out = Vec::new();
        m.schedule(now, &mut out);
        out
    }

    #[test]
    fn cycle_unloaded_read_pays_act_cas_burst_plus_link() {
        let mut m = cycle();
        m.enqueue_read(7, 0, t(0));
        let got = pump(&mut m, t(0));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].token, 7);
        // Closed bank: tRCD(14.16) + tCAS(14.16) + tBURST(3.33) + 20ns.
        assert_eq!(got[0].at.ps(), 14_160 + 14_160 + 3_330 + 20_000);
        assert_eq!(m.reads(), 1);
        assert!(m.next_wakeup().is_none(), "queue drained");
    }

    #[test]
    fn cycle_row_hits_beat_conflicts() {
        let mut m = cycle();
        // Same row twice, then a conflicting row on the same bank.
        m.enqueue_read(1, 0, t(0));
        let a = pump(&mut m, t(0))[0].at;
        let MainMemory::Cycle(ref c) = m else {
            unreachable!()
        };
        let free = c.channels[0].bank_busy_until(0);
        m.enqueue_read(2, 1, free); // same 8KB row (blocks 0/1)
        let b = pump(&mut m, free)[0].at;
        let MainMemory::Cycle(ref c) = m else {
            unreachable!()
        };
        let free2 = c.channels[0].bank_busy_until(0);
        // Same bank (frame multiple of 16 banks), next row: a conflict.
        m.enqueue_read(3, 16 * (8192 / 64), free2);
        let conflict = pump(&mut m, free2)[0].at;
        let hit_cost = b.since(free).ps();
        let conflict_cost = conflict.since(free2).ps();
        assert!(
            hit_cost < a.ps() && a.ps() < conflict_cost,
            "hit {hit_cost} < closed {} < conflict {conflict_cost}",
            a.ps()
        );
        let s = m.stats();
        assert_eq!(s.backend, "cycle");
        assert_eq!(s.row_hits, 1);
    }

    #[test]
    fn cycle_busy_bank_defers_until_wakeup() {
        let mut m = cycle();
        m.enqueue_read(1, 0, t(0));
        assert_eq!(pump(&mut m, t(0)).len(), 1);
        // Same bank while busy: nothing issuable, wakeup at bank free.
        m.enqueue_read(2, 2, t(1));
        assert!(pump(&mut m, t(1)).is_empty());
        let wake = m.next_wakeup().expect("queued work");
        assert!(wake > t(1));
        let got = pump(&mut m, wake);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].token, 2);
    }

    #[test]
    fn cycle_writes_are_fire_and_forget_but_occupy_the_device() {
        let mut m = cycle();
        m.enqueue_write(0, t(0));
        assert!(pump(&mut m, t(0)).is_empty(), "writes complete silently");
        assert_eq!(m.writes(), 1);
        assert!(m.busy_time_ps() > 0);
        // A read behind the write on the same bank waits for it.
        m.enqueue_read(9, 2, t(1));
        assert!(pump(&mut m, t(1)).is_empty());
        assert!(m.next_wakeup().is_some());
    }

    #[test]
    fn cycle_spill_absorbs_overflow_without_loss() {
        let mut m = cycle();
        // CYCLE_QUEUE_CAP + 8 reads to one row of one bank: the queue
        // fills and 8 spill; all must complete.
        let n = CYCLE_QUEUE_CAP as u64 + 8;
        for i in 0..n {
            m.enqueue_read(i, i, t(0));
        }
        let mut done = Vec::new();
        let mut now = t(0);
        for _ in 0..200 {
            let mut out = Vec::new();
            m.schedule(now, &mut out);
            done.extend(out);
            match m.next_wakeup() {
                Some(w) => now = w,
                None => break,
            }
        }
        assert_eq!(done.len() as u64, n, "no access may be dropped");
        let mut tokens: Vec<u64> = done.iter().map(|a| a.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..n).collect::<Vec<u64>>());
        assert_eq!(m.stats().peak_queue, n);
    }

    #[test]
    fn cycle_mapping_spreads_banks() {
        let MainMemory::Cycle(c) = cycle() else {
            unreachable!()
        };
        let blocks_per_row = 8192 / 64;
        let (_, b0, r0) = c.locate(0);
        let (_, b1, r1) = c.locate(blocks_per_row); // next row frame
        assert_eq!((b0, r0), (0, 0));
        assert_eq!((b1, r1), (1, 0), "adjacent frames hit adjacent banks");
        let (_, b16, r16) = c.locate(blocks_per_row * 16);
        assert_eq!((b16, r16), (0, 1), "wraps to the next row");
    }

    #[test]
    fn xpoint_reads_are_slow_and_writes_hold_the_bank() {
        let mut m = MainMemory::build(&MainMemConfig::xpoint());
        m.enqueue_read(1, 0, t(0));
        let read = pump(&mut m, t(0));
        assert_eq!(read.len(), 1);
        // Closed bank: tRCD(120) + tCAS(14.16) + tBURST(3.33) + 20ns.
        assert_eq!(read[0].at.ps(), 120_000 + 14_160 + 3_330 + 20_000);
        // A write to the same bank, then a conflicting read behind it:
        // the read must wait out the ~400ns write recovery.
        let MainMemory::Cycle(ref c) = m else {
            unreachable!()
        };
        let free = c.channels[0].bank_busy_until(0);
        m.enqueue_write(2, free);
        assert!(pump(&mut m, free).is_empty());
        let blocks_per_row = 8192 / 64;
        m.enqueue_read(9, 16 * blocks_per_row, free);
        assert!(pump(&mut m, free).is_empty(), "bank held by the write");
        // Drain until the read completes: its arrival must sit past the
        // ~400 ns media program time the write holds the bank for.
        let mut done = Vec::new();
        while done.iter().all(|a: &MemArrival| a.token != 9) {
            let now = m.next_wakeup().expect("pending read must wake the device");
            done.extend(pump(&mut m, now));
        }
        let read_done = done.iter().find(|a| a.token == 9).unwrap().at;
        assert!(
            read_done.since(free).ps() > 400_000,
            "write recovery dominates the stall: {} ps",
            read_done.since(free).ps()
        );
    }

    #[test]
    fn bandwidth_divisor_config_slows_bursts() {
        let MainMemConfig::Cycle { timing, .. } = MainMemConfig::ddr4_bandwidth_div(4) else {
            unreachable!()
        };
        assert_eq!(timing.t_burst.ps(), 4 * 3_330);
    }
}
