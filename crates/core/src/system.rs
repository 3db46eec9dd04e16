//! The full simulated system and its event loop.
//!
//! Wiring (Table II): 4 cores (4 GHz, 192-entry ROB, 8-wide) with private
//! L1s (32 KB/2-way, 2 cycles) → shared L2 (8 MB, 20 cycles, MSHRs) →
//! the DRAM-cache controller (one [`ChannelController`] per channel) →
//! the stacked-DRAM device (4 channels × 16 banks, open page) → main
//! memory ([`SystemConfig::main_mem`]: the flat 50 ns + off-chip-bus
//! model, or a cycle-level DDR4-style device pumped by its own
//! `MemPump`/`MemArrive` events — see the `dca_mem_hier::memory` docs).
//!
//! ## Flow of a demand read
//! L2 miss → MSHR → `CacheRequest{Read}` to the block's channel → FSM
//! emits the tag (or TAD) read → controller schedules it per design →
//! tag resolution → hit: data read (+ replacement-bit tag write), data
//! answers the cores; miss: main-memory fetch (overlapped with the tag
//! check when MAP-I predicted a miss), the returned block answers the
//! cores immediately and a `Refill` request installs it in the cache.
//!
//! ## Flow of a writeback
//! L2 dirty eviction → `CacheRequest{Writeback}` → tag read (the LR the
//! whole paper is about) → data+tag writes; a displaced dirty victim is
//! read out and written to main memory.
//!
//! Determinism: one event queue with (time, insertion) ordering; all
//! randomness comes from the seeded workload generators.
//!
//! Hot-path state is slab-indexed: request and access ids are packed
//! generational [`SlabKey`]s, so every per-event lookup is a direct array
//! access — no hashing anywhere in the event loop (see the
//! `dca_sim_core` crate docs for the engine architecture).

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, SyncSender};

use dca_cpu::{Benchmark, Core, CoreConfig, MemOp, MemPort, OpStream, PortResponse};
use dca_dram::DramChannel;
use dca_dram_cache::{
    CacheGeometry, CacheReqKind, CacheRequest, MapI, OrgKind, RequestFsm, RequestId, TagArray,
};
use dca_mem_hier::{collect_same_row_dirty, MainMemory, MemArrival, Mshr, MshrOutcome, SramCache};
use dca_metrics::LatencyStat;
use dca_sim_core::{
    BaselineEventQueue, Duration, EventQueue, FastHashMap, SeedSplitter, SimTime, Slab, SlabKey,
};

use crate::config::{Design, EngineSel, SystemConfig};
use crate::controller::{AccessMeta, ChannelController};
use crate::report::{ChannelReport, CoreReport, SystemReport};
use crate::rrpc::Rrpc;
use crate::timeline::{Timeline, TimelineEntry};
use crate::warm::WarmState;

/// L2 hit latency in CPU cycles (Table II: 20).
pub const L2_LAT_CYCLES: u64 = 20;

/// Shared L2 MSHR count.
pub const MSHRS: usize = 32;

/// Banshee fill gate: a page's miss fills are admitted only once its
/// frequency counter has reached this value, so the first
/// `BANSHEE_FILL_THRESHOLD - 1` misses to a cold page bypass the cache.
pub const BANSHEE_FILL_THRESHOLD: u8 = 2;

/// Saturation cap of Banshee's per-page frequency counters (Banshee
/// keeps small saturating counters in the page-table/TLB entries).
pub const BANSHEE_COUNTER_CAP: u8 = 7;

// A counter that saturated below the threshold would never admit a fill.
const _: () = assert!(BANSHEE_COUNTER_CAP >= BANSHEE_FILL_THRESHOLD);

/// Events driving the simulation.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// (Re-)advance a core.
    CoreWake(u8),
    /// Deliver load data to a core, then advance it.
    Deliver { core: u8, token: u64 },
    /// Run a channel's admission + scheduling.
    Pump(u8),
    /// A DRAM access's burst completed.
    AccessDone { ch: u8, access_id: u64 },
    /// Main-memory data for a demand-read miss arrived (flat backend:
    /// the completion time was known analytically at submission).
    MemData { req: RequestId },
    /// Run the cycle-level main-memory device's FR-FCFS scheduler.
    MemPump,
    /// Launch a cycle-backend speculative fetch at the L2-miss time the
    /// request was submitted with. The enqueue must happen *at* that
    /// instant — enqueuing early would let an unrelated pump issue the
    /// access before its own submission time.
    MemFetch { req: RequestId },
    /// A cycle-level main-memory read burst landed on chip. Unlike
    /// [`Ev::MemData`] this can precede the tag check's verdict (the
    /// speculative MAP-I prefetch), so the handler routes by the
    /// request's fetch state.
    MemArrive { req: RequestId },
}

/// An L2-miss waiter (who to answer when the block arrives).
#[derive(Clone, Copy, Debug)]
struct Waiter {
    core: u8,
    token: u64,
    is_store: bool,
}

/// Progress of a demand read's main-memory fetch. The flat backend
/// knows the completion time the instant a fetch launches; the
/// cycle-level backend learns it only when the device actually issues
/// the access, so the two carry different state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fetch {
    /// No memory fetch launched yet.
    None,
    /// Flat backend: the fetch completes at this instant.
    FlatAt(SimTime),
    /// Cycle backend: fetch queued/in flight; tag check not resolved.
    CyclePending,
    /// Cycle backend: fetch in flight and the tag check already said
    /// miss — answer the cores the moment the data arrives.
    CyclePendingMissed,
    /// Cycle backend: data arrived before the tag check resolved.
    CycleDone,
}

/// Bookkeeping for an outstanding demand read.
#[derive(Clone, Copy, Debug)]
struct ReadState {
    block: u64,
    app: u8,
    arrival: SimTime,
    predicted_hit: bool,
    /// Main-memory fetch progress (speculative or post-miss).
    fetch: Fetch,
}

/// Slab slot for one in-flight cache request. A slot lives from
/// submission until both the FSM has finished *and* (for demand reads)
/// the read bookkeeping has been consumed — whichever comes last — so a
/// `RequestId` stays valid for exactly as long as any event can still
/// reference it.
struct ReqState {
    /// The admitted request's state machine (`None` before admission and
    /// again after it signals `done`).
    fsm: Option<RequestFsm>,
    /// Demand-read bookkeeping; `None` for writebacks/refills and after
    /// the read has been answered.
    read: Option<ReadState>,
    /// Set once the FSM has signalled `done`.
    fsm_done: bool,
}

/// The event engine, selectable per run ([`EngineSel`]): the calendar
/// queue (production) or the original binary heap (the test oracle).
/// Both deliver in the same total `(time, seq)` order, so the choice
/// cannot affect results — only wall-clock speed.
enum Engine {
    Calendar(EventQueue<Ev>),
    Heap(BaselineEventQueue<Ev>),
}

impl Engine {
    #[inline]
    fn now(&self) -> SimTime {
        match self {
            Engine::Calendar(q) => q.now(),
            Engine::Heap(q) => q.now(),
        }
    }

    #[inline]
    fn push(&mut self, at: SimTime, ev: Ev) {
        match self {
            Engine::Calendar(q) => q.push(at, ev),
            Engine::Heap(q) => q.push(at, ev),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        match self {
            Engine::Calendar(q) => q.pop(),
            Engine::Heap(q) => q.pop(),
        }
    }

    #[inline]
    fn counters(&self) -> (u64, u64) {
        match self {
            Engine::Calendar(q) => q.counters(),
            Engine::Heap(q) => q.counters(),
        }
    }
}

/// Everything below the cores. Split from [`System`] so the core loop can
/// borrow it as the cores' memory port.
struct Uncore {
    cfg: SystemConfig,
    geom: CacheGeometry,
    l1: Vec<SramCache>,
    l2: SramCache,
    mshr: Mshr<Waiter>,
    mshr_overflow: VecDeque<(u64, Waiter, u32)>,
    channels: Vec<DramChannel>,
    ctrls: Vec<ChannelController>,
    rrpc: Rrpc,
    tags: TagArray,
    predictor: MapI,
    memory: MainMemory,
    /// Per-request state, keyed by `RequestId` (a packed [`SlabKey`]).
    requests: Slab<ReqState>,
    /// Per-access routing metadata, keyed by access id (also a slab key).
    accesses: Slab<AccessMeta>,
    pending_reqs: Vec<VecDeque<CacheRequest>>,
    inflight: Vec<u32>,
    poll_armed: Vec<bool>,
    /// Earliest future [`Ev::MemPump`] currently queued (cycle backend
    /// only). Later, stale pump events may also exist — they fire as
    /// cheap no-ops — but an armed instant is never pushed twice, so
    /// repeated device enqueues before a wakeup cannot stack events.
    mem_pump_armed_at: Option<SimTime>,
    /// Reusable completion buffer for the cycle backend's scheduler.
    mem_arrivals: Vec<MemArrival>,
    /// Events produced while the event queue is not borrowable
    /// (inside the cores' port callbacks).
    outbox: Vec<(SimTime, Ev)>,
    /// Banshee fill gate: per-page (row-frame) saturating frequency
    /// counters. Consulted only when the design is [`Design::Banshee`];
    /// a miss fill is admitted only once its page has proven itself hot
    /// enough, so cold pages never spend fill bandwidth.
    fill_counters: FastHashMap<u64, u8>,
    // Statistics.
    latency: LatencyStat,
    cache_read_hits: u64,
    cache_read_misses: u64,
    wb_requests: u64,
    refill_requests: u64,
    cache_fills: u64,
    fill_bypasses: u64,
    timeline: Option<Timeline>,
}

impl Uncore {
    fn l1_latency(&self) -> Duration {
        Duration::from_cpu_cycles(self.cfg.l1_lat_cycles)
    }

    fn l2_latency(&self) -> Duration {
        Duration::from_cpu_cycles(L2_LAT_CYCLES)
    }

    /// Install `block` into a core's L1, spilling dirty victims into L2.
    fn fill_l1(&mut self, core: u8, block: u64, dirty: bool) {
        if let Some((victim, vdirty)) = self.l1[core as usize].allocate(block, dirty) {
            if vdirty {
                // L1 victim writes back into the (almost surely present)
                // L2 copy; if L2 already lost it, the update is dropped —
                // data values are not modelled, only traffic.
                self.l2.probe(victim, true);
            }
        }
    }

    /// Allocate a request slot; the returned id is its packed slab key.
    fn alloc_request(&mut self, read: Option<ReadState>) -> RequestId {
        self.requests
            .insert(ReqState {
                fsm: None,
                read,
                fsm_done: false,
            })
            .raw()
    }

    /// Free a request slot once nothing can reference it any more.
    fn maybe_free_request(&mut self, id: RequestId) {
        let key = SlabKey::from(id);
        if let Some(slot) = self.requests.get(key) {
            if slot.fsm_done && slot.read.is_none() {
                self.requests.remove(key);
            }
        }
    }

    /// Overwrite a live demand-read's main-memory fetch state.
    fn set_fetch(&mut self, req: RequestId, fetch: Fetch) {
        self.requests
            .get_mut(SlabKey::from(req))
            .expect("request slot live")
            .read
            .as_mut()
            .expect("read state live")
            .fetch = fetch;
    }

    /// Create and queue a demand-read request for `block`.
    fn submit_read(&mut self, block: u64, app: u8, pc: u32, at: SimTime) {
        let predicted_hit = self.predictor.predict_hit(pc);
        // MAP-I predicted a miss: overlap the memory fetch with the tag
        // check (the Alloy-style hit-speculation path). The flat fetch
        // launches here; the cycle fetch needs the request id, so it is
        // deferred to a MemFetch event below.
        let fetch = if !predicted_hit && !self.memory.is_cycle() {
            Fetch::FlatAt(self.memory.read(at))
        } else {
            Fetch::None
        };
        let id = self.alloc_request(Some(ReadState {
            block,
            app,
            arrival: at,
            predicted_hit,
            fetch,
        }));
        if !predicted_hit && self.memory.is_cycle() {
            self.outbox.push((at, Ev::MemFetch { req: id }));
            self.set_fetch(id, Fetch::CyclePending);
        }
        let req = CacheRequest {
            id,
            kind: CacheReqKind::Read,
            block,
            app,
            pc,
        };
        let ch = self.geom.place(block).loc.channel;
        self.pending_reqs[ch as usize].push_back(req);
        self.outbox.push((at, Ev::Pump(ch as u8)));
    }

    /// Create and queue a writeback request for `block`.
    fn submit_writeback(&mut self, block: u64, app: u8, at: SimTime) {
        let id = self.alloc_request(None);
        self.wb_requests += 1;
        let req = CacheRequest {
            id,
            kind: CacheReqKind::Writeback,
            block,
            app,
            pc: 0,
        };
        let ch = self.geom.place(block).loc.channel;
        self.pending_reqs[ch as usize].push_back(req);
        self.outbox.push((at, Ev::Pump(ch as u8)));
    }

    /// Create and queue a refill request for `block`. Under the Banshee
    /// design the fill is frequency-gated: a cold page's refills bypass
    /// the cache entirely (the demand data already answered the cores),
    /// saving the fill's DRAM-cache write traffic. Warm-up is
    /// design-independent and never passes through this gate.
    fn submit_refill(&mut self, block: u64, app: u8, at: SimTime) {
        if self.cfg.design == Design::Banshee {
            let frame = self.geom.place(block).frame;
            let count = self.fill_counters.entry(frame).or_insert(0);
            if *count < BANSHEE_COUNTER_CAP {
                *count += 1;
            }
            if *count < BANSHEE_FILL_THRESHOLD {
                self.fill_bypasses += 1;
                return;
            }
        }
        self.cache_fills += 1;
        let id = self.alloc_request(None);
        self.refill_requests += 1;
        let req = CacheRequest {
            id,
            kind: CacheReqKind::Refill,
            block,
            app,
            pc: 0,
        };
        let ch = self.geom.place(block).loc.channel;
        self.pending_reqs[ch as usize].push_back(req);
        self.outbox.push((at, Ev::Pump(ch as u8)));
    }
}

impl MemPort for Uncore {
    fn access(&mut self, op: MemOp, at: SimTime) -> PortResponse {
        // L1.
        if self.l1[op.core as usize].probe(op.block, op.is_store) {
            return PortResponse::Complete(at + self.l1_latency());
        }
        let l2_time = at + self.l1_latency() + self.l2_latency();
        // Shared L2.
        if self.l2.probe(op.block, op.is_store) {
            self.fill_l1(op.core, op.block, op.is_store);
            return PortResponse::Complete(l2_time);
        }
        // L2 miss: take an MSHR and (for the first miss) go to the DRAM
        // cache.
        let waiter = Waiter {
            core: op.core,
            token: op.token,
            is_store: op.is_store,
        };
        match self.mshr.allocate(op.block, waiter) {
            MshrOutcome::Merged => PortResponse::Pending,
            MshrOutcome::Full => {
                self.mshr_overflow.push_back((op.block, waiter, op.pc));
                PortResponse::Pending
            }
            MshrOutcome::New => {
                self.submit_read(op.block, op.core, op.pc, l2_time);
                PortResponse::Pending
            }
        }
    }
}

/// The complete simulated machine.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    bench_names: Vec<String>,
    uncore: Uncore,
    queue: Engine,
}

/// The design-independent half of the hierarchy: everything functional
/// warm-up touches. Built cold, warmed in place, then either assembled
/// into a [`System`] or captured as a [`WarmState`].
struct HierState {
    l1: Vec<SramCache>,
    l2: SramCache,
    tags: TagArray,
    predictor: MapI,
    gens: Vec<OpStream>,
}

/// Rounds per batch of the pipelined warm-up; a round is one op per
/// core. At the figures' 200,000 rounds that is about a hundred
/// hand-offs per warm-up. Batches of 512 to 8,192 rounds timed alike in
/// `capture_warm`, and 8,192 did not speed up `figures`, so the batch
/// stays small.
const WARMUP_BATCH_ROUNDS: u64 = 2048;

/// Batches circulating between the two warm-up stages, and so the
/// capacity of each channel: the helper draws or tags one batch while
/// the caller probes the other. The pipeline's memory is this many
/// batches, reused throughout.
const WARMUP_BATCHES: usize = 2;

/// A block address and one flag packed into a warm-up record,
/// `block << 1 | flag`. An op's flag is its store bit; a tag
/// operation's marks a dirty L2 victim (clear: an L2-miss block).
#[inline]
fn pack(block: u64, flag: bool) -> u64 {
    assert!(
        block >> 63 == 0,
        "warm-up block {block:#x} does not fit 63 bits"
    );
    block << 1 | u64::from(flag)
}

/// The block and flag of a [`pack`]ed record.
#[inline]
fn unpack(record: u64) -> (u64, bool) {
    (record >> 1, record & 1 != 0)
}

/// One batch of the warm-up pipeline. It travels from the helper to
/// the caller with its `ops` and back with its `tag_ops`, and is reused
/// for a later batch.
struct WarmBatch {
    /// Packed ops (store flag), round by round in core order.
    ops: Vec<u64>,
    /// Packed tag operations (dirty-victim flag) in program order.
    tag_ops: Vec<u64>,
}

/// The helper's stage of [`System::warmup`]: draws `rounds` rounds of
/// ops from `gens` in batches and applies each batch's tag operations
/// to `tags` once the caller hands it back. Stops early if the caller's
/// stage has gone (it panicked).
fn draw_and_tag(
    gens: &mut [OpStream],
    tags: &mut TagArray,
    geom: &CacheGeometry,
    rounds: u64,
    ops_tx: SyncSender<WarmBatch>,
    done_rx: Receiver<WarmBatch>,
) {
    let apply = |tags: &mut TagArray, batch: &WarmBatch| {
        for &record in &batch.tag_ops {
            let (block, victim) = unpack(record);
            let p = geom.place(block);
            match tags.lookup(p.set, p.tag) {
                Some(w) if victim => tags.set_dirty(p.set, w, true),
                Some(w) => tags.touch(p.set, w),
                None => {
                    tags.insert(p.set, p.tag, victim);
                }
            }
        }
    };
    // Each batch is allocated here at its full size, once: an op makes
    // at most two tag operations (its miss and its dirty victim), so the
    // caller's stage never grows a buffer and allocates nothing.
    let batch_ops = rounds.min(WARMUP_BATCH_ROUNDS) as usize * gens.len();
    let mut fresh = WARMUP_BATCHES;
    let mut left = rounds;
    while left > 0 {
        let mut batch = if fresh > 0 {
            fresh -= 1;
            WarmBatch {
                ops: Vec::with_capacity(batch_ops),
                tag_ops: Vec::with_capacity(2 * batch_ops),
            }
        } else {
            let Ok(batch) = done_rx.recv() else { return };
            apply(tags, &batch);
            batch
        };
        let n = left.min(WARMUP_BATCH_ROUNDS);
        left -= n;
        batch.ops.clear();
        for _ in 0..n {
            for gen in gens.iter_mut() {
                let op = gen.next_op();
                batch.ops.push(pack(op.block, op.is_store));
            }
        }
        if ops_tx.send(batch).is_err() {
            return;
        }
    }
    // Closing the op channel ends the caller's loop, which then closes
    // the return channel once the last batch is back.
    drop(ops_tx);
    for batch in done_rx {
        apply(tags, &batch);
    }
}

/// The caller's stage of [`System::warmup`]: runs each batch through
/// the per-core `l1`s and the shared `l2`, and hands it back with its
/// tag operations: each L2-miss block, then its dirty L2 victim if
/// there is one. Stops early if the helper's stage has gone.
fn probe_srams(
    l1: &mut [SramCache],
    l2: &mut SramCache,
    ops_rx: Receiver<WarmBatch>,
    done_tx: SyncSender<WarmBatch>,
) {
    for mut batch in ops_rx {
        let WarmBatch { ops, tag_ops } = &mut batch;
        tag_ops.clear();
        for round in ops.chunks_exact(l1.len()) {
            for (l1, &op) in l1.iter_mut().zip(round) {
                let (block, is_store) = unpack(op);
                if l1.probe(block, is_store) {
                    continue;
                }
                if !l2.probe(block, is_store) {
                    tag_ops.push(pack(block, false));
                    if let Some((victim, true)) = l2.allocate(block, is_store) {
                        tag_ops.push(pack(victim, true));
                    }
                }
                if let Some((victim, true)) = l1.allocate(block, is_store) {
                    l2.probe(victim, true);
                }
            }
        }
        if done_tx.send(batch).is_err() {
            return;
        }
    }
}

impl System {
    /// Build a system running `benches` (one per core, 1–4 of them) under
    /// `cfg`, and perform the functional warm-up. Equivalent to (but
    /// cheaper than) `from_warm` over a fresh [`System::capture_warm`].
    pub fn new(cfg: SystemConfig, benches: &[Benchmark]) -> Self {
        let mut hier = Self::build_hier(&cfg, benches);
        Self::warmup(&cfg, &mut hier);
        Self::assemble(cfg, benches, hier)
    }

    /// Phase 1 + 2 only (build + functional warm-up), capturing the
    /// warmed hierarchy as a reusable, fingerprint-keyed [`WarmState`]
    /// instead of entering the timing phase.
    pub fn capture_warm(cfg: SystemConfig, benches: &[Benchmark]) -> WarmState {
        let mut hier = Self::build_hier(&cfg, benches);
        Self::warmup(&cfg, &mut hier);
        WarmState::new(
            &cfg,
            benches,
            hier.l1,
            hier.l2,
            hier.tags,
            hier.predictor,
            hier.gens,
        )
    }

    /// Build a system from a previously captured [`WarmState`], skipping
    /// the functional warm-up entirely. The resulting run is bit-for-bit
    /// identical to a cold [`System::new`] with the same configuration
    /// (`tests/warm_checkpoint_equivalence.rs` holds the line).
    ///
    /// # Panics
    /// Panics if `warm` was captured for a different warm-up — i.e. its
    /// fingerprint does not match `(cfg, benches)` — or if its core
    /// count or tag geometry disagrees with `(cfg, benches)` (a
    /// backstop: the fingerprint already covers both).
    pub fn from_warm(cfg: SystemConfig, benches: &[Benchmark], warm: &WarmState) -> Self {
        Self::from_warm_owned(cfg, benches, warm.clone())
    }

    /// [`System::from_warm`] for the last user of a warm state: the
    /// system takes `warm`'s components instead of copying them (the
    /// tag array alone is tens of MB). Same checks, same run.
    ///
    /// # Panics
    /// Exactly where [`System::from_warm`] panics.
    pub fn from_warm_owned(cfg: SystemConfig, benches: &[Benchmark], warm: WarmState) -> Self {
        assert!(
            warm.matches(&cfg, benches),
            "warm-state fingerprint mismatch: captured {:#018x}, need {:#018x}",
            warm.fingerprint(),
            WarmState::fingerprint_for(&cfg, benches)
        );
        let geom = CacheGeometry::new(cfg.org_kind, cfg.dram_org, cfg.mapping);
        assert_eq!(warm.l1.len(), benches.len(), "warm-state core count");
        assert_eq!(
            (warm.tags.sets(), warm.tags.ways(), warm.tags.policy()),
            (geom.num_sets(), cfg.org_kind.ways(), cfg.replacement),
            "warm-state tag geometry"
        );
        let WarmState {
            l1,
            l2,
            tags,
            predictor,
            gens,
            ..
        } = warm;
        let hier = HierState {
            l1,
            l2,
            tags,
            predictor,
            gens,
        };
        Self::assemble(cfg, benches, hier)
    }

    /// Phase 1: construct the cold, design-independent hierarchy.
    /// Generators get disjoint 4 GiB-aligned block-address regions so
    /// multiprogrammed workloads never share.
    fn build_hier(cfg: &SystemConfig, benches: &[Benchmark]) -> HierState {
        assert!(
            !benches.is_empty() && benches.len() <= 4,
            "1 to 4 cores supported"
        );
        let geom = CacheGeometry::new(cfg.org_kind, cfg.dram_org, cfg.mapping);
        let seeds = SeedSplitter::new(cfg.seed);
        HierState {
            l1: benches.iter().map(|_| SramCache::paper_l1()).collect(),
            l2: SramCache::paper_l2(),
            tags: TagArray::with_policy(geom.num_sets(), cfg.org_kind.ways(), cfg.replacement),
            predictor: MapI::paper(),
            gens: benches
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let base = (i as u64 + 1) << 26;
                    OpStream::for_bench(*b, base, seeds.split("core").split_index(i as u64).seed())
                })
                .collect(),
        }
    }

    /// Phase 3: wire the (cold- or checkpoint-) warmed hierarchy into
    /// the full timed system.
    fn assemble(cfg: SystemConfig, benches: &[Benchmark], hier: HierState) -> Self {
        if let Err(msg) = cfg.validate() {
            panic!("invalid SystemConfig: {msg}");
        }
        let geom = CacheGeometry::new(cfg.org_kind, cfg.dram_org, cfg.mapping);
        let uncore = Uncore {
            cfg,
            geom,
            l1: hier.l1,
            l2: hier.l2,
            mshr: Mshr::new(MSHRS),
            mshr_overflow: VecDeque::new(),
            channels: (0..cfg.dram_org.channels)
                .map(|_| DramChannel::new(cfg.timing, &cfg.dram_org))
                .collect(),
            ctrls: (0..cfg.dram_org.channels)
                .map(|c| ChannelController::new(&cfg, c))
                .collect(),
            rrpc: Rrpc::new(cfg.dram_org.total_banks()),
            tags: hier.tags,
            predictor: hier.predictor,
            memory: MainMemory::build(&cfg.main_mem),
            requests: Slab::with_capacity(256),
            accesses: Slab::with_capacity(512),
            pending_reqs: (0..cfg.dram_org.channels)
                .map(|_| VecDeque::new())
                .collect(),
            inflight: vec![0; cfg.dram_org.channels as usize],
            poll_armed: vec![false; cfg.dram_org.channels as usize],
            mem_pump_armed_at: None,
            mem_arrivals: Vec::new(),
            outbox: Vec::new(),
            fill_counters: FastHashMap::default(),
            latency: LatencyStat::new(),
            cache_read_hits: 0,
            cache_read_misses: 0,
            wb_requests: 0,
            refill_requests: 0,
            cache_fills: 0,
            fill_bypasses: 0,
            timeline: cfg.record_timeline.then(|| Timeline::new(100_000)),
        };

        let cores = hier
            .gens
            .into_iter()
            .enumerate()
            .map(|(i, gen)| Core::new(i as u8, CoreConfig::paper(cfg.target_insts), gen))
            .collect();

        System {
            cfg,
            cores,
            bench_names: benches.iter().map(|b| b.name().to_string()).collect(),
            uncore,
            queue: match cfg.engine {
                EngineSel::Heap => Engine::Heap(BaselineEventQueue::new()),
                EngineSel::Calendar => {
                    Engine::Calendar(EventQueue::with_slot_shift(cfg.event_slot_shift))
                }
            },
        }
    }

    /// Phase 2: functional (timing-free) cache warm-up. Runs each
    /// generator's prefix through the caches with no timing, so the
    /// 256 MB cache starts warm (the paper fast-forwards 4 B
    /// instructions with warm caches). Touches only [`HierState`] —
    /// the design-independence the warm-state checkpoint relies on.
    ///
    /// Two stages share the work, in batches of [`WARMUP_BATCH_ROUNDS`]
    /// rounds (one op per core each):
    ///
    /// * a helper thread draws each batch from the generators, round by
    ///   round in core order, and applies a batch's tag-array operations
    ///   once the caller hands it back ([`draw_and_tag`]);
    /// * the calling thread runs the batch through the L1s and the L2
    ///   and hands back its tag operations in program order: each
    ///   L2-miss block, then its dirty L2 victim if there is one
    ///   ([`probe_srams`]).
    ///
    /// The result is byte-identical to running each op through all
    /// three levels in turn: the generators never read cache state, and
    /// the tag array consumes nothing but the L2's stream of misses and
    /// dirty victims, which reaches it in the same order. The helper is
    /// a scoped thread, joined before this returns; a panic in either
    /// stage stops the other and reaches the caller with its own
    /// payload.
    fn warmup(cfg: &SystemConfig, hier: &mut HierState) {
        let geom = CacheGeometry::new(cfg.org_kind, cfg.dram_org, cfg.mapping);
        let HierState {
            l1, l2, tags, gens, ..
        } = hier;
        std::thread::scope(|s| {
            let (ops_tx, ops_rx) = mpsc::sync_channel(WARMUP_BATCHES);
            let (done_tx, done_rx) = mpsc::sync_channel(WARMUP_BATCHES);
            let helper = std::thread::Builder::new()
                .name("dca-warmup".to_string())
                .spawn_scoped(s, move || {
                    draw_and_tag(gens, tags, &geom, cfg.warmup_ops, ops_tx, done_rx)
                })
                .expect("spawn the warm-up helper thread");
            let probed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                probe_srams(l1, l2, ops_rx, done_tx)
            }));
            // Join the helper before re-raising either stage's panic, so
            // that no thread outlives the call; a scope alone would only
            // report that a thread panicked.
            let helped = helper.join();
            if let Err(payload) = probed.and(helped) {
                std::panic::resume_unwind(payload);
            }
        });
    }

    /// Drain deferred events produced inside port callbacks.
    fn drain_outbox(&mut self) {
        let now = self.queue.now();
        for (at, ev) in self.uncore.outbox.drain(..) {
            self.queue.push(at.max(now), ev);
        }
    }

    /// Advance core `i` and flush whatever it produced.
    fn wake_core(&mut self, i: u8, now: SimTime) {
        let state = self.cores[i as usize].advance(&mut self.uncore, now);
        let _ = state; // Waiting/Finished both handled by future events.
        self.drain_outbox();
    }

    /// Admission + scheduling for channel `ch`.
    fn pump(&mut self, ch: u8, now: SimTime) {
        self.uncore.poll_armed[ch as usize] = false;

        // Admit pending requests while the queues have room.
        loop {
            if !self.uncore.ctrls[ch as usize].can_admit() {
                break;
            }
            let Some(req) = self.uncore.pending_reqs[ch as usize].pop_front() else {
                break;
            };
            let (fsm, specs) = RequestFsm::start(req, &self.uncore.geom);
            self.uncore
                .requests
                .get_mut(SlabKey::from(req.id))
                .expect("request slot live until admission")
                .fsm = Some(fsm);
            for spec in specs {
                let id = self
                    .uncore
                    .accesses
                    .insert(AccessMeta {
                        request: req.id,
                        role: spec.role,
                    })
                    .raw();
                self.uncore.ctrls[ch as usize].enqueue(id, spec, req.kind, req.app, now);
            }
        }

        // Issue as much as the design allows.
        loop {
            let uncore = &mut self.uncore;
            let Some(issued) = uncore.ctrls[ch as usize].schedule_one(
                &mut uncore.channels[ch as usize],
                &mut uncore.rrpc,
                now,
            ) else {
                break;
            };
            uncore.inflight[ch as usize] += 1;
            if let Some(tl) = uncore.timeline.as_mut() {
                let meta = *uncore
                    .accesses
                    .get(SlabKey::from(issued.entry.id))
                    .expect("issued access has metadata");
                let req_kind = uncore
                    .requests
                    .get(SlabKey::from(meta.request))
                    .and_then(|r| r.fsm.as_ref())
                    .map(|f| f.request().kind)
                    .unwrap_or(CacheReqKind::Read);
                tl.push(TimelineEntry {
                    burst_start: issued.info.burst_start,
                    burst_end: issued.info.burst_end,
                    channel: ch as u32,
                    bank: issued.entry.access.bank,
                    row: issued.entry.access.row,
                    kind: issued.entry.access.kind,
                    role: meta.role,
                    req_kind,
                    class: issued.entry.class,
                    outcome: issued.info.outcome,
                });
            }
            self.queue.push(
                issued.info.burst_end,
                Ev::AccessDone {
                    ch,
                    access_id: issued.entry.id,
                },
            );
        }

        // Poll fallback: queued work, nothing in flight, nothing
        // schedulable right now (e.g. OFS holding LRs). Re-pump shortly —
        // conditions change only with PR traffic or time.
        let u = &mut self.uncore;
        if u.inflight[ch as usize] == 0
            && (u.ctrls[ch as usize].backlog() > 0 || !u.pending_reqs[ch as usize].is_empty())
            && !u.poll_armed[ch as usize]
        {
            u.poll_armed[ch as usize] = true;
            self.queue.push(now + Duration::from_ns(20), Ev::Pump(ch));
        }
    }

    /// Answer the cores waiting on `block` and install it in L2.
    fn fill_l2_and_respond(&mut self, block: u64, app: u8, now: SimTime) {
        let waiters = self.uncore.mshr.complete(block);
        let dirty = waiters.iter().any(|w| w.is_store);
        if let Some((victim, vdirty)) = self.uncore.l2.allocate(block, dirty) {
            if vdirty {
                self.spill_l2_victim(victim, app, now);
            }
        }
        for w in waiters {
            self.uncore.fill_l1(w.core, block, w.is_store);
            if !w.is_store {
                self.queue.push(
                    now,
                    Ev::Deliver {
                        core: w.core,
                        token: w.token,
                    },
                );
            }
        }
        // MSHRs freed: retry overflowed misses.
        while let Some((blk, waiter, pc)) = self.uncore.mshr_overflow.pop_front() {
            match self.uncore.mshr.allocate(blk, waiter) {
                MshrOutcome::New => {
                    self.uncore.submit_read(blk, waiter.core, pc, now);
                }
                MshrOutcome::Merged => {}
                MshrOutcome::Full => {
                    self.uncore.mshr_overflow.push_front((blk, waiter, pc));
                    break;
                }
            }
        }
        self.drain_outbox();
    }

    /// An L2 dirty victim leaves for the DRAM cache — with the Lee
    /// DRAM-aware policy, row-mates ride along (§VII, Fig 19).
    fn spill_l2_victim(&mut self, victim: u64, app: u8, now: SimTime) {
        self.uncore.submit_writeback(victim, app, now);
        if self.cfg.lee_writeback {
            let geom = self.uncore.geom;
            let blocks_per_row = match self.cfg.org_kind {
                OrgKind::SetAssoc { .. } => 4,
                OrgKind::DirectMapped => 60,
            };
            let mates = collect_same_row_dirty(
                &self.uncore.l2,
                victim,
                |b| geom.place(b).frame,
                blocks_per_row,
                8,
            );
            for mate in mates {
                if self.uncore.l2.clean(mate) {
                    self.uncore.submit_writeback(mate, app, now);
                }
            }
        }
        self.drain_outbox();
    }

    /// Cycle-backend scheduler pump: issue everything whose bank is
    /// free, turn read completions into [`Ev::MemArrive`] events, and
    /// arm the next pump at the device's earliest bank-free instant —
    /// unless an equal-or-earlier pump is already queued.
    fn mem_pump(&mut self, now: SimTime) {
        let mut arrivals = std::mem::take(&mut self.uncore.mem_arrivals);
        arrivals.clear();
        self.uncore.memory.schedule(now, &mut arrivals);
        for a in arrivals.drain(..) {
            self.queue.push(a.at, Ev::MemArrive { req: a.token });
        }
        self.uncore.mem_arrivals = arrivals;
        if let Some(at) = self.uncore.memory.next_wakeup() {
            let earlier = self.uncore.mem_pump_armed_at.is_none_or(|t| at < t);
            if earlier {
                self.uncore.mem_pump_armed_at = Some(at);
                self.queue.push(at, Ev::MemPump);
            }
        }
    }

    /// Launch a deferred speculative fetch (cycle backend). The request
    /// can already have retired as a hit — then the fetch is simply
    /// never sent, sparing the device the wasted bandwidth a flat model
    /// cannot avoid spending.
    fn mem_fetch(&mut self, req: RequestId, now: SimTime) {
        let key = SlabKey::from(req);
        let Some(slot) = self.uncore.requests.get(key) else {
            return;
        };
        let Some(rs) = slot.read else { return };
        if matches!(rs.fetch, Fetch::CyclePending | Fetch::CyclePendingMissed) {
            self.uncore.memory.enqueue_read(req, rs.block, now);
            self.mem_pump(now);
        }
    }

    /// A cycle-level main-memory read landed on chip. If the tag check
    /// already concluded miss, answer the cores and install the block;
    /// if it is still in flight, just record the data as ready; if the
    /// request retired as a hit meanwhile, the speculative fetch was
    /// wasted bandwidth and the arrival is dropped.
    fn mem_arrive(&mut self, req: RequestId, now: SimTime) {
        let key = SlabKey::from(req);
        let Some(slot) = self.uncore.requests.get_mut(key) else {
            return; // request fully retired (hit): wasted prefetch
        };
        let Some(rs) = slot.read.as_mut() else {
            return; // read answered from the cache; fetch was wasted
        };
        match rs.fetch {
            Fetch::CyclePending => rs.fetch = Fetch::CycleDone,
            Fetch::CyclePendingMissed => {
                let (block, app) = (rs.block, rs.app);
                self.finish_demand_read(req, now);
                self.uncore.submit_refill(block, app, now);
                self.drain_outbox();
            }
            _ => unreachable!("cycle arrival without a pending cycle fetch"),
        }
    }

    /// A demand read has its data: record latency and answer the cores.
    fn finish_demand_read(&mut self, req: RequestId, now: SimTime) {
        let rs = self
            .uncore
            .requests
            .get_mut(SlabKey::from(req))
            .expect("request slot live")
            .read
            .take()
            .expect("read state must exist");
        self.uncore.maybe_free_request(req);
        self.uncore.latency.record(rs.arrival, now);
        self.fill_l2_and_respond(rs.block, rs.app, now);
    }

    /// Handle one completed DRAM access.
    fn access_done(&mut self, ch: u8, access_id: u64, now: SimTime) {
        self.uncore.inflight[ch as usize] -= 1;
        let meta = self
            .uncore
            .accesses
            .remove(SlabKey::from(access_id))
            .expect("access metadata");
        let req_key = SlabKey::from(meta.request);
        let geom = self.uncore.geom;
        let (out, req_kind, req_app, req_pc) = {
            let slot = self
                .uncore
                .requests
                .get_mut(req_key)
                .expect("request slot live");
            let fsm = slot.fsm.as_mut().expect("request FSM");
            let out = fsm.on_access_done(meta.role, &mut self.uncore.tags, &geom);
            let r = fsm.request();
            (out, r.kind, r.app, r.pc)
        };

        // Follow-up accesses.
        for spec in &out.enqueue {
            let id = self
                .uncore
                .accesses
                .insert(AccessMeta {
                    request: meta.request,
                    role: spec.role,
                })
                .raw();
            self.uncore.ctrls[ch as usize].enqueue(id, *spec, req_kind, req_app, now);
        }

        // Predictor training + hit statistics (demand reads only).
        if let Some(hit) = out.hit_known {
            if req_kind == CacheReqKind::Read {
                self.uncore.predictor.update(req_pc, hit);
                let predicted = self.uncore.requests[req_key]
                    .read
                    .expect("read state live until answered")
                    .predicted_hit;
                self.uncore.predictor.record_outcome(predicted, hit);
                if hit {
                    self.uncore.cache_read_hits += 1;
                } else {
                    self.uncore.cache_read_misses += 1;
                }
            }
        }

        // Dirty victim evicted from the DRAM cache → main memory. The
        // cycle-backend pump runs once at the end of this handler, after
        // every enqueue this access produced.
        let mut pump_mem = false;
        if let Some(victim) = out.evict_dirty {
            if self.uncore.memory.is_cycle() {
                self.uncore.memory.enqueue_write(victim, now);
                pump_mem = true;
            } else {
                self.uncore.memory.write(now);
            }
        }

        if out.respond_hit {
            self.finish_demand_read(meta.request, now);
        }
        if out.respond_miss {
            let rs = self.uncore.requests[req_key]
                .read
                .expect("read state live until answered");
            match rs.fetch {
                Fetch::FlatAt(t) if t <= now => {
                    // Speculative fetch already landed: answer now, and
                    // install via a refill request.
                    self.finish_demand_read(meta.request, now);
                    self.uncore.submit_refill(rs.block, rs.app, now);
                }
                Fetch::FlatAt(t) => {
                    self.queue.push(t, Ev::MemData { req: meta.request });
                }
                Fetch::None if !self.uncore.memory.is_cycle() => {
                    let t = self.uncore.memory.read(now);
                    self.queue.push(t, Ev::MemData { req: meta.request });
                }
                Fetch::None => {
                    // Cycle backend, no speculative fetch: queue it now
                    // and answer when the device delivers.
                    self.uncore.memory.enqueue_read(meta.request, rs.block, now);
                    self.uncore
                        .set_fetch(meta.request, Fetch::CyclePendingMissed);
                    pump_mem = true;
                }
                Fetch::CyclePending => {
                    // Speculative fetch still in flight: flag the miss so
                    // the arrival answers the cores directly.
                    self.uncore
                        .set_fetch(meta.request, Fetch::CyclePendingMissed);
                }
                Fetch::CycleDone => {
                    // Speculative fetch already landed.
                    self.finish_demand_read(meta.request, now);
                    self.uncore.submit_refill(rs.block, rs.app, now);
                }
                Fetch::CyclePendingMissed => {
                    unreachable!("miss resolved twice for one request")
                }
            }
        }
        if out.done {
            let slot = self
                .uncore
                .requests
                .get_mut(req_key)
                .expect("request slot live");
            slot.fsm = None;
            slot.fsm_done = true;
            self.uncore.maybe_free_request(meta.request);
        }

        if pump_mem {
            self.mem_pump(now);
        }
        self.drain_outbox();
        self.pump(ch, now);
    }

    /// Run to completion and report.
    pub fn run(mut self) -> SystemReport {
        for i in 0..self.cores.len() {
            self.queue.push(SimTime::ZERO, Ev::CoreWake(i as u8));
        }
        while let Some((now, ev)) = self.queue.pop() {
            match ev {
                Ev::CoreWake(i) => self.wake_core(i, now),
                Ev::Deliver { core, token } => {
                    self.cores[core as usize].on_data(token, now);
                    self.wake_core(core, now);
                }
                Ev::Pump(ch) => self.pump(ch, now),
                Ev::AccessDone { ch, access_id } => self.access_done(ch, access_id, now),
                Ev::MemData { req } => {
                    let rs = self.uncore.requests[SlabKey::from(req)]
                        .read
                        .expect("read state live until answered");
                    self.finish_demand_read(req, now);
                    self.uncore.submit_refill(rs.block, rs.app, now);
                    self.drain_outbox();
                }
                Ev::MemPump => {
                    // The tracked wakeup has fired; a stale later pump
                    // leaves the tracking untouched.
                    if self.uncore.mem_pump_armed_at == Some(now) {
                        self.uncore.mem_pump_armed_at = None;
                    }
                    self.mem_pump(now);
                }
                Ev::MemFetch { req } => self.mem_fetch(req, now),
                Ev::MemArrive { req } => self.mem_arrive(req, now),
            }
            if self.cores.iter().all(|c| c.finished()) {
                break;
            }
        }
        assert!(
            self.cores.iter().all(|c| c.finished()),
            "event queue drained with unfinished cores — model deadlock"
        );
        self.report()
    }

    fn report(self) -> SystemReport {
        let cores = self
            .cores
            .iter()
            .zip(&self.bench_names)
            .map(|(c, name)| CoreReport {
                bench: name.clone(),
                insts: c.insts(),
                cycles: c.cycles(),
                ipc: c.ipc(),
            })
            .collect();
        let channels = self
            .uncore
            .channels
            .iter()
            .zip(&self.uncore.ctrls)
            .map(|(ch, ctrl)| ChannelReport {
                reads: ch.stats().reads.get(),
                writes: ch.stats().writes.get(),
                turnarounds: ch.bus().turnarounds(),
                accesses_per_turnaround: ch.bus().accesses_per_turnaround(),
                read_row_hit_rate: ch.stats().read_row_hit_rate(),
                read_row_conflicts: ch.stats().read_row_conflicts.get(),
                ctrl: ctrl.stats().clone(),
            })
            .collect();
        SystemReport {
            cores,
            channels,
            l2_miss_latency: self.uncore.latency.clone(),
            cache_read_hits: self.uncore.cache_read_hits,
            cache_read_misses: self.uncore.cache_read_misses,
            predictor_accuracy: self.uncore.predictor.accuracy(),
            mem_reads: self.uncore.memory.reads(),
            mem_writes: self.uncore.memory.writes(),
            main_mem: self.uncore.memory.stats(),
            writeback_requests: self.uncore.wb_requests,
            refill_requests: self.uncore.refill_requests,
            cache_fills: self.uncore.cache_fills,
            fill_bypasses: self.uncore.fill_bypasses,
            end_time: self.queue.now(),
            events_processed: self.queue.counters().1,
            timeline: self.uncore.timeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use dca_dram::Organization;
    use dca_dram_cache::ReplacementPolicy;

    /// The warm-up as one loop over ops, as it ran before the two-stage
    /// pipeline: the oracle [`System::warmup`] must match byte for byte.
    fn warmup_oracle(cfg: &SystemConfig, hier: &mut HierState) {
        let geom = CacheGeometry::new(cfg.org_kind, cfg.dram_org, cfg.mapping);
        for _ in 0..cfg.warmup_ops {
            for (i, gen) in hier.gens.iter_mut().enumerate() {
                let op = gen.next_op();
                if hier.l1[i].probe(op.block, op.is_store) {
                    continue;
                }
                if !hier.l2.probe(op.block, op.is_store) {
                    // Warm the DRAM-cache tags.
                    let p = geom.place(op.block);
                    match hier.tags.lookup(p.set, p.tag) {
                        Some(w) => hier.tags.touch(p.set, w),
                        None => {
                            hier.tags.insert(p.set, p.tag, false);
                        }
                    }
                    if let Some((victim, vdirty)) = hier.l2.allocate(op.block, op.is_store) {
                        if vdirty {
                            let q = geom.place(victim);
                            match hier.tags.lookup(q.set, q.tag) {
                                Some(w) => hier.tags.set_dirty(q.set, w, true),
                                None => {
                                    hier.tags.insert(q.set, q.tag, true);
                                }
                            }
                        }
                    }
                }
                if let Some((victim, vdirty)) = hier.l1[i].allocate(op.block, op.is_store) {
                    if vdirty {
                        hier.l2.probe(victim, true);
                    }
                }
            }
        }
    }

    /// Warm one hierarchy with the pipeline and one with the oracle, and
    /// require equal warm-state bytes, which hold every component's
    /// `encode`. `small_srams` swaps in a 2 KB L1 and a 32 KB L2, so a
    /// short warm-up already evicts dirty L2 victims.
    fn assert_pipeline_matches_oracle(
        cfg: &SystemConfig,
        benches: &[Benchmark],
        small_srams: bool,
    ) {
        let build = || {
            let mut hier = System::build_hier(cfg, benches);
            if small_srams {
                hier.l1 = benches.iter().map(|_| SramCache::new(2 << 10, 2)).collect();
                hier.l2 = SramCache::new(32 << 10, 8);
            }
            hier
        };
        let encode = |h: HierState| {
            WarmState::new(cfg, benches, h.l1, h.l2, h.tags, h.predictor, h.gens).encode()
        };
        let (mut piped, mut serial) = (build(), build());
        System::warmup(cfg, &mut piped);
        warmup_oracle(cfg, &mut serial);
        assert!(
            encode(piped) == encode(serial),
            "the pipeline differs from the serial warm-up: {} cores, {:?}, {:?}, {} ops, small SRAMs {small_srams}",
            benches.len(),
            cfg.org_kind,
            cfg.replacement,
            cfg.warmup_ops
        );
    }

    /// A 16-frame stacked DRAM: 960 direct-mapped sets, or 64 sets of
    /// 15 ways (one per set of the small L2), so warm-up evicts from the
    /// tag array under every policy.
    fn small_dram() -> Organization {
        Organization {
            channels: 1,
            ranks: 1,
            banks_per_rank: 2,
            rows_per_bank: 8,
            row_bytes: 4096,
        }
    }

    #[test]
    fn warmup_pipeline_matches_the_serial_oracle() {
        const B: u64 = WARMUP_BATCH_ROUNDS;
        let benches = [
            Benchmark::Lbm,
            Benchmark::Mcf,
            Benchmark::Libquantum,
            Benchmark::Gcc,
        ];
        for ops in [0, 1, B - 1, B, B + 1, 3 * B + 7] {
            for cores in [1, 2, 4] {
                for org in [OrgKind::DirectMapped, OrgKind::paper_set_assoc()] {
                    for policy in ReplacementPolicy::ALL {
                        let mut cfg = SystemConfig::paper(Design::Cd, org);
                        cfg.dram_org = small_dram();
                        cfg.replacement = policy;
                        cfg.warmup_ops = ops;
                        assert_pipeline_matches_oracle(&cfg, &benches[..cores], true);
                    }
                }
            }
        }
        // The paper's hierarchy, and a trace-driven core.
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/libquantum_2800.dcat"
        );
        let trace = dca_cpu::register_trace_file(fixture).expect("register fixture");
        for org in [OrgKind::DirectMapped, OrgKind::paper_set_assoc()] {
            let mut cfg = SystemConfig::paper(Design::Cd, org);
            cfg.warmup_ops = 3 * B + 7;
            assert_pipeline_matches_oracle(&cfg, &benches, false);
            assert_pipeline_matches_oracle(&cfg, &[trace, Benchmark::Mcf], false);
            cfg.dram_org = small_dram();
            assert_pipeline_matches_oracle(&cfg, &[trace, Benchmark::Lbm], true);
        }
    }

    /// The message of the panic `f` raises, read from its payload as
    /// `figures` reads a failed job's.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the warm-up must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }

    /// This process's threads, where `/proc` lists them.
    fn live_threads() -> Option<usize> {
        std::fs::read_dir("/proc/self/task")
            .ok()
            .map(|tasks| tasks.count())
    }

    /// [`live_threads`] once it is down to `want`: a joined thread can
    /// stay listed for a moment while the kernel finishes its exit.
    /// Gives up after about a second.
    fn threads_down_to(want: Option<usize>) -> Option<usize> {
        for _ in 0..1000 {
            if live_threads() == want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        live_threads()
    }

    #[test]
    #[ignore = "runs alone in a child process of warmup_stage_panics_surface_and_leave_no_thread"]
    fn warmup_stage_panics_in_isolation() {
        let before = live_threads();
        // The helper's stage, through the public API: one frame of four
        // sets, so core 3's blocks (from 2^28) carry DRAM-cache tags of
        // 2^26 and more.
        let mut cfg = SystemConfig::paper(Design::Cd, OrgKind::paper_set_assoc());
        cfg.dram_org = Organization {
            channels: 1,
            ranks: 1,
            banks_per_rank: 1,
            rows_per_bank: 1,
            row_bytes: 4096,
        };
        cfg.warmup_ops = 3 * WARMUP_BATCH_ROUNDS;
        let message = panic_message(|| {
            System::capture_warm(cfg, &[Benchmark::Gcc; 4]);
        });
        assert!(
            message.contains("does not fit the 26-bit tag field"),
            "{message}"
        );
        assert_eq!(
            threads_down_to(before),
            before,
            "the helper outlived its panic"
        );

        // The caller's stage: no public input reaches an SRAM tag beyond
        // 31 bits, so core 0's stream moves to block 2^40.
        let mut cfg = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped);
        cfg.warmup_ops = 3 * WARMUP_BATCH_ROUNDS;
        let mut hier = System::build_hier(&cfg, &[Benchmark::Gcc, Benchmark::Mcf]);
        hier.gens[0] = OpStream::for_bench(Benchmark::Gcc, 1 << 40, 7);
        let message = panic_message(|| System::warmup(&cfg, &mut hier));
        assert!(message.contains("does not fit 31 bits"), "{message}");
        assert_eq!(
            threads_down_to(before),
            before,
            "the helper outlived the caller's panic"
        );
    }

    /// Each stage's panic reaches the caller with its own message, and
    /// no thread survives it. The check runs in a child process of this
    /// test binary, where no other test's threads come and go.
    #[test]
    fn warmup_stage_panics_surface_and_leave_no_thread() {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--ignored",
                "--exact",
                "system::tests::warmup_stage_panics_in_isolation",
                "--test-threads=1",
            ])
            .output()
            .expect("run the isolated test");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.status.success() && text.contains("1 passed"), "{text}");
    }

    fn tiny(design: Design, org: OrgKind) -> SystemReport {
        // Warm-up long enough to fill the shared 8 MB L2 (131 072 blocks)
        // so evictions — and hence writebacks — flow from the start.
        let cfg = SystemConfig::paper(design, org).scaled(60_000, 300_000);
        System::new(cfg, &[Benchmark::Libquantum, Benchmark::Mcf]).run()
    }

    #[test]
    fn cd_runs_to_completion_dm() {
        let r = tiny(Design::Cd, OrgKind::DirectMapped);
        assert!(r.cores.iter().all(|c| c.insts >= 60_000));
        assert!(r.cores.iter().all(|c| c.ipc > 0.0));
        assert!(r.end_time > SimTime::ZERO);
    }

    #[test]
    fn rod_runs_to_completion_dm() {
        let r = tiny(Design::Rod, OrgKind::DirectMapped);
        assert!(r.cores.iter().all(|c| c.insts >= 60_000));
    }

    #[test]
    fn dca_runs_to_completion_dm() {
        let r = tiny(Design::Dca, OrgKind::DirectMapped);
        assert!(r.cores.iter().all(|c| c.insts >= 60_000));
        // DCA must actually serve both classes.
        let pr: u64 = r.channels.iter().map(|c| c.ctrl.pr_served.get()).sum();
        let lr: u64 = r.channels.iter().map(|c| c.ctrl.lr_served.get()).sum();
        assert!(pr > 0, "priority reads served");
        assert!(lr > 0, "low-priority reads served");
    }

    #[test]
    fn all_designs_run_set_assoc() {
        for d in Design::ALL {
            let r = tiny(d, OrgKind::paper_set_assoc());
            assert!(
                r.cores.iter().all(|c| c.insts >= 60_000),
                "{} SA run incomplete",
                d.label()
            );
        }
    }

    #[test]
    fn banshee_gates_fills_and_stays_deterministic() {
        let r = tiny(Design::Banshee, OrgKind::DirectMapped);
        assert!(r.cores.iter().all(|c| c.insts >= 60_000));
        // The frequency gate must actually bypass some cold-page fills
        // while admitting the rest; admitted fills are exactly the
        // refills that reached the controller.
        assert!(r.fill_bypasses > 0, "cold pages should bypass the cache");
        assert!(r.cache_fills > 0, "hot pages should still be filled");
        assert_eq!(r.cache_fills, r.refill_requests);
        let b = tiny(Design::Banshee, OrgKind::DirectMapped);
        assert_eq!(r.end_time, b.end_time);
        assert_eq!(r.fill_bypasses, b.fill_bypasses);
        // The other designs never consult the gate.
        let cd = tiny(Design::Cd, OrgKind::DirectMapped);
        assert_eq!(cd.fill_bypasses, 0);
        assert_eq!(cd.cache_fills, cd.refill_requests);
        assert!(
            r.cache_fills < cd.cache_fills,
            "the gate must cut fills below CD's ({} !< {})",
            r.cache_fills,
            cd.cache_fills
        );
    }

    #[test]
    fn every_replacement_policy_runs_the_sa_org_deterministically() {
        // At unit-test scale the paper SA geometry (millions of tag
        // entries) never fills a set, so the policy layer — which may
        // only act at eviction time — must be *invisible*: every policy
        // completes, reruns bit-identically, and agrees with SRRIP
        // exactly. Divergence under set pressure is pinned down by the
        // TagArray unit and property tests, where pressure is cheap.
        let mk = |policy| {
            let mut cfg =
                SystemConfig::paper(Design::Cd, OrgKind::paper_set_assoc()).scaled(60_000, 300_000);
            cfg.replacement = policy;
            System::new(cfg, &[Benchmark::Libquantum, Benchmark::Mcf]).run()
        };
        use dca_dram_cache::ReplacementPolicy;
        let srrip = mk(ReplacementPolicy::Srrip);
        for policy in ReplacementPolicy::ALL {
            let r = mk(policy);
            assert!(r.cores.iter().all(|c| c.insts >= 60_000), "{policy:?}");
            assert_eq!(
                r.end_time,
                mk(policy).end_time,
                "{policy:?} must be deterministic"
            );
            assert_eq!(
                (r.end_time, r.events_processed, r.cache_read_hits),
                (
                    srrip.end_time,
                    srrip.events_processed,
                    srrip.cache_read_hits
                ),
                "{policy:?}: below eviction pressure every policy must match SRRIP"
            );
        }
    }

    #[test]
    fn traffic_is_plausible() {
        let r = tiny(Design::Cd, OrgKind::DirectMapped);
        let reads: u64 = r.channels.iter().map(|c| c.reads).sum();
        let writes: u64 = r.channels.iter().map(|c| c.writes).sum();
        assert!(reads > 100, "some DRAM-cache reads, got {reads}");
        assert!(writes > 100, "some DRAM-cache writes, got {writes}");
        assert!(r.l2_miss_latency.count() > 100, "L2 misses measured");
        assert!(r.writeback_requests > 0, "writebacks flow");
        assert!(r.cache_read_hits + r.cache_read_misses > 0);
    }

    #[test]
    fn warmup_makes_hits() {
        // Warm-up must exceed the 131 072-block shared L2 several times
        // over before far-reuse revisits can miss L2 and hit the DRAM
        // cache (the paper warms across 4 B fast-forwarded instructions).
        let cfg = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped).scaled(60_000, 400_000);
        let r = System::new(cfg, &[Benchmark::Libquantum, Benchmark::Mcf]).run();
        assert!(
            r.cache_hit_rate() > 0.1,
            "warmed cache should hit, rate={:.3}",
            r.cache_hit_rate()
        );
    }

    #[test]
    fn single_core_runs() {
        let cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped).scaled(40_000, 10_000);
        let r = System::new(cfg, &[Benchmark::Gcc]).run();
        assert_eq!(r.cores.len(), 1);
        assert!(r.cores[0].insts >= 40_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = tiny(Design::Dca, OrgKind::DirectMapped);
        let b = tiny(Design::Dca, OrgKind::DirectMapped);
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
        assert_eq!(a.cores[1].cycles, b.cores[1].cycles);
        assert_eq!(a.mem_reads, b.mem_reads);
        let ra: Vec<u64> = a.channels.iter().map(|c| c.reads).collect();
        let rb: Vec<u64> = b.channels.iter().map(|c| c.reads).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    #[should_panic(expected = "1 to 4 cores")]
    fn five_cores_rejected() {
        let cfg = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped);
        System::new(cfg, &[Benchmark::Gcc; 5]);
    }

    #[test]
    fn from_warm_matches_cold_run() {
        let cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped).scaled(30_000, 60_000);
        let benches = [Benchmark::Libquantum, Benchmark::Mcf];
        let cold = System::new(cfg, &benches).run();
        let warm = System::capture_warm(cfg, &benches);
        let restored = System::from_warm(cfg, &benches, &warm).run();
        assert_eq!(cold.end_time, restored.end_time);
        assert_eq!(cold.events_processed, restored.events_processed);
        assert_eq!(cold.mem_reads, restored.mem_reads);
        assert_eq!(cold.cache_read_hits, restored.cache_read_hits);
        for (a, b) in cold.cores.iter().zip(&restored.cores) {
            assert_eq!((a.insts, a.cycles), (b.insts, b.cycles));
        }
    }

    #[test]
    fn warm_state_is_design_and_remap_portable() {
        // One capture under CD/direct must drive a DCA/remap run.
        let base = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped).scaled(20_000, 40_000);
        let benches = [Benchmark::Gcc, Benchmark::Lbm];
        let warm = System::capture_warm(base, &benches);
        let mut other = SystemConfig::paper_remap(Design::Dca, OrgKind::DirectMapped);
        other.target_insts = 20_000;
        other.warmup_ops = base.warmup_ops;
        let r = System::from_warm(other, &benches, &warm).run();
        assert!(r.cores.iter().all(|c| c.insts >= 20_000));
    }

    #[test]
    #[should_panic(expected = "fingerprint mismatch")]
    fn from_warm_rejects_different_seed() {
        let cfg = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped).scaled(10_000, 10_000);
        let benches = [Benchmark::Gcc];
        let warm = System::capture_warm(cfg, &benches);
        let mut other = cfg;
        other.seed ^= 0xBAD;
        System::from_warm(other, &benches, &warm);
    }

    #[test]
    fn trace_replay_system_runs_and_restores_from_warm() {
        use dca_cpu::{dump_synthetic, encode_trace, register_trace_bytes, TraceEncoding};
        // A trace captured from a synthetic run drives a full system —
        // including warm-up and warm-state restore — like any Table I
        // benchmark.
        let records = dump_synthetic(Benchmark::Libquantum, 20_000, 17);
        let bytes = encode_trace(&records, TraceEncoding::Delta);
        let tb = register_trace_bytes("system-trace-test", &bytes).expect("register");
        let cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped).scaled(25_000, 50_000);
        let benches = [tb, Benchmark::Mcf];
        let cold = System::new(cfg, &benches).run();
        assert!(cold.cores.iter().all(|c| c.insts >= 25_000));
        assert_eq!(cold.cores[0].bench, "system-trace-test");
        let warm = System::capture_warm(cfg, &benches);
        let restored = System::from_warm(cfg, &benches, &warm).run();
        assert_eq!(cold.end_time, restored.end_time);
        assert_eq!(cold.events_processed, restored.events_processed);
        assert_eq!(cold.cache_read_hits, restored.cache_read_hits);
    }

    #[test]
    fn cycle_main_memory_runs_all_designs() {
        for design in Design::ALL {
            let cfg = SystemConfig::paper_cycle_mem(design, OrgKind::DirectMapped)
                .scaled(30_000, 120_000);
            let r = System::new(cfg, &[Benchmark::Libquantum, Benchmark::Mcf]).run();
            assert!(
                r.cores.iter().all(|c| c.insts >= 30_000),
                "{} cycle-mem run incomplete",
                design.label()
            );
            assert_eq!(r.main_mem.backend, "cycle");
            assert_eq!(r.main_mem.reads, r.mem_reads);
            assert!(r.mem_reads > 0, "misses must reach the device");
            assert!(r.main_mem.row_hits + r.main_mem.row_conflicts <= r.mem_reads + r.mem_writes);
            assert!(r.main_mem.busy_ps > 0);
        }
    }

    #[test]
    fn cycle_main_memory_is_deterministic_and_differs_from_flat() {
        let mk = |cycle: bool| {
            let mut cfg =
                SystemConfig::paper(Design::Dca, OrgKind::DirectMapped).scaled(30_000, 120_000);
            if cycle {
                cfg.main_mem = dca_mem_hier::MainMemConfig::ddr4();
            }
            System::new(cfg, &[Benchmark::Libquantum, Benchmark::Mcf]).run()
        };
        let a = mk(true);
        let b = mk(true);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.mem_reads, b.mem_reads);
        let flat = mk(false);
        assert_eq!(flat.main_mem.backend, "flat");
        assert_ne!(
            a.end_time, flat.end_time,
            "a real device must reshape timing at least slightly"
        );
    }

    #[test]
    fn timeline_recording_works() {
        let mut cfg = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped).scaled(30_000, 5_000);
        cfg.record_timeline = true;
        let r = System::new(cfg, &[Benchmark::Libquantum]).run();
        let tl = r.timeline.expect("timeline requested");
        assert!(!tl.entries().is_empty());
        // Entries are in issue order with sane windows.
        for e in tl.entries() {
            assert!(e.burst_end > e.burst_start);
        }
    }
}
