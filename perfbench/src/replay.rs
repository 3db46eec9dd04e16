//! Layer replays for the traced run. Each one re-drives a single layer
//! of the simulator, through its public API, on the traffic of the
//! workload being traced, and times it as a whole so per-call clock
//! reads do not swamp calls that take tens of nanoseconds.

use std::time::Instant;

use dca::{ChannelController, Rrpc, SystemConfig, TimelineEntry, WarmState, WARM_FORMAT_VERSION};
use dca_cpu::{Benchmark, Core, CoreConfig, MemOp, MemPort, OpStream, PortResponse, TraceOp};
use dca_dram::{AccessKind, BurstLen, DramAccess, DramChannel};
use dca_dram_cache::{AccessRole, AccessSpec, CacheGeometry, CacheReqKind, MapI, TagArray};
use dca_mem_hier::{MainMemConfig, MainMemStats, MainMemory, SramCache};
use dca_sched::{AccessQueue, Bliss, QueueEntry, ReadClass};
use dca_sim_core::{digest64, ByteWriter, Duration, EventQueue, SeedSplitter, SimTime};

use crate::trace::Tracer;

/// One unit of tag-array work the warm-up performs after an L2 miss.
#[derive(Clone, Copy)]
pub enum TagOp {
    /// The missing block: look it up, touch on hit, insert clean on miss.
    Fill(u64),
    /// A dirty L2 victim: mark dirty on hit, insert dirty on miss.
    DirtyVictim(u64),
}

/// What the warm-up replay measured.
pub struct WarmReplay {
    pub ops: u64,
    pub gen_s: f64,
    pub sram_calls: u64,
    pub sram_s: f64,
    pub l1_probes: u64,
    pub l1_hits: u64,
    pub l2_probes: u64,
    pub l2_misses: u64,
    pub tag_ops: Vec<TagOp>,
    pub tags_s: f64,
    pub tag_inserts: u64,
    /// The workload generators as warm-up leaves them.
    pub gens: Vec<OpStream>,
    /// The replayed state, encoded the way `WarmState::encode` does.
    pub encoded: Vec<u8>,
}

/// Re-run functional warm-up phase by phase — op generation, the SRAM
/// hierarchy, then the DRAM-cache tags — from the same `OpStream` seeds
/// `System` uses. The tag array never feeds back into the SRAM caches,
/// so replaying its work after the SRAM pass reaches the same state.
pub fn warm(t: &mut Tracer, cfg: &SystemConfig, benches: &[Benchmark]) -> WarmReplay {
    let cores = benches.len();
    let seeds = SeedSplitter::new(cfg.seed).split("core");
    let mut gens: Vec<OpStream> = benches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            OpStream::for_bench(*b, (i as u64 + 1) << 26, seeds.split_index(i as u64).seed())
        })
        .collect();
    let n_ops = cfg.warmup_ops as usize * cores;
    let mut ops: Vec<TraceOp> = Vec::with_capacity(n_ops);
    let gen_s = timed(t, "warm.gen", "cpu.gen", || {
        for _ in 0..cfg.warmup_ops {
            for g in gens.iter_mut() {
                ops.push(g.next_op());
            }
        }
    });

    let mut l1: Vec<SramCache> = (0..cores).map(|_| SramCache::paper_l1()).collect();
    let mut l2 = SramCache::paper_l2();
    let mut tag_ops = Vec::new();
    let (mut calls, mut l1_hits, mut l2_probes, mut l2_misses) = (0u64, 0u64, 0u64, 0u64);
    let sram_s = timed(t, "warm.sram", "mem_hier.sram", || {
        for (k, op) in ops.iter().enumerate() {
            let i = k % cores;
            calls += 1;
            if l1[i].probe(op.block, op.is_store) {
                l1_hits += 1;
                continue;
            }
            calls += 1;
            l2_probes += 1;
            if !l2.probe(op.block, op.is_store) {
                l2_misses += 1;
                tag_ops.push(TagOp::Fill(op.block));
                calls += 1;
                if let Some((victim, true)) = l2.allocate(op.block, op.is_store) {
                    tag_ops.push(TagOp::DirtyVictim(victim));
                }
            }
            calls += 1;
            if let Some((victim, true)) = l1[i].allocate(op.block, op.is_store) {
                calls += 1;
                l2.probe(victim, true);
            }
        }
    });
    drop(ops);

    let geom = CacheGeometry::new(cfg.org_kind, cfg.dram_org, cfg.mapping);
    let mut tags = TagArray::with_policy(geom.num_sets(), cfg.org_kind.ways(), cfg.replacement);
    let mut inserts = 0u64;
    let tags_s = timed(t, "warm.tags", "dram_cache.tags", || {
        for op in &tag_ops {
            let (block, dirty) = match *op {
                TagOp::Fill(b) => (b, false),
                TagOp::DirtyVictim(b) => (b, true),
            };
            let p = geom.place(block);
            match tags.lookup(p.set, p.tag) {
                Some(w) if dirty => tags.set_dirty(p.set, w, true),
                Some(w) => tags.touch(p.set, w),
                None => {
                    tags.insert(p.set, p.tag, dirty);
                    inserts += 1;
                }
            }
        }
    });

    let encoded = encode_warm(cfg, benches, &l1, &l2, &tags, &gens);
    WarmReplay {
        ops: n_ops as u64,
        gen_s,
        sram_calls: calls,
        sram_s,
        l1_probes: n_ops as u64,
        l1_hits,
        l2_probes,
        l2_misses,
        tag_ops,
        tags_s,
        tag_inserts: inserts,
        gens,
        encoded,
    }
}

/// The `WarmState` blob layout: magic, version, fingerprint, the L1s,
/// L2, tag array, MAP-I table (untrained by warm-up) and generators,
/// then a digest of all of it.
fn encode_warm(
    cfg: &SystemConfig,
    benches: &[Benchmark],
    l1: &[SramCache],
    l2: &SramCache,
    tags: &TagArray,
    gens: &[OpStream],
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(b"DCAWARM\0");
    w.put_u32(WARM_FORMAT_VERSION);
    w.put_u64(WarmState::fingerprint_for(cfg, benches));
    w.put_u32(l1.len() as u32);
    for c in l1 {
        c.encode(&mut w);
    }
    l2.encode(&mut w);
    tags.encode(&mut w);
    MapI::paper().encode(&mut w);
    w.put_u32(gens.len() as u32);
    for g in gens {
        g.encode(&mut w);
    }
    let mut blob = w.into_vec();
    let d = digest64(&blob);
    blob.extend_from_slice(&d.to_le_bytes());
    blob
}

/// Run `f` inside a span and return its duration in seconds.
pub fn timed(t: &mut Tracer, name: &'static str, layer: &'static str, f: impl FnOnce()) -> f64 {
    t.span(name, layer, |_| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    })
}

/// What the main-memory replay measured.
pub struct MemoryReplay {
    pub accesses: u64,
    pub s: f64,
    pub schedule_calls: u64,
    pub empty_schedules: u64,
    pub stats: MainMemStats,
    pub all_served: bool,
}

/// Accesses the main-memory replay keeps outstanding.
const MEM_WINDOW: u64 = 32;

/// Drive the 3DXPoint cycle-level main memory with warm-up's miss
/// stream: each missing block is a read, each dirty L2 victim a write.
/// The stream is closed-loop — a new access arrives once fewer than
/// [`MEM_WINDOW`] are outstanding — and the scheduler is pumped at each
/// arrival and whenever a bank frees.
pub fn memory(t: &mut Tracer, tag_ops: &[TagOp]) -> MemoryReplay {
    let mut mem = MainMemory::build(&MainMemConfig::xpoint());
    let mut arrivals = Vec::new();
    let (mut calls, mut empty) = (0u64, 0u64);
    let mut schedule = |mem: &mut MainMemory, now: SimTime| {
        let before = mem.reads() + mem.writes();
        mem.schedule(now, &mut arrivals);
        arrivals.clear();
        calls += 1;
        if mem.reads() + mem.writes() == before {
            empty += 1;
        }
    };
    let mut now = SimTime::ZERO;
    let s = timed(t, "memory.replay", "mem_hier.memory", || {
        for (k, op) in tag_ops.iter().enumerate() {
            while k as u64 - (mem.reads() + mem.writes()) >= MEM_WINDOW {
                let Some(w) = mem.next_wakeup() else { break };
                now = now.max(w);
                schedule(&mut mem, now);
            }
            match *op {
                TagOp::Fill(b) => mem.enqueue_read(k as u64, b, now),
                TagOp::DirtyVictim(b) => mem.enqueue_write(b, now),
            }
            schedule(&mut mem, now);
        }
        while let Some(w) = mem.next_wakeup() {
            now = now.max(w);
            schedule(&mut mem, now);
        }
    });
    MemoryReplay {
        accesses: tag_ops.len() as u64,
        s,
        schedule_calls: calls,
        empty_schedules: empty,
        all_served: mem.reads() + mem.writes() == tag_ops.len() as u64,
        stats: mem.stats(),
    }
}

fn burst_of(role: AccessRole) -> BurstLen {
    match role {
        AccessRole::TadRead | AccessRole::TadWrite => BurstLen::Tad80,
        _ => BurstLen::Block64,
    }
}

fn access_of(e: &TimelineEntry) -> DramAccess {
    DramAccess {
        bank: e.bank,
        row: e.row,
        kind: e.kind,
        burst: burst_of(e.role),
    }
}

/// Timeline entries grouped by channel, in issue order.
pub fn by_channel(cfg: &SystemConfig, entries: &[TimelineEntry]) -> Vec<Vec<TimelineEntry>> {
    let mut out = vec![Vec::new(); cfg.dram_org.channels as usize];
    for e in entries {
        out[e.channel as usize].push(*e);
    }
    out
}

/// Re-issue every recorded access through a fresh `DramChannel` per
/// channel, in the recorded order, never earlier than recorded and never
/// to a busy bank.
pub fn dram(t: &mut Tracer, cfg: &SystemConfig, channels: &[Vec<TimelineEntry>]) -> (u64, f64) {
    let work: Vec<Vec<(DramAccess, SimTime)>> = channels
        .iter()
        .map(|es| es.iter().map(|e| (access_of(e), e.burst_start)).collect())
        .collect();
    let n = work.iter().map(Vec::len).sum::<usize>() as u64;
    let s = timed(t, "dram.replay", "dram", || {
        for accesses in &work {
            let mut ch = DramChannel::new(cfg.timing, &cfg.dram_org);
            let mut now = SimTime::ZERO;
            for &(a, at) in accesses {
                now = now.max(at).max(ch.bank_busy_until(a.bank));
                std::hint::black_box(ch.issue(a, now));
            }
        }
    });
    (n, s)
}

/// What the controller replay measured.
pub struct ControllerReplay {
    pub accesses: u64,
    pub issued: u64,
    pub slots: u64,
    pub idle_slots: u64,
    pub s: f64,
}

/// Id offset of the filler accesses the controller replay adds once the
/// recorded ones are all queued (see [`controller`]).
const FILLER_BASE: u64 = 1 << 40;

/// Feed each channel's recorded accesses through a fresh
/// `ChannelController` + `DramChannel` + `Rrpc`, admitting them as the
/// system does (while `can_admit`) and calling `schedule_one` until
/// every one has issued. Time advances to the next bank release when
/// nothing can issue. When the policy itself holds the last accesses
/// back (writes below the drain mark, or DCA's low-priority reads on
/// hot banks) filler accesses — a write and a priority read to rows
/// nobody else uses — push the queues past those marks; they are not
/// counted as replayed accesses.
pub fn controller(
    t: &mut Tracer,
    cfg: &SystemConfig,
    channels: &[Vec<TimelineEntry>],
) -> ControllerReplay {
    let mut r = ControllerReplay {
        accesses: channels.iter().map(Vec::len).sum::<usize>() as u64,
        issued: 0,
        slots: 0,
        idle_slots: 0,
        s: 0.0,
    };
    let step = Duration::from_ns(1);
    let spec_of = |e: &TimelineEntry| AccessSpec {
        access: access_of(e),
        role: e.role,
        class: e.class,
    };
    r.s = timed(t, "controller.replay", "core.controller", || {
        for (c, entries) in channels.iter().enumerate() {
            let mut ctrl = ChannelController::new(cfg, c as u32);
            let mut ch = DramChannel::new(cfg.timing, &cfg.dram_org);
            let mut rrpc = Rrpc::new(cfg.dram_org.total_banks());
            let banks = ch.bank_count() as u32;
            let mut now = SimTime::ZERO;
            let (mut next, mut issued, mut fillers) = (0usize, 0usize, 0u64);
            // Generous bound: a replay that cannot finish is a finding.
            let mut budget = 64 * entries.len() as u64 + 100_000;
            while issued < entries.len() && budget > 0 {
                budget -= 1;
                while next < entries.len() && ctrl.can_admit() {
                    let e = &entries[next];
                    ctrl.enqueue(next as u64, spec_of(e), e.req_kind, 0, now);
                    next += 1;
                }
                r.slots += 1;
                if let Some(done) = ctrl.schedule_one(&mut ch, &mut rrpc, now) {
                    if done.entry.id < FILLER_BASE {
                        issued += 1;
                    }
                    continue;
                }
                r.idle_slots += 1;
                let release = (0..banks)
                    .map(|b| ch.bank_busy_until(b))
                    .filter(|&b| b > now)
                    .min();
                match release {
                    Some(at) => now = at,
                    None if next < entries.len() => {
                        // Only policy holds work back: let more arrive.
                        let e = &entries[next];
                        ctrl.enqueue(next as u64, spec_of(e), e.req_kind, 0, now);
                        next += 1;
                    }
                    None => {
                        for (kind, class) in [
                            (AccessKind::Write, ReadClass::LowPriority),
                            (AccessKind::Read, ReadClass::Priority),
                        ] {
                            let spec = AccessSpec {
                                access: DramAccess {
                                    bank: (fillers % banks as u64) as u32,
                                    row: u32::MAX - (fillers % 1024) as u32,
                                    kind,
                                    burst: BurstLen::Block64,
                                },
                                role: AccessRole::TagRead,
                                class,
                            };
                            ctrl.enqueue(FILLER_BASE + fillers, spec, CacheReqKind::Read, 0, now);
                            fillers += 1;
                        }
                        now += step;
                    }
                }
            }
            r.issued += issued as u64;
        }
    });
    r
}

/// Replay the base arbiter alone: a 64-entry window of each channel's
/// recorded accesses, one `Bliss::pick` per issue, with a channel kept
/// in step so row hits are real. Each pick is timed individually and
/// the clock's own cost subtracted. Returns (picks, seconds).
pub fn sched(t: &mut Tracer, cfg: &SystemConfig, channels: &[Vec<TimelineEntry>]) -> (u64, f64) {
    let clock = clock_cost_s();
    let mut picks = 0u64;
    let mut total = 0.0;
    t.span("sched.replay", "sched", |_| {
        for entries in channels {
            let mut q = AccessQueue::new(64);
            let mut ch = DramChannel::new(cfg.timing, &cfg.dram_org);
            let bliss = Bliss::new();
            let mut feed = entries.iter().enumerate();
            let mut now = SimTime::ZERO;
            loop {
                while !q.is_full() {
                    let Some((i, e)) = feed.next() else { break };
                    let entry = QueueEntry {
                        id: i as u64,
                        access: access_of(e),
                        app: 0,
                        class: e.class,
                        enqueued_at: e.burst_start,
                    };
                    if q.push(entry).is_err() {
                        break;
                    }
                }
                if q.is_empty() {
                    break;
                }
                let t0 = Instant::now();
                let pos = bliss.pick(q.iter(), |e| ch.peek_outcome(e.access.bank, e.access.row));
                total += t0.elapsed().as_secs_f64() - clock;
                picks += 1;
                let Some(pos) = pos else { break };
                let e = q.remove(pos);
                now = now
                    .max(e.enqueued_at)
                    .max(ch.bank_busy_until(e.access.bank));
                now = ch.issue(e.access, now).burst_start;
            }
        }
    });
    (picks, total.max(0.0))
}

/// Cost of one `Instant::now` + `elapsed` pair, in seconds.
fn clock_cost_s() -> f64 {
    const N: u32 = 10_000;
    let t0 = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now().elapsed());
    }
    t0.elapsed().as_secs_f64() / N as f64
}

/// Push every recorded access's completion time through the calendar
/// event queue the system uses, popping whenever more than a window of
/// events is pending, then drain. Returns (push+pop pairs, seconds).
pub fn events(t: &mut Tracer, cfg: &SystemConfig, entries: &[TimelineEntry]) -> (u64, f64) {
    const WINDOW: usize = 64;
    let s = timed(t, "events.replay", "sim_core.events", || {
        let mut q: EventQueue<u64> = EventQueue::with_slot_shift(cfg.event_slot_shift);
        for (k, e) in entries.iter().enumerate() {
            let at = e.burst_end.max(q.now());
            q.push(at, k as u64);
            if q.len() > WINDOW {
                std::hint::black_box(q.pop());
            }
        }
        while let Some(ev) = q.pop() {
            std::hint::black_box(ev);
        }
    });
    (entries.len() as u64, s)
}

/// A memory port that answers every access from the first cache level.
struct L1Port {
    latency: Duration,
}

impl MemPort for L1Port {
    fn access(&mut self, _op: MemOp, at: SimTime) -> PortResponse {
        PortResponse::Complete(at + self.latency)
    }
}

/// Advance one core per workload generator, as warm-up leaves it, over
/// a port that always hits, until each retires its instruction budget.
/// Returns (instructions, seconds).
pub fn cores(t: &mut Tracer, cfg: &SystemConfig, gens: &[OpStream]) -> (u64, f64) {
    let mut cores: Vec<Core> = gens
        .iter()
        .enumerate()
        .map(|(i, g)| Core::new(i as u8, CoreConfig::paper(cfg.target_insts), g.clone()))
        .collect();
    let mut port = L1Port {
        latency: Duration::from_cpu_cycles(cfg.l1_lat_cycles),
    };
    let s = timed(t, "core.replay", "cpu.core", || {
        for c in cores.iter_mut() {
            while !c.finished() {
                let now = c.time();
                c.advance(&mut port, now);
            }
        }
    });
    (cores.iter().map(Core::insts).sum(), s)
}
