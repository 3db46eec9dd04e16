//! Micro-benchmarks of the simulator's hot components: the event queue,
//! the BLISS arbiter, the bank state machine, the cache geometry and the
//! translation FSM. These guard simulation throughput (the full figure
//! harness runs hundreds of simulations).

use criterion::{criterion_group, criterion_main, Criterion};

use dca_dram::MappingScheme;
use dca_dram_cache::{CacheGeometry, CacheReqKind, CacheRequest, OrgKind, RequestFsm, TagArray};
use dca_sched::{AccessQueue, Bliss, QueueEntry, ReadClass};
use dca_sim_core::{BaselineEventQueue, EventQueue, SimTime, Slab};

/// Reschedule offset (ps) for the three arrival distributions the
/// event queues are benchmarked against. `0` = uniform (~1 event per
/// 4 default slots, the shape `SLOT_SHIFT` was tuned for), `1` =
/// clustered (sub-slot bursts with occasional long jumps — sorted
/// inserts degrade at the default shift), anything else = bursty
/// (phases alternate between the two every 4096 events — no fixed
/// shift suits both).
fn dist_offset(dist: usize, v: u64) -> u64 {
    let sparse = 3 * 1024 + (v * 467) % 2048;
    let dense = (v * 31) % 16;
    match dist {
        0 => sparse,
        1 => {
            if v.is_multiple_of(512) {
                1 << 22
            } else {
                dense
            }
        }
        _ => {
            if (v >> 12) & 1 == 0 {
                sparse
            } else {
                dense
            }
        }
    }
}

fn micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro");

    g.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime(i * 37 % 911), i as u32);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v as u64;
            }
            std::hint::black_box(sum)
        })
    });

    // The engine-relevant event pattern: a rolling window of 64 pending
    // events marching forward through time (the simulator never drains
    // its queue until the end). The 64 ns reschedule span reproduces the
    // measured end-to-end density (~1 event per calendar slot). One
    // persistent queue per engine — steady state, no construction in the
    // timed region — so the calendar queue's advantage is measurable in
    // isolation.
    {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..64u64 {
            q.push(SimTime(i * 131 % 4096), i);
        }
        g.bench_function("event_rolling_window_calendar", |b| {
            b.iter(|| {
                let (t, v) = q.pop().expect("window stays populated");
                // Reschedule 0–64 ns ahead, deterministically scattered.
                q.push(SimTime(t.ps() + 97 + (v * 467) % 64_000), v + 1);
                std::hint::black_box(v)
            })
        });
    }
    {
        let mut q: BaselineEventQueue<u64> = BaselineEventQueue::new();
        for i in 0..64u64 {
            q.push(SimTime(i * 131 % 4096), i);
        }
        g.bench_function("event_rolling_window_heap", |b| {
            b.iter(|| {
                let (t, v) = q.pop().expect("window stays populated");
                q.push(SimTime(t.ps() + 97 + (v * 467) % 64_000), v + 1);
                std::hint::black_box(v)
            })
        });
    }

    // The pathological-clustering regime: a rolling window of 256 events
    // all landing within one default-width calendar slot (reschedule
    // span 64 ps « 1024 ps slot). Every push into the shared bucket that
    // is out of (time, seq) order pays a sorted insert — the calendar
    // queue's worst case, and the regime a configurable `SLOT_SHIFT`
    // (SystemConfig::event_slot_shift) exists for: at shift 4 the same
    // events spread over four 16 ps slots. The heap engine is the
    // clustering-insensitive reference.
    {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..256u64 {
            q.push(SimTime(i % 64), i);
        }
        g.bench_function("event_clustered_calendar_shift10", |b| {
            b.iter(|| {
                let (t, v) = q.pop().expect("window stays populated");
                q.push(SimTime(t.ps() + (v * 31) % 64), v + 1);
                std::hint::black_box(v)
            })
        });
    }
    {
        let mut q: EventQueue<u64> = EventQueue::with_slot_shift(4);
        for i in 0..256u64 {
            q.push(SimTime(i % 64), i);
        }
        g.bench_function("event_clustered_calendar_shift4", |b| {
            b.iter(|| {
                let (t, v) = q.pop().expect("window stays populated");
                q.push(SimTime(t.ps() + (v * 31) % 64), v + 1);
                std::hint::black_box(v)
            })
        });
    }
    {
        let mut q: BaselineEventQueue<u64> = BaselineEventQueue::new();
        for i in 0..256u64 {
            q.push(SimTime(i % 64), i);
        }
        g.bench_function("event_clustered_heap", |b| {
            b.iter(|| {
                let (t, v) = q.pop().expect("window stays populated");
                q.push(SimTime(t.ps() + (v * 31) % 64), v + 1);
                std::hint::black_box(v)
            })
        });
    }

    // The calendar queue at its default shift vs the heap oracle across
    // arrival distributions, rolling window of 256.
    macro_rules! dist_bench {
        ($name:expr, $qinit:expr, $dist:expr) => {{
            let mut q = $qinit;
            for i in 0..256u64 {
                q.push(SimTime(i * 131 % 4096), i);
            }
            g.bench_function($name, |b| {
                b.iter(|| {
                    let (t, v) = q.pop().expect("window stays populated");
                    q.push(SimTime(t.ps() + dist_offset($dist, v)), v + 1);
                    std::hint::black_box(v)
                })
            });
        }};
    }
    dist_bench!("event_dist_uniform_fixed10", EventQueue::<u64>::new(), 0);
    dist_bench!(
        "event_dist_uniform_heap",
        BaselineEventQueue::<u64>::new(),
        0
    );
    dist_bench!("event_dist_clustered_fixed10", EventQueue::<u64>::new(), 1);
    dist_bench!(
        "event_dist_clustered_heap",
        BaselineEventQueue::<u64>::new(),
        1
    );
    dist_bench!("event_dist_bursty_fixed10", EventQueue::<u64>::new(), 2);
    dist_bench!(
        "event_dist_bursty_heap",
        BaselineEventQueue::<u64>::new(),
        2
    );

    // Request-state bookkeeping: slab (packed generational keys) vs the
    // default-hashed HashMap it replaced. Mirrors the system's pattern —
    // insert, a few lookups, remove — over a working set of in-flight
    // requests.
    g.bench_function("slab_churn_64_live", |b| {
        b.iter(|| {
            let mut slab: Slab<[u64; 4]> = Slab::with_capacity(64);
            let mut live = [0u64; 64];
            for (i, slot) in live.iter_mut().enumerate() {
                *slot = slab.insert([i as u64; 4]).raw();
            }
            let mut acc = 0u64;
            for round in 0..1_000u64 {
                let i = (round * 17 % 64) as usize;
                acc = acc.wrapping_add(slab[live[i].into()][0]);
                slab.remove(live[i].into());
                live[i] = slab.insert([round; 4]).raw();
            }
            std::hint::black_box(acc)
        })
    });
    g.bench_function("hashmap_churn_64_live", |b| {
        b.iter(|| {
            let mut map: std::collections::HashMap<u64, [u64; 4]> =
                std::collections::HashMap::with_capacity(64);
            let mut next_id = 0u64;
            let mut live = [0u64; 64];
            for slot in live.iter_mut() {
                *slot = next_id;
                map.insert(next_id, [next_id; 4]);
                next_id += 1;
            }
            let mut acc = 0u64;
            for round in 0..1_000u64 {
                let i = (round * 17 % 64) as usize;
                acc = acc.wrapping_add(map[&live[i]][0]);
                map.remove(&live[i]);
                live[i] = next_id;
                map.insert(next_id, [round; 4]);
                next_id += 1;
            }
            std::hint::black_box(acc)
        })
    });

    // Slotted command queue: the arbitrate-and-remove cycle that used to
    // pay O(n) Vec::remove per issued access.
    g.bench_function("access_queue_pick_remove_64", |b| {
        let bliss = Bliss::new();
        b.iter(|| {
            let mut q = AccessQueue::new(64);
            for i in 0..64u64 {
                q.push(QueueEntry {
                    id: i,
                    access: dca_dram::DramAccess::read((i % 16) as u32, (i % 7) as u32),
                    app: (i % 4) as u8,
                    class: ReadClass::Priority,
                    enqueued_at: SimTime(i),
                })
                .unwrap();
            }
            let mut drained = 0u64;
            while !q.is_empty() {
                let pos = bliss
                    .pick(q.iter(), |e| {
                        if e.access.row == 3 {
                            dca_dram::RowOutcome::Hit
                        } else {
                            dca_dram::RowOutcome::Conflict
                        }
                    })
                    .expect("non-empty");
                drained = drained.wrapping_add(q.remove(pos).id);
            }
            std::hint::black_box(drained)
        })
    });

    g.bench_function("bliss_pick_64", |b| {
        let bliss = Bliss::new();
        let mut q = AccessQueue::new(64);
        for i in 0..64u64 {
            q.push(QueueEntry {
                id: i,
                access: dca_dram::DramAccess::read((i % 16) as u32, (i % 7) as u32),
                app: (i % 4) as u8,
                class: ReadClass::Priority,
                enqueued_at: SimTime(i),
            })
            .unwrap();
        }
        b.iter(|| {
            std::hint::black_box(bliss.pick(q.iter(), |e| {
                if e.access.row == 3 {
                    dca_dram::RowOutcome::Hit
                } else {
                    dca_dram::RowOutcome::Conflict
                }
            }))
        })
    });

    g.bench_function("geometry_place_sa", |b| {
        let geom = CacheGeometry::paper(OrgKind::paper_set_assoc(), MappingScheme::XorRemap);
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            std::hint::black_box(geom.place(x % (1 << 32)))
        })
    });

    g.bench_function("fsm_read_hit_sa", |b| {
        let geom = CacheGeometry::paper(OrgKind::paper_set_assoc(), MappingScheme::Direct);
        let mut tags = TagArray::new(geom.num_sets(), 15);
        let place = geom.place(1234);
        tags.insert(place.set, place.tag, false);
        b.iter(|| {
            let (mut fsm, first) = RequestFsm::start(
                CacheRequest {
                    id: 1,
                    kind: CacheReqKind::Read,
                    block: 1234,
                    app: 0,
                    pc: 0x40,
                },
                &geom,
            );
            let mut pending: Vec<_> = first;
            let mut steps = 0;
            while let Some(spec) = pending.pop() {
                let out = fsm.on_access_done(spec.role, &mut tags, &geom);
                pending.extend(out.enqueue);
                steps += 1;
            }
            std::hint::black_box(steps)
        })
    });

    g.bench_function("tag_array_lookup_insert", |b| {
        let mut tags = TagArray::new(1 << 18, 15);
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(7919);
            let set = x % (1 << 18);
            let tag = (x >> 18) as u32 & 0xFFFF;
            match tags.lookup(set, tag) {
                Some(w) => tags.touch(set, w),
                None => {
                    tags.insert(set, tag, x.is_multiple_of(3));
                }
            }
            std::hint::black_box(())
        })
    });

    g.bench_function("channel_issue_mixed", |b| {
        use dca_dram::{DramAccess, DramChannel, Organization, TimingParams};
        b.iter(|| {
            let mut ch = DramChannel::new(TimingParams::paper_stacked(), &Organization::paper());
            let mut now = SimTime::ZERO;
            for i in 0..200u32 {
                let acc = if i % 4 == 0 {
                    DramAccess::write(i % 16, i % 9)
                } else {
                    DramAccess::read(i % 16, i % 5)
                };
                now = ch.issue(acc, now).burst_end;
            }
            std::hint::black_box(now)
        })
    });

    g.finish();
}

criterion_group!(benches, micro);
criterion_main!(benches);
