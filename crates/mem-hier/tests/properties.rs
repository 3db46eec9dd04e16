//! Property-based tests: SRAM cache vs a reference model and vs the
//! line-array layout it replaced, MSHR accounting, and main-memory
//! bandwidth conservation.

use dca_mem_hier::{MainMemory, Mshr, MshrOutcome, SramCache};
use dca_sim_core::{ByteWriter, Duration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

/// The SRAM cache as one array of 24-byte lines (the layout before the
/// tag words, dirty bits and LRU stamps were split into their own
/// arrays), kept as the oracle of `sram_cache_matches_line_array_oracle`.
struct LineArrayCache {
    lines: Vec<Line>,
    sets: u64,
    ways: u16,
    clock: u64,
    /// accesses, hits, misses, writebacks.
    stats: [u64; 4],
}

#[derive(Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

impl LineArrayCache {
    fn new(capacity_bytes: u64, ways: u16) -> Self {
        let sets = capacity_bytes / 64 / ways as u64;
        LineArrayCache {
            lines: vec![Line::default(); (sets * ways as u64) as usize],
            sets,
            ways,
            clock: 0,
            stats: [0; 4],
        }
    }

    fn set_of(&self, block: u64) -> u64 {
        block & (self.sets - 1)
    }

    fn tag_of(&self, block: u64) -> u64 {
        block >> self.sets.trailing_zeros()
    }

    fn base(&self, set: u64) -> usize {
        (set * self.ways as u64) as usize
    }

    fn probe(&mut self, block: u64, is_write: bool) -> bool {
        self.stats[0] += 1;
        self.clock += 1;
        let (set, tag) = (self.set_of(block), self.tag_of(block));
        let base = self.base(set);
        for w in 0..self.ways as usize {
            let line = &mut self.lines[base + w];
            if line.valid && line.tag == tag {
                line.stamp = self.clock;
                if is_write {
                    line.dirty = true;
                }
                self.stats[1] += 1;
                return true;
            }
        }
        self.stats[2] += 1;
        false
    }

    fn peek(&self, block: u64) -> bool {
        let (set, tag) = (self.set_of(block), self.tag_of(block));
        let base = self.base(set);
        (0..self.ways as usize).any(|w| {
            let line = &self.lines[base + w];
            line.valid && line.tag == tag
        })
    }

    fn peek_dirty(&self, block: u64) -> bool {
        let (set, tag) = (self.set_of(block), self.tag_of(block));
        let base = self.base(set);
        (0..self.ways as usize).any(|w| {
            let line = &self.lines[base + w];
            line.valid && line.tag == tag && line.dirty
        })
    }

    fn allocate(&mut self, block: u64, dirty: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        let (set, tag) = (self.set_of(block), self.tag_of(block));
        let base = self.base(set);
        for w in 0..self.ways as usize {
            let line = &mut self.lines[base + w];
            if line.valid && line.tag == tag {
                line.stamp = self.clock;
                line.dirty |= dirty;
                return None;
            }
        }
        let mut victim = base;
        for w in 0..self.ways as usize {
            let idx = base + w;
            if !self.lines[idx].valid {
                victim = idx;
                break;
            }
            if self.lines[idx].stamp < self.lines[victim].stamp {
                victim = idx;
            }
        }
        let evicted = if self.lines[victim].valid {
            let v = self.lines[victim];
            if v.dirty {
                self.stats[3] += 1;
            }
            Some((v.tag << self.sets.trailing_zeros() | set, v.dirty))
        } else {
            None
        };
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty,
            stamp: self.clock,
        };
        evicted
    }

    fn clean(&mut self, block: u64) -> bool {
        let (set, tag) = (self.set_of(block), self.tag_of(block));
        let base = self.base(set);
        for w in 0..self.ways as usize {
            let line = &mut self.lines[base + w];
            if line.valid && line.tag == tag && line.dirty {
                line.dirty = false;
                return true;
            }
        }
        false
    }

    fn dirty_set_neighbours(&self, block: u64) -> Vec<u64> {
        let (set, tag) = (self.set_of(block), self.tag_of(block));
        let base = self.base(set);
        let shift = self.sets.trailing_zeros();
        (0..self.ways as usize)
            .filter_map(|w| {
                let line = &self.lines[base + w];
                (line.valid && line.dirty && line.tag != tag).then_some(line.tag << shift | set)
            })
            .collect()
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.sets);
        w.put_u16(self.ways);
        w.put_u64(self.clock);
        for c in self.stats {
            w.put_u64(c);
        }
        for line in &self.lines {
            w.put_u64(line.tag);
            w.put_u8(line.valid as u8 | (line.dirty as u8) << 1);
            w.put_u64(line.stamp);
        }
    }
}

proptest! {
    /// The SRAM cache never reports a hit for a block the reference model
    /// says is absent, and dirty eviction reporting matches the stores
    /// applied.
    #[test]
    fn sram_cache_matches_reference(
        ops in prop::collection::vec((0u64..256, any::<bool>()), 1..400)
    ) {
        let mut cache = SramCache::new(64 * 64, 4); // 16 sets x 4 ways
        let mut present: HashMap<u64, bool> = HashMap::new(); // block -> dirty
        for (block, is_write) in ops {
            let hit = cache.probe(block, is_write);
            if hit {
                prop_assert!(present.contains_key(&block), "phantom hit {block}");
                if is_write {
                    present.insert(block, true);
                }
            } else {
                if let Some((victim, vdirty)) = cache.allocate(block, is_write) {
                    let expected = present.remove(&victim);
                    prop_assert_eq!(
                        expected, Some(vdirty),
                        "victim {} dirtiness mismatch", victim
                    );
                }
                present.insert(block, is_write);
            }
        }
        // Everything the model says is cached must actually hit (peek).
        for &block in present.keys() {
            prop_assert!(cache.peek(block), "lost block {block}");
        }
    }

    /// The cache behaves exactly like the line-array layout it replaced:
    /// the same return value from every call (so the same LRU victim on
    /// every eviction), the same statistics and the same `encode` bytes,
    /// at 1, 2 and 16 ways. Blocks come from a few lines' worth of each
    /// set, some with a tag near the 31-bit limit.
    #[test]
    fn sram_cache_matches_line_array_oracle(
        ops in prop::collection::vec((0u8..8, 0u64..192, any::<bool>(), 0u8..8), 1..600)
    ) {
        for ways in [1u16, 2, 16] {
            let capacity = 4 * ways as u64 * 64; // 4 sets
            let mut cache = SramCache::new(capacity, ways);
            let mut oracle = LineArrayCache::new(capacity, ways);
            let high = (1u64 << 30) * cache.sets();
            for &(op, low, flag, far) in &ops {
                let block = low % (cache.sets() * (ways as u64 + 2)) + if far == 0 { high } else { 0 };
                match op {
                    0..=2 => prop_assert_eq!(
                        cache.probe(block, flag),
                        oracle.probe(block, flag),
                        "{} ways: probe({}, {})", ways, block, flag
                    ),
                    3 | 4 => prop_assert_eq!(
                        cache.allocate(block, flag),
                        oracle.allocate(block, flag),
                        "{} ways: allocate({}, {})", ways, block, flag
                    ),
                    5 => prop_assert_eq!(
                        cache.clean(block),
                        oracle.clean(block),
                        "{} ways: clean({})", ways, block
                    ),
                    6 => prop_assert_eq!(
                        (cache.peek(block), cache.peek_dirty(block)),
                        (oracle.peek(block), oracle.peek_dirty(block)),
                        "{} ways: peek/peek_dirty({})", ways, block
                    ),
                    _ => prop_assert_eq!(
                        cache.dirty_set_neighbours(block),
                        oracle.dirty_set_neighbours(block),
                        "{} ways: dirty_set_neighbours({})", ways, block
                    ),
                }
            }
            let (mut got, mut want) = (ByteWriter::new(), ByteWriter::new());
            cache.encode(&mut got);
            oracle.encode(&mut want);
            prop_assert!(got.into_vec() == want.into_vec(), "{} ways: encode bytes differ", ways);
        }
    }

    /// MSHR: merged waiters all come back exactly once, in order.
    #[test]
    fn mshr_returns_all_waiters(
        allocs in prop::collection::vec((0u64..16, 0u32..1000), 1..200)
    ) {
        let mut mshr: Mshr<u32> = Mshr::new(64);
        let mut expected: HashMap<u64, Vec<u32>> = HashMap::new();
        for (block, waiter) in allocs {
            match mshr.allocate(block, waiter) {
                MshrOutcome::New | MshrOutcome::Merged => {
                    expected.entry(block).or_default().push(waiter);
                }
                MshrOutcome::Full => {}
            }
        }
        for (block, want) in expected {
            prop_assert_eq!(mshr.complete(block), want);
        }
        prop_assert!(mshr.is_empty());
    }

    /// Main memory: completions are monotone per issue order and respect
    /// the fixed latency floor; total bus busy time equals blocks x 4ns.
    #[test]
    fn memory_bandwidth_conserved(gaps in prop::collection::vec(0u64..100, 1..200)) {
        let mut mem = MainMemory::paper();
        let mut now = SimTime::ZERO;
        let mut last_done = SimTime::ZERO;
        let mut count = 0u64;
        for gap in gaps {
            now += Duration::from_ns(gap);
            let done = mem.read(now);
            count += 1;
            prop_assert!(done >= now + Duration::from_ns(54), "below latency floor");
            prop_assert!(done >= last_done, "completion reordering");
            last_done = done;
        }
        prop_assert_eq!(mem.busy_time_ps(), count * 4_000);
        prop_assert_eq!(mem.reads(), count);
    }

    /// clean() then eviction never reports a dirty writeback.
    #[test]
    fn cleaned_blocks_do_not_write_back(blocks in prop::collection::vec(0u64..64, 1..100)) {
        let mut cache = SramCache::new(16 * 64, 1); // 16 sets, 1 way: churn
        for &b in &blocks {
            if !cache.probe(b, true) {
                cache.allocate(b, true);
            }
            cache.clean(b);
        }
        // Force eviction of everything via conflicting blocks.
        let mut dirty_evictions = 0;
        for &b in &blocks {
            if let Some((_, dirty)) = cache.allocate(b + 4096, false) {
                if dirty {
                    dirty_evictions += 1;
                }
            }
        }
        prop_assert_eq!(dirty_evictions, 0, "cleaned blocks must evict clean");
    }
}
