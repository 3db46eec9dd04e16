//! Generic set-associative SRAM cache (L1 / L2 functional model).

use dca_sim_core::{ByteWriter, Counter};

/// Statistics for one SRAM cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct SramStats {
    /// Total probes.
    pub accesses: Counter,
    /// Probe hits.
    pub hits: Counter,
    /// Probe misses.
    pub misses: Counter,
    /// Dirty evictions produced by allocations.
    pub writebacks: Counter,
}

impl SramStats {
    /// Hit rate over all probes.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// A set-associative write-back, write-allocate SRAM cache with LRU
/// replacement.
///
/// Functional only: the enclosing system model applies the fixed hit
/// latency (2 cycles L1, 20 cycles L2 per Table II). `probe` and
/// `allocate` are split so the system can model miss timing: a miss does
/// not install the block until its refill returns.
#[derive(Clone, Debug)]
pub struct SramCache {
    lines: Vec<Line>,
    sets: u64,
    ways: u16,
    clock: u64,
    stats: SramStats,
}

impl SramCache {
    /// A cache of `capacity_bytes` with 64-byte blocks and `ways`
    /// associativity. Set count must come out a power of two.
    pub fn new(capacity_bytes: u64, ways: u16) -> Self {
        assert!(ways >= 1);
        let blocks = capacity_bytes / 64;
        let sets = blocks / ways as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        SramCache {
            lines: vec![Line::default(); (sets * ways as u64) as usize],
            sets,
            ways,
            clock: 0,
            stats: SramStats::default(),
        }
    }

    /// The paper's L1: 32 KB, 2-way.
    pub fn paper_l1() -> Self {
        Self::new(32 * 1024, 2)
    }

    /// The paper's shared L2: 8 MB, 16-way.
    pub fn paper_l2() -> Self {
        Self::new(8 * 1024 * 1024, 16)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u16 {
        self.ways
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SramStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, block: u64) -> u64 {
        block & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, block: u64) -> u64 {
        block >> self.sets.trailing_zeros()
    }

    #[inline]
    fn base(&self, set: u64) -> usize {
        (set * self.ways as u64) as usize
    }

    /// Probe for `block`; on a hit, updates LRU and (for writes) the dirty
    /// bit, and returns `true`.
    pub fn probe(&mut self, block: u64, is_write: bool) -> bool {
        self.stats.accesses.inc();
        self.clock += 1;
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = self.base(set);
        for w in 0..self.ways as usize {
            let line = &mut self.lines[base + w];
            if line.valid && line.tag == tag {
                line.stamp = self.clock;
                if is_write {
                    line.dirty = true;
                }
                self.stats.hits.inc();
                return true;
            }
        }
        self.stats.misses.inc();
        false
    }

    /// Probe without any state change (no LRU update, no stats).
    pub fn peek(&self, block: u64) -> bool {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = self.base(set);
        (0..self.ways as usize).any(|w| {
            let line = &self.lines[base + w];
            line.valid && line.tag == tag
        })
    }

    /// Whether `block` is present and dirty (no state change).
    pub fn peek_dirty(&self, block: u64) -> bool {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = self.base(set);
        (0..self.ways as usize).any(|w| {
            let line = &self.lines[base + w];
            line.valid && line.tag == tag && line.dirty
        })
    }

    /// Install `block` (refill). Returns the evicted victim block and its
    /// dirtiness, if a valid line was displaced.
    pub fn allocate(&mut self, block: u64, dirty: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = self.base(set);
        // Already present (racing refills): just update.
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
                self.stats.writebacks.inc();
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

    /// Serialise the full state into `w` (part of the warm-state byte
    /// image). Layout: sets, ways, clock, the four statistics counters,
    /// then one `(tag, valid|dirty flags, stamp)` record per line.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.sets);
        w.put_u16(self.ways);
        w.put_u64(self.clock);
        for c in [
            self.stats.accesses,
            self.stats.hits,
            self.stats.misses,
            self.stats.writebacks,
        ] {
            w.put_u64(c.get());
        }
        for line in &self.lines {
            w.put_u64(line.tag);
            w.put_u8(line.valid as u8 | (line.dirty as u8) << 1);
            w.put_u64(line.stamp);
        }
    }

    /// Clear the dirty bit of `block` if present (used by the Lee eager
    /// writeback: data is pushed downstream but the line stays resident).
    pub fn clean(&mut self, block: u64) -> bool {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
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

    /// All valid block addresses in the same set as `block` that are
    /// dirty, excluding `block` itself. Bounded by associativity.
    pub fn dirty_set_neighbours(&self, block: u64) -> Vec<u64> {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = self.base(set);
        let shift = self.sets.trailing_zeros();
        (0..self.ways as usize)
            .filter_map(|w| {
                let line = &self.lines[base + w];
                (line.valid && line.dirty && line.tag != tag).then_some(line.tag << shift | set)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shapes() {
        let l1 = SramCache::paper_l1();
        assert_eq!(l1.sets(), 256);
        assert_eq!(l1.ways(), 2);
        let l2 = SramCache::paper_l2();
        assert_eq!(l2.sets(), 8192);
        assert_eq!(l2.ways(), 16);
    }

    #[test]
    fn probe_miss_then_allocate_then_hit() {
        let mut c = SramCache::new(4096, 2);
        assert!(!c.probe(100, false));
        assert_eq!(c.allocate(100, false), None);
        assert!(c.probe(100, false));
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_it() {
        let mut c = SramCache::new(128, 1); // 2 sets, 1 way: tiny
        c.allocate(0, false);
        assert!(c.probe(0, true), "write hit");
        // Install a conflicting block in set 0 (block 2 -> same set).
        let evicted = c.allocate(2, false).unwrap();
        assert_eq!(evicted, (0, true));
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SramCache::new(256, 2); // 2 sets, 2 ways
        c.allocate(0, false); // set 0
        c.allocate(2, false); // set 0
        c.probe(0, false); // touch 0: now 2 is LRU
        let evicted = c.allocate(4, false).unwrap(); // set 0 again
        assert_eq!(evicted.0, 2);
    }

    #[test]
    fn victim_block_address_reconstruction() {
        let mut c = SramCache::new(4096, 1); // 64 sets
        let block = 0xABCDu64;
        c.allocate(block, true);
        let conflicting = block + 64; // same set, different tag
        let (victim, dirty) = c.allocate(conflicting, false).unwrap();
        assert_eq!(victim, block);
        assert!(dirty);
    }

    #[test]
    fn peek_does_not_disturb_lru_or_stats() {
        let mut c = SramCache::new(256, 2);
        c.allocate(0, false);
        c.allocate(2, false);
        assert!(c.peek(0));
        assert!(!c.peek(100));
        // peek(0) must NOT have refreshed 0's LRU position: 0 is oldest.
        let evicted = c.allocate(4, false).unwrap();
        assert_eq!(evicted.0, 0);
        assert_eq!(c.stats().accesses.get(), 0);
    }

    #[test]
    fn clean_clears_dirty() {
        let mut c = SramCache::new(256, 2);
        c.allocate(0, true);
        assert!(c.peek_dirty(0));
        assert!(c.clean(0));
        assert!(!c.peek_dirty(0));
        assert!(!c.clean(0), "already clean");
        // Eviction of the cleaned line is no longer a writeback.
        c.allocate(2, false);
        let evicted = c.allocate(4, false).unwrap();
        assert!(!evicted.1);
    }

    #[test]
    fn dirty_set_neighbours_lists_only_dirty() {
        let mut c = SramCache::new(1024, 4); // 4 sets, 4 ways
                                             // Blocks 0,4,8,12 all map to set 0 (4 sets).
        c.allocate(0, true);
        c.allocate(4, false);
        c.allocate(8, true);
        let mut n = c.dirty_set_neighbours(0);
        n.sort_unstable();
        assert_eq!(n, vec![8]);
    }

    #[test]
    fn allocate_existing_merges() {
        let mut c = SramCache::new(256, 2);
        c.allocate(0, false);
        assert_eq!(c.allocate(0, true), None, "no eviction on re-allocate");
        assert!(c.peek_dirty(0), "dirtiness merged in");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        SramCache::new(3 * 64, 1);
    }
}
