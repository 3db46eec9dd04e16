//! Generic set-associative SRAM cache (L1 / L2 functional model).
//!
//! Storage is a structure of arrays indexed by `set * ways + way`:
//!
//! * `tags`: one `u32` word per line, `tag << 1 | 1` when valid and 0
//!   when not, so a probe compares whole words and a 16-way L2 set
//!   scans 64 bytes of tags rather than 384 bytes of lines.
//! * `dirty` and `stamps` (the clock value at the line's last use) are
//!   side arrays that only a hit or a victim choice reads.
//!
//! A tag is `block >> log2(sets)` and must fit 31 bits. Every call
//! naming a block whose tag is wider panics rather than alias a
//! narrower tag.

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

/// The valid bit of a tag word; the tag sits above it.
const VALID: u32 = 1;
/// Largest tag a tag word holds (31 bits).
const MAX_TAG: u64 = (u32::MAX >> 1) as u64;

/// A set-associative write-back, write-allocate SRAM cache with LRU
/// replacement.
///
/// Functional only: the enclosing system model applies the fixed hit
/// latency (2 cycles L1, 20 cycles L2 per Table II). `probe` and
/// `allocate` are split so the system can model miss timing: a miss does
/// not install the block until its refill returns.
#[derive(Clone, Debug)]
pub struct SramCache {
    tags: Vec<u32>,
    dirty: Vec<bool>,
    stamps: Vec<u64>,
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
        let lines = (sets * ways as u64) as usize;
        SramCache {
            tags: vec![0; lines],
            dirty: vec![false; lines],
            stamps: vec![0; lines],
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

    /// The valid tag word `block` would occupy.
    #[inline]
    fn word_of(&self, block: u64) -> u32 {
        let tag = block >> self.sets.trailing_zeros();
        assert!(
            tag <= MAX_TAG,
            "SRAM tag {tag:#x} of block {block:#x} does not fit 31 bits"
        );
        (tag as u32) << 1 | VALID
    }

    /// The block address of the valid tag word `word` in `set`.
    #[inline]
    fn block_of(&self, word: u32, set: u64) -> u64 {
        u64::from(word >> 1) << self.sets.trailing_zeros() | set
    }

    /// Line indices of `set`.
    #[inline]
    fn lines_of(&self, set: u64) -> std::ops::Range<usize> {
        let base = (set * self.ways as u64) as usize;
        base..base + self.ways as usize
    }

    /// Line index holding `block`, if present.
    #[inline]
    fn find(&self, block: u64) -> Option<usize> {
        let word = self.word_of(block);
        let lines = self.lines_of(self.set_of(block));
        let base = lines.start;
        self.tags[lines]
            .iter()
            .position(|&t| t == word)
            .map(|w| base + w)
    }

    /// Probe for `block`; on a hit, updates LRU and (for writes) the dirty
    /// bit, and returns `true`.
    pub fn probe(&mut self, block: u64, is_write: bool) -> bool {
        self.stats.accesses.inc();
        self.clock += 1;
        match self.find(block) {
            Some(i) => {
                self.stamps[i] = self.clock;
                if is_write {
                    self.dirty[i] = true;
                }
                self.stats.hits.inc();
                true
            }
            None => {
                self.stats.misses.inc();
                false
            }
        }
    }

    /// Probe without any state change (no LRU update, no stats).
    pub fn peek(&self, block: u64) -> bool {
        self.find(block).is_some()
    }

    /// Whether `block` is present and dirty (no state change).
    pub fn peek_dirty(&self, block: u64) -> bool {
        self.find(block).is_some_and(|i| self.dirty[i])
    }

    /// Install `block` (refill). Returns the evicted victim block and its
    /// dirtiness, if a valid line was displaced.
    pub fn allocate(&mut self, block: u64, dirty: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        // Already present (racing refills): just update.
        if let Some(i) = self.find(block) {
            self.stamps[i] = self.clock;
            self.dirty[i] |= dirty;
            return None;
        }
        let set = self.set_of(block);
        let lines = self.lines_of(set);
        let base = lines.start;
        // An empty way first, else the least recently used (first on ties).
        let victim = base
            + match self.tags[lines.clone()].iter().position(|&t| t == 0) {
                Some(w) => w,
                None => self.stamps[lines]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, stamp)| stamp)
                    .map(|(w, _)| w)
                    .expect("a set has at least one way"),
            };
        let evicted = (self.tags[victim] != 0).then(|| {
            if self.dirty[victim] {
                self.stats.writebacks.inc();
            }
            (self.block_of(self.tags[victim], set), self.dirty[victim])
        });
        self.tags[victim] = self.word_of(block);
        self.dirty[victim] = dirty;
        self.stamps[victim] = self.clock;
        evicted
    }

    /// Serialise the full state into `w` (part of the warm-state byte
    /// image). Layout: sets, ways, clock, the four statistics counters,
    /// then one `(tag, valid|dirty flags, stamp)` record per line.
    pub fn encode(&self, w: &mut ByteWriter) {
        let Self {
            tags,
            dirty,
            stamps,
            sets,
            ways,
            clock,
            stats:
                SramStats {
                    accesses,
                    hits,
                    misses,
                    writebacks,
                },
        } = self;
        w.put_u64(*sets);
        w.put_u16(*ways);
        w.put_u64(*clock);
        for c in [accesses, hits, misses, writebacks] {
            w.put_u64(c.get());
        }
        for ((&tag, &dirty), &stamp) in tags.iter().zip(dirty).zip(stamps) {
            w.put_u64(u64::from(tag >> 1));
            w.put_u8((tag & VALID) as u8 | (dirty as u8) << 1);
            w.put_u64(stamp);
        }
    }

    /// Clear the dirty bit of `block` if present (used by the Lee eager
    /// writeback: data is pushed downstream but the line stays resident).
    pub fn clean(&mut self, block: u64) -> bool {
        match self.find(block) {
            Some(i) if self.dirty[i] => {
                self.dirty[i] = false;
                true
            }
            _ => false,
        }
    }

    /// All valid block addresses in the same set as `block` that are
    /// dirty, excluding `block` itself. Bounded by associativity.
    pub fn dirty_set_neighbours(&self, block: u64) -> Vec<u64> {
        let set = self.set_of(block);
        let word = self.word_of(block);
        self.lines_of(set)
            .filter(|&i| self.tags[i] != 0 && self.dirty[i] && self.tags[i] != word)
            .map(|i| self.block_of(self.tags[i], set))
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
    fn widest_tag_round_trips() {
        let mut c = SramCache::new(128, 1); // 2 sets: tag = block >> 1
        let widest = MAX_TAG << 1 | 1;
        c.allocate(widest, true);
        assert!(c.peek_dirty(widest));
        assert_eq!(c.allocate(widest - 2, false), Some((widest, true)));
    }

    #[test]
    #[should_panic(expected = "SRAM tag 0x80000000 of block 0x100000001 does not fit 31 bits")]
    fn tag_wider_than_31_bits_panics() {
        let mut c = SramCache::new(128, 1);
        c.probe((MAX_TAG + 1) << 1 | 1, false);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        SramCache::new(3 * 64, 1);
    }
}
