//! ATCache-style SRAM tag cache (Huang & Nagarajan \[4\]) — the Fig 18 study.
//!
//! A small SRAM cache holds recently used *tag blocks* (one 64-byte tag
//! block per cache set). Because tag-block temporal locality is poor (the
//! tag working set of a 256 MB cache is ~12 MB, far beyond any affordable
//! SRAM), ATCache earns its latency wins from *spatial prefetching*:
//! a demand tag-block miss also fetches adjacent tag blocks.
//!
//! The paper's §VII observation, which this model reproduces: the
//! prefetches mean the number of DRAM **tag accesses does not drop — it
//! roughly doubles** even at 192 KB, so a tag cache aggravates rather
//! than solves the DRAM-cache scheduling problem.

/// Statistics of a tag-cache run.
#[derive(Clone, Copy, Debug, Default)]
pub struct TagCacheStats {
    /// Demand lookups.
    pub lookups: u64,
    /// Demand lookups served from SRAM.
    pub hits: u64,
    /// Tag blocks read from DRAM (demand misses + prefetches).
    pub dram_tag_reads: u64,
    /// Dirty tag blocks written back to DRAM on eviction.
    pub dram_tag_writes: u64,
    /// Prefetch reads issued.
    pub prefetches: u64,
}

impl TagCacheStats {
    /// Total DRAM tag accesses (reads + writes) — the Fig 18 numerator.
    pub fn dram_tag_accesses(&self) -> u64 {
        self.dram_tag_reads + self.dram_tag_writes
    }

    /// Demand hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    block: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// The SRAM tag cache: set-associative over tag-block addresses, LRU.
#[derive(Clone, Debug)]
pub struct TagCache {
    lines: Vec<Line>,
    sets: usize,
    ways: usize,
    prefetch_degree: usize,
    clock: u64,
    stats: TagCacheStats,
}

impl TagCache {
    /// A tag cache of `capacity_bytes` of 64-byte tag blocks, 8-way, with
    /// `prefetch_degree` adjacent-block prefetches per demand miss.
    pub fn new(capacity_bytes: usize, prefetch_degree: usize) -> Self {
        let entries = (capacity_bytes / 64).max(8);
        let ways = 8usize;
        let sets = (entries / ways).next_power_of_two();
        TagCache {
            lines: vec![Line::default(); sets * ways],
            sets,
            ways,
            prefetch_degree,
            clock: 0,
            stats: TagCacheStats::default(),
        }
    }

    /// Capacity in bytes actually allocated.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * 64
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TagCacheStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, block: u64) -> usize {
        // Multiplicative hash: adjacent tag blocks land in different sets,
        // so prefetched neighbours do not thrash a single set.
        ((block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.sets - 1)
    }

    fn probe(&mut self, block: u64) -> Option<usize> {
        let base = self.set_of(block) * self.ways;
        (0..self.ways)
            .find(|&w| self.lines[base + w].valid && self.lines[base + w].block == block)
            .map(|w| base + w)
    }

    /// Insert `block`, evicting LRU; dirty evictions count a DRAM write.
    fn fill(&mut self, block: u64, dirty: bool) {
        let base = self.set_of(block) * self.ways;
        let mut victim = base;
        for w in 0..self.ways {
            let idx = base + w;
            if !self.lines[idx].valid {
                victim = idx;
                break;
            }
            if self.lines[idx].stamp < self.lines[victim].stamp {
                victim = idx;
            }
        }
        if self.lines[victim].valid && self.lines[victim].dirty {
            self.stats.dram_tag_writes += 1;
        }
        self.clock += 1;
        self.lines[victim] = Line {
            block,
            valid: true,
            dirty,
            stamp: self.clock,
        };
    }

    /// A demand access to the tag block of cache set `set_id`.
    ///
    /// `update` marks the access as modifying the tags (replacement-bit or
    /// tag-install write) — served in SRAM, written back on eviction.
    pub fn access(&mut self, set_id: u64, update: bool) {
        self.stats.lookups += 1;
        self.clock += 1;
        if let Some(idx) = self.probe(set_id) {
            self.stats.hits += 1;
            self.lines[idx].stamp = self.clock;
            if update {
                self.lines[idx].dirty = true;
            }
            return;
        }
        // Demand miss: one DRAM tag read, then spatial prefetches.
        self.stats.dram_tag_reads += 1;
        self.fill(set_id, update);
        for d in 1..=self.prefetch_degree as u64 {
            let neighbour = set_id + d;
            if self.probe(neighbour).is_none() {
                self.stats.dram_tag_reads += 1;
                self.stats.prefetches += 1;
                self.fill(neighbour, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_round_to_geometry() {
        let tc = TagCache::new(192 * 1024, 3);
        assert!(tc.capacity_bytes() >= 128 * 1024, "some rounding allowed");
    }

    #[test]
    fn repeated_access_hits() {
        let mut tc = TagCache::new(64 * 1024, 0);
        tc.access(42, false);
        tc.access(42, false);
        tc.access(42, false);
        assert_eq!(tc.stats().lookups, 3);
        assert_eq!(tc.stats().hits, 2);
        assert_eq!(tc.stats().dram_tag_reads, 1);
    }

    #[test]
    fn prefetch_fetches_neighbours() {
        let mut tc = TagCache::new(64 * 1024, 3);
        tc.access(100, false);
        // Demand + 3 neighbours.
        assert_eq!(tc.stats().dram_tag_reads, 4);
        assert_eq!(tc.stats().prefetches, 3);
        // Sequential walk now hits the prefetched blocks.
        tc.access(101, false);
        tc.access(102, false);
        assert_eq!(tc.stats().hits, 2);
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut tc = TagCache::new(4 * 1024, 0); // 64 entries: easy to thrash
                                                 // Touch many distinct blocks with updates; dirty evictions follow.
        for b in 0..1000u64 {
            tc.access(b * 7919, true); // spread across sets
        }
        assert!(
            tc.stats().dram_tag_writes > 0,
            "dirty blocks must write back"
        );
    }

    #[test]
    fn low_temporal_locality_doubles_tag_traffic() {
        // The Fig 18 effect: a stream with little tag-block reuse sees
        // MORE DRAM tag accesses with prefetching than the 1-per-request
        // baseline.
        let mut tc = TagCache::new(192 * 1024, 3);
        let requests = 100_000u64;
        for i in 0..requests {
            // Pseudo-random set ids over a 256K-set space: reuse distance
            // far beyond SRAM capacity.
            let set = (i.wrapping_mul(2654435761)) % 262_144;
            tc.access(set, i % 4 == 0);
        }
        let ratio = tc.stats().dram_tag_accesses() as f64 / requests as f64;
        assert!(
            ratio > 1.5,
            "prefetching must inflate tag traffic, got {ratio:.2}"
        );
    }

    #[test]
    fn streaming_workload_benefits_from_prefetch() {
        // Conversely, a sequential set walk mostly hits after prefetch.
        let mut tc = TagCache::new(192 * 1024, 3);
        for set in 0..10_000u64 {
            tc.access(set, false);
        }
        assert!(
            tc.stats().hit_rate() > 0.5,
            "sequential walk should hit prefetched blocks, rate={:.2}",
            tc.stats().hit_rate()
        );
    }
}
