//! Functional tag / dirty / replacement state.
//!
//! This array answers "hit or miss, which way, who's the victim" — the
//! *functional* half of the cache. The *timing* of reading and writing
//! this state through the DRAM array is what the controller designs
//! schedule; it is modelled by the access streams, not here.
//!
//! Replacement is pluggable per [`ReplacementPolicy`]:
//!
//! * [`ReplacementPolicy::Srrip`] (the default, and the only policy the
//!   seed model had): SRRIP (Jaleel et al., the paper's citation \[12\]
//!   for re-reference prediction) — 2-bit RRPV per way, hit promotes to
//!   0, insertion at 2, victim = first way with RRPV 3 (aging increments
//!   all until one qualifies).
//! * [`ReplacementPolicy::Lru`] / [`ReplacementPolicy::LruClean`] /
//!   [`ReplacementPolicy::LruDirty`]: true LRU stack positions per way
//!   (0 = MRU), with the gem5 `DRAMCacheCtrl` exemplar's `lruc`/`lrud`
//!   variants preferring to evict the LRU *clean* (no victim writeback)
//!   or LRU *dirty* (drain dirt early) way when one exists.
//!
//! For the direct-mapped organisation the set has one way and every
//! policy degenerates to the same trivial replacement.

use dca_sim_core::ByteWriter;

/// Outcome of inserting a block into a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Way the block was placed in.
    pub way: u16,
    /// Evicted victim `(tag, was_dirty)` if a valid block was displaced.
    pub evicted: Option<(u32, bool)>,
}

const RRPV_MAX: u8 = 3;
const RRPV_INSERT: u8 = 2;

/// Which replacement policy governs a [`TagArray`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// 2-bit SRRIP (seed behaviour, bit-identical to the pre-layer code).
    #[default]
    Srrip,
    /// True LRU: evict the least-recently-used way.
    Lru,
    /// LRU preferring clean victims (gem5 exemplar `lruc`): evict the
    /// LRU clean way when any way is clean, else plain LRU.
    LruClean,
    /// LRU preferring dirty victims (gem5 exemplar `lrud`): evict the
    /// LRU dirty way when any way is dirty, else plain LRU.
    LruDirty,
}

impl ReplacementPolicy {
    /// Every policy, SRRIP (the default) first.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Srrip,
        ReplacementPolicy::Lru,
        ReplacementPolicy::LruClean,
        ReplacementPolicy::LruDirty,
    ];

    /// Display label for reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            ReplacementPolicy::Srrip => "srrip",
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::LruClean => "lruc",
            ReplacementPolicy::LruDirty => "lrud",
        }
    }

    /// Stable numeric code for codecs and fingerprints.
    pub fn code(self) -> u8 {
        match self {
            ReplacementPolicy::Srrip => 0,
            ReplacementPolicy::Lru => 1,
            ReplacementPolicy::LruClean => 2,
            ReplacementPolicy::LruDirty => 3,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TagEntry {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Per-way replacement state: the RRPV under SRRIP, the LRU stack
    /// position (0 = MRU) under the LRU family.
    state: u8,
}

/// The functional tag array: `sets × ways` entries, flat storage.
#[derive(Clone, Debug)]
pub struct TagArray {
    entries: Vec<TagEntry>,
    sets: u64,
    ways: u16,
    policy: ReplacementPolicy,
}

impl TagArray {
    /// An all-invalid array under the default (SRRIP) policy.
    pub fn new(sets: u64, ways: u16) -> Self {
        Self::with_policy(sets, ways, ReplacementPolicy::Srrip)
    }

    /// An all-invalid array governed by `policy`.
    pub fn with_policy(sets: u64, ways: u16, policy: ReplacementPolicy) -> Self {
        assert!(ways >= 1);
        assert!(sets >= 1);
        TagArray {
            entries: vec![TagEntry::default(); (sets * ways as u64) as usize],
            sets,
            ways,
            policy,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u16 {
        self.ways
    }

    /// Replacement policy in force.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    #[inline]
    fn base(&self, set: u64) -> usize {
        debug_assert!(set < self.sets);
        (set * self.ways as u64) as usize
    }

    /// Look up `tag` in `set`; returns the way on a hit. Pure.
    pub fn lookup(&self, set: u64, tag: u32) -> Option<u16> {
        let base = self.base(set);
        self.entries[base..base + self.ways as usize]
            .iter()
            .position(|e| e.valid && e.tag == tag)
            .map(|w| w as u16)
    }

    /// Whether (set, way) currently holds dirty data.
    pub fn is_dirty(&self, set: u64, way: u16) -> bool {
        self.entries[self.base(set) + way as usize].dirty
    }

    /// Record a hit on (set, way): promote its replacement state.
    pub fn touch(&mut self, set: u64, way: u16) {
        let base = self.base(set);
        match self.policy {
            ReplacementPolicy::Srrip => self.entries[base + way as usize].state = 0,
            _ => {
                // LRU family: move to MRU, older entries shift down.
                let old = self.entries[base + way as usize].state;
                for e in &mut self.entries[base..base + self.ways as usize] {
                    if e.valid && e.state < old {
                        e.state += 1;
                    }
                }
                self.entries[base + way as usize].state = 0;
            }
        }
    }

    /// Mark (set, way) dirty (hit by a writeback).
    pub fn set_dirty(&mut self, set: u64, way: u16, dirty: bool) {
        let base = self.base(set);
        self.entries[base + way as usize].dirty = dirty;
    }

    /// The LRU-family victim among a full set: the preferred class's
    /// oldest way, falling back to the overall LRU way. Ties cannot
    /// happen — stack positions are a permutation of `0..ways`.
    fn lru_victim(&self, base: usize) -> usize {
        let ways = &self.entries[base..base + self.ways as usize];
        let prefer: Option<fn(&TagEntry) -> bool> = match self.policy {
            ReplacementPolicy::LruClean => Some(|e| !e.dirty),
            ReplacementPolicy::LruDirty => Some(|e| e.dirty),
            _ => None,
        };
        let oldest = |pred: &dyn Fn(&TagEntry) -> bool| {
            ways.iter()
                .enumerate()
                .filter(|(_, e)| pred(e))
                .max_by_key(|(_, e)| e.state)
                .map(|(i, _)| i)
        };
        prefer
            .and_then(|p| oldest(&p))
            .or_else(|| oldest(&|_| true))
            .expect("full set has a victim")
    }

    /// Identify the victim way an insertion into `set` would use, without
    /// modifying anything. Invalid ways win first; otherwise the policy
    /// decides (SRRIP aging is *simulated* — the actual aging happens on
    /// insert).
    pub fn victim_way(&self, set: u64) -> (u16, Option<(u32, bool)>) {
        let base = self.base(set);
        let ways = &self.entries[base..base + self.ways as usize];
        if let Some(w) = ways.iter().position(|e| !e.valid) {
            return (w as u16, None);
        }
        let best = match self.policy {
            ReplacementPolicy::Srrip => {
                // SRRIP: pick the first way whose RRPV would reach MAX
                // first — i.e. the way with the highest current RRPV;
                // ties to lowest index.
                let mut best = 0usize;
                for (i, e) in ways.iter().enumerate().skip(1) {
                    if e.state > ways[best].state {
                        best = i;
                    }
                }
                best
            }
            _ => self.lru_victim(base),
        };
        let v = &ways[best];
        (best as u16, Some((v.tag, v.dirty)))
    }

    /// Insert `tag` into `set`, evicting per the policy if needed.
    pub fn insert(&mut self, set: u64, tag: u32, dirty: bool) -> InsertOutcome {
        match self.policy {
            ReplacementPolicy::Srrip => self.insert_srrip(set, tag, dirty),
            _ => self.insert_lru(set, tag, dirty),
        }
    }

    fn insert_srrip(&mut self, set: u64, tag: u32, dirty: bool) -> InsertOutcome {
        let base = self.base(set);
        // Reuse an invalid way when available.
        if let Some(w) = (0..self.ways as usize).find(|&w| !self.entries[base + w].valid) {
            self.entries[base + w] = TagEntry {
                tag,
                valid: true,
                dirty,
                state: RRPV_INSERT,
            };
            return InsertOutcome {
                way: w as u16,
                evicted: None,
            };
        }
        // Age until some way reaches RRPV_MAX.
        loop {
            if let Some(w) =
                (0..self.ways as usize).find(|&w| self.entries[base + w].state >= RRPV_MAX)
            {
                let victim = self.entries[base + w];
                self.entries[base + w] = TagEntry {
                    tag,
                    valid: true,
                    dirty,
                    state: RRPV_INSERT,
                };
                return InsertOutcome {
                    way: w as u16,
                    evicted: Some((victim.tag, victim.dirty)),
                };
            }
            for w in 0..self.ways as usize {
                self.entries[base + w].state += 1;
            }
        }
    }

    fn insert_lru(&mut self, set: u64, tag: u32, dirty: bool) -> InsertOutcome {
        let base = self.base(set);
        if let Some(w) = (0..self.ways as usize).find(|&w| !self.entries[base + w].valid) {
            // New block enters at MRU; every resident ages one step.
            for e in &mut self.entries[base..base + self.ways as usize] {
                if e.valid {
                    e.state += 1;
                }
            }
            self.entries[base + w] = TagEntry {
                tag,
                valid: true,
                dirty,
                state: 0,
            };
            return InsertOutcome {
                way: w as u16,
                evicted: None,
            };
        }
        let w = self.lru_victim(base);
        let victim = self.entries[base + w];
        // Ways younger than the victim age one step; older ones keep
        // their positions — the stack stays a permutation of 0..ways.
        for e in &mut self.entries[base..base + self.ways as usize] {
            if e.state < victim.state {
                e.state += 1;
            }
        }
        self.entries[base + w] = TagEntry {
            tag,
            valid: true,
            dirty,
            state: 0,
        };
        InsertOutcome {
            way: w as u16,
            evicted: Some((victim.tag, victim.dirty)),
        }
    }

    /// Invalidate (set, way); returns `(tag, was_dirty)` if it was valid.
    pub fn invalidate(&mut self, set: u64, way: u16) -> Option<(u32, bool)> {
        let base = self.base(set);
        let e = &mut self.entries[base + way as usize];
        if e.valid {
            e.valid = false;
            Some((e.tag, e.dirty))
        } else {
            None
        }
    }

    /// Count of valid entries (test/diagnostic helper; O(sets×ways)).
    pub fn valid_count(&self) -> u64 {
        self.entries.iter().filter(|e| e.valid).count() as u64
    }

    /// Serialise the full state into `w` (part of the warm-state byte
    /// image). Layout: sets, ways, policy code, then one
    /// `(tag, valid|dirty flags, state)` record per entry.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.sets);
        w.put_u16(self.ways);
        w.put_u8(self.policy.code());
        for e in &self.entries {
            w.put_u32(e.tag);
            w.put_u8(e.valid as u8 | (e.dirty as u8) << 1);
            w.put_u8(e.state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = TagArray::new(16, 4);
        assert_eq!(t.lookup(3, 77), None);
        let out = t.insert(3, 77, false);
        assert_eq!(out.evicted, None);
        assert_eq!(t.lookup(3, 77), Some(out.way));
    }

    #[test]
    fn dirty_tracking() {
        let mut t = TagArray::new(4, 2);
        let out = t.insert(1, 5, false);
        assert!(!t.is_dirty(1, out.way));
        t.set_dirty(1, out.way, true);
        assert!(t.is_dirty(1, out.way));
        t.set_dirty(1, out.way, false);
        assert!(!t.is_dirty(1, out.way));
    }

    #[test]
    fn fills_invalid_ways_before_evicting() {
        for policy in ReplacementPolicy::ALL {
            let mut t = TagArray::with_policy(1, 4, policy);
            for tag in 0..4 {
                let out = t.insert(0, tag, false);
                assert_eq!(out.evicted, None, "{policy:?}: way {tag} should be free");
            }
            let out = t.insert(0, 99, false);
            assert!(out.evicted.is_some(), "{policy:?}: 5th insert must evict");
            assert_eq!(t.valid_count(), 4);
        }
    }

    #[test]
    fn srrip_protects_recently_touched() {
        let mut t = TagArray::new(1, 2);
        let a = t.insert(0, 1, false);
        let _b = t.insert(0, 2, false);
        // Touch tag 1 so its RRPV drops to 0; tag 2 stays at insert RRPV.
        t.touch(0, a.way);
        let out = t.insert(0, 3, false);
        let (victim_tag, _) = out.evicted.unwrap();
        assert_eq!(victim_tag, 2, "untouched block is the victim");
        assert_eq!(t.lookup(0, 1), Some(a.way));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut t = TagArray::with_policy(1, 3, ReplacementPolicy::Lru);
        for tag in 1..=3 {
            t.insert(0, tag, false);
        }
        // Touch 1 then 2: tag 3 becomes the LRU way.
        t.touch(0, t.lookup(0, 1).unwrap());
        t.touch(0, t.lookup(0, 2).unwrap());
        let out = t.insert(0, 9, false);
        assert_eq!(out.evicted, Some((3, false)));
        assert!(t.lookup(0, 1).is_some());
        assert!(t.lookup(0, 2).is_some());
    }

    #[test]
    fn lruc_prefers_clean_victims() {
        let mut t = TagArray::with_policy(1, 3, ReplacementPolicy::LruClean);
        t.insert(0, 1, true); // oldest, dirty
        t.insert(0, 2, false); // middle, clean
        t.insert(0, 3, true); // newest, dirty
        let out = t.insert(0, 9, false);
        assert_eq!(out.evicted, Some((2, false)), "clean way evicts first");
        // All dirty now: falls back to plain LRU (tag 1 is oldest).
        t.set_dirty(0, t.lookup(0, 9).unwrap(), true);
        let out = t.insert(0, 10, false);
        assert_eq!(out.evicted, Some((1, true)));
    }

    #[test]
    fn lrud_prefers_dirty_victims() {
        let mut t = TagArray::with_policy(1, 3, ReplacementPolicy::LruDirty);
        t.insert(0, 1, false); // oldest, clean
        t.insert(0, 2, true); // middle, dirty
        t.insert(0, 3, false); // newest, clean
        let out = t.insert(0, 9, false);
        assert_eq!(out.evicted, Some((2, true)), "dirty way evicts first");
        // All clean now: falls back to plain LRU (tag 1 is oldest).
        let out = t.insert(0, 10, false);
        assert_eq!(out.evicted, Some((1, false)));
    }

    #[test]
    fn lru_touch_never_evicts_and_keeps_permutation() {
        let mut t = TagArray::with_policy(2, 4, ReplacementPolicy::Lru);
        for tag in 0..4 {
            t.insert(1, tag, false);
        }
        for tag in 0..4u32 {
            t.touch(1, t.lookup(1, tag).unwrap());
            assert_eq!(t.valid_count(), 4);
            // Every resident must still be found.
            for probe in 0..4 {
                assert!(t.lookup(1, probe).is_some());
            }
        }
    }

    #[test]
    fn victim_way_predicts_insert() {
        for policy in ReplacementPolicy::ALL {
            let mut t = TagArray::with_policy(1, 4, policy);
            for tag in 0..4 {
                t.insert(0, tag, tag % 2 == 1);
            }
            let (way, evicted) = t.victim_way(0);
            let out = t.insert(0, 42, false);
            assert_eq!(way, out.way, "{policy:?}");
            assert_eq!(evicted, out.evicted, "{policy:?}");
        }
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut t = TagArray::new(1, 1);
        t.insert(0, 7, true);
        let out = t.insert(0, 8, false);
        assert_eq!(out.evicted, Some((7, true)));
        let out = t.insert(0, 9, false);
        assert_eq!(out.evicted, Some((8, false)));
    }

    #[test]
    fn invalidate_round_trip() {
        let mut t = TagArray::new(2, 2);
        let out = t.insert(1, 3, true);
        assert_eq!(t.invalidate(1, out.way), Some((3, true)));
        assert_eq!(t.invalidate(1, out.way), None);
        assert_eq!(t.lookup(1, 3), None);
    }

    #[test]
    fn direct_mapped_single_way() {
        for policy in ReplacementPolicy::ALL {
            let mut t = TagArray::with_policy(8, 1, policy);
            t.insert(5, 1, false);
            let out = t.insert(5, 2, true);
            assert_eq!(out.way, 0);
            assert_eq!(out.evicted, Some((1, false)));
            assert_eq!(t.lookup(5, 2), Some(0));
            assert_eq!(t.lookup(5, 1), None);
        }
    }

    #[test]
    fn sets_are_independent() {
        let mut t = TagArray::new(4, 1);
        t.insert(0, 1, false);
        t.insert(1, 2, false);
        assert_eq!(t.lookup(0, 1), Some(0));
        assert_eq!(t.lookup(1, 2), Some(0));
        assert_eq!(t.lookup(2, 1), None);
    }
}
