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
//!
//! # Layout
//!
//! Each way is one `u32` word, low bits first:
//!
//! | bits  | field |
//! |-------|-------|
//! | 0     | valid |
//! | 1     | dirty |
//! | 2–5   | replacement state: the RRPV under SRRIP, the LRU stack position (0 = MRU) under the LRU family |
//! | 6–31  | tag ([`MAX_TAG`] = 2^26 − 1) |
//!
//! A set's ways are consecutive, and sets start at a power-of-two stride
//! of words: 1 for direct-mapped, 16 for the paper's 15-way sets, whose
//! sixteenth word is padding that nothing reads or encodes. The array is
//! allocated zeroed (every way invalid), so its pages stay untouched
//! until the warm-up writes them. It is not aligned to a host cache
//! line: a 64-byte-aligned variant measured no faster.
//!
//! Bounds: a tag must fit its 26 bits ([`TagArray::insert`] panics on
//! a wider one, and [`TagArray::lookup`] misses it), and a set has at
//! most [`MAX_WAYS`] = 16 ways, because a stack position has 4 bits.
//!
//! # Snapshots
//!
//! [`TagArray::to_sparse`] keeps only the non-zero words, beside a
//! bitmap of where they sit ([`SparseTags`]), and
//! [`SparseTags::to_dense`] rebuilds the array word for word. The
//! figures' warm-ups write 4–9 % of a 256 MB cache's words, so a warm
//! state holds about a tenth of the dense array's bytes; the snapshot
//! of a full array is 1/32 larger than the array (the bitmap).

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

/// Valid bit of a way's word.
const VALID: u32 = 1;
/// Dirty bit of a way's word.
const DIRTY: u32 = 1 << 1;
/// Low bit of the 4-bit replacement state (RRPV or LRU stack position).
const STATE_SHIFT: u32 = 2;
const STATE_MASK: u32 = 0xF << STATE_SHIFT;
/// Low bit of the tag field.
const TAG_SHIFT: u32 = 6;
/// The bits a lookup compares: tag and valid.
const KEY_MASK: u32 = !(DIRTY | STATE_MASK);

/// Largest tag a way holds: the 26 bits above the flags.
pub const MAX_TAG: u32 = u32::MAX >> TAG_SHIFT;
/// Largest associativity: an LRU stack position must fit 4 bits.
pub const MAX_WAYS: u16 = 16;

#[inline]
fn tag_of(word: u32) -> u32 {
    word >> TAG_SHIFT
}

#[inline]
fn valid(word: u32) -> bool {
    word & VALID != 0
}

#[inline]
fn dirty(word: u32) -> bool {
    word & DIRTY != 0
}

#[inline]
fn state_of(word: u32) -> u8 {
    ((word & STATE_MASK) >> STATE_SHIFT) as u8
}

/// `word` one replacement step older.
#[inline]
fn aged(word: u32) -> u32 {
    debug_assert!(state_of(word) < 0xF, "replacement state overflows 4 bits");
    word + (1 << STATE_SHIFT)
}

/// The word of a valid way holding `tag` (already range-checked).
#[inline]
fn pack(tag: u32, dirty: bool, state: u8) -> u32 {
    tag << TAG_SHIFT | u32::from(state) << STATE_SHIFT | (dirty as u32) << 1 | VALID
}

/// The functional tag array: one `u32` word per way, `sets` sets laid
/// out at a power-of-two stride (see the module docs).
#[derive(Clone, Debug)]
pub struct TagArray {
    words: Vec<u32>,
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
        assert!(
            ways <= MAX_WAYS,
            "{ways} ways exceed {MAX_WAYS}: an LRU stack position has 4 bits"
        );
        assert!(sets >= 1);
        let len = usize::try_from(sets)
            .ok()
            .and_then(|s| s.checked_mul(Self::stride_for(ways)))
            .expect("tag array size overflows usize");
        TagArray {
            // Zeroed straight from the allocator: pages stay untouched
            // until a set is first written.
            words: vec![0; len],
            sets,
            ways,
            policy,
        }
    }

    fn stride_for(ways: u16) -> usize {
        usize::from(ways).next_power_of_two()
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

    /// The words of `set`'s ways (padding excluded).
    #[inline]
    fn set_words(&self, set: u64) -> &[u32] {
        debug_assert!(set < self.sets);
        let base = set as usize * Self::stride_for(self.ways);
        &self.words[base..base + self.ways as usize]
    }

    #[inline]
    fn set_words_mut(&mut self, set: u64) -> &mut [u32] {
        debug_assert!(set < self.sets);
        let base = set as usize * Self::stride_for(self.ways);
        &mut self.words[base..base + self.ways as usize]
    }

    /// Look up `tag` in `set`; returns the way on a hit. Pure.
    pub fn lookup(&self, set: u64, tag: u32) -> Option<u16> {
        if tag > MAX_TAG {
            return None;
        }
        let key = tag << TAG_SHIFT | VALID;
        self.set_words(set)
            .iter()
            .position(|&w| w & KEY_MASK == key)
            .map(|w| w as u16)
    }

    /// Whether (set, way) currently holds dirty data.
    pub fn is_dirty(&self, set: u64, way: u16) -> bool {
        dirty(self.set_words(set)[way as usize])
    }

    /// Record a hit on (set, way): promote its replacement state.
    pub fn touch(&mut self, set: u64, way: u16) {
        let policy = self.policy;
        let ways = self.set_words_mut(set);
        let old = state_of(ways[way as usize]);
        debug_assert!(valid(ways[way as usize]), "touch of an empty way");
        if policy != ReplacementPolicy::Srrip {
            // LRU family: move to MRU, older entries shift down.
            for w in ways.iter_mut() {
                if valid(*w) && state_of(*w) < old {
                    *w = aged(*w);
                }
            }
        }
        ways[way as usize] &= !STATE_MASK;
    }

    /// Mark (set, way) dirty (hit by a writeback).
    pub fn set_dirty(&mut self, set: u64, way: u16, dirty: bool) {
        let w = &mut self.set_words_mut(set)[way as usize];
        *w = *w & !DIRTY | (dirty as u32) << 1;
    }

    /// The LRU-family victim among a full set: the preferred class's
    /// oldest way, falling back to the overall LRU way. Ties cannot
    /// happen — stack positions are a permutation of `0..ways`.
    fn lru_victim(&self, set: u64) -> usize {
        let ways = self.set_words(set);
        let prefer: Option<fn(u32) -> bool> = match self.policy {
            ReplacementPolicy::LruClean => Some(|w| !dirty(w)),
            ReplacementPolicy::LruDirty => Some(dirty),
            _ => None,
        };
        let oldest = |pred: &dyn Fn(u32) -> bool| {
            ways.iter()
                .enumerate()
                .filter(|&(_, &w)| pred(w))
                .max_by_key(|&(_, &w)| state_of(w))
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
        let ways = self.set_words(set);
        if let Some(w) = ways.iter().position(|&w| !valid(w)) {
            return (w as u16, None);
        }
        let best = match self.policy {
            ReplacementPolicy::Srrip => {
                // SRRIP: pick the first way whose RRPV would reach MAX
                // first — i.e. the way with the highest current RRPV;
                // ties to lowest index.
                let mut best = 0usize;
                for (i, &w) in ways.iter().enumerate().skip(1) {
                    if state_of(w) > state_of(ways[best]) {
                        best = i;
                    }
                }
                best
            }
            _ => self.lru_victim(set),
        };
        let v = ways[best];
        (best as u16, Some((tag_of(v), dirty(v))))
    }

    /// Insert `tag` into `set`, evicting per the policy if needed.
    ///
    /// Panics if `tag` exceeds [`MAX_TAG`].
    pub fn insert(&mut self, set: u64, tag: u32, dirty: bool) -> InsertOutcome {
        assert!(
            tag <= MAX_TAG,
            "tag {tag:#x} does not fit the 26-bit tag field"
        );
        match self.policy {
            ReplacementPolicy::Srrip => self.insert_srrip(set, tag, dirty),
            _ => self.insert_lru(set, tag, dirty),
        }
    }

    fn insert_srrip(&mut self, set: u64, tag: u32, dirty: bool) -> InsertOutcome {
        let ways = self.set_words_mut(set);
        // Reuse an invalid way when available.
        if let Some(w) = ways.iter().position(|&w| !valid(w)) {
            ways[w] = pack(tag, dirty, RRPV_INSERT);
            return InsertOutcome {
                way: w as u16,
                evicted: None,
            };
        }
        // Age until some way reaches RRPV_MAX.
        loop {
            if let Some(w) = ways.iter().position(|&w| state_of(w) >= RRPV_MAX) {
                let victim = ways[w];
                ways[w] = pack(tag, dirty, RRPV_INSERT);
                return InsertOutcome {
                    way: w as u16,
                    evicted: Some((tag_of(victim), self::dirty(victim))),
                };
            }
            for w in ways.iter_mut() {
                *w = aged(*w);
            }
        }
    }

    fn insert_lru(&mut self, set: u64, tag: u32, dirty: bool) -> InsertOutcome {
        if let Some(w) = self.set_words(set).iter().position(|&w| !valid(w)) {
            let ways = self.set_words_mut(set);
            // New block enters at MRU; every resident ages one step.
            for e in ways.iter_mut() {
                if valid(*e) {
                    *e = aged(*e);
                }
            }
            ways[w] = pack(tag, dirty, 0);
            return InsertOutcome {
                way: w as u16,
                evicted: None,
            };
        }
        let w = self.lru_victim(set);
        let ways = self.set_words_mut(set);
        let victim = ways[w];
        // Ways younger than the victim age one step; older ones keep
        // their positions — the stack stays a permutation of 0..ways.
        for e in ways.iter_mut() {
            if state_of(*e) < state_of(victim) {
                *e = aged(*e);
            }
        }
        ways[w] = pack(tag, dirty, 0);
        InsertOutcome {
            way: w as u16,
            evicted: Some((tag_of(victim), self::dirty(victim))),
        }
    }

    /// Invalidate (set, way); returns `(tag, was_dirty)` if it was valid.
    ///
    /// Under the LRU family the residents older than the invalidated way
    /// move one step younger, so the stack positions of a set's valid
    /// ways stay a permutation of `0..valid` and fit their 4 bits however
    /// many inserts refill the hole.
    pub fn invalidate(&mut self, set: u64, way: u16) -> Option<(u32, bool)> {
        let lru = self.policy != ReplacementPolicy::Srrip;
        let ways = self.set_words_mut(set);
        let e = ways[way as usize];
        if !valid(e) {
            return None;
        }
        ways[way as usize] = e & !VALID;
        if lru {
            for w in ways.iter_mut() {
                if valid(*w) && state_of(*w) > state_of(e) {
                    *w -= 1 << STATE_SHIFT;
                }
            }
        }
        Some((tag_of(e), dirty(e)))
    }

    /// Count of valid entries (test/diagnostic helper; O(sets×ways)).
    pub fn valid_count(&self) -> u64 {
        self.words.iter().filter(|&&w| valid(w)).count() as u64
    }

    /// A compact snapshot of the array: its shape, a bitmap of the
    /// non-zero words and those words in order. An invalidated way keeps
    /// its other bits, so "non-zero" is what the snapshot keeps, not
    /// "valid".
    pub fn to_sparse(&self) -> SparseTags {
        let present: Vec<u64> = self
            .words
            .chunks(64)
            .map(|chunk| {
                let mut bits = 0;
                for (i, &w) in chunk.iter().enumerate() {
                    if w != 0 {
                        bits |= 1 << i;
                    }
                }
                bits
            })
            .collect();
        let kept = present.iter().map(|b| b.count_ones() as usize).sum();
        // Sized exactly, so the snapshot holds no spare capacity; filled
        // from the bitmap, which reads only the kept words again.
        let mut words = Vec::with_capacity(kept);
        for (chunk, &bits) in self.words.chunks(64).zip(&present) {
            let mut bits = bits;
            while bits != 0 {
                words.push(chunk[bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        SparseTags {
            present,
            words,
            sets: self.sets,
            ways: self.ways,
            policy: self.policy,
        }
    }

    /// Serialise the full state into `w` (part of the warm-state byte
    /// image). Layout: sets, ways, policy code, then one
    /// `(tag, valid|dirty flags, state)` record per way, set by set
    /// (padding words are not part of the image).
    pub fn encode(&self, w: &mut ByteWriter) {
        let Self {
            words,
            sets,
            ways,
            policy,
        } = self;
        w.put_u64(*sets);
        w.put_u16(*ways);
        w.put_u8(policy.code());
        let stride = Self::stride_for(*ways);
        for set in words.chunks_exact(stride) {
            for &e in &set[..*ways as usize] {
                w.put_u32(tag_of(e));
                w.put_u8((e & (VALID | DIRTY)) as u8);
                w.put_u8(state_of(e));
            }
        }
    }
}

/// A [`TagArray`] with its zero words left out: what a warm state keeps
/// (see the module docs). Made by [`TagArray::to_sparse`], turned back
/// into the array by [`SparseTags::to_dense`].
#[derive(Clone, Debug)]
pub struct SparseTags {
    /// Bit `i % 64` of `present[i / 64]` is set when word `i` of the
    /// dense array is non-zero.
    present: Vec<u64>,
    /// The non-zero words, in array order.
    words: Vec<u32>,
    sets: u64,
    ways: u16,
    policy: ReplacementPolicy,
}

impl SparseTags {
    /// The dense array this snapshot was taken of, word for word. Only
    /// the pages holding a non-zero word are written; the rest stay as
    /// the allocator zeroed them.
    pub fn to_dense(&self) -> TagArray {
        let mut tags = TagArray::with_policy(self.sets, self.ways, self.policy);
        let mut kept = self.words.iter();
        for (chunk, &bits) in tags.words.chunks_mut(64).zip(&self.present) {
            let mut bits = bits;
            while bits != 0 {
                chunk[bits.trailing_zeros() as usize] =
                    *kept.next().expect("a kept word for every bitmap bit");
                bits &= bits - 1;
            }
        }
        tags
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
    fn widest_tag_round_trips() {
        let mut t = TagArray::with_policy(2, 16, ReplacementPolicy::Lru);
        let out = t.insert(1, MAX_TAG, true);
        assert_eq!(t.lookup(1, MAX_TAG), Some(out.way));
        assert!(t.is_dirty(1, out.way));
        assert_eq!(t.lookup(1, MAX_TAG + 1), None, "a wider tag never aliases");
        assert_eq!(t.lookup(1, u32::MAX), None);
        assert_eq!(t.invalidate(1, out.way), Some((MAX_TAG, true)));
    }

    #[test]
    #[should_panic(expected = "tag 0x4000000 does not fit the 26-bit tag field")]
    fn tag_wider_than_26_bits_panics() {
        TagArray::new(1, 1).insert(0, MAX_TAG + 1, false);
    }

    #[test]
    #[should_panic(expected = "17 ways exceed 16: an LRU stack position has 4 bits")]
    fn more_than_16_ways_panic() {
        TagArray::with_policy(1, MAX_WAYS + 1, ReplacementPolicy::Lru);
    }

    #[test]
    fn lru_stack_stays_bounded_across_invalidates() {
        for policy in ReplacementPolicy::ALL {
            let mut t = TagArray::with_policy(1, 4, policy);
            t.insert(0, 1, false);
            t.insert(0, 2, false);
            // Refill and empty the same hole far more often than a
            // 4-bit stack position could count.
            for tag in 100..140 {
                let out = t.insert(0, tag, false);
                assert_eq!(t.invalidate(0, out.way), Some((tag, false)));
            }
            t.insert(0, 3, false);
            t.insert(0, 4, false);
            let out = t.insert(0, 5, false);
            assert_eq!(
                out.evicted,
                Some((1, false)),
                "{policy:?}: oldest goes first"
            );
        }
    }

    fn encoded(tags: &TagArray) -> Vec<u8> {
        let mut w = ByteWriter::new();
        tags.encode(&mut w);
        w.into_vec()
    }

    /// The two extremes of a snapshot: an empty array keeps no word,
    /// and a full one keeps every word, which makes it exactly 1/32
    /// larger than the array (the bitmap). Both rebuild their array.
    #[test]
    fn snapshots_of_empty_and_full_arrays() {
        for policy in ReplacementPolicy::ALL {
            let empty = TagArray::with_policy(64, 4, policy);
            let snap = empty.to_sparse();
            assert!(snap.words.is_empty(), "{policy:?}");
            assert_eq!(encoded(&snap.to_dense()), encoded(&empty), "{policy:?}");

            let mut full = TagArray::with_policy(64, 4, policy);
            for set in 0..64 {
                for tag in 0..4 {
                    full.insert(set, tag, tag % 2 == 1);
                }
            }
            let snap = full.to_sparse();
            assert_eq!(snap.words.len(), full.words.len(), "{policy:?}");
            assert_eq!(snap.words.capacity(), snap.words.len(), "{policy:?}");
            let dense_bytes = full.words.len() * 4;
            let snap_bytes = snap.present.len() * 8 + snap.words.len() * 4;
            assert_eq!(snap_bytes, dense_bytes + dense_bytes / 32, "{policy:?}");
            assert_eq!(encoded(&snap.to_dense()), encoded(&full), "{policy:?}");
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
