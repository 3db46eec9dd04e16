//! Property-based tests: the functional tag array against a reference
//! model and against the entry-array layout it replaced, geometry
//! round-trips, and FSM access-count invariants.

use dca_dram::MappingScheme;
use dca_dram_cache::tags::MAX_TAG;
use dca_dram_cache::{
    CacheGeometry, CacheReqKind, CacheRequest, InsertOutcome, OrgKind, ReplacementPolicy,
    RequestFsm, TagArray,
};
use dca_sim_core::ByteWriter;
use proptest::prelude::*;
use std::collections::HashMap;

const RRPV_MAX: u8 = 3;
const RRPV_INSERT: u8 = 2;

#[derive(Clone, Copy, Debug, Default)]
struct TagEntry {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Per-way replacement state: the RRPV under SRRIP, the LRU stack
    /// position (0 = MRU) under the LRU family.
    state: u8,
}

/// The tag array as one array of 8-byte entries, the layout before ways
/// were packed into `u32` words, kept as the oracle of
/// `tag_array_matches_entry_array_oracle`. It is that code less its
/// accessors, with one change, marked in `invalidate`.
struct TagEntryArray {
    entries: Vec<TagEntry>,
    sets: u64,
    ways: u16,
    policy: ReplacementPolicy,
}

impl TagEntryArray {
    /// An all-invalid array governed by `policy`.
    fn with_policy(sets: u64, ways: u16, policy: ReplacementPolicy) -> Self {
        assert!(ways >= 1);
        assert!(sets >= 1);
        TagEntryArray {
            entries: vec![TagEntry::default(); (sets * ways as u64) as usize],
            sets,
            ways,
            policy,
        }
    }

    #[inline]
    fn base(&self, set: u64) -> usize {
        debug_assert!(set < self.sets);
        (set * self.ways as u64) as usize
    }

    /// Look up `tag` in `set`; returns the way on a hit. Pure.
    fn lookup(&self, set: u64, tag: u32) -> Option<u16> {
        let base = self.base(set);
        self.entries[base..base + self.ways as usize]
            .iter()
            .position(|e| e.valid && e.tag == tag)
            .map(|w| w as u16)
    }

    /// Whether (set, way) currently holds dirty data.
    fn is_dirty(&self, set: u64, way: u16) -> bool {
        self.entries[self.base(set) + way as usize].dirty
    }

    /// Record a hit on (set, way): promote its replacement state.
    fn touch(&mut self, set: u64, way: u16) {
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
    fn set_dirty(&mut self, set: u64, way: u16, dirty: bool) {
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
    fn victim_way(&self, set: u64) -> (u16, Option<(u32, bool)>) {
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
    fn insert(&mut self, set: u64, tag: u32, dirty: bool) -> InsertOutcome {
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
    fn invalidate(&mut self, set: u64, way: u16) -> Option<(u32, bool)> {
        let base = self.base(set);
        let e = &mut self.entries[base + way as usize];
        if e.valid {
            e.valid = false;
            let (tag, dirty, state) = (e.tag, e.dirty, e.state);
            // The one change from the entry-array code: close the LRU
            // stack gap, which that code left open (positions then grew
            // past `ways - 1` with every refill of the hole).
            if self.policy != ReplacementPolicy::Srrip {
                for o in &mut self.entries[base..base + self.ways as usize] {
                    if o.valid && o.state > state {
                        o.state -= 1;
                    }
                }
            }
            Some((tag, dirty))
        } else {
            None
        }
    }

    /// Count of valid entries (test/diagnostic helper; O(sets×ways)).
    fn valid_count(&self) -> u64 {
        self.entries.iter().filter(|e| e.valid).count() as u64
    }

    /// Serialise the full state into `w` (part of the warm-state byte
    /// image). Layout: sets, ways, policy code, then one
    /// `(tag, valid|dirty flags, state)` record per entry.
    fn encode(&self, w: &mut ByteWriter) {
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

proptest! {
    /// TagArray agrees with a reference map on membership after an
    /// arbitrary interleaving of inserts, touches and invalidates, and
    /// never exceeds its associativity per set.
    #[test]
    fn tag_array_matches_reference(
        ops in prop::collection::vec((0u64..32, 0u32..64, any::<bool>()), 1..300)
    ) {
        let ways = 4u16;
        let mut tags = TagArray::new(32, ways);
        let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
        for (set, tag, dirty) in ops {
            match tags.lookup(set, tag) {
                Some(way) => {
                    tags.touch(set, way);
                    tags.set_dirty(set, way, dirty);
                    prop_assert!(reference.get(&set).is_some_and(|v| v.contains(&tag)));
                }
                None => {
                    let out = tags.insert(set, tag, dirty);
                    let entry = reference.entry(set).or_default();
                    if let Some((victim, _)) = out.evicted {
                        entry.retain(|&t| t != victim);
                    }
                    entry.push(tag);
                    prop_assert!(entry.len() <= ways as usize, "set overflow");
                }
            }
            // Membership check both ways.
            for (&s, v) in &reference {
                for &t in v {
                    prop_assert!(tags.lookup(s, t).is_some(), "lost tag {t} in set {s}");
                }
            }
        }
    }

    /// The packed array behaves exactly like the entry-array layout it
    /// replaced under every policy at 1, 4 and 15 ways (15 leaves a
    /// padding word in each set): the same return value from every
    /// call, the same `valid_count` after each, and the same `encode`
    /// bytes at the end. `touch` follows a hit, as in the model; the
    /// other calls take any way. Some tags sit at the 26-bit limit.
    #[test]
    fn tag_array_matches_entry_array_oracle(
        ops in prop::collection::vec(
            (0u8..10, 0u64..4, 0u32..32, any::<bool>(), 0u16..16, 0u8..8), 1..500
        )
    ) {
        let sets = 4u64;
        for ways in [1u16, 4, 15] {
            for policy in ReplacementPolicy::ALL {
                let mut tags = TagArray::with_policy(sets, ways, policy);
                let mut oracle = TagEntryArray::with_policy(sets, ways, policy);
                for &(op, set, low, flag, way, far) in &ops {
                    let tag = low % (ways as u32 + 3) + if far == 0 { MAX_TAG - 34 } else { 0 };
                    let way = way % ways;
                    let at = format!("{policy:?}, {ways} ways, op {op}, set {set}, tag {tag}, way {way}");
                    match op {
                        0..=2 => {
                            let hit = tags.lookup(set, tag);
                            prop_assert_eq!(hit, oracle.lookup(set, tag), "lookup: {}", at);
                            match hit {
                                Some(w) => {
                                    tags.touch(set, w);
                                    oracle.touch(set, w);
                                }
                                None => prop_assert_eq!(
                                    tags.insert(set, tag, flag),
                                    oracle.insert(set, tag, flag),
                                    "insert: {}", at
                                ),
                            }
                        }
                        3 | 4 => prop_assert_eq!(
                            tags.insert(set, tag, flag),
                            oracle.insert(set, tag, flag),
                            "insert: {}", at
                        ),
                        5 => prop_assert_eq!(tags.victim_way(set), oracle.victim_way(set), "victim_way: {}", at),
                        6 => {
                            tags.set_dirty(set, way, flag);
                            oracle.set_dirty(set, way, flag);
                        }
                        7 => prop_assert_eq!(tags.is_dirty(set, way), oracle.is_dirty(set, way), "is_dirty: {}", at),
                        _ => prop_assert_eq!(tags.invalidate(set, way), oracle.invalidate(set, way), "invalidate: {}", at),
                    }
                    prop_assert_eq!(tags.valid_count(), oracle.valid_count(), "valid_count: {}", at);
                }
                let (mut got, mut want) = (ByteWriter::new(), ByteWriter::new());
                tags.encode(&mut got);
                oracle.encode(&mut want);
                prop_assert!(got.into_vec() == want.into_vec(), "{:?}, {} ways: encode bytes differ", policy, ways);
            }
        }
    }

    /// Block placement round-trips: set + tag uniquely reconstruct the
    /// block, and all of a block's accesses land in one row frame.
    #[test]
    fn geometry_round_trip(blocks in prop::collection::vec(0u64..(1 << 34), 1..100), dm in any::<bool>()) {
        let kind = if dm { OrgKind::DirectMapped } else { OrgKind::paper_set_assoc() };
        let geom = CacheGeometry::paper(kind, MappingScheme::Direct);
        for b in blocks {
            let p = geom.place(b);
            prop_assert_eq!(p.set + p.tag as u64 * geom.num_sets(), b);
            prop_assert!(p.loc.channel < 4);
            prop_assert!(p.loc.bank < 16);
            prop_assert!((p.loc.row as u64) < 1024);
        }
    }

    /// Fig 2 access-count invariants: a demand read is 1 access on a
    /// miss and ≤3 on a hit (SA) or exactly 1 (DM); a writeback is ≤4.
    #[test]
    fn fsm_access_counts_match_fig2(
        block in 0u64..(1 << 30),
        dm in any::<bool>(),
        warm in any::<bool>(),
        wb in any::<bool>(),
    ) {
        let kind = if dm { OrgKind::DirectMapped } else { OrgKind::paper_set_assoc() };
        let geom = CacheGeometry::paper(kind, MappingScheme::Direct);
        let mut tags = TagArray::new(geom.num_sets(), kind.ways());
        if warm {
            let p = geom.place(block);
            tags.insert(p.set, p.tag, false);
        }
        let req = CacheRequest {
            id: 1,
            kind: if wb { CacheReqKind::Writeback } else { CacheReqKind::Read },
            block,
            app: 0,
            pc: 0,
        };
        let (mut fsm, first) = RequestFsm::start(req, &geom);
        let mut pending = first;
        let mut total = 0usize;
        let mut guard = 0;
        while !pending.is_empty() {
            guard += 1;
            prop_assert!(guard < 16, "fsm did not converge");
            let spec = pending.remove(0);
            total += 1;
            let out = fsm.on_access_done(spec.role, &mut tags, &geom);
            pending.extend(out.enqueue);
        }
        match (dm, wb, warm) {
            (true, false, _) => prop_assert_eq!(total, 1),          // DM read: 1 TAD
            (true, true, _) => prop_assert_eq!(total, 2),           // DM wb: TAD rd + TAD wr
            (false, false, true) => prop_assert_eq!(total, 3),      // SA read hit: RT+RD+WT
            (false, false, false) => prop_assert_eq!(total, 1),     // SA read miss: RT
            (false, true, _) => prop_assert!((3..=4).contains(&total)), // SA wb: RT+WD+WT (+RDw)
        }
    }

    /// Functional coherence: after a writeback to a block, a read of the
    /// same block hits; after eviction it misses.
    #[test]
    fn writeback_then_read_hits(block in 0u64..(1 << 28)) {
        let geom = CacheGeometry::paper(OrgKind::DirectMapped, MappingScheme::Direct);
        let mut tags = TagArray::new(geom.num_sets(), 1);
        let wb = CacheRequest { id: 1, kind: CacheReqKind::Writeback, block, app: 0, pc: 0 };
        let (mut fsm, first) = RequestFsm::start(wb, &geom);
        let mut pending = first;
        while !pending.is_empty() {
            let spec = pending.remove(0);
            let out = fsm.on_access_done(spec.role, &mut tags, &geom);
            pending.extend(out.enqueue);
        }
        let rd = CacheRequest { id: 2, kind: CacheReqKind::Read, block, app: 0, pc: 0 };
        let (mut fsm2, first2) = RequestFsm::start(rd, &geom);
        let out = fsm2.on_access_done(first2[0].role, &mut tags, &geom);
        prop_assert!(out.respond_hit, "block written back must be readable");
        // A conflicting block evicts it (direct-mapped).
        let other = block + geom.num_sets();
        let rf = CacheRequest { id: 3, kind: CacheReqKind::Refill, block: other, app: 0, pc: 0 };
        let (mut fsm3, first3) = RequestFsm::start(rf, &geom);
        let mut pending = first3;
        while !pending.is_empty() {
            let spec = pending.remove(0);
            let out = fsm3.on_access_done(spec.role, &mut tags, &geom);
            pending.extend(out.enqueue);
        }
        let rd2 = CacheRequest { id: 4, kind: CacheReqKind::Read, block, app: 0, pc: 0 };
        let (mut fsm4, first4) = RequestFsm::start(rd2, &geom);
        let out = fsm4.on_access_done(first4[0].role, &mut tags, &geom);
        prop_assert!(out.respond_miss, "evicted block must miss");
    }
}

// Replacement-policy invariants, checked for *every* policy the layer
// offers: the same op stream drives each policy's array, so a policy
// whose bookkeeping drifts (bad stack permutation, RRPV overflow, a
// victim outside the set) fails here before it can skew a figure.
proptest! {
    /// The victim is always a real way of the set, only a full set
    /// evicts, the evicted tag is resident, and `victim_way` exactly
    /// prophesies what `insert` then does.
    #[test]
    fn victim_is_always_a_valid_way_under_every_policy(
        ops in prop::collection::vec((0u64..16, 0u32..48, any::<bool>()), 1..200)
    ) {
        let (sets, ways) = (16u64, 4u16);
        for policy in ReplacementPolicy::ALL {
            let mut tags = TagArray::with_policy(sets, ways, policy);
            let mut resident: HashMap<u64, Vec<u32>> = HashMap::new();
            for &(set, tag, dirty) in &ops {
                if let Some(way) = tags.lookup(set, tag) {
                    tags.touch(set, way);
                    tags.set_dirty(set, way, dirty);
                    continue;
                }
                let entry = resident.entry(set).or_default();
                let (way, predicted) = tags.victim_way(set);
                prop_assert!(way < ways, "{policy:?}: victim way {way} out of range");
                prop_assert_eq!(
                    predicted.is_some(),
                    entry.len() == ways as usize,
                    "{policy:?}: eviction iff the set is full"
                );
                if let Some((vt, _)) = predicted {
                    prop_assert!(
                        entry.contains(&vt),
                        "{policy:?}: predicted victim {vt} is not resident in set {set}"
                    );
                }
                let out = tags.insert(set, tag, dirty);
                prop_assert_eq!(
                    (out.way, out.evicted),
                    (way, predicted),
                    "{policy:?}: victim_way must prophesy insert exactly"
                );
                if let Some((vt, _)) = out.evicted {
                    entry.retain(|&t| t != vt);
                }
                entry.push(tag);
                prop_assert!(entry.len() <= ways as usize, "{policy:?}: set overflow");
            }
        }
    }

    /// Promoting a hit never changes residency: no eviction, no lost
    /// tags, and the promoted block stays in its way.
    #[test]
    fn hit_promotion_never_evicts_under_every_policy(
        ops in prop::collection::vec((0u64..8, 0u32..24, any::<bool>()), 1..250)
    ) {
        for policy in ReplacementPolicy::ALL {
            let mut tags = TagArray::with_policy(8, 4, policy);
            let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
            for &(set, tag, dirty) in &ops {
                match tags.lookup(set, tag) {
                    Some(way) => {
                        let before = tags.valid_count();
                        tags.touch(set, way);
                        tags.set_dirty(set, way, dirty);
                        prop_assert_eq!(
                            tags.valid_count(),
                            before,
                            "{policy:?}: a hit promotion changed residency"
                        );
                        prop_assert_eq!(
                            tags.lookup(set, tag),
                            Some(way),
                            "{policy:?}: promoted block moved ways"
                        );
                    }
                    None => {
                        let out = tags.insert(set, tag, dirty);
                        let entry = reference.entry(set).or_default();
                        if let Some((vt, _)) = out.evicted {
                            entry.retain(|&t| t != vt);
                        }
                        entry.push(tag);
                    }
                }
                for (&s, v) in &reference {
                    for &t in v {
                        prop_assert!(
                            tags.lookup(s, t).is_some(),
                            "{policy:?}: lost tag {t} in set {s} after a promotion"
                        );
                    }
                }
            }
        }
    }

    /// Insert/invalidate round-trips preserve `valid_count`: an insert
    /// changes it by exactly the net fill, invalidating the inserted
    /// way returns exactly what went in, and a double invalidate is a
    /// no-op.
    #[test]
    fn insert_invalidate_round_trips_preserve_valid_count_under_every_policy(
        ops in prop::collection::vec(
            (0u64..8, 0u32..32, any::<bool>(), any::<bool>()), 1..200
        )
    ) {
        for policy in ReplacementPolicy::ALL {
            let mut tags = TagArray::with_policy(8, 4, policy);
            for &(set, tag, dirty, undo) in &ops {
                if tags.lookup(set, tag).is_some() {
                    continue;
                }
                let before = tags.valid_count();
                let out = tags.insert(set, tag, dirty);
                let expect = before + 1 - u64::from(out.evicted.is_some());
                prop_assert_eq!(
                    tags.valid_count(),
                    expect,
                    "{policy:?}: insert must change valid_count by the net fill"
                );
                if undo {
                    prop_assert_eq!(
                        tags.invalidate(set, out.way),
                        Some((tag, dirty)),
                        "{policy:?}: invalidate must return the inserted block"
                    );
                    prop_assert!(
                        tags.lookup(set, tag).is_none(),
                        "{policy:?}: invalidated block still hits"
                    );
                    prop_assert_eq!(
                        tags.invalidate(set, out.way),
                        None,
                        "{policy:?}: double invalidate must be a no-op"
                    );
                    prop_assert_eq!(
                        tags.valid_count(),
                        expect - 1,
                        "{policy:?}: round-trip must restore valid_count"
                    );
                }
            }
        }
    }
}
