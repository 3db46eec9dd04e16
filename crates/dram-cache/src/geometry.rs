//! Cache geometry: block addresses → sets, slots and DRAM locations.
//!
//! Both organisations carve the stacked DRAM into 4 KB row frames of 64
//! 64-byte slots. Four slots per row hold tags, sixty hold data — giving
//! the paper's "256 MB (240 MB data capacity)" (Table II):
//!
//! * **Set-associative**: slots 0–3 are the tag blocks of the row's four
//!   sets; set `s`'s fifteen ways live in slots `4 + 15·s .. 4 + 15·(s+1)`.
//! * **Direct-mapped**: the same sixty data slots each hold one block's
//!   TAD (tag-and-data); tags ride in the spare slot capacity and move
//!   with the data in a single 80-byte burst, so no separate tag slot is
//!   ever addressed.

use dca_dram::{
    AccessKind, AddressMapper, BurstLen, DramAccess, Location, MappingScheme, Organization,
};

/// Which cache organisation is in force.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// Loh–Hill-style tags-in-row set-associative cache.
    SetAssoc {
        /// Associativity (paper: 15).
        ways: u16,
    },
    /// Alloy-style direct-mapped TAD cache.
    DirectMapped,
}

impl OrgKind {
    /// The paper's 15-way set-associative configuration.
    pub fn paper_set_assoc() -> Self {
        OrgKind::SetAssoc { ways: 15 }
    }

    /// Associativity of this organisation.
    pub fn ways(&self) -> u16 {
        match self {
            OrgKind::SetAssoc { ways } => *ways,
            OrgKind::DirectMapped => 1,
        }
    }

    /// Short label for reports ("SA"/"DM").
    pub fn label(&self) -> &'static str {
        match self {
            OrgKind::SetAssoc { .. } => "SA",
            OrgKind::DirectMapped => "DM",
        }
    }
}

/// Where a block lives (or would live) in the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockPlace {
    /// Global set index (direct-mapped: the slot index acts as the set).
    pub set: u64,
    /// Tag value to match within the set.
    pub tag: u32,
    /// Row frame index in the device.
    pub frame: u64,
    /// DRAM location of the frame (channel, bank, row).
    pub loc: Location,
    /// Set index within the row (SA: 0..4) or data slot within the row
    /// (DM: 0..60).
    pub slot_in_row: u32,
}

/// Full geometry: organisation kind + device shape + address mapping.
#[derive(Clone, Copy, Debug)]
pub struct CacheGeometry {
    kind: OrgKind,
    org: Organization,
    mapper: AddressMapper,
    sets_per_row: u64,
    data_slots_per_row: u64,
}

/// Data slots in a 4 KB row (64 total minus 4 tag slots).
const DATA_SLOTS: u64 = 60;
/// Sets per row in the set-associative organisation.
const SA_SETS_PER_ROW: u64 = 4;

impl CacheGeometry {
    /// Geometry for `kind` over `org` with mapping `scheme`.
    pub fn new(kind: OrgKind, org: Organization, scheme: MappingScheme) -> Self {
        if let OrgKind::SetAssoc { ways } = kind {
            assert_eq!(
                ways as u64 * SA_SETS_PER_ROW,
                DATA_SLOTS,
                "set-associative geometry must fill the 60 data slots"
            );
        }
        CacheGeometry {
            kind,
            org,
            mapper: AddressMapper::new(&org, scheme),
            sets_per_row: match kind {
                OrgKind::SetAssoc { .. } => SA_SETS_PER_ROW,
                OrgKind::DirectMapped => DATA_SLOTS,
            },
            data_slots_per_row: DATA_SLOTS,
        }
    }

    /// The paper's configuration for `kind` (256 MB device, RoBaRaChCo).
    pub fn paper(kind: OrgKind, scheme: MappingScheme) -> Self {
        Self::new(kind, Organization::paper(), scheme)
    }

    /// Organisation kind.
    pub fn kind(&self) -> OrgKind {
        self.kind
    }

    /// Device organisation.
    pub fn org(&self) -> &Organization {
        &self.org
    }

    /// The address mapper (for RRPC global-bank ids etc.).
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Total sets in the cache.
    pub fn num_sets(&self) -> u64 {
        self.mapper.frames() * self.sets_per_row
    }

    /// Data capacity in bytes (the paper's 240 MB).
    pub fn data_capacity_bytes(&self) -> u64 {
        self.mapper.frames() * self.data_slots_per_row * 64
    }

    /// Locate `block` (a 64-byte block address, i.e. byte address >> 6).
    pub fn place(&self, block: u64) -> BlockPlace {
        let set = block % self.num_sets();
        let tag = u32::try_from(block / self.num_sets()).expect("block's tag exceeds 32 bits");
        let frame = set / self.sets_per_row;
        let slot_in_row = (set % self.sets_per_row) as u32;
        BlockPlace {
            set,
            tag,
            frame,
            loc: self.mapper.locate(frame),
            slot_in_row,
        }
    }

    /// The tag-block access for a set-associative request.
    ///
    /// # Panics
    /// Panics for direct-mapped geometry — DM never addresses a tag slot.
    pub fn tag_access(&self, place: &BlockPlace, kind: AccessKind) -> DramAccess {
        assert!(
            matches!(self.kind, OrgKind::SetAssoc { .. }),
            "tag slots only exist in the set-associative organisation"
        );
        DramAccess {
            bank: place.loc.bank,
            row: place.loc.row,
            kind,
            burst: BurstLen::Block64,
        }
    }

    /// A data access for way `way` of the set (set-associative).
    pub fn data_access(&self, place: &BlockPlace, _way: u16, kind: AccessKind) -> DramAccess {
        assert!(matches!(self.kind, OrgKind::SetAssoc { .. }));
        DramAccess {
            bank: place.loc.bank,
            row: place.loc.row,
            kind,
            burst: BurstLen::Block64,
        }
    }

    /// A fused TAD access (direct-mapped): one 80-byte burst.
    pub fn tad_access(&self, place: &BlockPlace, kind: AccessKind) -> DramAccess {
        assert!(matches!(self.kind, OrgKind::DirectMapped));
        DramAccess {
            bank: place.loc.bank,
            row: place.loc.row,
            kind,
            burst: BurstLen::Tad80,
        }
    }

    /// Global bank id of the place, for the DCA RRPC counters.
    pub fn global_bank(&self, place: &BlockPlace) -> u32 {
        self.mapper.global_bank(place.loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa() -> CacheGeometry {
        CacheGeometry::paper(OrgKind::paper_set_assoc(), MappingScheme::Direct)
    }

    fn dm() -> CacheGeometry {
        CacheGeometry::paper(OrgKind::DirectMapped, MappingScheme::Direct)
    }

    #[test]
    fn capacities_match_table2() {
        // 240 MB of data in both organisations.
        assert_eq!(sa().data_capacity_bytes(), 240 * 1024 * 1024);
        assert_eq!(dm().data_capacity_bytes(), 240 * 1024 * 1024);
        // SA: 65536 frames x 4 sets; DM: 65536 x 60 slots.
        assert_eq!(sa().num_sets(), 262_144);
        assert_eq!(dm().num_sets(), 3_932_160);
    }

    #[test]
    fn consecutive_blocks_share_rows() {
        // SA: 4 consecutive sets (blocks) per row; DM: 60 per row.
        let g = sa();
        let p0 = g.place(0);
        let p3 = g.place(3);
        let p4 = g.place(4);
        assert_eq!(p0.frame, p3.frame);
        assert_ne!(p0.frame, p4.frame);

        let g = dm();
        let p0 = g.place(0);
        let p59 = g.place(59);
        let p60 = g.place(60);
        assert_eq!(p0.frame, p59.frame);
        assert_ne!(p0.frame, p60.frame);
    }

    #[test]
    fn tag_extraction_round_trips() {
        let g = sa();
        let sets = g.num_sets();
        for &block in &[0u64, 1, sets - 1, sets, 7 * sets + 123, 1 << 30] {
            let p = g.place(block);
            assert_eq!(p.set + p.tag as u64 * sets, block, "block {block}");
        }
    }

    #[test]
    fn widest_tag_is_placed() {
        let g = dm();
        assert_eq!(g.place((g.num_sets() << 32) - 1).tag, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "block's tag exceeds 32 bits")]
    fn tag_wider_than_32_bits_panics() {
        let g = dm();
        g.place(g.num_sets() << 32);
    }

    #[test]
    fn blocks_with_same_set_different_tag_collide() {
        let g = dm();
        let a = g.place(42);
        let b = g.place(42 + g.num_sets());
        assert_eq!(a.set, b.set);
        assert_ne!(a.tag, b.tag);
        assert_eq!(a.loc, b.loc);
    }

    #[test]
    fn sa_access_kinds() {
        let g = sa();
        let p = g.place(1234);
        let t = g.tag_access(&p, AccessKind::Read);
        assert_eq!(t.burst, BurstLen::Block64);
        assert_eq!(t.bank, p.loc.bank);
        assert_eq!(t.row, p.loc.row);
        let d = g.data_access(&p, 7, AccessKind::Write);
        assert_eq!(d.kind, AccessKind::Write);
    }

    #[test]
    fn dm_uses_tad_bursts() {
        let g = dm();
        let p = g.place(1234);
        let a = g.tad_access(&p, AccessKind::Read);
        assert_eq!(a.burst, BurstLen::Tad80);
    }

    #[test]
    #[should_panic(expected = "tag slots only exist")]
    fn dm_tag_access_panics() {
        let g = dm();
        let p = g.place(0);
        g.tag_access(&p, AccessKind::Read);
    }

    #[test]
    fn ways_and_labels() {
        assert_eq!(OrgKind::paper_set_assoc().ways(), 15);
        assert_eq!(OrgKind::DirectMapped.ways(), 1);
        assert_eq!(OrgKind::paper_set_assoc().label(), "SA");
        assert_eq!(OrgKind::DirectMapped.label(), "DM");
    }

    #[test]
    #[should_panic(expected = "60 data slots")]
    fn bad_associativity_panics() {
        CacheGeometry::paper(OrgKind::SetAssoc { ways: 8 }, MappingScheme::Direct);
    }

    #[test]
    fn xor_scheme_changes_banks_only() {
        let d = sa();
        let x = CacheGeometry::paper(OrgKind::paper_set_assoc(), MappingScheme::XorRemap);
        let mut diffs = 0;
        for block in (0..100_000u64).step_by(997) {
            let a = d.place(block);
            let b = x.place(block);
            assert_eq!(a.set, b.set);
            assert_eq!(a.loc.channel, b.loc.channel);
            assert_eq!(a.loc.row, b.loc.row);
            if a.loc.bank != b.loc.bank {
                diffs += 1;
            }
        }
        assert!(diffs > 0, "remap must move some banks");
    }
}
