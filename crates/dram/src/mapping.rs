//! Address decomposition: cache row frames → (channel, bank, row).
//!
//! The paper uses RoBaRaChCo order (MSB→LSB: Row, Bank, Rank, Channel,
//! Column). The column bits index within a 4 KB row buffer, so what this
//! module maps is the *row-frame index*: the DRAM cache is carved into
//! 4 KB frames, frame `i` lands on a specific (channel, bank, row), with
//! channel varying fastest, then bank, then row — exactly RoBaRaChCo with
//! one rank.
//!
//! The permutation-based remapping of Zhang et al. \[9\] (§VI-A "With
//! Remapping") XORs the bank index with the low bits of the row index, so
//! that streams which would repeatedly conflict in one bank spread across
//! banks instead. The paper shows this mitigates read-read conflicts (RRC)
//! but *not* read priority inversion — which is why DCA still wins with
//! remapping enabled.

use crate::params::Organization;

/// A physical location in the stacked-DRAM device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Bank within the channel.
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
}

/// Which bank-index permutation to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MappingScheme {
    /// Plain RoBaRaChCo decomposition.
    #[default]
    Direct,
    /// RoBaRaChCo with the permutation-based XOR remap \[9\]: the bank index
    /// is XORed with the low `log2(banks)` bits of the row index.
    XorRemap,
}

/// Maps row-frame indices to device locations.
#[derive(Clone, Copy, Debug)]
pub struct AddressMapper {
    channels: u64,
    banks: u64,
    rows: u64,
    scheme: MappingScheme,
}

impl AddressMapper {
    /// A mapper for `org` using `scheme`.
    pub fn new(org: &Organization, scheme: MappingScheme) -> Self {
        AddressMapper {
            channels: org.channels as u64,
            banks: org.banks_per_channel() as u64,
            rows: org.rows_per_bank as u64,
            scheme,
        }
    }

    /// Number of row frames this mapper covers.
    pub fn frames(&self) -> u64 {
        self.channels * self.banks * self.rows
    }

    /// The scheme in force.
    pub fn scheme(&self) -> MappingScheme {
        self.scheme
    }

    /// Decompose row-frame index `frame` into a device location.
    ///
    /// # Panics
    /// Panics if `frame >= self.frames()`.
    pub fn locate(&self, frame: u64) -> Location {
        assert!(frame < self.frames(), "frame {frame} out of range");
        let channel = frame % self.channels;
        let bank_raw = (frame / self.channels) % self.banks;
        let row = frame / (self.channels * self.banks);
        let bank = match self.scheme {
            MappingScheme::Direct => bank_raw,
            MappingScheme::XorRemap => bank_raw ^ (row & (self.banks - 1)),
        };
        Location {
            channel: channel as u32,
            bank: bank as u32,
            row: row as u32,
        }
    }

    /// Globally unique bank id in `0..channels*banks` for a location —
    /// the index space of the DCA controller's RRPC counters (§IV-C).
    pub fn global_bank(&self, loc: Location) -> u32 {
        loc.channel * self.banks as u32 + loc.bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_sim_core::FastHashMap;
    use std::collections::BTreeSet;

    fn mapper(scheme: MappingScheme) -> AddressMapper {
        AddressMapper::new(&Organization::paper(), scheme)
    }

    #[test]
    fn frame_count_matches_org() {
        let m = mapper(MappingScheme::Direct);
        assert_eq!(m.frames(), 65_536);
    }

    #[test]
    fn consecutive_frames_stripe_channels_first() {
        let m = mapper(MappingScheme::Direct);
        let locs: Vec<Location> = (0..8).map(|f| m.locate(f)).collect();
        // Channel varies fastest (RoBaRaChCo: channel bits just above column).
        assert_eq!(locs[0].channel, 0);
        assert_eq!(locs[1].channel, 1);
        assert_eq!(locs[2].channel, 2);
        assert_eq!(locs[3].channel, 3);
        assert_eq!(locs[4].channel, 0);
        assert_eq!(locs[4].bank, 1); // then bank increments
        assert!(locs.iter().all(|l| l.row == 0));
    }

    #[test]
    fn direct_mapping_is_bijective() {
        let m = mapper(MappingScheme::Direct);
        let mut seen = FastHashMap::default();
        for f in 0..m.frames() {
            assert!(seen.insert(m.locate(f), ()).is_none(), "frame {f} collided");
        }
    }

    #[test]
    fn xor_mapping_is_bijective() {
        let m = mapper(MappingScheme::XorRemap);
        let mut seen = FastHashMap::default();
        for f in 0..m.frames() {
            assert!(seen.insert(m.locate(f), ()).is_none(), "frame {f} collided");
        }
    }

    #[test]
    fn xor_spreads_same_bank_rows() {
        // Frames that land in the same bank with Direct mapping but in
        // different rows get different banks under XorRemap — the property
        // that kills repeated read-read conflicts from strided streams.
        let d = mapper(MappingScheme::Direct);
        let x = mapper(MappingScheme::XorRemap);
        let stride = 4 * 16; // same channel, same bank, consecutive rows
        let banks_direct: BTreeSet<u32> = (0..16u64).map(|i| d.locate(i * stride).bank).collect();
        let banks_xor: BTreeSet<u32> = (0..16u64).map(|i| x.locate(i * stride).bank).collect();
        assert_eq!(banks_direct.len(), 1, "direct: all in one bank");
        assert_eq!(banks_xor.len(), 16, "xor: spread across all banks");
    }

    #[test]
    fn xor_preserves_channel_and_row() {
        let d = mapper(MappingScheme::Direct);
        let x = mapper(MappingScheme::XorRemap);
        for f in (0..65_536u64).step_by(257) {
            let a = d.locate(f);
            let b = x.locate(f);
            assert_eq!(a.channel, b.channel);
            assert_eq!(a.row, b.row);
        }
    }

    #[test]
    fn global_bank_is_unique_per_channel_bank() {
        let m = mapper(MappingScheme::Direct);
        let mut seen = BTreeSet::new();
        for ch in 0..4 {
            for b in 0..16 {
                let g = m.global_bank(Location {
                    channel: ch,
                    bank: b,
                    row: 0,
                });
                assert!(g < 64);
                assert!(seen.insert(g));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_frame_panics() {
        mapper(MappingScheme::Direct).locate(65_536);
    }
}
