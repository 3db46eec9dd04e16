//! System configuration (paper Table II).

use dca_dram::{MappingScheme, Organization, TimingParams};
use dca_dram_cache::{OrgKind, ReplacementPolicy};
use dca_mem_hier::MainMemConfig;
use dca_sched::{DrainPolicy, MAX_BANKS, MAX_CAPACITY};

use crate::controller::{ADMIT_SLOTS, SCHEDULE_ALL_HI};

/// The controller designs raced against each other: the paper's three
/// plus a Banshee-style bandwidth-efficient fourth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Design {
    /// Conventional Design (§III-A): queue by access type.
    Cd,
    /// Request-Oriented Design (§III-B): queue by request type.
    Rod,
    /// DRAM-Cache-Aware (§IV): CD queues + PR/LR split + OFS.
    Dca,
    /// Banshee-style bandwidth-efficient design (Yu et al.): CD queues,
    /// but miss fills are gated by page-granular frequency counters so
    /// cold pages bypass the cache and fill traffic drops
    /// ([`crate::system::BANSHEE_FILL_THRESHOLD`],
    /// [`crate::system::BANSHEE_COUNTER_CAP`]).
    Banshee,
}

impl Design {
    /// All designs, the paper's three in presentation order first.
    pub const ALL: [Design; 4] = [Design::Cd, Design::Rod, Design::Dca, Design::Banshee];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Design::Cd => "CD",
            Design::Rod => "ROD",
            Design::Dca => "DCA",
            Design::Banshee => "BAN",
        }
    }
}

/// Which event engine drives the simulation loop. Both deliver events
/// in the same total `(time, seq)` order, so the choice cannot affect
/// results — `tests/engine_equivalence.rs` locks them to bit-identical
/// report digests. The knob selects wall-clock behaviour only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineSel {
    /// The original `BinaryHeap` engine — the A/B oracle and perf
    /// baseline.
    Heap,
    /// Two-level calendar queue at the fixed
    /// [`SystemConfig::event_slot_shift`] slot width (default).
    #[default]
    Calendar,
}

/// Full system configuration: the values the experiments vary, plus the
/// stacked-DRAM timing and geometry and the L1 latency.
///
/// The rest of Table II is the same in every experiment, so it is a
/// constant beside the code that uses it:
///
/// * BLISS ([`dca_sched::Bliss`]) arbitrates every design's queues.
/// * The write-queue drain marks, 50 %/85 %, are [`DrainPolicy::LO`] and
///   [`DrainPolicy::HI`].
/// * Algorithm 1's ScheduleAll band, 75 %/85 %, is [`SCHEDULE_ALL_LO`]
///   and [`SCHEDULE_ALL_HI`].
/// * The L2 hit latency (20 cycles) and the shared L2 MSHR count (32)
///   are [`L2_LAT_CYCLES`] and [`MSHRS`].
/// * The MAP-I hit/miss predictor \[7\] is always on.
/// * Banshee's fill gate is [`BANSHEE_FILL_THRESHOLD`] and
///   [`BANSHEE_COUNTER_CAP`].
/// * Main memory's latencies, geometry and queue size are constants of
///   [`dca_mem_hier::memory`]: [`FLAT_LATENCY`], [`FLAT_BUS_TIME`],
///   [`CYCLE_ORG`], [`CYCLE_EXTRA_LATENCY`] and [`CYCLE_QUEUE_CAP`].
///
/// [`SCHEDULE_ALL_LO`]: crate::controller::SCHEDULE_ALL_LO
/// [`L2_LAT_CYCLES`]: crate::system::L2_LAT_CYCLES
/// [`MSHRS`]: crate::system::MSHRS
/// [`BANSHEE_FILL_THRESHOLD`]: crate::system::BANSHEE_FILL_THRESHOLD
/// [`BANSHEE_COUNTER_CAP`]: crate::system::BANSHEE_COUNTER_CAP
/// [`FLAT_LATENCY`]: dca_mem_hier::memory::FLAT_LATENCY
/// [`FLAT_BUS_TIME`]: dca_mem_hier::memory::FLAT_BUS_TIME
/// [`CYCLE_ORG`]: dca_mem_hier::memory::CYCLE_ORG
/// [`CYCLE_EXTRA_LATENCY`]: dca_mem_hier::memory::CYCLE_EXTRA_LATENCY
/// [`CYCLE_QUEUE_CAP`]: dca_mem_hier::memory::CYCLE_QUEUE_CAP
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Controller design under test.
    pub design: Design,
    /// DRAM-cache organisation (set-associative / direct-mapped).
    pub org_kind: OrgKind,
    /// DRAM-cache replacement policy (SRRIP default; warm-up drives the
    /// tag array through it, so it is part of the warm fingerprint).
    pub replacement: ReplacementPolicy,
    /// Bank-index mapping (plain or XOR remap \[9\]).
    pub mapping: MappingScheme,
    /// Stacked-DRAM timing.
    pub timing: TimingParams,
    /// Stacked-DRAM organisation.
    pub dram_org: Organization,
    /// Off-chip main-memory backend behind the DRAM cache: the flat
    /// seed model (Table II's 50 ns + bus, the default — bit-identical
    /// to the pre-refactor simulator) or the cycle-level DDR4-style
    /// device.
    pub main_mem: MainMemConfig,
    /// Read-queue entries per channel (Table II: 64; 32 for ROD).
    pub read_q_cap: usize,
    /// Write-queue entries per channel (Table II: 64; 96 for ROD).
    pub write_q_cap: usize,
    /// DCA's flushing factor: a low-priority read with a row conflict
    /// may still issue when its bank's RRPC is below this (paper
    /// default FF-4, swept in §IV-C).
    pub flushing_factor: u8,
    /// Enable Lee et al. DRAM-aware L2 writeback \[20\] (Fig 19).
    pub lee_writeback: bool,
    /// Instructions per core for the timing run.
    pub target_insts: u64,
    /// Functional warm-up memory operations per core before timing.
    pub warmup_ops: u64,
    /// Experiment seed.
    pub seed: u64,
    /// L1 hit latency in CPU cycles (Table II: 2).
    pub l1_lat_cycles: u64,
    /// Record a detailed access timeline (examples/diagnostics only).
    pub record_timeline: bool,
    /// Event engine driving the run ([`EngineSel`]; default calendar).
    /// Results are bit-identical under both engines; the knob exists for
    /// the heap-oracle determinism tests.
    pub engine: EngineSel,
    /// **log2 of the calendar-queue slot width, in picoseconds** — shift
    /// 10 means `2^10 ps ≈ 1 ns` slots, so the 1024-bucket ring spans
    /// ~1 µs. A pure performance knob — delivery order, and hence every
    /// result, is identical for any value (see
    /// [`dca_sim_core::events::EventQueue::with_slot_shift`] for the
    /// trade-off).
    ///
    /// Valid range is `0..=`[`dca_sim_core::events::MAX_SLOT_SHIFT`]
    /// (40, a ring slot of ~18 minutes of simulated time): beyond that
    /// the slot-index computation `time >> shift` would exceed what the
    /// u64 picosecond clock can address and, in release builds, silently
    /// wrap the shift amount. [`SystemConfig::validate`] rejects such
    /// values up front instead of leaving them to a debug-only assert.
    ///
    /// Used by [`EngineSel::Calendar`]; ignored by the heap engine.
    pub event_slot_shift: u32,
}

impl SystemConfig {
    /// Table II configuration for `design` × `org_kind`.
    pub fn paper(design: Design, org_kind: OrgKind) -> Self {
        let (read_q_cap, write_q_cap) = match design {
            Design::Rod => (32, 96),
            _ => (64, 64),
        };
        SystemConfig {
            design,
            org_kind,
            replacement: ReplacementPolicy::Srrip,
            mapping: MappingScheme::Direct,
            timing: TimingParams::paper_stacked(),
            dram_org: Organization::paper(),
            main_mem: MainMemConfig::paper_flat(),
            read_q_cap,
            write_q_cap,
            flushing_factor: 4,
            lee_writeback: false,
            target_insts: 2_000_000,
            warmup_ops: 400_000,
            seed: 0xDCA_2016,
            l1_lat_cycles: 2,
            record_timeline: false,
            engine: EngineSel::Calendar,
            event_slot_shift: dca_sim_core::events::SLOT_SHIFT,
        }
    }

    /// Check knob ranges that would otherwise surface only as a panic
    /// (or, for oversized slot shifts in release builds, a silently
    /// wrapped shift amount) deep inside `System::assemble`, or as a run
    /// that never finishes.
    pub fn validate(&self) -> Result<(), String> {
        let max = dca_sim_core::events::MAX_SLOT_SHIFT;
        if self.event_slot_shift > max {
            return Err(format!(
                "event_slot_shift {} exceeds MAX_SLOT_SHIFT {} (log2 picoseconds; \
                 larger shifts overflow the ring-width computation)",
                self.event_slot_shift, max
            ));
        }
        // The controller queues' bank index holds at most MAX_CAPACITY
        // entries over MAX_BANKS banks.
        for (name, cap) in [
            ("read_q_cap", self.read_q_cap),
            ("write_q_cap", self.write_q_cap),
        ] {
            if !(ADMIT_SLOTS..=MAX_CAPACITY).contains(&cap) {
                return Err(format!(
                    "{name} {cap} outside {ADMIT_SLOTS}..={MAX_CAPACITY}: the admission \
                     gate needs {ADMIT_SLOTS} free slots and the bank index holds \
                     {MAX_CAPACITY}"
                ));
            }
        }
        let banks = self.dram_org.banks_per_channel() as usize;
        if banks > MAX_BANKS {
            return Err(format!(
                "{banks} DRAM-cache banks per channel exceed the bank index's {MAX_BANKS}"
            ));
        }
        // Once the admission gate closes, only issuing reopens it. Writes
        // are then issued only above the drain's low mark, and DCA's
        // held-back LRs only once the read queue passes ScheduleAll's
        // turn-on mark (Algorithm 1), so the gate's occupancy must exceed
        // those marks, computed the way the controller computes occupancy.
        let gate = |cap: usize| (cap - (ADMIT_SLOTS - 1)) as f64 / cap as f64;
        if gate(self.write_q_cap) <= DrainPolicy::LO {
            return Err(format!(
                "write_q_cap {} closes admission at occupancy {:.3}, not above \
                 the write-drain low mark {}: no write drain would reopen it",
                self.write_q_cap,
                gate(self.write_q_cap),
                DrainPolicy::LO
            ));
        }
        if self.design == Design::Dca && gate(self.read_q_cap) <= SCHEDULE_ALL_HI {
            return Err(format!(
                "read_q_cap {} closes admission at occupancy {:.3}, not above \
                 ScheduleAll's turn-on mark {SCHEDULE_ALL_HI}: held-back low-priority \
                 reads would never be released",
                self.read_q_cap,
                gate(self.read_q_cap),
            ));
        }
        Ok(())
    }

    /// Convenience: the paper config with the XOR remapping enabled.
    pub fn paper_remap(design: Design, org_kind: OrgKind) -> Self {
        let mut cfg = Self::paper(design, org_kind);
        cfg.mapping = MappingScheme::XorRemap;
        cfg
    }

    /// Convenience: the paper config with the cycle-level DDR4
    /// main-memory backend instead of the flat model.
    pub fn paper_cycle_mem(design: Design, org_kind: OrgKind) -> Self {
        let mut cfg = Self::paper(design, org_kind);
        cfg.main_mem = MainMemConfig::ddr4();
        cfg
    }

    /// Convenience: the paper config with the slow 3DXPoint-like
    /// cycle-level main memory — the regime where the DRAM cache stops
    /// being an optimisation and becomes load-bearing.
    pub fn paper_xpoint(design: Design, org_kind: OrgKind) -> Self {
        let mut cfg = Self::paper(design, org_kind);
        cfg.main_mem = MainMemConfig::xpoint();
        cfg
    }

    /// Scale the run length (both warm-up and timing) by `factor` — used
    /// by tests and quick benches.
    pub fn scaled(mut self, insts: u64, warmup: u64) -> Self {
        self.target_insts = insts;
        self.warmup_ops = warmup;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rod_gets_asymmetric_queues() {
        let cd = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped);
        let rod = SystemConfig::paper(Design::Rod, OrgKind::DirectMapped);
        let dca = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        assert_eq!((cd.read_q_cap, cd.write_q_cap), (64, 64));
        assert_eq!((rod.read_q_cap, rod.write_q_cap), (32, 96));
        assert_eq!((dca.read_q_cap, dca.write_q_cap), (64, 64));
    }

    #[test]
    fn labels() {
        assert_eq!(Design::Cd.label(), "CD");
        assert_eq!(Design::Rod.label(), "ROD");
        assert_eq!(Design::Dca.label(), "DCA");
        assert_eq!(Design::Banshee.label(), "BAN");
        assert_eq!(Design::ALL.len(), 4);
    }

    #[test]
    fn banshee_gets_cd_queues_and_srrip_default() {
        let ban = SystemConfig::paper(Design::Banshee, OrgKind::DirectMapped);
        assert_eq!((ban.read_q_cap, ban.write_q_cap), (64, 64));
        assert_eq!(ban.replacement, ReplacementPolicy::Srrip);
    }

    #[test]
    fn xpoint_variant_flips_main_mem_only() {
        let a = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        let b = SystemConfig::paper_xpoint(Design::Dca, OrgKind::DirectMapped);
        assert!(!a.main_mem.is_cycle());
        assert!(b.main_mem.is_cycle());
        assert_eq!(a.read_q_cap, b.read_q_cap);
    }

    #[test]
    fn validate_rejects_overflowing_slot_shift() {
        let mut cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        assert!(cfg.validate().is_ok());
        cfg.event_slot_shift = dca_sim_core::events::MAX_SLOT_SHIFT;
        assert!(cfg.validate().is_ok());
        cfg.event_slot_shift = dca_sim_core::events::MAX_SLOT_SHIFT + 1;
        assert!(cfg.validate().is_err());
    }

    fn dm(design: Design) -> SystemConfig {
        SystemConfig::paper(design, OrgKind::DirectMapped)
    }

    #[test]
    fn validate_rejects_zero_capacity_queues() {
        let mut cfg = dm(Design::Cd);
        cfg.read_q_cap = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = dm(Design::Cd);
        cfg.write_q_cap = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_read_queues_below_the_admission_size() {
        for design in Design::ALL {
            let mut cfg = dm(design);
            cfg.read_q_cap = ADMIT_SLOTS - 1;
            assert!(cfg.validate().is_err(), "{}", design.label());
        }
    }

    #[test]
    fn validate_rejects_dca_read_queues_that_close_below_schedule_all() {
        // 11/13 = 0.846 ≤ 0.85: the gate shuts before ScheduleAll turns on.
        let mut cfg = dm(Design::Dca);
        cfg.read_q_cap = 13;
        assert!(cfg.validate().is_err());
        cfg.read_q_cap = 14;
        assert!(cfg.validate().is_ok());
        // CD never holds reads back, so the same size is fine there.
        let mut cd = dm(Design::Cd);
        cd.read_q_cap = 13;
        assert!(cd.validate().is_ok());
    }

    #[test]
    fn validate_rejects_write_queues_that_close_at_or_below_write_lo() {
        // 2/4 = 0.5 is not above the drain's low mark 0.5; 3/5 = 0.6 is.
        for design in Design::ALL {
            let mut cfg = dm(design);
            cfg.write_q_cap = 4;
            assert!(cfg.validate().is_err(), "{}", design.label());
            cfg.write_q_cap = 5;
            assert!(cfg.validate().is_ok(), "{}", design.label());
        }
    }

    #[test]
    fn validate_rejects_queues_beyond_the_slot_index() {
        let mut cfg = dm(Design::Rod);
        cfg.write_q_cap = MAX_CAPACITY;
        assert!(cfg.validate().is_ok());
        cfg.write_q_cap = MAX_CAPACITY + 1;
        assert!(cfg.validate().is_err());
        let mut cfg = dm(Design::Cd);
        cfg.read_q_cap = MAX_CAPACITY + 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_more_banks_than_the_bank_index() {
        let mut cfg = dm(Design::Cd);
        cfg.dram_org.banks_per_rank = MAX_BANKS as u32 + 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn remap_variant_flips_mapping_only() {
        let a = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        let b = SystemConfig::paper_remap(Design::Dca, OrgKind::DirectMapped);
        assert_eq!(a.mapping, MappingScheme::Direct);
        assert_eq!(b.mapping, MappingScheme::XorRemap);
        assert_eq!(a.read_q_cap, b.read_q_cap);
    }
}
