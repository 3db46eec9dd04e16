//! System configuration (paper Table II).

use dca_dram::{MappingScheme, Organization, TimingParams};
use dca_dram_cache::{OrgKind, ReplacementPolicy};
use dca_mem_hier::MainMemConfig;
use dca_sched::{MAX_BANKS, MAX_CAPACITY};

use crate::controller::ADMIT_SLOTS;

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
    /// ([`BansheeParams`]).
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

/// Which base arbitration algorithm orders candidates within a queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Arbiter {
    /// BLISS \[11\] — the paper's choice for all designs.
    Bliss,
    /// FR-FCFS — ablation only.
    FrFcfs,
}

/// DCA-specific knobs (§IV).
#[derive(Clone, Copy, Debug)]
pub struct DcaParams {
    /// Flushing factor: an LR with a row conflict may still issue when
    /// its bank's RRPC is below this (paper default FF-4).
    pub flushing_factor: u8,
    /// Algorithm 1 ScheduleAll turn-on occupancy (paper: 85 %).
    pub read_q_hi: f64,
    /// Algorithm 1 ScheduleAll turn-off occupancy (paper: 75 %).
    pub read_q_lo: f64,
}

impl Default for DcaParams {
    fn default() -> Self {
        DcaParams {
            flushing_factor: 4,
            read_q_hi: 0.85,
            read_q_lo: 0.75,
        }
    }
}

/// Banshee-style fill-gate knobs ([`Design::Banshee`]).
#[derive(Clone, Copy, Debug)]
pub struct BansheeParams {
    /// A page's miss fills are admitted only once its frequency counter
    /// has reached this value — the first `fill_threshold - 1` misses
    /// to a cold page bypass the cache.
    pub fill_threshold: u8,
    /// Saturation cap for the per-page frequency counters (Banshee uses
    /// small saturating counters in the page-table/TLB entries).
    pub counter_cap: u8,
}

impl Default for BansheeParams {
    fn default() -> Self {
        BansheeParams {
            fill_threshold: 2,
            counter_cap: 7,
        }
    }
}

/// Full system configuration.
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
    /// Base arbiter (paper: BLISS for everything).
    pub arbiter: Arbiter,
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
    /// Write-queue drain thresholds (Table II: 50 %/85 %).
    pub write_lo: f64,
    /// See [`SystemConfig::write_lo`].
    pub write_hi: f64,
    /// DCA knobs.
    pub dca: DcaParams,
    /// Banshee fill-gate knobs (consulted only by [`Design::Banshee`]).
    pub banshee: BansheeParams,
    /// Enable Lee et al. DRAM-aware L2 writeback \[20\] (Fig 19).
    pub lee_writeback: bool,
    /// Enable the MAP-I hit/miss predictor \[7\] (paper: on).
    pub predictor: bool,
    /// Instructions per core for the timing run.
    pub target_insts: u64,
    /// Functional warm-up memory operations per core before timing.
    pub warmup_ops: u64,
    /// Experiment seed.
    pub seed: u64,
    /// L1 hit latency in CPU cycles (Table II: 2).
    pub l1_lat_cycles: u64,
    /// L2 hit latency in CPU cycles (Table II: 20).
    pub l2_lat_cycles: u64,
    /// Shared L2 MSHR count.
    pub mshrs: usize,
    /// Record a detailed access timeline (examples/diagnostics only).
    pub record_timeline: bool,
    /// Event engine driving the run ([`EngineSel`]; default calendar).
    /// Results are bit-identical under both engines; the knob exists for
    /// the heap-oracle determinism tests and `perf_smoke` measurements.
    pub engine: EngineSel,
    /// **log2 of the calendar-queue slot width, in picoseconds** — shift
    /// 10 means `2^10 ps ≈ 1 ns` slots, so the 1024-bucket ring spans
    /// ~1 µs. A pure performance knob — delivery order, and hence every
    /// result, is identical for any value; the `event_clustered_*` and
    /// `event_rolling_window_*` microbenches bracket the trade-off.
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
            arbiter: Arbiter::Bliss,
            timing: TimingParams::paper_stacked(),
            dram_org: Organization::paper(),
            main_mem: MainMemConfig::paper_flat(),
            read_q_cap,
            write_q_cap,
            write_lo: 0.50,
            write_hi: 0.85,
            dca: DcaParams::default(),
            banshee: BansheeParams::default(),
            lee_writeback: false,
            predictor: true,
            target_insts: 2_000_000,
            warmup_ops: 400_000,
            seed: 0xDCA_2016,
            l1_lat_cycles: 2,
            l2_lat_cycles: 20,
            mshrs: 32,
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
        if let MainMemConfig::Cycle { org, queue_cap, .. } = self.main_mem {
            if queue_cap as usize > MAX_CAPACITY {
                return Err(format!(
                    "main-memory queue_cap {queue_cap} exceeds the bank index's {MAX_CAPACITY}"
                ));
            }
            let banks = org.banks_per_channel() as usize;
            if banks > MAX_BANKS {
                return Err(format!(
                    "{banks} main-memory banks per channel exceed the bank index's {MAX_BANKS}"
                ));
            }
        }
        if self.write_lo > self.write_hi {
            return Err(format!(
                "write_lo {} exceeds write_hi {}",
                self.write_lo, self.write_hi
            ));
        }
        if self.dca.read_q_lo > self.dca.read_q_hi {
            return Err(format!(
                "dca.read_q_lo {} exceeds dca.read_q_hi {}",
                self.dca.read_q_lo, self.dca.read_q_hi
            ));
        }
        // Once the admission gate closes, only issuing reopens it. Writes
        // are then issued only above write_lo, and DCA's held-back LRs
        // only once the read queue passes read_q_hi (Algorithm 1), so
        // the gate's occupancy must exceed those marks, computed the way
        // the controller computes occupancy.
        let gate = |cap: usize| (cap - (ADMIT_SLOTS - 1)) as f64 / cap as f64;
        if gate(self.write_q_cap) <= self.write_lo {
            return Err(format!(
                "write_q_cap {} closes admission at occupancy {:.3}, not above \
                 write_lo {}: no write drain would reopen it",
                self.write_q_cap,
                gate(self.write_q_cap),
                self.write_lo
            ));
        }
        if self.design == Design::Dca && gate(self.read_q_cap) <= self.dca.read_q_hi {
            return Err(format!(
                "read_q_cap {} closes admission at occupancy {:.3}, not above \
                 dca.read_q_hi {}: held-back low-priority reads would never be released",
                self.read_q_cap,
                gate(self.read_q_cap),
                self.dca.read_q_hi
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
        assert_eq!(ban.banshee.fill_threshold, 2);
        assert!(ban.banshee.counter_cap >= ban.banshee.fill_threshold);
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
    fn dca_defaults_match_paper() {
        let d = DcaParams::default();
        assert_eq!(d.flushing_factor, 4);
        assert_eq!(d.read_q_hi, 0.85);
        assert_eq!(d.read_q_lo, 0.75);
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
        // 2/4 = 0.5 is not above write_lo 0.5; 3/5 = 0.6 is.
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
    fn validate_rejects_main_memory_queues_beyond_the_slot_index() {
        let mut cfg = SystemConfig::paper_xpoint(Design::Dca, OrgKind::DirectMapped);
        let MainMemConfig::Cycle {
            timing,
            org,
            extra_latency,
            ..
        } = cfg.main_mem
        else {
            unreachable!("xpoint is cycle-level")
        };
        cfg.main_mem = MainMemConfig::Cycle {
            timing,
            org,
            extra_latency,
            queue_cap: MAX_CAPACITY as u32 + 1,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_more_banks_than_the_bank_index() {
        let mut cfg = dm(Design::Cd);
        cfg.dram_org.banks_per_rank = MAX_BANKS as u32 + 1;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::paper_cycle_mem(Design::Cd, OrgKind::DirectMapped);
        if let MainMemConfig::Cycle { ref mut org, .. } = cfg.main_mem {
            org.ranks = 2;
            org.banks_per_rank = MAX_BANKS as u32 / 2 + 1;
        }
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_inverted_write_thresholds() {
        let mut cfg = dm(Design::Cd);
        cfg.write_lo = 0.9;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_inverted_schedule_all_thresholds() {
        let mut cfg = dm(Design::Cd);
        cfg.dca.read_q_lo = 0.9;
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
