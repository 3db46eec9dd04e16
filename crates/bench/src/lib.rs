//! # dca-bench — harness regenerating every table and figure of the paper
//!
//! Shared machinery for the `figures` binary: run specifications, the
//! weighted-speedup protocol (§V), parallel execution over the Table I
//! mixes, and result tables. Every figure number comes from one path:
//! [`shard::figure_plan`] → jobs → [`shard::PartialStore`] → render.
//!
//! ## Scaling
//!
//! The paper simulates 500 M instructions per core over 30 mixes; a full
//! regeneration at that scale is hours of CPU. The harness defaults to a
//! calibrated reduced scale (400 k instructions, 8 mixes) that preserves
//! the figures' *shapes*, and reads four environment variables:
//!
//! * `DCA_FULL=1` — paper scale (2 M instructions/core, all 30 mixes);
//!   `0` is the reduced default.
//! * `DCA_INSTS=n` — instructions per core (a positive integer).
//! * `DCA_MIXES=a,b,c` — explicit mix ids (a non-empty list, each in
//!   1..=30).
//! * `DCA_WARMUP=n` — warm-up ops per core, a positive integer
//!   (default: `insts/2` clamped to 400 k..=1 M; the override exists so
//!   tiny CI/shard smoke runs don't pay a 400 k-op functional warm-up
//!   per key).
//!
//! A malformed value is an error naming the variable (see
//! [`Scale::from_env`]), which `figures` reports with exit code 1.
//!
//! ## Running a figure sweep
//!
//! `figures` decomposes the requested figures into deterministically
//! named jobs ([`shard::figure_plan`] → [`shard::plan_jobs`]) and hands
//! the list to one runner, [`shard::run_jobs`], in one process. The
//! runner reuses every text partial under `results/partials/` that
//! still validates, groups the rest's simulations by the warm state
//! they restore from, runs the groups on up to `--jobs N` threads
//! (default: the available cores), and writes each job's partial
//! atomically as soon as its last simulation finishes. So a run that was interrupted,
//! or that lost a job to a panic, resumes by running the same command
//! again. See [`shard`] for the job model, the partial schema and the
//! runner. [`RunSpec::run_benches`] shares warm-ups through the
//! process-wide [`warm`] cache instead.
//!
//! ## `figures` exit-code contract
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success — every requested figure written |
//! | 1    | error — bad environment, unwritable `results/`, or a job panicked (every other job's partial is flushed; a re-run runs only the failed jobs) |
//! | 2    | usage error |
//!
//! Ctrl-C ends the process; the shell reports 130. Finished partials
//! are already on disk, so re-running the same command resumes.

use dca::{Design, System, SystemConfig, SystemReport};
use dca_cpu::{mix, Benchmark};
use dca_dram::MappingScheme;
use dca_dram_cache::{OrgKind, ReplacementPolicy};
use dca_mem_hier::MainMemConfig;
use dca_metrics::{geomean, weighted_speedup};

pub mod shard;
pub mod warm;

pub use warm::{WarmCache, WarmCacheStats};

/// The experiment seed shared by every harness entry point.
pub const DEFAULT_SEED: u64 = 0xDCA_2016;

/// Main-memory backend a [`RunSpec`] selects — compact enough to ride
/// in a shard job id (see `shard`'s grammar: `mmf` / `mmd<slow>` /
/// `mmx`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MainMemKind {
    /// The flat 50 ns + bus seed model (the default everywhere).
    Flat,
    /// Cycle-level DDR4 with its data bandwidth divided by `slow`
    /// (`slow == 1` is the full-rate device) — the sensitivity knob.
    Ddr4 {
        /// Bandwidth divisor (≥ 1).
        slow: u8,
    },
    /// Cycle-level 3DXPoint-like slow tier (asymmetric read/write
    /// media timings behind a DDR4-like link).
    Xpoint,
}

impl MainMemKind {
    /// The [`MainMemConfig`] this selector stands for.
    pub fn config(self) -> MainMemConfig {
        match self {
            MainMemKind::Flat => MainMemConfig::paper_flat(),
            MainMemKind::Ddr4 { slow } => MainMemConfig::ddr4_bandwidth_div(slow.max(1) as u32),
            MainMemKind::Xpoint => MainMemConfig::xpoint(),
        }
    }

    /// Human-readable label for tables.
    pub fn label(self) -> String {
        match self {
            MainMemKind::Flat => "flat-50ns".to_string(),
            MainMemKind::Ddr4 { slow: 1 } => "ddr4-2400".to_string(),
            MainMemKind::Ddr4 { slow } => format!("ddr4-2400/{slow}"),
            MainMemKind::Xpoint => "xpoint".to_string(),
        }
    }

    /// Job-id token (`mmf` / `mmd<slow>` / `mmx`): the backend's field
    /// in a shard job id.
    pub fn token(self) -> String {
        match self {
            MainMemKind::Flat => "mmf".to_string(),
            MainMemKind::Ddr4 { slow } => format!("mmd{slow}"),
            MainMemKind::Xpoint => "mmx".to_string(),
        }
    }
}

/// Everything that defines one simulation run (minus the workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Controller design.
    pub design: Design,
    /// Cache organisation.
    pub org: OrgKind,
    /// XOR remapping on/off.
    pub remap: bool,
    /// Lee DRAM-aware L2 writeback on/off (Fig 19).
    pub lee: bool,
    /// DCA flushing factor (ablation; paper default 4).
    pub flushing_factor: u8,
    /// DRAM-cache replacement policy (default SRRIP — the seed
    /// behaviour).
    pub policy: ReplacementPolicy,
    /// Main-memory backend (default flat — the seed model).
    pub main_mem: MainMemKind,
    /// Instructions per core.
    pub insts: u64,
    /// Warm-up ops per core.
    pub warmup: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl RunSpec {
    /// Paper-default spec at an explicit scale.
    pub fn at_scale(design: Design, org: OrgKind, scale: &Scale) -> Self {
        RunSpec {
            design,
            org,
            remap: false,
            lee: false,
            flushing_factor: 4,
            policy: ReplacementPolicy::Srrip,
            main_mem: MainMemKind::Flat,
            insts: scale.insts,
            warmup: scale.warmup,
            seed: DEFAULT_SEED,
        }
    }

    /// Enable the XOR remapping.
    pub fn with_remap(mut self) -> Self {
        self.remap = true;
        self
    }

    /// Enable Lee DRAM-aware writeback.
    pub fn with_lee(mut self) -> Self {
        self.lee = true;
        self
    }

    /// Select a main-memory backend.
    pub fn with_main_mem(mut self, mm: MainMemKind) -> Self {
        self.main_mem = mm;
        self
    }

    /// Select a DRAM-cache replacement policy.
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Materialise the system configuration.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper(self.design, self.org);
        if self.remap {
            cfg.mapping = MappingScheme::XorRemap;
        }
        cfg.lee_writeback = self.lee;
        cfg.flushing_factor = self.flushing_factor;
        cfg.replacement = self.policy;
        cfg.main_mem = self.main_mem.config();
        cfg.target_insts = self.insts;
        cfg.warmup_ops = self.warmup;
        cfg.seed = self.seed;
        cfg
    }

    /// Run a benchmark list (1–4 cores; a Table I mix is
    /// `&mix(id).benches`) under this spec, sharing the functional
    /// warm-up with every other design/remap variant of the same
    /// `(benches, org, warmup, seed)` tuple through the global
    /// [`WarmCache`] (bit-for-bit identical to a cold run).
    pub fn run_benches(&self, benches: &[Benchmark]) -> SystemReport {
        let cfg = self.config();
        let warm = WarmCache::global().get_or_build(&cfg, benches);
        System::from_warm(cfg, benches, &warm).run()
    }
}

/// Harness scale, from the environment.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Instructions per core.
    pub insts: u64,
    /// Warm-up ops per core.
    pub warmup: u64,
    /// Mix ids to evaluate.
    pub mixes: Vec<u32>,
}

impl Scale {
    /// Read `DCA_FULL` / `DCA_INSTS` / `DCA_MIXES` / `DCA_WARMUP`. An
    /// unset variable takes its default; a set one must be well formed,
    /// or the error names the variable and its value.
    pub fn from_env() -> Result<Scale, String> {
        let full = match env_value("DCA_FULL").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("DCA_FULL={v:?} must be 0 or 1")),
        };
        let insts = positive_env("DCA_INSTS")?.unwrap_or(if full { 2_000_000 } else { 400_000 });
        let warmup = positive_env("DCA_WARMUP")?.unwrap_or((insts / 2).clamp(400_000, 1_000_000));
        let mixes = match env_value("DCA_MIXES") {
            Some(v) => v
                .split(',')
                .map(|id| id.trim().parse().ok().filter(|id| (1..=30).contains(id)))
                .collect::<Option<Vec<u32>>>()
                .ok_or_else(|| {
                    format!("DCA_MIXES={v:?} must be a non-empty comma list of mix ids in 1..=30")
                })?,
            None if full => (1..=30).collect(),
            // A representative slice: streaming-heavy, chase-heavy and
            // mixed mixes, including GemsFDTD/bwaves aliasing.
            None => vec![1, 2, 6, 13, 17, 22, 25, 27],
        };
        Ok(Scale {
            insts,
            warmup,
            mixes,
        })
    }
}

/// `name`'s value, `None` when unset (a non-Unicode value keeps its
/// replacement characters, so it fails every parse below).
fn env_value(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// `name` as a positive integer, `None` when unset.
fn positive_env(name: &str) -> Result<Option<u64>, String> {
    env_value(name)
        .map(|v| {
            v.parse()
                .ok()
                .filter(|&n: &u64| n > 0)
                .ok_or_else(|| format!("{name}={v:?} must be a positive integer"))
        })
        .transpose()
}

/// The raw, serialisable measurement one mix contributes to a figure:
/// everything a job must record so the renderer can finish the figure
/// math (weighted speedups need the alone-IPC table, which lives in
/// separate jobs, so a job records per-core IPCs instead of WS).
#[derive(Clone, Debug, PartialEq)]
pub struct MixPoint {
    /// Mix id the point was measured on.
    pub mix: u32,
    /// Per-core shared-run IPC, in core order.
    pub core_ipc: Vec<f64>,
    /// Mean L2 miss latency (ns).
    pub miss_latency_ns: f64,
    /// Accesses per bus turnaround.
    pub apt: f64,
    /// Read row-buffer hit rate.
    pub row_hit: f64,
}

impl MixPoint {
    /// The point mix `mix_id`'s shared run `r` contributes.
    pub fn from_report(mix_id: u32, r: &SystemReport) -> MixPoint {
        MixPoint {
            mix: mix_id,
            core_ipc: r.cores.iter().map(|c| c.ipc).collect(),
            miss_latency_ns: r.l2_miss_latency.mean_ns(),
            apt: r.accesses_per_turnaround(),
            row_hit: r.read_row_hit_rate(),
        }
    }
}

/// Fold measured [`MixPoint`]s into a [`DesignSummary`], resolving each
/// benchmark's alone IPC through `alone` (a lookup into the merged
/// partial store). Fresh and reused partials carry the same bits, and
/// this fold runs the same float operations in the same order whatever
/// the thread count, which is what makes every run's figure files
/// bit-identical.
pub fn summarize<F>(label: &str, org: OrgKind, points: &[MixPoint], alone: F) -> DesignSummary
where
    F: Fn(Benchmark, OrgKind) -> f64,
{
    let mut ws = Vec::new();
    let mut lat = Vec::new();
    let mut apt = Vec::new();
    let mut rhr = Vec::new();
    for p in points {
        let m = mix(p.mix);
        let alone_ipc: Vec<f64> = m.benches.iter().map(|&b| alone(b, org)).collect();
        ws.push(weighted_speedup(&p.core_ipc, &alone_ipc));
        lat.push(p.miss_latency_ns);
        apt.push(p.apt);
        rhr.push(p.row_hit);
    }
    DesignSummary {
        label: label.to_string(),
        ws,
        miss_latency_ns: lat,
        apt,
        row_hit: rhr,
    }
}

/// Per-design summary over a set of mixes.
#[derive(Clone, Debug)]
pub struct DesignSummary {
    /// Design label (possibly with remap prefix, e.g. "XOR+DCA").
    pub label: String,
    /// Per-mix weighted speedups, in mix order.
    pub ws: Vec<f64>,
    /// Per-mix mean L2 miss latency (ns).
    pub miss_latency_ns: Vec<f64>,
    /// Per-mix accesses per turnaround.
    pub apt: Vec<f64>,
    /// Per-mix read row-buffer hit rate.
    pub row_hit: Vec<f64>,
}

impl DesignSummary {
    /// Geometric-mean weighted speedup.
    pub fn ws_geomean(&self) -> f64 {
        geomean(&self.ws)
    }

    /// Arithmetic-mean miss latency.
    pub fn mean_latency(&self) -> f64 {
        self.miss_latency_ns.iter().sum::<f64>() / self.miss_latency_ns.len().max(1) as f64
    }

    /// Arithmetic-mean accesses per turnaround.
    pub fn mean_apt(&self) -> f64 {
        self.apt.iter().sum::<f64>() / self.apt.len().max(1) as f64
    }

    /// Arithmetic-mean read row-buffer hit rate.
    pub fn mean_row_hit(&self) -> f64 {
        self.row_hit.iter().sum::<f64>() / self.row_hit.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_are_sane() {
        let s = Scale::from_env().expect("the test environment sets no malformed scale");
        assert!(s.insts >= 50_000);
        assert!(!s.mixes.is_empty());
        assert!(s.mixes.iter().all(|&m| (1..=30).contains(&m)));
    }

    #[test]
    fn spec_config_round_trips() {
        let scale = Scale {
            insts: 1000,
            warmup: 2000,
            mixes: vec![1],
        };
        let spec = RunSpec::at_scale(Design::Dca, OrgKind::DirectMapped, &scale)
            .with_remap()
            .with_lee();
        let cfg = spec.config();
        assert_eq!(cfg.design, Design::Dca);
        assert!(cfg.lee_writeback);
        assert_eq!(cfg.mapping, MappingScheme::XorRemap);
    }
}
