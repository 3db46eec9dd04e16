//! # dca-bench — harness regenerating every table and figure of the paper
//!
//! Shared machinery for the Criterion benches and the `figures` binary:
//! run specifications, the weighted-speedup protocol (§V), parallel
//! execution over the Table I mixes, and result tables.
//!
//! ## Scaling
//!
//! The paper simulates 500 M instructions per core over 30 mixes; a full
//! regeneration at that scale is hours of CPU. The harness defaults to a
//! calibrated reduced scale (400 k instructions, 8 mixes) that preserves
//! the figures' *shapes*, and reads three environment variables:
//!
//! * `DCA_FULL=1` — paper scale (2 M instructions/core, all 30 mixes).
//! * `DCA_INSTS=n` — instructions per core.
//! * `DCA_MIXES=a,b,c` — explicit mix ids (1..=30).
//! * `DCA_WARMUP=n` — warm-up ops per core (default: `insts/2` clamped
//!   to 400 k..=1 M; the override exists so tiny CI/shard smoke runs
//!   don't pay a 400 k-op functional warm-up per key).
//!
//! ## Process sharding
//!
//! The `figures` binary can split a figure run across worker
//! *subprocesses* (`figures --jobs N`): the run is decomposed into
//! deterministically named jobs, a supervised pool of persistent
//! workers (`figures --worker --serve`, one spawn per worker, not per
//! job) executes them and flushes machine-readable JSON partials under
//! `results/partials/`, and the supervisor merges them into the same
//! per-figure outputs a single-process run writes — bit-identical, by
//! construction and by test, including under injected crashes, hangs,
//! and protocol garbage (`DCA_FAULT_PLAN`). Jobs that keep failing are
//! quarantined rather than aborting the sweep. See [`shard`] for the
//! job model, the partial schema, and the crash-safety rules,
//! [`shard::pool`] for the worker wire protocol and fault injection,
//! [`shard::supervisor`] for deadlines/retry/quarantine policy, and
//! [`warm`] for how concurrent workers coordinate warm-ups through the
//! shared `DCA_WARM_DIR`.
//!
//! ## `figures` exit-code contract
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success — every requested figure written |
//! | 1    | hard error (bad environment, unwritable `results/`) |
//! | 2    | usage error |
//! | 3    | degraded — quarantined jobs; affected cells render as `—` |
//! | 130  | interrupted — in-flight jobs drained and flushed; re-running the same command resumes |

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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

    /// Job-id token (`mmf` / `mmd<slow>` / `mmx`), kept here so the
    /// shard grammar and this type cannot drift apart.
    pub fn token(self) -> String {
        match self {
            MainMemKind::Flat => "mmf".to_string(),
            MainMemKind::Ddr4 { slow } => format!("mmd{slow}"),
            MainMemKind::Xpoint => "mmx".to_string(),
        }
    }

    /// Inverse of [`MainMemKind::token`].
    pub fn parse_token(t: &str) -> Result<MainMemKind, String> {
        if t == "mmf" {
            return Ok(MainMemKind::Flat);
        }
        if t == "mmx" {
            return Ok(MainMemKind::Xpoint);
        }
        if let Some(slow) = t.strip_prefix("mmd") {
            let slow: u8 = slow
                .parse()
                .ok()
                .filter(|&s| s >= 1)
                .ok_or_else(|| format!("bad main-mem token {t:?}"))?;
            return Ok(MainMemKind::Ddr4 { slow });
        }
        Err(format!("bad main-mem token {t:?}"))
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
    /// Paper-default spec at the harness scale.
    pub fn new(design: Design, org: OrgKind) -> Self {
        Self::at_scale(design, org, &Scale::from_env())
    }

    /// Paper-default spec at an explicit scale (the sharded planner and
    /// its tests build specs without consulting the environment).
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
        cfg.dca.flushing_factor = self.flushing_factor;
        cfg.replacement = self.policy;
        cfg.main_mem = self.main_mem.config();
        cfg.target_insts = self.insts;
        cfg.warmup_ops = self.warmup;
        cfg.seed = self.seed;
        cfg
    }

    /// Run one Table I mix under this spec, sharing the functional
    /// warm-up with every other design/remap variant of the same
    /// `(mix, org, warmup, seed)` tuple through the global [`WarmCache`]
    /// (bit-for-bit identical to a cold run; `DCA_WARM=0` opts out).
    pub fn run_mix(&self, mix_id: u32) -> SystemReport {
        let m = mix(mix_id);
        self.run_benches(&m.benches)
    }

    /// Run one Table I mix with a fresh, uncached warm-up.
    pub fn run_mix_cold(&self, mix_id: u32) -> SystemReport {
        let m = mix(mix_id);
        self.run_benches_cold(&m.benches)
    }

    /// Run an explicit benchmark list (1–4 cores), warm-cached like
    /// [`RunSpec::run_mix`].
    pub fn run_benches(&self, benches: &[Benchmark]) -> SystemReport {
        let cfg = self.config();
        if WarmCache::enabled() {
            let warm = WarmCache::global().get_or_build(&cfg, benches);
            System::from_warm(cfg, benches, &warm).run()
        } else {
            System::new(cfg, benches).run()
        }
    }

    /// Run an explicit benchmark list with a fresh, uncached warm-up.
    pub fn run_benches_cold(&self, benches: &[Benchmark]) -> SystemReport {
        System::new(self.config(), benches).run()
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
    /// Read `DCA_FULL` / `DCA_INSTS` / `DCA_MIXES` / `DCA_WARMUP`.
    pub fn from_env() -> Scale {
        let full = std::env::var("DCA_FULL").map(|v| v == "1").unwrap_or(false);
        let insts = std::env::var("DCA_INSTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if full { 2_000_000 } else { 400_000 });
        let warmup = std::env::var("DCA_WARMUP")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&w: &u64| w > 0)
            .unwrap_or((insts / 2).clamp(400_000, 1_000_000));
        let mixes = std::env::var("DCA_MIXES")
            .ok()
            .map(|v| {
                v.split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .collect::<Vec<u32>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| {
                if full {
                    (1..=30).collect()
                } else {
                    // A representative slice: streaming-heavy, chase-heavy
                    // and mixed mixes, including GemsFDTD/bwaves aliasing.
                    vec![1, 2, 6, 13, 17, 22, 25, 27]
                }
            });
        Scale {
            insts,
            warmup,
            mixes,
        }
    }
}

/// Alone-IPC table for the weighted-speedup protocol: each benchmark's
/// IPC running alone on the **CD / no-remap** baseline of the same
/// organisation (the denominator is shared by all designs so design
/// deltas come from the shared runs only).
pub struct AloneIpc {
    cache: Mutex<HashMap<(Benchmark, &'static str, MainMemKind), f64>>,
    insts: u64,
    warmup: u64,
    seed: u64,
}

impl AloneIpc {
    /// Empty table at the harness scale.
    pub fn new() -> Self {
        let scale = Scale::from_env();
        AloneIpc {
            cache: Mutex::new(HashMap::new()),
            insts: scale.insts,
            warmup: scale.warmup,
            seed: 0xDCA_2016,
        }
    }

    /// Alone IPC of `bench` under organisation `org` with the flat
    /// main-memory backend (cached).
    pub fn get(&self, bench: Benchmark, org: OrgKind) -> f64 {
        self.get_with(bench, org, MainMemKind::Flat)
    }

    /// Alone IPC of `bench` under `org` × main-memory backend `mm`
    /// (cached) — the baseline shares the backend under test so
    /// main-memory sensitivity does not leak into the denominator.
    pub fn get_with(&self, bench: Benchmark, org: OrgKind, mm: MainMemKind) -> f64 {
        let key = (bench, org.label(), mm);
        if let Some(&v) = self.cache.lock().unwrap().get(&key) {
            return v;
        }
        let spec = RunSpec {
            design: Design::Cd,
            org,
            remap: false,
            lee: false,
            flushing_factor: 4,
            policy: ReplacementPolicy::Srrip,
            main_mem: mm,
            insts: self.insts,
            warmup: self.warmup,
            seed: self.seed,
        };
        let r = spec.run_benches(&[bench]);
        let v = r.cores[0].ipc;
        self.cache.lock().unwrap().insert(key, v);
        v
    }

    /// Pre-compute alone IPCs for every benchmark of the given mixes, in
    /// parallel.
    pub fn prime(&self, mixes: &[u32], org: OrgKind) {
        let mut benches: Vec<Benchmark> = mixes.iter().flat_map(|&id| mix(id).benches).collect();
        benches.sort();
        benches.dedup();
        run_parallel(benches, |b| {
            self.get(b, org);
        });
    }
}

impl Default for AloneIpc {
    fn default() -> Self {
        Self::new()
    }
}

/// Run `f` over `items` with bounded std::thread parallelism, preserving
/// input order in the result.
///
/// A panic inside `f` is re-raised on the calling thread with its
/// **original payload** (via `std::panic::resume_unwind`), after all
/// other workers have drained — not wrapped in a confusing join/lock
/// error. `assert!` messages and `panic!` strings from worker closures
/// therefore surface to the caller exactly as they would single-
/// threaded.
///
/// Work distribution is chunked and atomic: items are pre-split into
/// small index-tagged chunks, workers claim chunks through one
/// `fetch_add` counter, and each worker accumulates `(index, result)`
/// pairs privately, merged once at join. No per-item mutex on either
/// side (the old design paid one `Mutex<Option<R>>` per result and a
/// LIFO work stack), items are processed in roughly input order (better
/// warm-cache locality), and chunks stay small enough that uneven item
/// costs — one slow mix — still balance across workers.
pub fn run_parallel<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4)
        .min(n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    // One claimable unit of work: the chunk's starting index + items.
    // The mutex is never contended — the atomic counter hands each
    // chunk to exactly one worker; it only makes the take() Sync.
    type Chunk<T> = Mutex<Option<(usize, Vec<T>)>>;
    // Several chunks per worker so a straggler chunk cannot serialise
    // the tail; chunk boundaries keep input order within each chunk.
    let chunk_len = n.div_ceil(threads * 4).max(1);
    let chunks: Vec<Chunk<T>> = {
        let mut items = items;
        let mut start = n;
        let mut out = Vec::with_capacity(n.div_ceil(chunk_len));
        while !items.is_empty() {
            let tail = items.split_off(items.len().saturating_sub(chunk_len));
            start -= tail.len();
            out.push(Mutex::new(Some((start, tail))));
        }
        out.reverse();
        out
    };
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = chunks.get(c) else { break };
                        let (start, chunk) = slot
                            .lock()
                            .unwrap()
                            .take()
                            .expect("chunk claimed exactly once");
                        for (off, item) in chunk.into_iter().enumerate() {
                            local.push((start + off, f(item)));
                        }
                    }
                    local
                })
            })
            .collect();
        // Join every worker before re-raising, so a panic in one
        // closure cannot leave siblings running detached; the first
        // panic payload (in worker order) is the one propagated.
        let mut panic_payload = None;
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, r) in local {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    if panic_payload.is_none() {
                        panic_payload = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

/// The raw, serialisable measurement one mix contributes to a figure:
/// everything a worker must report so the coordinator can finish the
/// figure math (weighted speedups need the alone-IPC table, which lives
/// in separate jobs, so workers ship per-core IPCs instead of WS).
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
    /// Measure one mix under `spec` (warm-cached like
    /// [`RunSpec::run_mix`]).
    pub fn measure(spec: &RunSpec, mix_id: u32) -> MixPoint {
        let r = spec.run_mix(mix_id);
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
/// benchmark's alone IPC through `alone` (an [`AloneIpc`] table in
/// single-process mode, a merged partial store in sharded mode). Both
/// paths run the exact same float operations in the exact same order,
/// which is what makes sharded output bit-identical to serial output.
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

/// Evaluate `spec` over `mixes` (parallel), producing a summary. The
/// weighted-speedup baseline runs on the spec's own main-memory
/// backend.
pub fn evaluate(spec: RunSpec, mixes: &[u32], alone: &AloneIpc, label: &str) -> DesignSummary {
    let points = run_parallel(mixes.to_vec(), |id| MixPoint::measure(&spec, id));
    summarize(label, spec.org, &points, |b, org| {
        alone.get_with(b, org, spec.main_mem)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_order() {
        let out = run_parallel((0..32).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<i32>>());
    }

    #[test]
    fn run_parallel_handles_edge_sizes() {
        assert_eq!(run_parallel(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(run_parallel(vec![7], |x| x + 1), vec![8]);
        // Sizes that don't divide evenly into chunks, across a span
        // bigger than any plausible thread count.
        for n in [2usize, 3, 5, 17, 63, 64, 65, 257] {
            let input: Vec<usize> = (0..n).collect();
            let out = run_parallel(input, |x| x * x);
            assert_eq!(out, (0..n).map(|x| x * x).collect::<Vec<usize>>(), "n={n}");
        }
    }

    #[test]
    fn run_parallel_balances_uneven_work() {
        // One pathologically slow item must not serialise the rest:
        // correctness-only check here (timing is the microbench's job),
        // but it exercises the chunk-claim path under real contention.
        let out = run_parallel((0..100u64).collect(), |x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=100).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "simulated worker failure on item 13")]
    fn run_parallel_propagates_the_original_panic_payload() {
        // The payload must surface verbatim on the caller — not as a
        // "worker panicked" join error or a poisoned-lock unwrap.
        run_parallel((0..64u64).collect(), |x| {
            if x == 13 {
                panic!("simulated worker failure on item {x}");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "simulated worker failure")]
    fn run_parallel_propagates_panics_from_multiple_workers() {
        // Several failing items: still a clean, original-payload panic.
        run_parallel((0..64u64).collect(), |x| {
            if x % 2 == 0 {
                panic!("simulated worker failure on item {x}");
            }
            x
        });
    }

    #[test]
    fn scale_defaults_are_sane() {
        let s = Scale::from_env();
        assert!(s.insts >= 50_000);
        assert!(!s.mixes.is_empty());
        assert!(s.mixes.iter().all(|&m| (1..=30).contains(&m)));
    }

    #[test]
    fn spec_config_round_trips() {
        let spec = RunSpec::new(Design::Dca, OrgKind::DirectMapped)
            .with_remap()
            .with_lee();
        let cfg = spec.config();
        assert_eq!(cfg.design, Design::Dca);
        assert!(cfg.lee_writeback);
        assert_eq!(cfg.mapping, MappingScheme::XorRemap);
    }
}
