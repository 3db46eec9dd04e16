//! Process-sharded figure runs: jobs, JSON partials, and the
//! coordinator/worker protocol behind `figures --jobs N`.
//!
//! ## Model
//!
//! A figure run decomposes into independent **jobs**, one per
//! `(design, org, remap, lee, ff, mix-chunk)` evaluation unit plus one
//! per `(org, benchmark-chunk)` alone-IPC unit. Jobs are **named
//! deterministically and self-describingly**: the id encodes the full
//! payload (spec fields, scale, seed, mix/bench list), so a worker
//! reconstructs its work from the id alone — no side-channel job file,
//! and a job can be re-run by hand through the worker protocol with
//! `printf 'RUN 0 <id>\n' | figures --worker --serve`. The grammar:
//!
//! ```text
//! ev_<org>_<design>_x<0|1>_l<0|1>_ff<n>_p<policy>_i<insts>_w<warmup>_s<seed hex>_<mm>_m<mix>.<mix>...
//! al_<org>_i<insts>_w<warmup>_s<seed hex>_<mm>_b<bench>.<bench>...
//! ```
//!
//! with `<org>` one of `sa<ways>` / `dm`, `<design>` one of
//! `cd` / `rod` / `dca` / `ban`, `<policy>` a replacement-policy label
//! (`srrip` / `lru` / `lruc` / `lrud` — see
//! [`dca_dram_cache::ReplacementPolicy`]), `<mm>` the main-memory
//! backend token (`mmf` flat, `mmd<n>` cycle-level DDR4 at bandwidth
//! ÷ n, `mmx` the 3DXPoint-like slow tier — see [`crate::MainMemKind`]).
//! Alone jobs carry no design or policy field: the weighted-speedup
//! denominator is always the CD/SRRIP baseline. Identical units
//! shared by several figures (e.g. the CD baseline of Figs 8 and 12)
//! collapse to one job.
//!
//! ## Partials
//!
//! A worker writes one machine-readable JSON **partial** per job to
//! `results/partials/<job>.json` (staged + atomically renamed, so a
//! killed worker never leaves a torn file that parses). Schema
//! (version [`PARTIAL_SCHEMA`]):
//!
//! ```json
//! {"schema": 1, "job": "ev_...", "kind": "eval",
//!  "points": [{"mix": 1,
//!              "ipc_bits": [u64, ...], "miss_ns_bits": u64,
//!              "apt_bits": u64, "row_hit_bits": u64,
//!              "ipc": [f, ...], "miss_ns": f, "apt": f, "row_hit": f}]}
//! {"schema": 1, "job": "al_...", "kind": "alone",
//!  "alone": [{"bench": "gcc", "ipc_bits": u64, "ipc": f}]}
//! ```
//!
//! Every float is carried twice: `*_bits` is the authoritative IEEE-754
//! bit pattern (`f64::to_bits`, exact round-trip — the reason sharded
//! figure output is *bit-identical* to serial output), the plain field
//! is a lossy human-readable mirror for debugging.
//!
//! ## Supervisor and worker pool
//!
//! `figures --jobs N` runs the job list on a **persistent worker
//! pool**: `N` long-lived `figures --worker --serve` subprocesses that
//! pull job ids over stdin and stream status frames back over stdout,
//! keeping their in-process warm cache hot across jobs (spawn-per-batch
//! paid process start + warm rebuild per batch and was a net slowdown).
//! The coordinator side lives in [`supervisor`] — dispatch with
//! warm-group affinity, per-job progress-aware deadlines, heartbeat
//! liveness, kill-and-respawn, bounded retry with deterministic
//! backoff, poison-job quarantine and graceful signal drain. The worker
//! side (wire protocol grammar, heartbeat cadence, deterministic fault
//! injection via `DCA_FAULT_PLAN`) lives in [`pool`]. Jobs whose
//! partial already exists and validates are skipped (crash-safe
//! resume — a killed run loses at most the in-flight jobs).
//!
//! The serial path (`figures` without `--jobs`) executes the *same*
//! job list in-process ([`execute_inline`]) and merges through the
//! same [`PartialStore`], so both modes share one code path from raw
//! reports to rendered tables — the bit-identity guarantee the tests
//! lock holds under every injected fault.

pub mod pool;
pub mod supervisor;

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use dca::Design;
use dca_cpu::{mix, Benchmark};
use dca_dram_cache::{OrgKind, ReplacementPolicy};

use crate::{run_parallel, summarize, DesignSummary, MainMemKind, MixPoint, RunSpec, Scale};

/// Version tag every partial carries; a mismatch invalidates the file.
pub const PARTIAL_SCHEMA: u64 = 1;

/// Default mixes (and alone benchmarks) per job. Small enough that a
/// figure at the default 8-mix scale yields several jobs per unit for
/// the queue to balance, large enough that process spawn cost stays
/// noise.
pub const DEFAULT_CHUNK: usize = 4;

/// Directory the partials (and the quarantine record) live under,
/// relative to the harness working directory.
pub fn partials_dir() -> PathBuf {
    PathBuf::from("results").join("partials")
}

/// File the supervisor records poison jobs in (under [`partials_dir`]).
pub fn quarantine_path() -> PathBuf {
    partials_dir().join("quarantine.json")
}

// ---------------------------------------------------------------------
// Job model
// ---------------------------------------------------------------------

/// What one worker computes.
#[derive(Clone, Debug, PartialEq)]
pub enum JobPayload {
    /// Evaluate `spec` over a chunk of mixes.
    Eval {
        /// Full run specification (self-contained: scale + seed ride
        /// along in the job id).
        spec: RunSpec,
        /// Mix ids, in order.
        mixes: Vec<u32>,
    },
    /// Alone-IPC runs: each benchmark alone on the CD/no-remap baseline
    /// of `org` × `main_mem` (the weighted-speedup denominator shares
    /// the backend under test).
    Alone {
        /// Cache organisation.
        org: OrgKind,
        /// Instructions per core.
        insts: u64,
        /// Warm-up ops per core.
        warmup: u64,
        /// Experiment seed.
        seed: u64,
        /// Main-memory backend.
        main_mem: MainMemKind,
        /// Benchmarks, in order.
        benches: Vec<Benchmark>,
    },
}

/// A deterministically named unit of work.
#[derive(Clone, Debug)]
pub struct Job {
    /// Self-describing id (see module docs for the grammar).
    pub id: String,
    /// The decoded payload (always `== parse_job_id(&id)`).
    pub payload: JobPayload,
}

impl Job {
    /// Build a job from a payload (the id is derived).
    pub fn new(payload: JobPayload) -> Job {
        Job {
            id: encode_job_id(&payload),
            payload,
        }
    }
}

fn org_token(org: OrgKind) -> String {
    match org {
        OrgKind::SetAssoc { ways } => format!("sa{ways}"),
        OrgKind::DirectMapped => "dm".to_string(),
    }
}

fn parse_org_token(t: &str) -> Result<OrgKind, String> {
    if t == "dm" {
        return Ok(OrgKind::DirectMapped);
    }
    if let Some(ways) = t.strip_prefix("sa") {
        let ways: u16 = ways
            .parse()
            .map_err(|_| format!("bad org token {t:?} in job id"))?;
        return Ok(OrgKind::SetAssoc { ways });
    }
    Err(format!("bad org token {t:?} in job id"))
}

fn design_token(d: Design) -> &'static str {
    match d {
        Design::Cd => "cd",
        Design::Rod => "rod",
        Design::Dca => "dca",
        Design::Banshee => "ban",
    }
}

fn parse_design_token(t: &str) -> Result<Design, String> {
    match t {
        "cd" => Ok(Design::Cd),
        "rod" => Ok(Design::Rod),
        "dca" => Ok(Design::Dca),
        "ban" => Ok(Design::Banshee),
        _ => Err(format!("bad design token {t:?} in job id")),
    }
}

fn parse_policy_token(t: &str) -> Result<ReplacementPolicy, String> {
    ReplacementPolicy::ALL
        .into_iter()
        .find(|p| p.label() == t)
        .ok_or_else(|| format!("bad replacement-policy token {t:?} in job id"))
}

/// Canonical id for a payload (see the module-docs grammar).
pub fn encode_job_id(payload: &JobPayload) -> String {
    match payload {
        JobPayload::Eval { spec, mixes } => {
            let mixes: Vec<String> = mixes.iter().map(|m| m.to_string()).collect();
            format!(
                "ev_{}_{}_x{}_l{}_ff{}_p{}_i{}_w{}_s{:x}_{}_m{}",
                org_token(spec.org),
                design_token(spec.design),
                spec.remap as u8,
                spec.lee as u8,
                spec.flushing_factor,
                spec.policy.label(),
                spec.insts,
                spec.warmup,
                spec.seed,
                spec.main_mem.token(),
                mixes.join(".")
            )
        }
        JobPayload::Alone {
            org,
            insts,
            warmup,
            seed,
            main_mem,
            benches,
        } => {
            let names: Vec<&str> = benches.iter().map(|b| b.name()).collect();
            format!(
                "al_{}_i{}_w{}_s{:x}_{}_b{}",
                org_token(*org),
                insts,
                warmup,
                seed,
                main_mem.token(),
                names.join(".")
            )
        }
    }
}

fn field<'a>(tokens: &'a [&'a str], idx: usize, what: &str) -> Result<&'a str, String> {
    tokens
        .get(idx)
        .copied()
        .ok_or_else(|| format!("job id is missing its {what} field"))
}

fn tagged<'a>(tok: &'a str, tag: &str) -> Result<&'a str, String> {
    tok.strip_prefix(tag)
        .ok_or_else(|| format!("expected a {tag}-prefixed token, got {tok:?}"))
}

/// Decode a job id back into its payload. Inverse of
/// [`encode_job_id`]; round-tripping is test-locked.
pub fn parse_job_id(id: &str) -> Result<JobPayload, String> {
    if let Some(rest) = id.strip_prefix("ev_") {
        let t: Vec<&str> = rest.split('_').collect();
        if t.len() != 11 {
            return Err(format!("eval job id has {} fields, expected 11", t.len()));
        }
        let org = parse_org_token(field(&t, 0, "org")?)?;
        let design = parse_design_token(field(&t, 1, "design")?)?;
        let remap = tagged(field(&t, 2, "remap")?, "x")? == "1";
        let lee = tagged(field(&t, 3, "lee")?, "l")? == "1";
        let ff: u8 = tagged(field(&t, 4, "flushing factor")?, "ff")?
            .parse()
            .map_err(|_| "bad flushing factor".to_string())?;
        let policy = parse_policy_token(tagged(field(&t, 5, "replacement policy")?, "p")?)?;
        let insts: u64 = tagged(field(&t, 6, "insts")?, "i")?
            .parse()
            .map_err(|_| "bad insts".to_string())?;
        let warmup: u64 = tagged(field(&t, 7, "warmup")?, "w")?
            .parse()
            .map_err(|_| "bad warmup".to_string())?;
        let seed = u64::from_str_radix(tagged(field(&t, 8, "seed")?, "s")?, 16)
            .map_err(|_| "bad seed".to_string())?;
        let main_mem = MainMemKind::parse_token(field(&t, 9, "main memory")?)?;
        let mixes: Vec<u32> = tagged(field(&t, 10, "mixes")?, "m")?
            .split('.')
            .map(|m| m.parse().map_err(|_| format!("bad mix id {m:?}")))
            .collect::<Result<_, _>>()?;
        if mixes.is_empty() {
            return Err("eval job carries no mixes".to_string());
        }
        Ok(JobPayload::Eval {
            spec: RunSpec {
                design,
                org,
                remap,
                lee,
                flushing_factor: ff,
                policy,
                main_mem,
                insts,
                warmup,
                seed,
            },
            mixes,
        })
    } else if let Some(rest) = id.strip_prefix("al_") {
        let t: Vec<&str> = rest.split('_').collect();
        if t.len() != 6 {
            // Also catches benchmark names containing '_' (registered
            // trace stems), which the grammar cannot carry.
            return Err(format!("alone job id has {} fields, expected 6", t.len()));
        }
        let org = parse_org_token(field(&t, 0, "org")?)?;
        let insts: u64 = tagged(field(&t, 1, "insts")?, "i")?
            .parse()
            .map_err(|_| "bad insts".to_string())?;
        let warmup: u64 = tagged(field(&t, 2, "warmup")?, "w")?
            .parse()
            .map_err(|_| "bad warmup".to_string())?;
        let seed = u64::from_str_radix(tagged(field(&t, 3, "seed")?, "s")?, 16)
            .map_err(|_| "bad seed".to_string())?;
        let main_mem = MainMemKind::parse_token(field(&t, 4, "main memory")?)?;
        let benches: Vec<Benchmark> = tagged(field(&t, 5, "benches")?, "b")?
            .split('.')
            .map(|n| {
                Benchmark::from_name(n).ok_or_else(|| format!("unknown benchmark {n:?} in job id"))
            })
            .collect::<Result<_, _>>()?;
        if benches.is_empty() {
            return Err("alone job carries no benchmarks".to_string());
        }
        Ok(JobPayload::Alone {
            org,
            insts,
            warmup,
            seed,
            main_mem,
            benches,
        })
    } else {
        Err(format!(
            "job id {id:?} has neither an ev_ nor an al_ prefix"
        ))
    }
}

// ---------------------------------------------------------------------
// Figure planning
// ---------------------------------------------------------------------

/// One evaluation unit a figure needs: a labelled `RunSpec` swept over
/// the scale's mixes.
#[derive(Clone, Debug)]
pub struct EvalUnit {
    /// Column/row label in the rendered figure.
    pub label: String,
    /// The spec to evaluate.
    pub spec: RunSpec,
}

impl EvalUnit {
    fn new(label: impl Into<String>, spec: RunSpec) -> EvalUnit {
        EvalUnit {
            label: label.into(),
            spec,
        }
    }
}

/// Everything the planner knows about one shardable figure.
#[derive(Clone, Debug)]
pub struct FigurePlan {
    /// Canonical figure name (`fig8`, …, `ablation_ff`).
    pub name: &'static str,
    /// Evaluation units in deterministic render order.
    pub units: Vec<EvalUnit>,
    /// Mix ids the units sweep, in order.
    pub mixes: Vec<u32>,
}

/// The shardable figures, in `--all` order. (`table1/2`, `fig7` and
/// `fig18` are cheap or structurally different and stay local to the
/// coordinator.)
pub const SHARDED_FIGURES: &[&str] = &[
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig19",
    "ablation_ff",
    "mainmem",
    "designs",
];

/// Main-memory backends the sensitivity sweep evaluates, in render
/// order: the flat seed model, then the cycle-level DDR4 device at
/// full, half and quarter data bandwidth.
pub const MAINMEM_SWEEP: &[MainMemKind] = &[
    MainMemKind::Flat,
    MainMemKind::Ddr4 { slow: 1 },
    MainMemKind::Ddr4 { slow: 2 },
    MainMemKind::Ddr4 { slow: 4 },
];

/// Main-memory backends the design-comparison table sweeps: the fast
/// DDR4 tier and the slow 3DXPoint-like tier (where fill-traffic
/// economy matters most).
pub const DESIGNS_MAINMEMS: &[MainMemKind] = &[MainMemKind::Ddr4 { slow: 1 }, MainMemKind::Xpoint];

/// Replacement policies the design-comparison table sweeps: the seed
/// SRRIP and plain LRU (the two ends of the scan-resistance spectrum;
/// `lruc`/`lrud` remain reachable via [`RunSpec::with_policy`]).
pub const DESIGNS_POLICIES: &[ReplacementPolicy] =
    &[ReplacementPolicy::Srrip, ReplacementPolicy::Lru];

/// Plan `name` at `scale`, or `None` for a figure that is not sharded.
pub fn figure_plan(name: &str, scale: &Scale) -> Option<FigurePlan> {
    let sa = OrgKind::paper_set_assoc();
    let dm = OrgKind::DirectMapped;
    let spec = |design, org| RunSpec::at_scale(design, org, scale);
    let mut units = Vec::new();
    let canonical = match name {
        "fig8" | "fig9" => {
            let remap = name == "fig9";
            for org in [sa, dm] {
                // Unit 0 of each org is the CD/no-remap baseline the
                // paper normalises both figures to.
                units.push(EvalUnit::new(
                    format!("CD-base-{}", org.label()),
                    spec(Design::Cd, org),
                ));
                for design in Design::ALL {
                    let mut s = spec(design, org);
                    if remap {
                        s = s.with_remap();
                    }
                    units.push(EvalUnit::new(design.label(), s));
                }
            }
            if remap {
                "fig9"
            } else {
                "fig8"
            }
        }
        "fig10" | "fig11" => {
            let org = if name == "fig10" { sa } else { dm };
            for design in Design::ALL {
                units.push(EvalUnit::new(design.label(), spec(design, org)));
            }
            for design in Design::ALL {
                units.push(EvalUnit::new(
                    format!("XOR+{}", design.label()),
                    spec(design, org).with_remap(),
                ));
            }
            if name == "fig10" {
                "fig10"
            } else {
                "fig11"
            }
        }
        "fig12" | "fig13" => {
            let org = if name == "fig12" { sa } else { dm };
            units.push(EvalUnit::new("CD-base", spec(Design::Cd, org)));
            for design in Design::ALL {
                units.push(EvalUnit::new(design.label(), spec(design, org)));
            }
            for design in Design::ALL {
                units.push(EvalUnit::new(
                    format!("XOR+{}", design.label()),
                    spec(design, org).with_remap(),
                ));
            }
            if name == "fig12" {
                "fig12"
            } else {
                "fig13"
            }
        }
        "fig14" | "fig15" => {
            let org = if name == "fig14" { sa } else { dm };
            for design in Design::ALL {
                units.push(EvalUnit::new(design.label(), spec(design, org)));
            }
            if name == "fig14" {
                "fig14"
            } else {
                "fig15"
            }
        }
        "fig16" | "fig17" => {
            let org = if name == "fig16" { sa } else { dm };
            for design in Design::ALL {
                units.push(EvalUnit::new(design.label(), spec(design, org)));
                units.push(EvalUnit::new(
                    format!("XOR+{}", design.label()),
                    spec(design, org).with_remap(),
                ));
            }
            if name == "fig16" {
                "fig16"
            } else {
                "fig17"
            }
        }
        "fig19" => {
            for design in Design::ALL {
                units.push(EvalUnit::new(
                    format!("LEE+{}", design.label()),
                    spec(design, dm).with_lee(),
                ));
            }
            "fig19"
        }
        "ablation_ff" => {
            for ff in 1..=5u8 {
                let mut s = spec(Design::Dca, sa);
                s.flushing_factor = ff;
                units.push(EvalUnit::new(format!("FF-{ff}"), s));
            }
            "ablation_ff"
        }
        "mainmem" => {
            // Main-memory sensitivity: CD and DCA per backend, so the
            // table shows both absolute WS and whether DCA's edge
            // survives a slower (or cycle-accurate) backing store.
            for &mm in MAINMEM_SWEEP {
                for design in [Design::Cd, Design::Dca] {
                    units.push(EvalUnit::new(
                        format!("{}+{}", mm.label(), design.label()),
                        spec(design, dm).with_main_mem(mm),
                    ));
                }
            }
            "mainmem"
        }
        "designs" => {
            // Design comparison: all four controller organisations ×
            // replacement policy × main-memory tier, on the paper's
            // direct-mapped org. The XPoint column shows whether
            // Banshee's fill economy pays off once the backing store
            // is slow; the LRU column whether the ranking is
            // policy-robust.
            for &mm in DESIGNS_MAINMEMS {
                for &policy in DESIGNS_POLICIES {
                    for design in Design::ALL {
                        units.push(EvalUnit::new(
                            format!("{}+{}+{}", mm.label(), policy.label(), design.label()),
                            spec(design, dm).with_main_mem(mm).with_policy(policy),
                        ));
                    }
                }
            }
            "designs"
        }
        _ => return None,
    };
    Some(FigurePlan {
        name: canonical,
        units,
        mixes: scale.mixes.clone(),
    })
}

fn chunked<T: Clone>(items: &[T], chunk: usize) -> Vec<Vec<T>> {
    items.chunks(chunk.max(1)).map(<[T]>::to_vec).collect()
}

/// Decompose `plans` into a deduplicated job list: per-unit eval jobs
/// over `chunk`-sized mix slices, plus per-org alone-IPC jobs over the
/// benchmarks those mixes contain. Identical units across figures
/// collapse (the id is canonical), so `--all` never runs a spec twice.
pub fn plan_jobs(plans: &[FigurePlan], chunk: usize) -> Vec<Job> {
    let mut seen = HashSet::new();
    let mut jobs = Vec::new();
    let mut push = |payload: JobPayload| {
        let job = Job::new(payload);
        if seen.insert(job.id.clone()) {
            jobs.push(job);
        }
    };
    for plan in plans {
        // Trace mixes/workloads are registered per process, so a worker
        // subprocess could never resolve them — and registered trace
        // names (file stems with '_') don't fit the id grammar. Refuse
        // loudly at planning time instead of garbling a job id.
        for &id in &plan.mixes {
            assert!(
                id < dca_cpu::CUSTOM_MIX_BASE,
                "mix {id} is a runtime-registered (trace) mix; the trace registry is \
                 process-local, so trace workloads cannot be sharded across worker processes"
            );
        }
        // Alone jobs first: the merge needs the full table anyway, and
        // scheduling them early keeps workers busy with short runs
        // while the 4-core evals stream in behind them. One alone table
        // per (org, main-memory backend) pair the plan's units touch.
        let mut keys: Vec<(OrgKind, MainMemKind)> = Vec::new();
        for u in &plan.units {
            if !keys.contains(&(u.spec.org, u.spec.main_mem)) {
                keys.push((u.spec.org, u.spec.main_mem));
            }
        }
        let mut benches: Vec<Benchmark> =
            plan.mixes.iter().flat_map(|&id| mix(id).benches).collect();
        benches.sort();
        benches.dedup();
        for (org, main_mem) in keys {
            let scale_of = &plan.units[0].spec;
            for bench_chunk in chunked(&benches, chunk) {
                push(JobPayload::Alone {
                    org,
                    insts: scale_of.insts,
                    warmup: scale_of.warmup,
                    seed: scale_of.seed,
                    main_mem,
                    benches: bench_chunk,
                });
            }
        }
        for unit in &plan.units {
            for mix_chunk in chunked(&plan.mixes, chunk) {
                push(JobPayload::Eval {
                    spec: unit.spec,
                    mixes: mix_chunk,
                });
            }
        }
    }
    jobs
}

// ---------------------------------------------------------------------
// Execution + partial encoding
// ---------------------------------------------------------------------

/// What a finished job reports.
#[derive(Clone, Debug, PartialEq)]
pub enum JobResult {
    /// Per-mix measurements, in payload mix order.
    Eval(Vec<MixPoint>),
    /// `(benchmark, alone IPC)` pairs, in payload bench order.
    Alone(Vec<(Benchmark, f64)>),
}

/// Execute one job in-process, sequentially. Workers are the unit of
/// parallelism in sharded mode, so a job deliberately does not spawn
/// threads of its own; the inline (serial) path instead parallelises
/// *across* jobs with [`run_parallel`].
pub fn execute_job(payload: &JobPayload) -> JobResult {
    match payload {
        JobPayload::Eval { spec, mixes } => {
            JobResult::Eval(mixes.iter().map(|&m| MixPoint::measure(spec, m)).collect())
        }
        JobPayload::Alone {
            org,
            insts,
            warmup,
            seed,
            main_mem,
            benches,
        } => {
            let spec = RunSpec {
                design: Design::Cd,
                org: *org,
                remap: false,
                lee: false,
                flushing_factor: 4,
                policy: ReplacementPolicy::Srrip,
                main_mem: *main_mem,
                insts: *insts,
                warmup: *warmup,
                seed: *seed,
            };
            JobResult::Alone(
                benches
                    .iter()
                    .map(|&b| (b, spec.run_benches(&[b]).cores[0].ipc))
                    .collect(),
            )
        }
    }
}

fn f64_fields(name: &str, v: f64) -> String {
    format!("\"{name}_bits\": {}, \"{name}\": {v:.6}", v.to_bits())
}

/// Render a job's partial as JSON (see the module docs for the schema).
pub fn encode_partial(job_id: &str, result: &JobResult) -> String {
    let mut out = format!("{{\n  \"schema\": {PARTIAL_SCHEMA},\n  \"job\": \"{job_id}\",\n");
    match result {
        JobResult::Eval(points) => {
            out.push_str("  \"kind\": \"eval\",\n  \"points\": [");
            for (i, p) in points.iter().enumerate() {
                let bits: Vec<String> =
                    p.core_ipc.iter().map(|v| v.to_bits().to_string()).collect();
                let readable: Vec<String> = p.core_ipc.iter().map(|v| format!("{v:.6}")).collect();
                let sep = if i + 1 < points.len() { "," } else { "" };
                out.push_str(&format!(
                    "\n    {{\"mix\": {}, \"ipc_bits\": [{}], \"ipc\": [{}], {}, {}, {}}}{}",
                    p.mix,
                    bits.join(", "),
                    readable.join(", "),
                    f64_fields("miss_ns", p.miss_latency_ns),
                    f64_fields("apt", p.apt),
                    f64_fields("row_hit", p.row_hit),
                    sep
                ));
            }
            out.push_str("\n  ]\n}\n");
        }
        JobResult::Alone(rows) => {
            out.push_str("  \"kind\": \"alone\",\n  \"alone\": [");
            for (i, (bench, ipc)) in rows.iter().enumerate() {
                let sep = if i + 1 < rows.len() { "," } else { "" };
                out.push_str(&format!(
                    "\n    {{\"bench\": \"{}\", {}}}{}",
                    bench.name(),
                    f64_fields("ipc", *ipc),
                    sep
                ));
            }
            out.push_str("\n  ]\n}\n");
        }
    }
    out
}

/// Parse and validate a partial against the job it must describe:
/// schema version, job id, result kind, and exact mix/bench coverage
/// all have to line up, or the partial is rejected (the coordinator
/// then re-runs the job — a stale or foreign file can never leak into
/// a figure).
pub fn decode_partial(text: &str, job: &Job) -> Result<JobResult, String> {
    let v = json::parse(text)?;
    if v.get_u64("schema") != Some(PARTIAL_SCHEMA) {
        return Err(format!("partial schema is not {PARTIAL_SCHEMA}"));
    }
    if v.get_str("job") != Some(&job.id) {
        return Err("partial names a different job".to_string());
    }
    match (&job.payload, v.get_str("kind")) {
        (JobPayload::Eval { mixes, .. }, Some("eval")) => {
            let points = v
                .get("points")
                .and_then(json::Value::as_arr)
                .ok_or("partial has no points array")?;
            let mut out = Vec::with_capacity(points.len());
            for p in points {
                let ipc_bits = p
                    .get("ipc_bits")
                    .and_then(json::Value::as_arr)
                    .ok_or("point has no ipc_bits")?;
                out.push(MixPoint {
                    mix: p.get_u64("mix").ok_or("point has no mix")? as u32,
                    core_ipc: ipc_bits
                        .iter()
                        .map(|b| b.as_u64().map(f64::from_bits).ok_or("bad ipc bits"))
                        .collect::<Result<_, _>>()?,
                    miss_latency_ns: p.get_f64_bits("miss_ns_bits").ok_or("bad miss_ns bits")?,
                    apt: p.get_f64_bits("apt_bits").ok_or("bad apt bits")?,
                    row_hit: p.get_f64_bits("row_hit_bits").ok_or("bad row_hit bits")?,
                });
            }
            let got: Vec<u32> = out.iter().map(|p| p.mix).collect();
            if &got != mixes {
                return Err(format!("partial covers mixes {got:?}, job wants {mixes:?}"));
            }
            Ok(JobResult::Eval(out))
        }
        (JobPayload::Alone { benches, .. }, Some("alone")) => {
            let rows = v
                .get("alone")
                .and_then(json::Value::as_arr)
                .ok_or("partial has no alone array")?;
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let name = r.get_str("bench").ok_or("alone row has no bench")?;
                let bench = Benchmark::from_name(name)
                    .ok_or_else(|| format!("unknown benchmark {name:?} in partial"))?;
                out.push((bench, r.get_f64_bits("ipc_bits").ok_or("bad ipc bits")?));
            }
            let got: Vec<Benchmark> = out.iter().map(|(b, _)| *b).collect();
            if &got != benches {
                return Err("partial covers different benchmarks than the job".to_string());
            }
            Ok(JobResult::Alone(out))
        }
        (_, kind) => Err(format!("partial kind {kind:?} does not match the job")),
    }
}

/// Path of `job`'s partial.
pub fn partial_path(job_id: &str) -> PathBuf {
    partials_dir().join(format!("{job_id}.json"))
}

pub(crate) fn write_partial_atomic(job_id: &str, text: &str) -> std::io::Result<()> {
    let path = partial_path(job_id);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, &path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Run one job for a `figures --worker --serve` worker (one `RUN`
/// frame): decode the id, execute, and write the partial atomically.
pub fn run_worker(job_id: &str) -> Result<(), String> {
    let payload = parse_job_id(job_id)?;
    let result = execute_job(&payload);
    let text = encode_partial(job_id, &result);
    write_partial_atomic(job_id, &text)
        .map_err(|e| format!("cannot write partial for {job_id}: {e}"))
}

// ---------------------------------------------------------------------
// Merged store
// ---------------------------------------------------------------------

/// All partial results of a run, merged and queryable by the figure
/// renderers. Serial and sharded modes both build one of these, so the
/// math downstream of it is shared — the heart of the bit-identity
/// guarantee.
#[derive(Default)]
pub struct PartialStore {
    eval: HashMap<String, Vec<MixPoint>>,
    alone: HashMap<(Benchmark, &'static str, MainMemKind), f64>,
}

impl PartialStore {
    /// Record one finished job.
    pub fn insert(&mut self, job: &Job, result: JobResult) {
        match (&job.payload, result) {
            (JobPayload::Eval { .. }, JobResult::Eval(points)) => {
                self.eval.insert(job.id.clone(), points);
            }
            (JobPayload::Alone { org, main_mem, .. }, JobResult::Alone(rows)) => {
                for (bench, ipc) in rows {
                    self.alone.insert((bench, org.label(), *main_mem), ipc);
                }
            }
            _ => unreachable!("decode_partial enforces kind agreement"),
        }
    }

    /// Alone IPC of `bench` under `org` × `main_mem`, if that run has
    /// been merged (it can legitimately be missing when the supervisor
    /// quarantined the alone job).
    pub fn try_alone_ipc(
        &self,
        bench: Benchmark,
        org: OrgKind,
        main_mem: MainMemKind,
    ) -> Option<f64> {
        self.alone.get(&(bench, org.label(), main_mem)).copied()
    }

    /// Alone IPC of `bench` under `org` × `main_mem`.
    ///
    /// # Panics
    /// Panics if the planner never scheduled that alone run — a plan
    /// bug, not a runtime condition.
    pub fn alone_ipc(&self, bench: Benchmark, org: OrgKind, main_mem: MainMemKind) -> f64 {
        self.try_alone_ipc(bench, org, main_mem).unwrap_or_else(|| {
            panic!(
                "no alone IPC for {}/{}/{}",
                bench.name(),
                org.label(),
                main_mem.label()
            )
        })
    }

    /// Resolve one evaluation unit into a [`DesignSummary`] by
    /// concatenating its chunk partials in mix order.
    pub fn summary(
        &self,
        unit: &EvalUnit,
        mixes: &[u32],
        chunk: usize,
    ) -> Result<DesignSummary, String> {
        let mut points = Vec::with_capacity(mixes.len());
        for mix_chunk in chunked(mixes, chunk) {
            let id = encode_job_id(&JobPayload::Eval {
                spec: unit.spec,
                mixes: mix_chunk,
            });
            points.extend_from_slice(
                self.eval
                    .get(&id)
                    .ok_or_else(|| format!("missing partial for job {id}"))?,
            );
        }
        // A quarantined alone job leaves holes in the alone table;
        // surface that as a missing summary (the renderer draws a
        // hole), not a panic.
        for &m in mixes {
            for &b in &mix(m).benches {
                if self
                    .try_alone_ipc(b, unit.spec.org, unit.spec.main_mem)
                    .is_none()
                {
                    return Err(format!(
                        "missing alone IPC for {}/{} (quarantined or unplanned alone job)",
                        b.name(),
                        unit.spec.org.label()
                    ));
                }
            }
        }
        Ok(summarize(&unit.label, unit.spec.org, &points, |b, org| {
            self.alone_ipc(b, org, unit.spec.main_mem)
        }))
    }
}

/// Execute `jobs` in-process (the serial path), parallelising across
/// jobs with [`run_parallel`]. Produces the same store a coordinator
/// merge does.
pub fn execute_inline(jobs: &[Job]) -> PartialStore {
    let results = run_parallel(jobs.to_vec(), |job| {
        let result = execute_job(&job.payload);
        (job, result)
    });
    let mut store = PartialStore::default();
    for (job, result) in results {
        store.insert(&job, result);
    }
    store
}

// ---------------------------------------------------------------------
// Warm groups, resume, and partial hygiene
// ---------------------------------------------------------------------

/// The **warm group** of a job: jobs in one group share warm-state
/// fingerprints (warm-up is design-, remap-, lee-, ff- and
/// main-memory-independent, but **policy-dependent** — warm-up evicts
/// through the replacement policy), so the supervisor routes a group to
/// one worker and that worker builds each warm state exactly once for
/// the whole group. Eval groups key on
/// `(org, policy, scale, seed, mixes)`; alone groups on
/// `(org, scale, seed, benches)` (alone runs are always SRRIP) — i.e.
/// the job id minus the fields warm-up ignores.
pub fn warm_group(payload: &JobPayload) -> String {
    match payload {
        JobPayload::Eval { spec, mixes } => {
            let m: Vec<String> = mixes.iter().map(u32::to_string).collect();
            format!(
                "ev_{}_p{}_i{}_w{}_s{:x}_m{}",
                org_token(spec.org),
                spec.policy.label(),
                spec.insts,
                spec.warmup,
                spec.seed,
                m.join(".")
            )
        }
        JobPayload::Alone {
            org,
            insts,
            warmup,
            seed,
            benches,
            ..
        } => {
            let b: Vec<&str> = benches.iter().map(|b| b.name()).collect();
            format!(
                "al_{}_i{insts}_w{warmup}_s{seed:x}_b{}",
                org_token(*org),
                b.join(".")
            )
        }
    }
}

/// A valid on-disk partial for `job`, if one exists (crash resume).
pub fn load_existing_partial(job: &Job) -> Option<JobResult> {
    let path = partial_path(&job.id);
    let text = std::fs::read_to_string(&path).ok()?;
    match decode_partial(&text, job) {
        Ok(result) => Some(result),
        Err(why) => {
            eprintln!(
                "figures: warning: ignoring invalid partial {} ({why}); re-running the job",
                path.display()
            );
            None
        }
    }
}

/// Remove partials under [`partials_dir`] whose job id is not in
/// `valid` — leftovers from an older plan or scale that would linger
/// (and mislead a future resume) forever. The quarantine record and
/// non-partial files (temporaries, locks) are never touched. Returns
/// how many files were pruned.
pub fn prune_orphans(valid: &HashSet<String>) -> usize {
    let Ok(entries) = std::fs::read_dir(partials_dir()) else {
        return 0;
    };
    let mut pruned = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name.strip_suffix(".json") else {
            continue; // temporaries (.tmp.<pid>) and anything foreign
        };
        if stem == "quarantine" {
            continue;
        }
        // Only files that *are* partials of this harness are fair game:
        // a stem that doesn't parse as a job id is not ours to delete.
        if parse_job_id(stem).is_err() || valid.contains(stem) {
            continue;
        }
        if std::fs::remove_file(&path).is_ok() {
            pruned += 1;
        }
    }
    pruned
}

// ---------------------------------------------------------------------
// Minimal JSON (the workspace is offline — no serde)
// ---------------------------------------------------------------------

/// A tiny recursive-descent JSON reader, just enough for the partial
/// schema. Numbers are kept as raw text so 64-bit bit patterns round-
/// trip exactly (no intermediate f64).
pub mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number, kept as its source text.
        Num(String),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Member `key` of an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// String content, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Array elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The number parsed as `u64`.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(s) => s.parse().ok(),
                _ => None,
            }
        }

        /// `get(key)` as a string.
        pub fn get_str(&self, key: &str) -> Option<&str> {
            self.get(key).and_then(Value::as_str)
        }

        /// `get(key)` as a `u64`.
        pub fn get_u64(&self, key: &str) -> Option<u64> {
            self.get(key).and_then(Value::as_u64)
        }

        /// `get(key)` as `f64::from_bits` of a `u64` member.
        pub fn get_f64_bits(&self, key: &str) -> Option<f64> {
            self.get_u64(key).map(f64::from_bits)
        }
    }

    /// Escape `s` for embedding in a JSON string literal (quotes not
    /// included). Control bytes become `\u00XX`.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Parse one JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {pos:?}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let Value::Str(key) = string(b, pos)? else {
                        unreachable!()
                    };
                    expect(b, pos, b':')?;
                    fields.push((key, value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                    }
                }
            }
            Some(b'"') => string(b, pos),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *pos;
                *pos += 1;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    *pos += 1;
                }
                Ok(Value::Num(
                    std::str::from_utf8(&b[start..*pos])
                        .map_err(|_| "bad number".to_string())?
                        .to_string(),
                ))
            }
            _ => Err(format!("unexpected byte at offset {pos}")),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected '\"' at offset {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(Value::Str(out)),
                b'\\' => {
                    let esc = b.get(*pos).copied().ok_or("truncated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                            *pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        _ => return Err(format!("unknown escape \\{}", esc as char)),
                    }
                }
                _ => {
                    // Re-scan the UTF-8 sequence starting at c.
                    let start = *pos - 1;
                    let mut end = *pos;
                    while end < b.len() && b[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&b[start..end]).map_err(|_| "bad utf-8")?;
                    let ch = s.chars().next().ok_or("bad utf-8")?;
                    out.push(ch);
                    *pos = start + ch.len_utf8();
                }
            }
        }
        Err("unterminated string".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    fn tiny_scale() -> Scale {
        Scale {
            insts: 3_000,
            warmup: 6_000,
            mixes: vec![1, 2],
        }
    }

    #[test]
    fn job_ids_round_trip() {
        let scale = tiny_scale();
        let mut payloads = Vec::new();
        for name in SHARDED_FIGURES {
            let plan = figure_plan(name, &scale).expect("shardable");
            for job in plan_jobs(&[plan], 1) {
                payloads.push((job.id.clone(), job.payload));
            }
        }
        assert!(!payloads.is_empty());
        for (id, payload) in payloads {
            assert_eq!(parse_job_id(&id).expect(&id), payload, "{id}");
            // Ids must be filesystem-safe.
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '+')),
                "unsafe id {id}"
            );
        }
    }

    #[test]
    fn bad_job_ids_are_rejected() {
        for id in [
            "",
            "zz_dm_cd",
            "ev_dm",
            "ev_qq_cd_x0_l0_ff4_psrrip_i1_w1_s0_mmf_m1",
            "ev_dm_cd_x0_l0_ff4_psrrip_i1_w1_s0_mmf_m",
            "al_dm_i1_w1_s0_bnosuchbench",
            // Trailing fields (e.g. a trace stem with '_') must not be
            // silently ignored.
            "ev_dm_cd_x0_l0_ff4_psrrip_i1_w1_s0_mmf_m1_extra",
            "al_dm_i1_w1_s0_mmf_bgcc_2800",
            // Unknown / malformed tokens for the main-memory backend,
            // the replacement policy, and the design.
            "ev_dm_cd_x0_l0_ff4_psrrip_i1_w1_s0_mmq_m1",
            "ev_dm_cd_x0_l0_ff4_psrrip_i1_w1_s0_mmd0_m1",
            "ev_dm_cd_x0_l0_ff4_pfifo_i1_w1_s0_mmf_m1",
            "ev_dm_ban2_x0_l0_ff4_psrrip_i1_w1_s0_mmf_m1",
            "al_dm_i1_w1_s0_mmd_bgcc",
            // Ids with a field too many or too few must not half-parse.
            "ev_dm_cd_x0_l0_ff4_psrrip_i1_w1_s0_mmf_ecal_m1",
            "ev_dm_cd_x0_l0_ff4_i1_w1_s0_mmf_m1",
            "ev_dm_cd_x0_l0_ff4_i1_w1_s0_m1",
            "al_dm_i1_w1_s0_bgcc",
        ] {
            assert!(parse_job_id(id).is_err(), "{id:?} should not parse");
        }
    }

    #[test]
    fn warm_group_ignores_design_remap_ff_and_backend() {
        let scale = tiny_scale();
        let plans: Vec<FigurePlan> = ["fig12", "fig14", "mainmem"]
            .iter()
            .filter_map(|n| figure_plan(n, &scale))
            .collect();
        let jobs = plan_jobs(&plans, 4);
        // All SA eval units (CD/ROD/DCA/XOR+…) share one warm group…
        let sa_eval: HashSet<String> = jobs
            .iter()
            .filter(|j| {
                matches!(&j.payload, JobPayload::Eval { spec, .. }
                    if spec.org == OrgKind::paper_set_assoc())
            })
            .map(|j| warm_group(&j.payload))
            .collect();
        assert_eq!(sa_eval.len(), 1, "{sa_eval:?}");
        // …including across main-memory backends (warm-up never touches
        // main memory timing): the DM mainmem sweep collapses too.
        let dm_eval: HashSet<String> = jobs
            .iter()
            .filter(|j| {
                matches!(&j.payload, JobPayload::Eval { spec, .. }
                    if spec.org == OrgKind::DirectMapped)
            })
            .map(|j| warm_group(&j.payload))
            .collect();
        assert_eq!(dm_eval.len(), 1, "{dm_eval:?}");
        // Eval and alone groups stay distinct (different warm shapes).
        let alone: HashSet<String> = jobs
            .iter()
            .filter(|j| matches!(j.payload, JobPayload::Alone { .. }))
            .map(|j| warm_group(&j.payload))
            .collect();
        assert!(alone
            .iter()
            .all(|g| !sa_eval.contains(g) && !dm_eval.contains(g)));
    }

    #[test]
    fn json_escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te\r\u{1}ü";
        let doc = format!("{{\"k\": \"{}\"}}", json::escape(nasty));
        let v = json::parse(&doc).expect("escaped string parses");
        assert_eq!(v.get_str("k"), Some(nasty));
    }

    #[test]
    fn mainmem_plan_sweeps_backends_and_keys_alone_jobs_per_backend() {
        let scale = tiny_scale();
        let plan = figure_plan("mainmem", &scale).expect("shardable");
        assert_eq!(plan.units.len(), 2 * MAINMEM_SWEEP.len());
        // CD/DCA pairs share each backend; labels carry it.
        assert!(plan.units[0].label.starts_with("flat-50ns"));
        assert!(plan.units[2].label.starts_with("ddr4-2400+"));
        let jobs = plan_jobs(std::slice::from_ref(&plan), 4);
        let alone: Vec<&Job> = jobs
            .iter()
            .filter(|j| matches!(j.payload, JobPayload::Alone { .. }))
            .collect();
        // Alone tables exist for *every* backend (single org), so
        // speedups are normalised within their own backend.
        let mut mms: Vec<MainMemKind> = Vec::new();
        for j in &alone {
            let JobPayload::Alone { main_mem, .. } = &j.payload else {
                unreachable!()
            };
            if !mms.contains(main_mem) {
                mms.push(*main_mem);
            }
        }
        assert_eq!(mms.len(), MAINMEM_SWEEP.len());
        assert_eq!(alone.len() % MAINMEM_SWEEP.len(), 0);
    }

    #[test]
    fn designs_plan_covers_the_full_matrix_and_splits_warm_groups_by_policy() {
        let scale = tiny_scale();
        let plan = figure_plan("designs", &scale).expect("shardable");
        assert_eq!(
            plan.units.len(),
            DESIGNS_MAINMEMS.len() * DESIGNS_POLICIES.len() * Design::ALL.len()
        );
        // Every (backend, policy, design) cell is present and labelled.
        for &mm in DESIGNS_MAINMEMS {
            for &policy in DESIGNS_POLICIES {
                for design in Design::ALL {
                    let label = format!("{}+{}+{}", mm.label(), policy.label(), design.label());
                    assert!(
                        plan.units.iter().any(|u| u.label == label),
                        "missing unit {label}"
                    );
                }
            }
        }
        let jobs = plan_jobs(std::slice::from_ref(&plan), 4);
        // Warm-up evicts through the policy, so eval warm groups must
        // split by policy — but not by design or backend.
        let groups: HashSet<String> = jobs
            .iter()
            .filter(|j| matches!(j.payload, JobPayload::Eval { .. }))
            .map(|j| warm_group(&j.payload))
            .collect();
        assert_eq!(groups.len(), DESIGNS_POLICIES.len(), "{groups:?}");
        // Alone tables (always SRRIP) exist per backend.
        let mut mms: Vec<MainMemKind> = Vec::new();
        for j in &jobs {
            if let JobPayload::Alone { main_mem, .. } = &j.payload {
                if !mms.contains(main_mem) {
                    mms.push(*main_mem);
                }
            }
        }
        assert_eq!(mms.len(), DESIGNS_MAINMEMS.len());
    }

    #[test]
    fn plan_dedupes_shared_units() {
        let scale = tiny_scale();
        let plans: Vec<FigurePlan> = ["fig8", "fig12"]
            .iter()
            .filter_map(|n| figure_plan(n, &scale))
            .collect();
        let jobs = plan_jobs(&plans, 4);
        let mut ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "planner must not emit duplicate jobs");
        // fig8 and fig12 share the SA CD/ROD/DCA no-remap units; the
        // union must be smaller than the sum of the parts.
        let solo: usize = plans
            .iter()
            .map(|p| plan_jobs(std::slice::from_ref(p), 4).len())
            .sum();
        assert!(jobs.len() < solo, "{} !< {solo}", jobs.len());
    }

    #[test]
    fn partial_json_round_trips_exact_bits() {
        let job = Job::new(JobPayload::Eval {
            spec: RunSpec::at_scale(Design::Dca, OrgKind::DirectMapped, &tiny_scale()),
            mixes: vec![1, 2],
        });
        let points = vec![
            MixPoint {
                mix: 1,
                core_ipc: vec![0.1, 0.1 + 0.2, 1.0 / 3.0, 2.0_f64.sqrt()],
                miss_latency_ns: 123.456789,
                apt: std::f64::consts::PI,
                row_hit: 0.999999999999,
            },
            MixPoint {
                mix: 2,
                core_ipc: vec![1.0, 2.0, 3.0, 4.0],
                miss_latency_ns: 0.0,
                apt: f64::MIN_POSITIVE,
                row_hit: 1.0,
            },
        ];
        let text = encode_partial(&job.id, &JobResult::Eval(points.clone()));
        let decoded = decode_partial(&text, &job).expect("valid partial");
        assert_eq!(decoded, JobResult::Eval(points));
    }

    #[test]
    fn alone_partial_round_trips() {
        let job = Job::new(JobPayload::Alone {
            org: OrgKind::paper_set_assoc(),
            insts: 3_000,
            warmup: 6_000,
            seed: DEFAULT_SEED,
            main_mem: MainMemKind::Flat,
            benches: vec![Benchmark::Gcc, Benchmark::GemsFDTD],
        });
        let rows = vec![(Benchmark::Gcc, 0.7312345), (Benchmark::GemsFDTD, 1.25)];
        let text = encode_partial(&job.id, &JobResult::Alone(rows.clone()));
        assert_eq!(
            decode_partial(&text, &job).expect("valid"),
            JobResult::Alone(rows)
        );
    }

    #[test]
    fn partials_are_validated_against_the_job() {
        let scale = tiny_scale();
        let job = Job::new(JobPayload::Eval {
            spec: RunSpec::at_scale(Design::Cd, OrgKind::DirectMapped, &scale),
            mixes: vec![1, 2],
        });
        let other = Job::new(JobPayload::Eval {
            spec: RunSpec::at_scale(Design::Rod, OrgKind::DirectMapped, &scale),
            mixes: vec![1, 2],
        });
        let point = MixPoint {
            mix: 1,
            core_ipc: vec![1.0; 4],
            miss_latency_ns: 1.0,
            apt: 1.0,
            row_hit: 0.5,
        };
        let text = encode_partial(&job.id, &JobResult::Eval(vec![point.clone()]));
        // Wrong job.
        assert!(decode_partial(&text, &other).is_err());
        // Wrong mix coverage (job wants 1 and 2, partial has only 1).
        assert!(decode_partial(&text, &job).is_err());
        // Garbage.
        assert!(decode_partial("{not json", &job).is_err());
        // Wrong schema version.
        let bad = text.replacen("\"schema\": 1", "\"schema\": 99", 1);
        assert!(decode_partial(&bad, &job).is_err());
    }

    #[test]
    fn json_parser_handles_the_basics() {
        let v = json::parse(r#"{"a": [1, -2.5e3], "b": "x\n\"y\" é", "c": true}"#).unwrap();
        assert_eq!(v.get_u64("a"), None);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get_str("b"), Some("x\n\"y\" é"));
        assert_eq!(v.get("c"), Some(&json::Value::Bool(true)));
        assert!(json::parse("{\"a\": 1} trailing").is_err());
        assert!(json::parse("[1, ").is_err());
    }
}
