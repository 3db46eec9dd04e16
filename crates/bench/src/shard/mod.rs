//! Figure runs as jobs: the job model, JSON partials, and the one
//! runner behind `figures`.
//!
//! ## Model
//!
//! A figure run decomposes into independent **jobs**, one per
//! `(design, org, remap, lee, ff, mix-chunk)` evaluation unit plus one
//! per `(org, benchmark-chunk)` alone-IPC unit. Each job has a
//! **canonical id** derived from its payload (spec fields, scale, seed,
//! mix/bench list). The id is only a key: the file name of the job's
//! partial and the `job` field [`decode_partial`] checks. The grammar:
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
//! The runner writes one machine-readable JSON **partial** per job to
//! `results/partials/<job>.json` (staged + atomically renamed, so a
//! killed run never leaves a torn file that parses). Schema
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
//! bit pattern (`f64::to_bits`, exact round-trip — the reason a figure
//! rendered from reused partials is *bit-identical* to a fresh one),
//! the plain field is a lossy human-readable mirror for debugging.
//!
//! ## The runner
//!
//! [`run_jobs`] runs every job list `figures` plans, on `--jobs N`
//! threads of one process:
//!
//! 1. **Build stamp.** [`BUILD_STAMP`] records the digest of the
//!    executable that wrote the partials beside it. Another build may
//!    compute different numbers, so on a mismatch every partial there
//!    is discarded (one warning names the count) and the stamp is
//!    rewritten.
//! 2. **Reuse and prune.** Each partial that validates against its job
//!    is reused. A harness partial (an `ev_`/`al_` file) that no job of
//!    the current plan names is an orphan and is removed; other files
//!    are left alone.
//! 3. **Group by warm state.** The simulations of every pending job
//!    (one per mix, or per benchmark of an alone job: the list
//!    [`execute_job`] runs) are grouped by [`WarmState::fingerprint_for`].
//!    Warm-up ignores the design, the remap, the Lee writeback, the
//!    flushing factor and the main-memory backend (not the replacement
//!    policy), so all those variants of a mix share one group. Groups
//!    run largest first, by cores × (simulations + 1), the one being the
//!    warm-up, ties in order of first appearance.
//! 4. **Run.** [`run_parallel`] hands each thread one whole group. The
//!    thread builds the group's warm state with
//!    [`System::capture_warm`], runs each simulation from it, and moves
//!    it into the last one ([`System::from_warm_owned`]) instead of
//!    copying it. So no thread waits on another's warm-up, and at most
//!    one warm state per thread is resident. A job's partial is written
//!    the moment its last report lands. Ctrl-C simply ends the process:
//!    a re-run of the same command reuses every partial already written.
//! 5. **Isolate panics.** A panic while listing a job's simulations,
//!    building a warm state or running a simulation fails only the jobs
//!    it touches. They are reported in [`RunOutcome::failed`] while
//!    every other job finishes and flushes, so a re-run runs only the
//!    failed jobs.
//!
//! Reused and fresh results merge into one [`PartialStore`], which the
//! renderers read; the figure math downstream of it is the same whatever
//! the thread count or the share of reused partials.

use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dca::{Design, System, SystemReport, WarmState};
use dca_cpu::{mix, Benchmark};
use dca_dram_cache::{OrgKind, ReplacementPolicy};
use dca_sim_core::digest64;

use crate::{run_parallel, summarize, DesignSummary, MainMemKind, MixPoint, RunSpec, Scale};

/// Version tag every partial carries; a mismatch invalidates the file.
pub const PARTIAL_SCHEMA: u64 = 1;

/// Default mixes (and alone benchmarks) per job. Small enough that a
/// figure at the default 8-mix scale yields several jobs per unit for
/// the threads to balance, large enough that one job amortises its
/// partial write.
pub const DEFAULT_CHUNK: usize = 4;

/// File, beside the partials, naming the build that wrote them.
pub const BUILD_STAMP: &str = "build.stamp";

/// Directory the partials live under, relative to the harness working
/// directory.
pub fn partials_dir() -> PathBuf {
    PathBuf::from("results").join("partials")
}

// ---------------------------------------------------------------------
// Job model
// ---------------------------------------------------------------------

/// What one job computes.
#[derive(Clone, Debug, PartialEq)]
pub enum JobPayload {
    /// Evaluate `spec` over a chunk of mixes.
    Eval {
        /// Full run specification (scale and seed included).
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
    /// Canonical id (see module docs for the grammar).
    pub id: String,
    /// What the job computes; `id` is derived from it.
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

fn design_token(d: Design) -> &'static str {
    match d {
        Design::Cd => "cd",
        Design::Rod => "rod",
        Design::Dca => "dca",
        Design::Banshee => "ban",
    }
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
/// `fig18` are cheap or structurally different and `figures` renders
/// them directly.)
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
        // Custom mix ids are assigned per process, so a persisted
        // partial for mix 1000 could describe a different trace in the
        // next session. Refuse loudly at planning time.
        for &id in &plan.mixes {
            assert!(
                id < dca_cpu::CUSTOM_MIX_BASE,
                "mix {id} is a runtime-registered (trace) mix; custom mix ids are assigned \
                 per process, so a persisted partial for it could describe a different \
                 trace in the next session"
            );
        }
        // Alone jobs first: the merge needs the full table anyway, and
        // scheduling them early keeps threads busy with short runs
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

/// The simulations a job runs, in order: a spec and the benchmarks on
/// its cores each. [`execute_job`] runs exactly these one after another;
/// [`run_jobs`] groups them by warm state and files each report back
/// under its job and position.
fn simulations(payload: &JobPayload) -> Vec<(RunSpec, Vec<Benchmark>)> {
    match payload {
        JobPayload::Eval { spec, mixes } => mixes
            .iter()
            .map(|&m| (*spec, mix(m).benches.to_vec()))
            .collect(),
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
            benches.iter().map(|&b| (spec, vec![b])).collect()
        }
    }
}

/// Execute one job in-process, sequentially, sharing warm-ups through
/// the global [`WarmCache`](crate::WarmCache). The figure runner does
/// not call it ([`run_jobs`] schedules simulations by warm state); it is
/// the serial reference for one job's result.
pub fn execute_job(payload: &JobPayload) -> JobResult {
    let reports = simulations(payload)
        .into_iter()
        .map(|(spec, benches)| spec.run_benches(&benches));
    job_result(payload, reports)
}

/// A job's result from the reports of its [`simulations`], in order.
fn job_result(payload: &JobPayload, reports: impl IntoIterator<Item = SystemReport>) -> JobResult {
    match payload {
        JobPayload::Eval { mixes, .. } => JobResult::Eval(
            mixes
                .iter()
                .zip(reports)
                .map(|(&m, r)| MixPoint::from_report(m, &r))
                .collect(),
        ),
        JobPayload::Alone { benches, .. } => JobResult::Alone(
            benches
                .iter()
                .zip(reports)
                .map(|(&b, r)| (b, r.cores[0].ipc))
                .collect(),
        ),
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
/// all have to line up, or the partial is rejected (the runner then
/// re-runs the job — a stale or foreign file can never leak into a
/// figure). Which build wrote it is the runner's [`BUILD_STAMP`] check.
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

/// Path of `job`'s partial, relative to the harness working directory.
pub fn partial_path(job_id: &str) -> PathBuf {
    partial_in(&partials_dir(), job_id)
}

/// Path of `job`'s partial under the partials directory `dir`.
fn partial_in(dir: &Path, job_id: &str) -> PathBuf {
    dir.join(format!("{job_id}.json"))
}

/// Write `text` to `path` through a staged temporary and a rename, so
/// a killed run never leaves a torn file behind.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

// ---------------------------------------------------------------------
// Merged store
// ---------------------------------------------------------------------

/// All partial results of a run, merged and queryable by the figure
/// renderers. Reused and fresh partials land here alike, so the math
/// downstream of it is shared — the heart of the bit-identity
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

    /// Alone IPC of `bench` under `org` × `main_mem`.
    ///
    /// # Panics
    /// Panics if the planner never scheduled that alone run — a plan
    /// bug, not a runtime condition.
    pub fn alone_ipc(&self, bench: Benchmark, org: OrgKind, main_mem: MainMemKind) -> f64 {
        self.alone
            .get(&(bench, org.label(), main_mem))
            .copied()
            .unwrap_or_else(|| {
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
        Ok(summarize(&unit.label, unit.spec.org, &points, |b, org| {
            self.alone_ipc(b, org, unit.spec.main_mem)
        }))
    }
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

/// Harness partials under `dir` (`ev_`/`al_` files ending in `.json`),
/// as `(job id, path)`.
fn harness_partials(dir: &Path) -> Vec<(String, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            let id = path
                .file_name()?
                .to_str()?
                .strip_suffix(".json")?
                .to_string();
            (id.starts_with("ev_") || id.starts_with("al_")).then_some((id, path))
        })
        .collect()
}

/// Remove the partials under `dir` whose job id is not in `valid` —
/// leftovers from an older plan or scale that would linger (and mislead
/// a future resume) forever. Only harness partials (`ev_`/`al_` files)
/// are touched; the build stamp, temporaries and foreign files stay.
/// Returns how many files were pruned.
pub fn prune_orphans(dir: &Path, valid: &HashSet<String>) -> usize {
    harness_partials(dir)
        .into_iter()
        .filter(|(id, path)| !valid.contains(id) && std::fs::remove_file(path).is_ok())
        .count()
}

/// Discard every partial under `dir` unless [`BUILD_STAMP`] there names
/// the running executable, then stamp `dir` with it. Partials written
/// by another build may hold numbers this build would not compute.
fn check_build_stamp(dir: &Path) {
    let stamp = dir.join(BUILD_STAMP);
    let current = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|exe| format!("{:016x}\n", digest64(&exe)));
    let recorded = std::fs::read_to_string(&stamp).ok();
    if matches!((&current, &recorded), (Ok(c), Some(r)) if c == r) {
        return;
    }
    let discarded = harness_partials(dir)
        .into_iter()
        .filter(|(_, path)| std::fs::remove_file(path).is_ok())
        .count();
    if discarded > 0 {
        eprintln!(
            "figures: warning: discarded {discarded} partial(s) written by another build of figures"
        );
    }
    let stamped = match current {
        Ok(text) => write_atomic(&stamp, &text).map_err(|e| e.to_string()),
        Err(e) => {
            let _ = std::fs::remove_file(&stamp);
            Err(format!("cannot read the running executable: {e}"))
        }
    };
    if let Err(e) = stamped {
        eprintln!(
            "figures: warning: cannot stamp {} ({e}); this run's partials will not be reused",
            dir.display()
        );
    }
}

/// A valid partial for `job` under `dir`, if one exists.
fn load_partial(dir: &Path, job: &Job) -> Option<JobResult> {
    let path = partial_in(dir, &job.id);
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

/// Run `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Write `text` as `job_id`'s partial under `dir`, warning on stderr
/// when it cannot be written (a re-run then repeats the job).
fn write_partial(dir: &Path, job_id: &str, text: &str) {
    let path = partial_in(dir, job_id);
    if let Err(e) = write_atomic(&path, text) {
        eprintln!(
            "figures: warning: cannot write {} ({e}); a re-run repeats the job",
            path.display()
        );
    }
}

/// What [`run_jobs`] did.
pub struct RunOutcome {
    /// Every job that finished, reused or run, merged.
    pub store: PartialStore,
    /// Jobs run in this call (every job without a valid partial).
    pub run: usize,
    /// Jobs served from a valid partial.
    pub reused: usize,
    /// Jobs that panicked, as `(job id, panic message)`.
    pub failed: Vec<(String, String)>,
    /// Warm states built: one per group of simulations sharing a
    /// warm-up.
    pub warm_built: usize,
    /// Simulations that restored a warm state built for an earlier
    /// simulation of their group (simulations − groups).
    pub warm_reused: usize,
}

/// One simulation of a pending job: the job (an index into the
/// runner's entries), its position among the job's [`simulations`], and
/// what it runs.
struct Sim {
    job: usize,
    pos: usize,
    spec: RunSpec,
    benches: Vec<Benchmark>,
}

/// A pending job as the runner tracks it: its reports as they land,
/// then its result or its first failure.
struct Entry<'a> {
    job: &'a Job,
    reports: Vec<Option<SystemReport>>,
    left: usize,
    outcome: Option<Result<JobResult, String>>,
}

impl Entry<'_> {
    /// File the report of simulation `pos`. Returns the job's partial
    /// when this was its last report. The first failure fails the job,
    /// and the reports after it are dropped.
    fn land(&mut self, pos: usize, report: Result<SystemReport, String>) -> Option<String> {
        self.left -= 1;
        if self.outcome.is_some() {
            return None;
        }
        match report {
            Ok(r) => self.reports[pos] = Some(r),
            Err(message) => {
                self.outcome = Some(Err(message));
                return None;
            }
        }
        (self.left == 0).then(|| self.finish())
    }

    /// Fold every report into the job's result; returns its partial.
    fn finish(&mut self) -> String {
        let reports = std::mem::take(&mut self.reports)
            .into_iter()
            .map(|r| r.expect("every simulation reported"));
        let result = job_result(&self.job.payload, reports);
        let text = encode_partial(&self.job.id, &result);
        self.outcome = Some(Ok(result));
        text
    }
}

/// Run `jobs` on `threads` threads, keeping their partials under `dir`
/// (see the module docs for the five steps). The unit a thread takes
/// is a group of simulations sharing one warm state, not a job. Each
/// job writes its partial atomically as soon as its last report lands,
/// and a panic is reported in [`RunOutcome::failed`] against the jobs
/// it touches instead of stopping the others.
pub fn run_jobs(jobs: &[Job], threads: usize, dir: &Path) -> RunOutcome {
    check_build_stamp(dir);
    let valid: HashSet<String> = jobs.iter().map(|j| j.id.clone()).collect();
    let pruned = prune_orphans(dir, &valid);
    if pruned > 0 {
        eprintln!("figures: pruned {pruned} orphan partial(s) left by a previous plan");
    }
    let mut store = PartialStore::default();
    let mut pending: Vec<&Job> = Vec::new();
    for job in jobs {
        match load_partial(dir, job) {
            Some(result) => store.insert(job, result),
            None => pending.push(job),
        }
    }
    let reused = jobs.len() - pending.len();
    let run = pending.len();

    // Group the pending simulations by warm state, in order of first
    // appearance. Listing a job's simulations can itself panic (an
    // unknown mix id); such a job fails here, before anything runs.
    let mut failed = Vec::new();
    let mut entries = Vec::with_capacity(pending.len());
    let mut groups: Vec<Vec<Sim>> = Vec::new();
    let mut group_of: HashMap<u64, usize> = HashMap::new();
    for job in pending {
        let listed = guarded(|| {
            simulations(&job.payload)
                .into_iter()
                .map(|(spec, benches)| {
                    let fp = WarmState::fingerprint_for(&spec.config(), &benches);
                    (fp, spec, benches)
                })
                .collect::<Vec<_>>()
        });
        let sims = match listed {
            Ok(sims) => sims,
            Err(message) => {
                failed.push((job.id.clone(), message));
                continue;
            }
        };
        let mut entry = Entry {
            job,
            reports: (0..sims.len()).map(|_| None).collect(),
            left: sims.len(),
            outcome: None,
        };
        if sims.is_empty() {
            write_partial(dir, &job.id, &entry.finish());
        }
        for (pos, (fp, spec, benches)) in sims.into_iter().enumerate() {
            let g = *group_of.entry(fp).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(Sim {
                job: entries.len(),
                pos,
                spec,
                benches,
            });
        }
        entries.push(entry);
    }
    // Largest first, by cores × (simulations + 1), the one being the
    // warm-up; the stable sort keeps ties in order of first appearance.
    groups.sort_by_key(|g| std::cmp::Reverse(g[0].benches.len() * (g.len() + 1)));

    let entries = Mutex::new(entries);
    let land = |sim: &Sim, report: Result<SystemReport, String>| {
        let (job, partial) = {
            let mut entries = entries
                .lock()
                .expect("no thread panics while holding the job entries");
            let entry = &mut entries[sim.job];
            (entry.job, entry.land(sim.pos, report))
        };
        if let Some(text) = partial {
            write_partial(dir, &job.id, &text);
        }
    };
    // Each group yields its size if its warm state was built.
    let built = run_parallel(groups, threads, |group| {
        let first = &group[0];
        let warm = match guarded(|| System::capture_warm(first.spec.config(), &first.benches)) {
            Ok(warm) => warm,
            Err(message) => {
                for sim in &group {
                    land(sim, Err(message.clone()));
                }
                return None;
            }
        };
        let (last, rest) = group.split_last().expect("a group has a simulation");
        for sim in rest {
            let report =
                guarded(|| System::from_warm(sim.spec.config(), &sim.benches, &warm).run());
            land(sim, report);
        }
        let report =
            guarded(|| System::from_warm_owned(last.spec.config(), &last.benches, warm).run());
        land(last, report);
        Some(group.len())
    });
    let built: Vec<usize> = built.into_iter().flatten().collect();

    let entries = entries
        .into_inner()
        .expect("no thread panics while holding the job entries");
    for entry in entries {
        match entry.outcome.expect("every simulation of a job landed") {
            Ok(result) => store.insert(entry.job, result),
            Err(message) => failed.push((entry.job.id.clone(), message)),
        }
    }
    RunOutcome {
        store,
        run,
        reused,
        failed,
        warm_built: built.len(),
        warm_reused: built.iter().map(|n| n - 1).sum(),
    }
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
        // The id is the partial's file name and the key decode_partial
        // checks, so payload -> id -> payload must round-trip through
        // every planned job (no two payloads share an id), and every id
        // must be a filesystem-safe harness name prune_orphans knows.
        let scale = tiny_scale();
        let mut by_id: HashMap<String, JobPayload> = HashMap::new();
        for name in SHARDED_FIGURES {
            let plan = figure_plan(name, &scale).expect("shardable");
            for chunk in [1, DEFAULT_CHUNK] {
                for job in plan_jobs(std::slice::from_ref(&plan), chunk) {
                    let id = job.id.clone();
                    assert!(id.starts_with("ev_") || id.starts_with("al_"), "{id}");
                    assert!(
                        id.chars().all(
                            |c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '+')
                        ),
                        "unsafe id {id}"
                    );
                    let payload = by_id.entry(id.clone()).or_insert(job.payload.clone());
                    assert_eq!(*payload, job.payload, "{id} names two payloads");
                }
            }
        }
        assert!(!by_id.is_empty());
    }

    /// The warm states `job`'s simulations restore from: the key
    /// [`run_jobs`] groups simulations by.
    fn warm_keys(job: &Job) -> Vec<u64> {
        simulations(&job.payload)
            .iter()
            .map(|(spec, benches)| WarmState::fingerprint_for(&spec.config(), benches))
            .collect()
    }

    #[test]
    fn warm_group_ignores_design_remap_ff_and_backend() {
        let scale = tiny_scale();
        let plans: Vec<FigurePlan> = ["fig12", "fig14", "mainmem"]
            .iter()
            .filter_map(|n| figure_plan(n, &scale))
            .collect();
        let jobs = plan_jobs(&plans, 4);
        let eval_keys = |org: OrgKind| -> HashSet<u64> {
            jobs.iter()
                .filter(|j| matches!(&j.payload, JobPayload::Eval { spec, .. } if spec.org == org))
                .flat_map(warm_keys)
                .collect()
        };
        // All SA eval units (CD/ROD/DCA/XOR+…) share one warm state per
        // mix…
        let sa_eval = eval_keys(OrgKind::paper_set_assoc());
        assert_eq!(sa_eval.len(), scale.mixes.len(), "{sa_eval:?}");
        // …including across main-memory backends (warm-up never touches
        // main memory timing): the DM mainmem sweep collapses too.
        let dm_eval = eval_keys(OrgKind::DirectMapped);
        assert_eq!(dm_eval.len(), scale.mixes.len(), "{dm_eval:?}");
        // Eval and alone groups stay distinct (different warm shapes).
        let alone: HashSet<u64> = jobs
            .iter()
            .filter(|j| matches!(j.payload, JobPayload::Alone { .. }))
            .flat_map(warm_keys)
            .collect();
        assert!(alone
            .iter()
            .all(|g| !sa_eval.contains(g) && !dm_eval.contains(g)));
    }

    #[test]
    fn json_escape_round_trips_through_parser() {
        // Every escape the parser knows, plus a raw multi-byte char.
        let doc = r#"{"k": "a\"b\\c\nd\te\r\u0001\/ü"}"#;
        let v = json::parse(doc).expect("escaped string parses");
        assert_eq!(v.get_str("k"), Some("a\"b\\c\nd\te\r\u{1}/ü"));
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
        let groups: HashSet<u64> = jobs
            .iter()
            .filter(|j| matches!(j.payload, JobPayload::Eval { .. }))
            .flat_map(warm_keys)
            .collect();
        assert_eq!(
            groups.len(),
            DESIGNS_POLICIES.len() * scale.mixes.len(),
            "{groups:?}"
        );
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
