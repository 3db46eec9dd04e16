//! The two workloads and their untraced (end-to-end) measurement.
//!
//! * `design-sweep-sa-xpoint` — the set-associative organisation over
//!   the 3DXPoint cycle-level main memory on write-heavy mix 7: one
//!   `System::capture_warm` shared by CD, ROD, DCA and BAN through
//!   `System::from_warm`. Separate tag accesses, many writebacks and a
//!   busy main-memory pump; warm-up is paid once, outside the sweep.
//! * `figure-regen` — `figures --fig8 --fig14 --jobs 2` at reduced
//!   scale in a fresh directory per repetition: the only workload where
//!   the harness (planning, the worker pool, partials, merge, render)
//!   does the work.
//!
//! The seed is the benchmark's argument. For the sweep it becomes
//! `SystemConfig::seed`; `figures` fixes its own seed, so for
//! `figure-regen` the seed picks the order of the mixes instead
//! ([`w3_mixes`]).

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dca::{Design, EngineSel, System, SystemConfig, SystemReport, WarmState};
use dca_bench::shard::{figure_plan, plan_jobs, FigurePlan, Job, JobPayload, DEFAULT_CHUNK};
use dca_bench::Scale;
use dca_cpu::{mix, Benchmark};
use dca_dram_cache::OrgKind;
use dca_sim_core::digest64;

use crate::digest::{golden_path, hex, report_digest, Checker};
use crate::trace::Tracer;
use crate::{host, Args, Outcome};

/// The seed whose results are stored as goldens.
pub const DEFAULT_SEED: u64 = 0;

/// Repetitions every run makes, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// Whether a run that started at `start` and has made `reps`
/// repetitions makes another: always up to [`MIN_REPS`], then only if
/// one more of the average length still ends within `seconds`.
pub fn another_rep(start: Instant, reps: usize, seconds: Duration) -> bool {
    let elapsed = start.elapsed();
    reps < MIN_REPS || elapsed + elapsed / reps as u32 <= seconds
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DesignSweepSaXpoint,
    FigureRegen,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::DesignSweepSaXpoint, Workload::FigureRegen];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DesignSweepSaXpoint => "design-sweep-sa-xpoint",
            Workload::FigureRegen => "figure-regen",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// --- design-sweep-sa-xpoint ------------------------------------------

/// The write-heavy Table I mix of the sweep (lbm, store fraction 0.47).
pub const W2_MIX: u32 = 7;
/// Instructions per core of each sweep simulation.
pub const W2_INSTS: u64 = 200_000;
/// Functional warm-up operations per core of the shared warm state.
pub const W2_WARMUP: u64 = 400_000;

pub fn w2_config(design: Design, seed: u64) -> SystemConfig {
    let mut cfg =
        SystemConfig::paper_xpoint(design, OrgKind::paper_set_assoc()).scaled(W2_INSTS, W2_WARMUP);
    cfg.engine = EngineSel::Calendar;
    cfg.seed = seed;
    cfg
}

// --- figure-regen ----------------------------------------------------

/// The mixes of `figure-regen`. Different mixes cost different amounts
/// to simulate, so every seed runs these three; the seed only picks
/// their order ([`w3_mixes`]).
pub const W3_MIXES: [u32; 3] = [1, 6, 13];
/// The orders of [`W3_MIXES`], indexed by `seed % 6`. The three mixes
/// fit one shard chunk (`DEFAULT_CHUNK` is 4), so every order plans the
/// same jobs and the same simulations; only the order of the rows and
/// of the simulations within a job differs.
const W3_ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];
/// `DCA_INSTS` of the figure run.
pub const W3_INSTS: u64 = 100_000;
/// `DCA_WARMUP` of the figure run.
pub const W3_WARMUP: u64 = 200_000;
/// Figures regenerated, as `figures` flags and shard plan names.
pub const W3_FIGURES: [&str; 2] = ["fig8", "fig14"];
/// Worker processes of the figure run (`--jobs`).
pub const W3_JOBS: usize = 2;
/// The `figure-regen` mixes for `seed`, in the order `DCA_MIXES` lists
/// them. The default seed lists 1, 6, 13.
pub fn w3_mixes(seed: u64) -> [u32; 3] {
    W3_ORDERS[(seed % W3_ORDERS.len() as u64) as usize].map(|i| W3_MIXES[i])
}

/// The scale `figures` runs `figure-regen` at.
pub fn w3_scale(seed: u64) -> Scale {
    Scale {
        insts: W3_INSTS,
        warmup: W3_WARMUP,
        mixes: w3_mixes(seed).to_vec(),
    }
}

/// Shard plans and jobs of the named figures at `scale`.
pub fn plan(figures: &[&str], scale: &Scale) -> (Vec<FigurePlan>, Vec<Job>) {
    let plans: Vec<FigurePlan> = figures
        .iter()
        .map(|f| figure_plan(f, scale).expect("benchmark figures are sharded figures"))
        .collect();
    let jobs = plan_jobs(&plans, DEFAULT_CHUNK);
    (plans, jobs)
}

/// The functional warm-ups the evaluation jobs of a plan share: one per
/// organisation and mix, since every design of a unit restores the same
/// warm state. `figure-regen` times these as its `setup_s`.
pub fn warm_keys(jobs: &[Job]) -> Vec<(SystemConfig, Vec<Benchmark>)> {
    let mut seen = BTreeSet::new();
    let mut keys = Vec::new();
    for j in jobs {
        if let JobPayload::Eval { spec, mixes } = &j.payload {
            let cfg = spec.config();
            for &m in mixes {
                let benches = mix(m).benches.to_vec();
                if seen.insert(WarmState::fingerprint_for(&cfg, &benches)) {
                    keys.push((cfg, benches));
                }
            }
        }
    }
    keys
}

/// Instructions a set of jobs simulates: four cores per mix of an
/// evaluation, one core per alone run.
pub fn planned_insts(jobs: &[Job]) -> u64 {
    jobs.iter()
        .map(|j| match &j.payload {
            JobPayload::Eval { spec, mixes } => mixes.len() as u64 * 4 * spec.insts,
            JobPayload::Alone { insts, benches, .. } => benches.len() as u64 * insts,
        })
        .sum()
}

/// A `figures` command for `figure-regen` at `seed`, run in `dir`. The
/// environment is cleared so no inherited `DCA_*` knob alters the run.
pub fn figures_cmd(figures: &Path, dir: &Path, seed: u64, args: &[&str]) -> Command {
    let mixes: Vec<String> = w3_mixes(seed).iter().map(u32::to_string).collect();
    let mut cmd = Command::new(figures);
    cmd.args(args)
        .current_dir(dir)
        .env_clear()
        .env("PATH", std::env::var_os("PATH").unwrap_or_default())
        .env("DCA_INSTS", W3_INSTS.to_string())
        .env("DCA_WARMUP", W3_WARMUP.to_string())
        .env("DCA_MIXES", mixes.join(","))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// The arguments of the measured `figures` invocation.
pub fn w3_args() -> Vec<String> {
    let mut args: Vec<String> = W3_FIGURES.iter().map(|f| format!("--{f}")).collect();
    args.push("--jobs".to_string());
    args.push(W3_JOBS.to_string());
    args
}

/// Files `figure-regen` checks, relative to the run's `results/`.
pub fn w3_outputs() -> Vec<String> {
    W3_FIGURES
        .iter()
        .flat_map(|f| ["md", "csv", "json"].map(|ext| format!("{f}.{ext}")))
        .collect()
}

/// Golden key for an output file: its digest and length.
pub fn file_key(bytes: &[u8]) -> String {
    format!("{}/{}", hex(digest64(bytes)), bytes.len())
}

/// A fresh, empty directory.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

// --- measurement -----------------------------------------------------

/// Run `f`, turning a panic into `None` (the panic message still goes
/// to stderr).
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Run `f` inside a span when tracing, plainly otherwise.
pub fn in_span<R>(
    tr: Option<&mut Tracer>,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.span(name, layer, |_| f()),
        None => f(),
    }
}

pub fn insts_of(r: &SystemReport) -> u64 {
    r.cores.iter().map(|c| c.insts).sum()
}

/// The digest checker of a simulation workload: goldens apply to the
/// default seed only.
pub fn sim_checker(a: &Args, w: Workload) -> Checker {
    let path = golden_path(&a.goldens, w.name());
    match std::fs::read_to_string(&path) {
        Ok(text) if a.seed == DEFAULT_SEED && !a.bless => Checker::with_goldens(&text),
        _ => Checker::new(),
    }
}

/// Measure `w` with tracing off.
pub fn measure(a: &Args) -> Result<Outcome, String> {
    match a.workload {
        Workload::DesignSweepSaXpoint => Ok(measure_design_sweep(a)),
        Workload::FigureRegen => measure_figure_regen(a),
    }
}

/// One `design-sweep-sa-xpoint` repetition: the shared warm-up, then
/// every design restored from it and run. Returns the warm-up time,
/// the sweep time, instructions and loop time, or `None` on failure.
pub fn design_sweep_rep(
    seed: u64,
    mut tr: Option<&mut Tracer>,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Option<[f64; 4]> {
    let benches = mix(W2_MIX).benches;
    out.attempted += Design::ALL.len() as u64;
    let t0 = Instant::now();
    let warm = guarded(|| {
        in_span(
            tr.as_deref_mut(),
            "System::capture_warm",
            "core.warm",
            || System::capture_warm(w2_config(Design::Cd, seed), &benches),
        )
    });
    let Some(warm) = warm else {
        out.failed += Design::ALL.len() as u64;
        return None;
    };
    let setup = t0.elapsed().as_secs_f64();
    let mut sweep = 0.0;
    let mut insts = 0u64;
    let mut loop_s = 0.0;
    let mut ok = true;
    for design in Design::ALL {
        let run = guarded(|| {
            let t0 = Instant::now();
            let sys = in_span(
                tr.as_deref_mut(),
                "System::from_warm",
                "core.system",
                || System::from_warm(w2_config(design, seed), &benches, &warm),
            );
            let t1 = t0.elapsed().as_secs_f64();
            let r = in_span(tr.as_deref_mut(), "System::run", "core.system", || {
                sys.run()
            });
            (t1, t0.elapsed().as_secs_f64(), r)
        });
        match run {
            Some((t_restore, t_all, r)) => {
                sweep += t_all;
                loop_s += t_all - t_restore;
                insts += insts_of(&r);
                if !checker.check(design.label(), &hex(report_digest(&r))) {
                    out.failed += 1;
                }
            }
            None => {
                out.failed += 1;
                ok = false;
            }
        }
    }
    ok.then_some([setup, sweep, insts as f64, loop_s])
}

fn measure_design_sweep(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut checker = sim_checker(a, a.workload);
    let start = Instant::now();
    let mut reps = 0;
    while another_rep(start, reps, a.seconds) {
        if let Some([setup, sweep, insts, loop_s]) =
            design_sweep_rep(a.seed, None, &mut checker, &mut out)
        {
            out.push("setup_s", setup);
            out.push("run_s", sweep);
            out.push("sim_minst_per_s", insts / loop_s / 1e6);
        }
        reps += 1;
    }
    out.push("peak_rss_mb", host::self_peak_rss_mb());
    out.alias("sweep_s", "run_s");
    out.finish_checks(a, checker);
    out
}

/// The `figure-regen` goldens: digests of the stored figure files.
pub fn w3_checker(a: &Args) -> Checker {
    let dir = a.goldens.join(Workload::FigureRegen.name());
    let mut text = String::new();
    if a.seed == DEFAULT_SEED && !a.bless {
        for f in w3_outputs() {
            if let Ok(bytes) = std::fs::read(dir.join(&f)) {
                text.push_str(&format!("{f} {}\n", file_key(&bytes)));
            }
        }
    }
    Checker::with_goldens(&text)
}

/// Run one command to completion. Returns its wall time and the peak
/// resident set of the largest process in its tree (MB), or `None` if
/// it exited non-zero.
pub fn timed_status(cmd: &mut Command) -> Result<Option<(f64, f64)>, String> {
    let t0 = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
    let (ok, rss_mb) = host::wait_child(child.id())
        .map_err(|e| format!("waiting for {:?}: {e}", cmd.get_program()))?;
    let dt = t0.elapsed().as_secs_f64();
    Ok(ok.then_some((dt, rss_mb)))
}

/// The set-up of one `figure-regen` repetition: every warm state the
/// figure run builds, captured in-process one after another. Returns
/// the total time, or `None` if a capture panicked.
pub fn figure_setup(keys: &[(SystemConfig, Vec<Benchmark>)]) -> Option<f64> {
    let t0 = Instant::now();
    for (cfg, benches) in keys {
        guarded(|| drop(System::capture_warm(*cfg, benches)))?;
    }
    Some(t0.elapsed().as_secs_f64())
}

/// One `figure-regen` invocation in a fresh `dir`, then the output
/// check. Returns the invocation time and its peak resident set, or
/// `None` if it failed.
pub fn figure_rep(
    a: &Args,
    dir: &Path,
    tr: Option<&mut Tracer>,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Result<Option<(f64, f64)>, String> {
    let rdir = dir.join("run");
    fresh_dir(&rdir).map_err(|e| format!("{}: {e}", rdir.display()))?;
    out.attempted += 1;
    let args = w3_args();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut cmd = figures_cmd(&a.figures, &rdir, a.seed, &args);
    let Some(measured) = in_span(tr, "figures", "bench", || timed_status(&mut cmd))? else {
        out.failed += 1;
        out.failures.push("figures exited non-zero".to_string());
        return Ok(None);
    };
    let mut ok = true;
    for f in w3_outputs() {
        let key = match std::fs::read(rdir.join("results").join(&f)) {
            Ok(bytes) => file_key(&bytes),
            Err(_) => "missing".to_string(),
        };
        ok &= checker.check(&f, &key);
    }
    if !ok {
        out.failed += 1;
    }
    if a.bless && a.seed == DEFAULT_SEED {
        bless_figures(a, &rdir)?;
    }
    Ok(Some(measured))
}

fn bless_figures(a: &Args, rdir: &Path) -> Result<(), String> {
    let dir = a.goldens.join(Workload::FigureRegen.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for f in w3_outputs() {
        std::fs::copy(rdir.join("results").join(&f), dir.join(&f))
            .map_err(|e| format!("bless {f}: {e}"))?;
    }
    Ok(())
}

/// Scratch directory of one `figure-regen` repetition.
pub fn rep_dir(a: &Args, tag: &str, rep: usize) -> PathBuf {
    a.work_dir
        .join(format!("{}-seed{}-{tag}{rep}", a.workload.name(), a.seed))
}

fn measure_figure_regen(a: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut checker = w3_checker(a);
    let (_, jobs) = plan(&W3_FIGURES, &w3_scale(a.seed));
    let insts = planned_insts(&jobs) as f64;
    let keys = warm_keys(&jobs);
    let start = Instant::now();
    let mut reps = 0;
    while another_rep(start, reps, a.seconds) {
        match figure_setup(&keys) {
            Some(s) => out.push("setup_s", s),
            None => out.failures.push("a figure warm-up panicked".to_string()),
        }
        let dir = rep_dir(a, "rep", reps);
        if let Some((dt, rss_mb)) = figure_rep(a, &dir, None, &mut checker, &mut out)? {
            out.push("run_s", dt);
            out.push("sim_minst_per_s", insts / dt / 1e6);
            // Which worker ends up holding which warm states varies
            // from run to run, and with it the largest process: a
            // median over repetitions, not the maximum.
            out.push("peak_rss_mb", rss_mb);
        }
        let _ = std::fs::remove_dir_all(&dir);
        reps += 1;
    }
    out.alias("figure_s", "run_s");
    out.note("mixes", &format!("{:?}", w3_mixes(a.seed)));
    out.finish_checks(a, checker);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_mixes_follow_the_seed_deterministically() {
        assert_eq!(w3_mixes(DEFAULT_SEED), [1, 6, 13]);
        for seed in [0u64, 1, 2, 7, 63, 64, 12345, u64::MAX] {
            assert_eq!(w3_mixes(seed), w3_mixes(seed), "same seed, same mixes");
        }
        let orders: BTreeSet<_> = (0..6).map(w3_mixes).collect();
        assert_eq!(orders.len(), 6, "every order is reachable");
        assert!(W3_MIXES.len() <= DEFAULT_CHUNK, "the mixes share one chunk");
        let work = |seed| {
            let mut ids: Vec<String> = plan(&W3_FIGURES, &w3_scale(seed))
                .1
                .iter()
                .map(|j| match &j.payload {
                    JobPayload::Eval { spec, mixes } => {
                        let mut mixes = mixes.clone();
                        mixes.sort();
                        format!("{spec:?} {mixes:?}")
                    }
                    alone => format!("{alone:?}"),
                })
                .collect();
            ids.sort();
            ids
        };
        for seed in 1..6 {
            assert_eq!(
                work(seed),
                work(DEFAULT_SEED),
                "seed {seed} plans other work"
            );
        }
    }

    #[test]
    fn figure_setup_builds_one_warm_state_per_org_and_mix() {
        let (_, jobs) = plan(&W3_FIGURES, &w3_scale(DEFAULT_SEED));
        assert_eq!(warm_keys(&jobs).len(), 2 * W3_MIXES.len());
    }

    fn tiny_digest(seed: u64) -> u64 {
        let cfg = w2_config(Design::Dca, seed).scaled(4_000, 8_000);
        report_digest(&System::new(cfg, &mix(W2_MIX).benches).run())
    }

    #[test]
    fn simulation_digest_depends_on_the_seed_only() {
        assert_eq!(tiny_digest(1), tiny_digest(1));
        assert_ne!(tiny_digest(1), tiny_digest(2));
    }

    #[test]
    fn wrong_golden_counts_a_failure_instead_of_panicking() {
        let mut checker = Checker::with_goldens("DCA 0000000000000000\n");
        let mut out = Outcome::default();
        let rep = design_sweep_rep(1, None, &mut checker, &mut out);
        assert!(rep.is_some(), "the simulations themselves succeed");
        assert_eq!((out.attempted, out.failed), (4, 1));
        assert_eq!(checker.failures.len(), 1);
    }

    #[test]
    fn planned_insts_counts_every_core() {
        let (_, jobs) = plan(&W3_FIGURES, &w3_scale(DEFAULT_SEED));
        let evals = jobs
            .iter()
            .filter(|j| matches!(j.payload, JobPayload::Eval { .. }))
            .count() as u64;
        assert!(planned_insts(&jobs) > evals * 3 * 4 * W3_INSTS);
    }
}
