//! Engine + sweep throughput smoke test.
//!
//! Runs the quickstart workload (Table I mix 1 under DCA, direct-mapped)
//! through both event engines — the calendar queue and the baseline
//! heap — reports simulated-cycles/sec and events/sec for each, **fails
//! on any digest divergence from the heap engine**, and writes the
//! numbers to `BENCH_engine.json` so every PR leaves a perf trajectory.
//!
//! Construction (functional cache warm-up) is timed separately from the
//! event loop: the engine overhaul targets the loop, and warm-up noise
//! would otherwise swamp the signal.
//!
//! It then measures the *sweep* pattern the figure harness runs — every
//! controller design × bank mapping on one mix — cold (each variant
//! warms its own caches) vs. warm-cached (one [`System::capture_warm`]
//! checkpoint shared by every variant via [`System::from_warm`]),
//! asserts the checkpoint-restored reports are bit-for-bit identical to
//! the cold ones, and records `{cold_s, warm_s, speedup}` in the JSON's
//! `sweep` section. CI runs this binary, so a divergence — or a warm
//! path that comes out *slower* than cold — fails the build. (The
//! measured margin is ~1.6x; the hard assert is only `> 1.0` so wall-
//! clock noise on shared CI runners cannot flake the gate. The JSON
//! carries the real ratio for trajectory tracking.)
//!
//! It also runs the **shard smoke**: a tiny two-mix figure session
//! once serially and once through the persistent worker pool
//! (`--jobs 2`, supervisor + `--worker --serve` subprocesses), in
//! separate scratch directories, asserting every rendered
//! `results/fig*.{md,json,csv}` file is **byte-identical** between the
//! two modes and recording the wall clocks in the JSON's `shard`
//! section. CI runs this binary, so any pool/serial divergence fails
//! the build.
//!
//! Two shard numbers are recorded. `fresh_speedup` is a single cold
//! `--fig14` head-to-head — on a single-core host the pool *cannot*
//! win this (same work plus process overhead), so it is reported, not
//! asserted. The asserted `speedup` is the **incremental session**:
//! `--fig14` followed by `--fig12` in the same directory. The serial
//! path recomputes the fig14 work inside fig12; the pool reuses the
//! flushed fig14 partials and runs only the fig12-only jobs, so the
//! session ratio must clear 1.0 on any host or resume-from-partials
//! has regressed.
//!
//! It also runs the **main-memory smoke**: the same workload on the
//! flat (seed) backend and on the cycle-level DDR4 backend, recording
//! both wall clocks in the JSON's `main_mem` section and asserting the
//! cycle backend completes and restores from a warm checkpoint
//! bit-for-bit. CI runs this binary, so the cycle-level device is
//! exercised on every push.
//!
//! It also runs the **designs smoke**: the Banshee-style fourth design
//! and the 3DXPoint slow-memory backend, each against the DCA
//! reference — asserting Banshee's frequency gate actually bypasses
//! fills (and that it restores from a warm checkpoint bit-for-bit,
//! warm state being design-portable), and recording the fill-traffic
//! reduction and wall clocks in the JSON's `designs` section.
//!
//! Finally it runs the **trace-file smoke**: the checked-in
//! `tests/fixtures/*.dcat` fixture is registered, bundled into a
//! custom mix, and driven through the same `RunSpec::run_mix`
//! warm-cached harness path the figure binaries use — once warm-cached
//! and once cold — asserting the two reports are bit-for-bit
//! identical. A regression anywhere on the trace front-end (format,
//! registry, replay, warm-state participation) fails CI here.
//!
//! ```text
//! cargo run --release -p dca-bench --bin perf_smoke
//! ```
//!
//! Environment:
//! * `DCA_PERF_INSTS` — instructions per core (default 200 000).
//! * `DCA_PERF_REPS` — timed repetitions per engine (default 3; the
//!   fastest rep is reported, standard practice for wall-clock benches).
//! * `DCA_PERF_SWEEP_REPS` — repetitions per sweep flavour (default 2).
//! * `DCA_PERF_OUT` — output path (default `BENCH_engine.json`).
//!
//! The three counts must be positive integers: any other value is an
//! error naming the variable, and the binary exits 2 before running
//! anything.

use std::time::Instant;

use dca::{Design, EngineSel, System, SystemConfig, SystemReport};
use dca_bench::{MainMemKind, RunSpec};
use dca_cpu::{mix, register_mix, register_trace_file, Benchmark};
use dca_dram_cache::{OrgKind, ReplacementPolicy};

/// Event-loop wall time of the hash-map/`Vec::remove` engine this PR
/// replaced, measured on the same workload (200 k insts/core, 3-rep
/// best) by building the pre-overhaul sources against the same
/// manifests. Kept as a reference point in `BENCH_engine.json`; see the
/// PR that introduced this file for methodology.
const PRE_OVERHAUL_RUN_LOOP_MS: f64 = 465.1;

/// One engine's measured throughput.
struct EngineResult {
    label: &'static str,
    /// Simulated CPU cycles per wall-clock second of event loop (best rep).
    cycles_per_sec: f64,
    /// Engine events delivered per wall-clock second (best rep).
    events_per_sec: f64,
    /// Event-loop wall-clock seconds of the best rep.
    run_s: f64,
    /// Construction + warm-up seconds of the best rep (engine-independent).
    build_s: f64,
    /// The report (for cross-engine equality checking).
    report: SystemReport,
}

fn run_engine(label: &'static str, engine: EngineSel, insts: u64, reps: u32) -> EngineResult {
    let mut cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
    cfg.target_insts = insts;
    cfg.warmup_ops = 400_000;
    cfg.engine = engine;
    let m = mix(1);

    let mut best_run = f64::INFINITY;
    let mut best_build = f64::INFINITY;
    let mut best: Option<SystemReport> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let sys = System::new(cfg, &m.benches);
        let t1 = Instant::now();
        let report = sys.run();
        let run = t1.elapsed().as_secs_f64();
        best_build = best_build.min((t1 - t0).as_secs_f64());
        if run < best_run {
            best_run = run;
            best = Some(report);
        }
    }
    let report = best.expect("at least one rep");
    let sim_cycles = report.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
    EngineResult {
        label,
        cycles_per_sec: sim_cycles as f64 / best_run,
        events_per_sec: report.events_processed as f64 / best_run,
        run_s: best_run,
        build_s: best_build,
        report,
    }
}

/// Outcome of the cold-vs-warm-cached sweep measurement.
struct SweepResult {
    /// Design/remap variants swept.
    variants: usize,
    /// Best cold wall-clock (every variant warms its own caches).
    cold_s: f64,
    /// Best warm-cached wall-clock (one checkpoint, shared).
    warm_s: f64,
}

impl SweepResult {
    fn speedup(&self) -> f64 {
        self.cold_s / self.warm_s
    }
}

/// The figure-harness sweep unit: every design × bank mapping on the
/// quickstart mix, direct-mapped, identical `(warmup, seed)` — exactly
/// the set of runs that can legally share one functional warm-up.
fn sweep_configs(insts: u64) -> Vec<SystemConfig> {
    let mut cfgs = Vec::new();
    for remap in [false, true] {
        for design in Design::ALL {
            let mut cfg = if remap {
                SystemConfig::paper_remap(design, OrgKind::DirectMapped)
            } else {
                SystemConfig::paper(design, OrgKind::DirectMapped)
            };
            cfg.target_insts = insts;
            cfg.warmup_ops = 400_000;
            cfgs.push(cfg);
        }
    }
    cfgs
}

/// Measure the sweep cold and warm-cached, asserting bit-for-bit
/// identical reports between the two flavours for every variant.
fn run_sweep(insts: u64, reps: u32) -> SweepResult {
    let m = mix(1);
    let cfgs = sweep_configs(insts);

    let mut cold_s = f64::INFINITY;
    let mut cold_reports: Option<Vec<SystemReport>> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let reports: Vec<SystemReport> = cfgs
            .iter()
            .map(|&cfg| System::new(cfg, &m.benches).run())
            .collect();
        let dt = t0.elapsed().as_secs_f64();
        if dt < cold_s {
            cold_s = dt;
            cold_reports = Some(reports);
        }
    }

    let mut warm_s = f64::INFINITY;
    let mut warm_reports: Option<Vec<SystemReport>> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        // One warm-up for the whole sweep; the capture is part of the
        // honest warm-flavour cost.
        let warm = System::capture_warm(cfgs[0], &m.benches);
        let reports: Vec<SystemReport> = cfgs
            .iter()
            .map(|&cfg| System::from_warm(cfg, &m.benches, &warm).run())
            .collect();
        let dt = t0.elapsed().as_secs_f64();
        if dt < warm_s {
            warm_s = dt;
            warm_reports = Some(reports);
        }
    }

    let cold_reports = cold_reports.expect("at least one cold rep");
    let warm_reports = warm_reports.expect("at least one warm rep");
    for (i, (c, w)) in cold_reports.iter().zip(&warm_reports).enumerate() {
        assert_eq!(
            c.digest(),
            w.digest(),
            "checkpoint-restored sweep variant {i} diverged from cold"
        );
    }

    let sweep = SweepResult {
        variants: cfgs.len(),
        cold_s,
        warm_s,
    };
    // Warm-cached strictly skips work (5 of 6 warm-ups here); if it is
    // not even break-even, checkpoint restore has regressed into
    // overhead and the build should say so.
    assert!(
        sweep.speedup() > 1.0,
        "warm-cached sweep slower than cold ({:.2}s vs {:.2}s)",
        sweep.warm_s,
        sweep.cold_s
    );
    sweep
}

/// The checked-in trace fixture (resolved relative to this crate, so
/// the smoke runs from any working directory).
const TRACE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/libquantum_2800.dcat"
);

/// Outcome of the trace-driven smoke config.
struct TraceSmokeResult {
    /// Mix id assigned to the registered trace mix.
    mix_id: u32,
    /// Wall-clock of the first `run_mix` (cache miss: warms once and
    /// populates the warm cache).
    build_s: f64,
    /// Wall-clock of the second `run_mix` (the actual warm-cache hit).
    warm_s: f64,
    /// Cold wall-clock (fresh warm-up, no cache).
    cold_s: f64,
}

/// Register the fixture trace, run it through the real harness path
/// (`RunSpec::run_mix`, global warm cache) and assert the warm-cached
/// reports — both the cache-populating first run and the cache-hit
/// second run — are bit-for-bit identical to a cold one.
fn run_trace_smoke(insts: u64) -> TraceSmokeResult {
    let trace = register_trace_file(TRACE_FIXTURE)
        .unwrap_or_else(|e| panic!("cannot register {TRACE_FIXTURE}: {e}"));
    let m = register_mix([trace, Benchmark::Mcf, Benchmark::Gcc, trace]);
    let spec = RunSpec {
        design: Design::Dca,
        org: OrgKind::DirectMapped,
        remap: false,
        lee: false,
        flushing_factor: 4,
        policy: ReplacementPolicy::Srrip,
        main_mem: MainMemKind::Flat,
        insts: insts / 2,
        warmup: 200_000,
        seed: 0xDCA_2016,
    };
    let t0 = Instant::now();
    let first = spec.run_mix(m.id);
    let build_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let warm = spec.run_mix(m.id);
    let warm_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let cold = spec.run_mix_cold(m.id);
    let cold_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        first.digest(),
        cold.digest(),
        "trace-driven cache-populating run diverged from cold"
    );
    assert_eq!(
        warm.digest(),
        cold.digest(),
        "trace-driven warm-cached run diverged from cold"
    );
    assert!(
        warm.cores.iter().all(|c| c.insts >= insts / 2),
        "trace-driven cores must reach their budget"
    );
    TraceSmokeResult {
        mix_id: m.id,
        build_s,
        warm_s,
        cold_s,
    }
}

/// Outcome of the serial-vs-pool figure smoke.
struct ShardSmokeResult {
    /// Worker subprocesses in the pool flavours.
    jobs: u32,
    /// CPU cores on the measuring host (a 1-core host cannot show a
    /// fresh pool win; the session number is the portable one).
    host_cores: usize,
    /// Fresh serial `--fig14` wall clock.
    serial_s: f64,
    /// Fresh pool `--fig14 --jobs 2` wall clock.
    pool_s: f64,
    /// Serial incremental session: fresh `--fig14` + `--fig12`.
    session_serial_s: f64,
    /// Pool incremental session: fresh `--fig14` + `--fig12`, the
    /// second run reusing the first run's flushed partials.
    session_pool_s: f64,
}

impl ShardSmokeResult {
    fn fresh_speedup(&self) -> f64 {
        self.serial_s / self.pool_s
    }
    fn session_speedup(&self) -> f64 {
        self.session_serial_s / self.session_pool_s
    }
}

/// Run the `--fig14` + `--fig12` session serially and through the
/// persistent pool (`--jobs 2`), in separate scratch directories, and
/// assert every rendered figure file is byte-identical between the two
/// modes. The first run of each session doubles as the fresh `--fig14`
/// head-to-head. Best of `reps` sessions per flavour.
fn run_shard_smoke(reps: u32) -> ShardSmokeResult {
    use std::path::PathBuf;
    use std::process::Command;

    let exe = std::env::current_exe().expect("current exe");
    let figures = exe.with_file_name("figures");
    assert!(
        figures.exists(),
        "figures binary not found next to perf_smoke ({}); build the workspace first",
        figures.display()
    );
    let scratch = |tag: &str| -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dca-shard-smoke-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    };
    let run = |dir: &PathBuf, fig: &str, pool: bool| -> f64 {
        let t0 = Instant::now();
        // The child's tables are byte-compared below, not read by a
        // human here — keep them off perf_smoke's own report.
        let mut cmd = Command::new(&figures);
        cmd.arg(fig);
        if pool {
            cmd.args(["--jobs", "2"]);
        }
        let status = cmd
            .current_dir(dir)
            .env("DCA_MIXES", "1,2")
            .env("DCA_INSTS", "20000")
            .env("DCA_WARMUP", "60000")
            .env_remove("DCA_FULL")
            .env_remove("DCA_FAULT_PLAN")
            .env_remove("DCA_POOL_INFLIGHT")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("spawn figures");
        assert!(
            status.success(),
            "figures {fig} (pool={pool}) failed with {status}"
        );
        t0.elapsed().as_secs_f64()
    };

    let serial_dir = scratch("serial");
    let pool_dir = scratch("pool");
    let mut best = ShardSmokeResult {
        jobs: 2,
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        serial_s: f64::INFINITY,
        pool_s: f64::INFINITY,
        session_serial_s: f64::INFINITY,
        session_pool_s: f64::INFINITY,
    };
    for _ in 0..reps.max(1) {
        // Fresh sessions: wipe the partials the previous rep flushed so
        // every rep pays the full fig14 cost again.
        for dir in [&serial_dir, &pool_dir] {
            let _ = std::fs::remove_dir_all(dir.join("results"));
        }
        let serial_fig14 = run(&serial_dir, "--fig14", false);
        let serial_fig12 = run(&serial_dir, "--fig12", false);
        let pool_fig14 = run(&pool_dir, "--fig14", true);
        let pool_fig12 = run(&pool_dir, "--fig12", true);
        best.serial_s = best.serial_s.min(serial_fig14);
        best.pool_s = best.pool_s.min(pool_fig14);
        best.session_serial_s = best.session_serial_s.min(serial_fig14 + serial_fig12);
        best.session_pool_s = best.session_pool_s.min(pool_fig14 + pool_fig12);
    }

    for fig in ["fig14", "fig12"] {
        for ext in ["md", "json", "csv"] {
            let file = format!("{fig}.{ext}");
            let a = std::fs::read(serial_dir.join("results").join(&file)).expect(&file);
            let b = std::fs::read(pool_dir.join("results").join(&file)).expect(&file);
            assert_eq!(
                a, b,
                "pool {file} diverged from the serial run — partial merge broke bit-identity"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&pool_dir);
    // The pool's whole point is never repeating flushed work; if the
    // incremental session is not even break-even against serial
    // recompute, partial reuse has regressed into overhead.
    assert!(
        best.session_speedup() > 1.0,
        "pool incremental session slower than serial ({:.2}s vs {:.2}s)",
        best.session_pool_s,
        best.session_serial_s
    );
    best
}

/// Outcome of the flat-vs-cycle main-memory smoke.
struct MainMemSmokeResult {
    /// Wall clock of the flat-backend run.
    flat_s: f64,
    /// Wall clock of the cycle-backend run.
    cycle_s: f64,
    /// Main-memory reads the cycle backend served.
    cycle_mem_reads: u64,
    /// Row-buffer hit rate at the cycle-level device.
    cycle_row_hit_rate: f64,
}

/// Run the smoke workload on the flat and the cycle-level main-memory
/// backends, asserting the cycle backend completes, stays warm-restore
/// bit-identical to its own cold run, and recording the wall-clock
/// cost of the extra fidelity.
fn run_main_mem_smoke(insts: u64) -> MainMemSmokeResult {
    let m = mix(1);
    let mut flat_cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
    flat_cfg.target_insts = insts;
    flat_cfg.warmup_ops = 400_000;
    let mut cycle_cfg = SystemConfig::paper_cycle_mem(Design::Dca, OrgKind::DirectMapped);
    cycle_cfg.target_insts = insts;
    cycle_cfg.warmup_ops = 400_000;

    let t0 = Instant::now();
    let flat = System::new(flat_cfg, &m.benches).run();
    let flat_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let cycle = System::new(cycle_cfg, &m.benches).run();
    let cycle_s = t0.elapsed().as_secs_f64();

    assert_eq!(cycle.main_mem.backend, "cycle");
    assert_eq!(flat.main_mem.backend, "flat");
    assert!(
        cycle.cores.iter().all(|c| c.insts >= insts),
        "cycle-backend run must complete"
    );
    // The cycle backend is a full warm-checkpoint citizen: one capture
    // (reusable from the flat run's fingerprint class) restores to a
    // bit-identical report.
    let warm = System::capture_warm(cycle_cfg, &m.benches);
    let restored = System::from_warm(cycle_cfg, &m.benches, &warm).run();
    assert_eq!(
        cycle.digest(),
        restored.digest(),
        "cycle-backend warm-restored run diverged from cold"
    );

    MainMemSmokeResult {
        flat_s,
        cycle_s,
        cycle_mem_reads: cycle.mem_reads,
        cycle_row_hit_rate: cycle.main_mem.row_hit_rate(),
    }
}

/// Outcome of the designs smoke (Banshee + XPoint vs the DCA reference).
struct DesignsSmokeResult {
    /// Wall clock of the DCA flat-backend reference run.
    dca_s: f64,
    /// Wall clock of the Banshee flat-backend run.
    banshee_s: f64,
    /// Wall clock of the DCA run on the XPoint backend.
    xpoint_s: f64,
    /// Cache fills the DCA reference issued.
    dca_fills: u64,
    /// Cache fills Banshee admitted through its frequency gate.
    banshee_fills: u64,
    /// Fills Banshee's gate bypassed.
    banshee_bypasses: u64,
}

impl DesignsSmokeResult {
    /// Fraction of the DCA reference's fill traffic Banshee avoided.
    fn fill_reduction(&self) -> f64 {
        if self.dca_fills == 0 {
            return 0.0;
        }
        1.0 - self.banshee_fills as f64 / self.dca_fills as f64
    }
}

/// Run the Banshee design and the XPoint backend against the DCA
/// reference on the smoke workload, asserting the gate bypasses fills,
/// both new paths complete, and both restore from warm checkpoints
/// bit-for-bit.
fn run_designs_smoke(insts: u64) -> DesignsSmokeResult {
    let m = mix(1);
    let mk = |design, xpoint: bool| {
        let mut cfg = if xpoint {
            SystemConfig::paper_xpoint(design, OrgKind::DirectMapped)
        } else {
            SystemConfig::paper(design, OrgKind::DirectMapped)
        };
        cfg.target_insts = insts;
        cfg.warmup_ops = 400_000;
        cfg
    };

    let t0 = Instant::now();
    let dca = System::new(mk(Design::Dca, false), &m.benches).run();
    let dca_s = t0.elapsed().as_secs_f64();

    let ban_cfg = mk(Design::Banshee, false);
    let t0 = Instant::now();
    let ban = System::new(ban_cfg, &m.benches).run();
    let banshee_s = t0.elapsed().as_secs_f64();
    assert!(
        ban.cores.iter().all(|c| c.insts >= insts),
        "Banshee run must complete"
    );
    assert!(
        ban.fill_bypasses > 0,
        "Banshee's frequency gate must bypass some cold fills"
    );
    assert_eq!(ban.cache_fills, ban.refill_requests);
    assert!(
        ban.cache_fills < dca.cache_fills,
        "Banshee must fill less than DCA ({} !< {})",
        ban.cache_fills,
        dca.cache_fills
    );
    // Warm state is design-portable: a checkpoint captured under the
    // Banshee config (warm-up never consults the gate) restores to a
    // bit-identical Banshee run.
    let warm = System::capture_warm(ban_cfg, &m.benches);
    let restored = System::from_warm(ban_cfg, &m.benches, &warm).run();
    assert_eq!(
        ban.digest(),
        restored.digest(),
        "Banshee warm-restored run diverged from cold"
    );
    assert_eq!(
        (ban.cache_fills, ban.fill_bypasses),
        (restored.cache_fills, restored.fill_bypasses),
        "Banshee fill counters diverged across warm restore"
    );

    let xp_cfg = mk(Design::Dca, true);
    let t0 = Instant::now();
    let xp = System::new(xp_cfg, &m.benches).run();
    let xpoint_s = t0.elapsed().as_secs_f64();
    assert_eq!(xp.main_mem.backend, "cycle");
    assert!(
        xp.cores.iter().all(|c| c.insts >= insts),
        "XPoint-backend run must complete"
    );
    let warm = System::capture_warm(xp_cfg, &m.benches);
    let restored = System::from_warm(xp_cfg, &m.benches, &warm).run();
    assert_eq!(
        xp.digest(),
        restored.digest(),
        "XPoint-backend warm-restored run diverged from cold"
    );

    DesignsSmokeResult {
        dca_s,
        banshee_s,
        xpoint_s,
        dca_fills: dca.cache_fills,
        banshee_fills: ban.cache_fills,
        banshee_bypasses: ban.fill_bypasses,
    }
}

/// Parse a count knob: `default` when the variable is unset (`value`
/// is `None`), the number when it is a positive integer, otherwise an
/// error naming the variable and its value.
fn parse_count<T>(name: &str, value: Option<&str>, default: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    let Some(v) = value else {
        return Ok(default);
    };
    match v.parse::<T>() {
        Ok(n) if n != T::from(0) => Ok(n),
        _ => Err(format!("{name}={v:?} is not a positive integer")),
    }
}

/// [`parse_count`] on the environment; a bad value exits 2.
fn env_count<T>(name: &str, default: T) -> T
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_count(name, raw.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("perf_smoke: error: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let insts: u64 = env_count("DCA_PERF_INSTS", 200_000);
    let reps: u32 = env_count("DCA_PERF_REPS", 3);
    let sweep_reps: u32 = env_count("DCA_PERF_SWEEP_REPS", 2);
    let out_path =
        std::env::var("DCA_PERF_OUT").unwrap_or_else(|_| "BENCH_engine.json".to_string());

    println!("perf_smoke: mix 1, DCA, direct-mapped, {insts} insts/core, {reps} reps/engine\n");

    let calendar = run_engine("calendar", EngineSel::Calendar, insts, reps);
    let heap = run_engine("baseline-heap", EngineSel::Heap, insts, reps);

    // The CI gate: the calendar queue must reproduce the heap oracle's
    // report bit for bit. Any divergence fails the build here.
    assert_eq!(
        calendar.report.digest(),
        heap.report.digest(),
        "{} engine diverged from the heap oracle",
        calendar.label
    );
    println!("calendar agrees bit-for-bit with the heap oracle\n");

    for r in [&calendar, &heap] {
        println!(
            "{:<14} build {:>7.1} ms   loop {:>7.1} ms   {:>12.0} sim-cycles/s   {:>12.0} events/s",
            r.label,
            r.build_s * 1e3,
            r.run_s * 1e3,
            r.cycles_per_sec,
            r.events_per_sec
        );
    }
    let vs_heap = heap.run_s / calendar.run_s;
    let vs_pre = PRE_OVERHAUL_RUN_LOOP_MS / (calendar.run_s * 1e3);
    println!("\ncalendar event-loop speedup vs heap toggle:      {vs_heap:.3}x");
    if insts == 200_000 {
        println!("calendar event-loop speedup vs pre-overhaul ref: {vs_pre:.3}x");
    }

    let sweep = run_sweep(insts, sweep_reps);
    println!(
        "\nsweep ({} design/remap variants, mix 1, direct-mapped): cold {:.2}s   \
         warm-cached {:.2}s   speedup {:.3}x (reports bit-for-bit identical)",
        sweep.variants,
        sweep.cold_s,
        sweep.warm_s,
        sweep.speedup()
    );

    let shard = run_shard_smoke(sweep_reps);
    println!(
        "\nshard smoke (fig14+fig12 session, 2 mixes, {} host cores): fresh fig14 serial {:.2}s \
         vs pool --jobs {} {:.2}s ({:.3}x)   session serial {:.2}s vs pool {:.2}s ({:.3}x, \
         partial reuse; figure files byte-identical)",
        shard.host_cores,
        shard.serial_s,
        shard.jobs,
        shard.pool_s,
        shard.fresh_speedup(),
        shard.session_serial_s,
        shard.session_pool_s,
        shard.session_speedup()
    );

    let main_mem = run_main_mem_smoke(insts);
    println!(
        "\nmain-mem smoke (mix 1, DCA, direct-mapped): flat {:.2}s   cycle-level {:.2}s   \
         overhead {:.3}x   ({} device reads, row-hit rate {:.3}; cycle warm-restore \
         bit-identical)",
        main_mem.flat_s,
        main_mem.cycle_s,
        main_mem.cycle_s / main_mem.flat_s,
        main_mem.cycle_mem_reads,
        main_mem.cycle_row_hit_rate
    );

    let designs = run_designs_smoke(insts);
    println!(
        "\ndesigns smoke (mix 1, direct-mapped): DCA {:.2}s   Banshee {:.2}s   \
         DCA@XPoint {:.2}s   fills {} -> {} (bypassed {}, -{:.1}%); Banshee and XPoint \
         warm-restores bit-identical",
        designs.dca_s,
        designs.banshee_s,
        designs.xpoint_s,
        designs.dca_fills,
        designs.banshee_fills,
        designs.banshee_bypasses,
        designs.fill_reduction() * 100.0
    );

    let trace = run_trace_smoke(insts);
    println!(
        "\ntrace smoke (fixture mix {}, RunSpec::run_mix): first (warms cache) {:.2}s   \
         warm-cached hit {:.2}s   cold {:.2}s (reports bit-for-bit identical)",
        trace.mix_id, trace.build_s, trace.warm_s, trace.cold_s
    );

    // The pre-overhaul reference was measured at 200 k insts; at any
    // other scale the ratio would be meaningless, so omit it.
    let reference = if insts == 200_000 {
        format!(
            ",\n  \"pre_overhaul_reference\": {{\"run_loop_ms\": {PRE_OVERHAUL_RUN_LOOP_MS}, \
             \"speedup_vs_reference\": {vs_pre:.4}}}"
        )
    } else {
        String::new()
    };
    // Hand-rolled JSON: the workspace is offline (no serde), and the
    // schema is flat.
    let json = format!(
        "{{\n  \"workload\": {{\"mix\": 1, \"design\": \"DCA\", \"org\": \"direct-mapped\", \
         \"insts_per_core\": {insts}, \"reps\": {reps}}},\n  \"engines\": {{\n    \
         \"calendar\": {{\"run_loop_s\": {:.6}, \"sim_cycles_per_sec\": {:.0}, \"events_per_sec\": {:.0}}},\n    \
         \"baseline_heap\": {{\"run_loop_s\": {:.6}, \"sim_cycles_per_sec\": {:.0}, \"events_per_sec\": {:.0}}}\n  }},\n  \
         \"speedup_calendar_over_heap\": {vs_heap:.4}{reference},\n  \
         \"sweep\": {{\"variants\": {}, \"reps\": {sweep_reps}, \"cold_s\": {:.4}, \
         \"warm_s\": {:.4}, \"speedup\": {:.4}}},\n  \
         \"shard\": {{\"figure\": \"fig14\", \"jobs\": {}, \"host_cores\": {}, \
         \"serial_s\": {:.4}, \"pool_s\": {:.4}, \"fresh_speedup\": {:.4}, \
         \"session_figures\": \"fig14+fig12\", \"session_serial_s\": {:.4}, \
         \"session_pool_s\": {:.4}, \"speedup\": {:.4}}},\n  \
         \"main_mem\": {{\"flat_s\": {:.4}, \"cycle_s\": {:.4}, \"cycle_overhead\": {:.4}, \
         \"cycle_mem_reads\": {}, \"cycle_row_hit_rate\": {:.4}}},\n  \
         \"designs\": {{\"dca_s\": {:.4}, \"banshee_s\": {:.4}, \"xpoint_s\": {:.4}, \
         \"dca_fills\": {}, \"banshee_fills\": {}, \"banshee_bypasses\": {}, \
         \"fill_reduction\": {:.4}}},\n  \
         \"trace_smoke\": {{\"mix_id\": {}, \"build_s\": {:.4}, \"warm_s\": {:.4}, \
         \"cold_s\": {:.4}}},\n  \
         \"events_processed\": {},\n  \"sim_time_us\": {:.3}\n}}\n",
        calendar.run_s,
        calendar.cycles_per_sec,
        calendar.events_per_sec,
        heap.run_s,
        heap.cycles_per_sec,
        heap.events_per_sec,
        sweep.variants,
        sweep.cold_s,
        sweep.warm_s,
        sweep.speedup(),
        shard.jobs,
        shard.host_cores,
        shard.serial_s,
        shard.pool_s,
        shard.fresh_speedup(),
        shard.session_serial_s,
        shard.session_pool_s,
        shard.session_speedup(),
        main_mem.flat_s,
        main_mem.cycle_s,
        main_mem.cycle_s / main_mem.flat_s,
        main_mem.cycle_mem_reads,
        main_mem.cycle_row_hit_rate,
        designs.dca_s,
        designs.banshee_s,
        designs.xpoint_s,
        designs.dca_fills,
        designs.banshee_fills,
        designs.banshee_bypasses,
        designs.fill_reduction(),
        trace.mix_id,
        trace.build_s,
        trace.warm_s,
        trace.cold_s,
        calendar.report.events_processed,
        calendar.report.end_time.ps() as f64 / 1e6,
    );
    std::fs::write(&out_path, json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::parse_count;

    #[test]
    fn count_knobs_default_when_unset_and_accept_positive_integers() {
        assert_eq!(parse_count("DCA_PERF_REPS", None, 3u32), Ok(3));
        assert_eq!(parse_count("DCA_PERF_REPS", Some("7"), 3u32), Ok(7));
        assert_eq!(parse_count("DCA_PERF_INSTS", Some("1"), 200_000u64), Ok(1));
    }

    #[test]
    fn count_knobs_reject_zero_and_non_numeric_values_by_name() {
        for bad in ["0", "", "abc", "-1", "3.5", " 3", "4294967296"] {
            let err = parse_count("DCA_PERF_REPS", Some(bad), 3u32).expect_err(bad);
            assert_eq!(
                err,
                format!("DCA_PERF_REPS={bad:?} is not a positive integer")
            );
        }
        assert!(parse_count("DCA_PERF_INSTS", Some("0"), 200_000u64).is_err());
        assert!(parse_count("DCA_PERF_SWEEP_REPS", Some("two"), 2u32).is_err());
    }
}
