//! `figures` — regenerate every table and figure of the DCA paper.
//!
//! ```text
//! cargo run -p dca-bench --bin figures --release -- --all
//! cargo run -p dca-bench --bin figures --release -- --fig8 --fig9
//! DCA_FULL=1 cargo run -p dca-bench --bin figures --release -- --all
//! cargo run -p dca-bench --bin figures --release -- --all --jobs 8
//! ```
//!
//! Output goes to stdout and `results/<figure>.{md,csv,json}`.
//!
//! ## One runner
//!
//! The simulated figures are decomposed into deterministically named
//! jobs (see `dca_bench::shard`) and run by `shard::run_jobs` on up to
//! `--jobs N` threads (default: the available cores). A thread takes a
//! whole group of simulations that share one functional warm-up (every
//! design of a mix and organisation), builds the warm state once and
//! runs the group from it; the run ends with the counts, `N warm-ups
//! built, M reused`. Each job writes a text partial,
//! `results/partials/<job>.txt`, as soon as its last simulation finishes;
//! partials that still validate are reused, and partials no job of the
//! current plan names are pruned. The figure files are byte-identical
//! whatever the thread count and however many partials were reused,
//! which `crates/bench/tests/shard.rs` locks. To re-run one job, delete
//! its partial and re-run the figure.
//!
//! The scale comes from `DCA_FULL`, `DCA_INSTS`, `DCA_MIXES` and
//! `DCA_WARMUP` (see `dca_bench::Scale::from_env`); a malformed value
//! exits 1 before anything runs.
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success — every requested figure written |
//! | 1    | error — bad environment, unwritable results, or a panicked job |
//! | 2    | usage error |
//!
//! A panicked job is named on stderr (`figures: error: job <id>
//! panicked: <message>`) after every other job has finished and
//! written its partial, so a re-run runs only the failed jobs. Ctrl-C
//! ends the process (the shell reports 130); the partials already
//! written make a re-run of the same command resume.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use dca::controller::{SCHEDULE_ALL_HI, SCHEDULE_ALL_LO};
use dca::system::L2_LAT_CYCLES;
use dca::{Design, System, SystemConfig};
use dca_bench::shard::{self, FigurePlan, PartialStore, DEFAULT_CHUNK};
use dca_bench::Scale;
use dca_cpu::{mix, Benchmark, TraceGen};
use dca_dram_cache::{OrgKind, TagCache};
use dca_mem_hier::memory::{FLAT_BUS_TIME, FLAT_LATENCY};
use dca_metrics::Table;
use dca_sched::DrainPolicy;

/// Set when any figure file failed to write; turns into exit code 1.
static WRITE_FAILED: AtomicBool = AtomicBool::new(false);

/// Every user-facing selection flag, in `--all` output order.
const FIGURE_FLAGS: &[&str] = &[
    "--table1",
    "--table2",
    "--fig7",
    "--fig8",
    "--fig9",
    "--fig10",
    "--fig11",
    "--fig12",
    "--fig13",
    "--fig14",
    "--fig15",
    "--fig16",
    "--fig17",
    "--fig18",
    "--fig19",
    "--ff",
    "--mainmem",
    "--designs",
];

fn usage() -> String {
    format!(
        "usage: figures [--all] [{}] [--jobs N]\n\
         \n\
         \x20 --all          regenerate everything (default with no figure flags)\n\
         \x20 --jobs N       run the simulations on N threads (default: available cores)\n\
         \n\
         Each simulation job writes results/partials/<job>.txt when it finishes;\n\
         a re-run reuses those, so an interrupted run resumes. To re-run one job,\n\
         delete its partial and re-run the figure.\n\
         \n\
         exit codes:\n\
         \x20   0  ok — every requested figure written\n\
         \x20   1  error (bad environment, unwritable results, a job panicked)\n\
         \x20   2  usage\n\
         \n\
         environment: DCA_FULL, DCA_INSTS, DCA_MIXES, DCA_WARMUP",
        FIGURE_FLAGS.join("] [")
    )
}

struct Cli {
    /// Selected figure flags (without `--`); empty means all.
    figures: Vec<String>,
    /// Runner threads.
    jobs: usize,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        figures: Vec::new(),
        jobs: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (arg.as_str(), None),
        };
        // Only --jobs takes a value; an inline `=value` on any other
        // flag is a typo'd invocation, not a selection.
        let no_value = |flag: &str| -> Result<(), String> {
            match inline {
                Some(v) => Err(format!("{flag} takes no value, got {flag}={v:?}")),
                None => Ok(()),
            }
        };
        match flag {
            "--all" => {
                no_value("--all")?;
                all = true;
            }
            "--jobs" => {
                let v = match inline {
                    Some(v) => v.to_string(),
                    None => it.next().cloned().ok_or("--jobs needs a value")?,
                };
                cli.jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs wants a thread count >= 1, got {v:?}"))?;
            }
            f if FIGURE_FLAGS.contains(&f) => {
                no_value(f)?;
                cli.figures.push(f.trim_start_matches("--").to_string())
            }
            f => return Err(format!("unrecognized flag {f:?}")),
        }
    }
    if all {
        cli.figures.clear();
    }
    Ok(cli)
}

fn wanted(cli: &Cli, flag: &str) -> bool {
    cli.figures.is_empty() || cli.figures.iter().any(|f| f == flag)
}

/// Write one figure to stdout and `results/<name>.{md,csv,json}`.
/// A failed write is an error on stderr and a non-zero process exit —
/// never a silently missing file.
fn out(name: &str, title: &str, table: &Table) {
    let md = format!("# {title}\n\n{}\n", table.to_markdown());
    println!("\n== {title} ==\n{}", table.to_markdown());
    let results = Path::new("results");
    for (file, content) in [
        (format!("{name}.md"), md),
        (format!("{name}.csv"), table.to_csv()),
        (format!("{name}.json"), table.to_json(title)),
    ] {
        let path = results.join(file);
        if let Err(e) = fs::write(&path, &content) {
            eprintln!("figures: error: cannot write {}: {e}", path.display());
            WRITE_FAILED.store(true, Ordering::Relaxed);
        }
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// Table I: the thirty 4-core mixes.
fn table1() {
    let mut t = Table::new(vec!["mix", "benchmarks"]);
    for id in 1..=30 {
        t.row(vec![id.to_string(), mix(id).name()]);
    }
    out("table1", "Table I — workload groupings", &t);
}

/// A fill fraction as a whole percentage: `0.85` → `85%`.
fn pct(fraction: f64) -> String {
    format!("{:.0}%", fraction * 100.0)
}

/// Table II: system parameters as configured.
fn table2() {
    let cfg = SystemConfig::paper(Design::Dca, OrgKind::paper_set_assoc());
    let rod = SystemConfig::paper(Design::Rod, OrgKind::paper_set_assoc());
    let t_ = cfg.timing;
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec!["processor", "4 GHz, x86, 192 ROB, 8-wide"]);
    t.row(vec![
        "L1 I/D".to_string(),
        format!("32KB/2-way, {} cycles, private", cfg.l1_lat_cycles),
    ]);
    t.row(vec![
        "L2".to_string(),
        format!("8MB, {L2_LAT_CYCLES} cycles, shared"),
    ]);
    t.row(vec!["L3", "DRAM cache, 256MB (240MB data), 1/15-way"]);
    t.row(vec![
        "tRCD-tCAS-tRP-tRAS".to_string(),
        format!(
            "{}-{}-{}-{} ns",
            t_.t_rcd.as_ns_f64(),
            t_.t_cas.as_ns_f64(),
            t_.t_rp.as_ns_f64(),
            t_.t_ras.as_ns_f64()
        ),
    ]);
    t.row(vec![
        "tWTR-tRTP-tRTW".to_string(),
        format!(
            "{}-{}-{} ns",
            t_.t_wtr.as_ns_f64(),
            t_.t_rtp.as_ns_f64(),
            t_.t_rtw.as_ns_f64()
        ),
    ]);
    t.row(vec![
        "tWR-tBURST".to_string(),
        format!("{}-{} ns", t_.t_wr.as_ns_f64(), t_.t_burst.as_ns_f64()),
    ]);
    t.row(vec![
        "organisation".to_string(),
        format!(
            "{} banks/rank, {} rank/ch, {} channels, 4KB row, RoBaRaChCo, open page",
            cfg.dram_org.banks_per_rank, cfg.dram_org.ranks, cfg.dram_org.channels
        ),
    ]);
    t.row(vec![
        "read queue".to_string(),
        format!(
            "{} entries/ch ({} for ROD); DCA flush {}/{}; BLISS",
            cfg.read_q_cap,
            rod.read_q_cap,
            pct(SCHEDULE_ALL_LO),
            pct(SCHEDULE_ALL_HI)
        ),
    ]);
    t.row(vec![
        "write queue".to_string(),
        format!(
            "{} entries/ch ({} for ROD); flush {}/{}; BLISS",
            cfg.write_q_cap,
            rod.write_q_cap,
            pct(DrainPolicy::LO),
            pct(DrainPolicy::HI)
        ),
    ]);
    // A 64-byte block crosses the 64-bit bus in eight transfers, which
    // take FLAT_BUS_TIME.
    let bus_ghz = (64 / 8) as f64 / FLAT_BUS_TIME.as_ns_f64();
    t.row(vec![
        "memory latency".to_string(),
        format!(
            "{} ns + {bus_ghz} GHz x 64-bit bus",
            FLAT_LATENCY.as_ns_f64()
        ),
    ]);
    out(
        "table2",
        "Table II — system and stacked-DRAM parameters",
        &t,
    );
}

/// Fig 7: service-order narrative for the three designs (abstract study).
fn fig7() {
    let mut t = Table::new(vec![
        "design",
        "first accesses issued (role/class, ! = row conflict)",
    ]);
    for design in Design::ALL {
        let mut cfg = SystemConfig::paper(design, OrgKind::paper_set_assoc());
        cfg.record_timeline = true;
        cfg.target_insts = 40_000;
        cfg.warmup_ops = 400_000;
        let r = System::new(cfg, &[Benchmark::Libquantum, Benchmark::Lbm]).run();
        let tl = r.timeline.expect("timeline");
        let line: Vec<String> = tl
            .entries()
            .iter()
            .take(10)
            .map(|e| {
                format!(
                    "{:?}/{:?}{}",
                    e.role,
                    e.class,
                    if e.outcome.is_conflict() { "!" } else { "" }
                )
            })
            .collect();
        t.row(vec![design.label().to_string(), line.join(" → ")]);
    }
    out("fig7", "Fig 7 — CD vs ROD vs DCA service behaviour", &t);
}

/// Fig 18: DRAM tag accesses vs tag-cache size, normalized to no tag
/// cache (offline study over the set-access stream, as in ATCache \[4\]).
fn fig18(scale: &Scale) {
    let geom = dca_dram_cache::CacheGeometry::paper(
        OrgKind::paper_set_assoc(),
        dca_dram::MappingScheme::Direct,
    );
    // Build the set-access stream a mix presents to the cache.
    let m = mix(scale.mixes[0]);
    let mut gens: Vec<TraceGen> = m
        .benches
        .iter()
        .enumerate()
        .map(|(i, b)| TraceGen::new(b.profile(), (i as u64 + 1) << 26, 7))
        .collect();
    let ops = scale.insts.max(200_000);
    let mut requests: Vec<u64> = Vec::with_capacity(ops as usize * 4);
    for _ in 0..ops {
        for g in gens.iter_mut() {
            requests.push(geom.place(g.next_op().block).set);
        }
    }
    let mut t = Table::new(vec!["tag cache size", "DRAM tag accesses (normalized)"]);
    t.row(vec!["none".to_string(), fmt(1.0)]);
    for kb in [24usize, 48, 96, 192] {
        let mut tc = TagCache::new(kb * 1024, 1);
        for (i, &set) in requests.iter().enumerate() {
            tc.access(set, i % 3 == 0);
        }
        t.row(vec![
            format!("{kb} KB"),
            fmt(tc.stats().dram_tag_accesses() as f64 / requests.len() as f64),
        ]);
    }
    out(
        "fig18",
        "Fig 18 — DRAM tag accesses vs SRAM tag-cache size (normalized to no tag cache)",
        &t,
    );
}

/// Render one planned (shardable) figure from the merged store. The
/// unit layouts here mirror `shard::figure_plan` exactly; a missing
/// summary can only mean a planner/renderer mismatch, so it is an
/// error.
fn render(plan: &FigurePlan, store: &PartialStore) -> Result<(), String> {
    let sm = |i: usize| store.summary(&plan.units[i], &plan.mixes, DEFAULT_CHUNK);
    match plan.name {
        "fig8" | "fig9" => {
            // Per org: [CD-base, then one unit per Design::ALL entry].
            let stride = 1 + Design::ALL.len();
            let mut header = vec!["organisation".to_string()];
            header.extend(Design::ALL.iter().map(|d| d.label().to_string()));
            let mut t = Table::new(header);
            for oi in 0..2 {
                let base = sm(oi * stride)?;
                let mut cells = vec![plan.units[oi * stride].spec.org.label().to_string()];
                for d in 0..Design::ALL.len() {
                    let x = sm(oi * stride + 1 + d)?;
                    cells.push(fmt(x.ws_geomean() / base.ws_geomean()));
                }
                t.row(cells);
            }
            let title = if plan.name == "fig9" {
                "Fig 9 — average speedup with XOR remapping (normalized to CD without remapping)"
            } else {
                "Fig 8 — average normalized weighted speedup"
            };
            out(plan.name, title, &t);
        }
        "fig10" | "fig11" => {
            // [CD, ROD, DCA, XOR+CD, XOR+ROD, XOR+DCA].
            let summaries: Vec<_> = (0..plan.units.len()).map(sm).collect::<Result<_, _>>()?;
            let mut header = vec!["mix".to_string()];
            header.extend(plan.units.iter().map(|u| u.label.clone()));
            let mut t = Table::new(header);
            for (i, &mid) in plan.mixes.iter().enumerate() {
                let mut row = vec![mix(mid).name()];
                for x in &summaries {
                    row.push(fmt(x.ws[i] / summaries[0].ws[i]));
                }
                t.row(row);
            }
            let title = if plan.name == "fig10" {
                "Fig 10 — per-workload speedup (set-associative)"
            } else {
                "Fig 11 — per-workload speedup (direct-mapped)"
            };
            out(plan.name, title, &t);
        }
        "fig12" | "fig13" => {
            // [CD-base, CD, ROD, DCA, XOR+CD, XOR+ROD, XOR+DCA].
            let base = sm(0)?;
            let mut t = Table::new(vec![
                "design",
                "mean miss latency (ns)",
                "improvement vs CD",
            ]);
            for i in 1..plan.units.len() {
                let x = sm(i)?;
                t.row(vec![
                    plan.units[i].label.clone(),
                    format!("{:.1}", x.mean_latency()),
                    fmt(base.mean_latency() / x.mean_latency()),
                ]);
            }
            let title = if plan.name == "fig12" {
                "Fig 12 — L2 miss latency improvement (set-associative)"
            } else {
                "Fig 13 — L2 miss latency improvement (direct-mapped)"
            };
            out(plan.name, title, &t);
        }
        "fig14" | "fig15" => {
            let mut t = Table::new(vec!["design", "accesses/turnaround"]);
            for i in 0..plan.units.len() {
                let x = sm(i)?;
                t.row(vec![
                    plan.units[i].label.clone(),
                    format!("{:.2}", x.mean_apt()),
                ]);
            }
            let title = if plan.name == "fig14" {
                "Fig 14 — accesses per turnaround (set-associative)"
            } else {
                "Fig 15 — accesses per turnaround (direct-mapped)"
            };
            out(plan.name, title, &t);
        }
        "fig16" | "fig17" => {
            // Pairs: [CD, XOR+CD, ROD, XOR+ROD, ...] — one per design.
            let mut t = Table::new(vec!["design", "no remap", "with remap"]);
            for pair in 0..Design::ALL.len() {
                let plain = sm(pair * 2)?;
                let remap = sm(pair * 2 + 1)?;
                t.row(vec![
                    plan.units[pair * 2].label.clone(),
                    fmt(plain.mean_row_hit()),
                    fmt(remap.mean_row_hit()),
                ]);
            }
            let title = if plan.name == "fig16" {
                "Fig 16 — row buffer hit rate (set-associative)"
            } else {
                "Fig 17 — row buffer hit rate (direct-mapped)"
            };
            out(plan.name, title, &t);
        }
        "fig19" => {
            // [LEE+CD, LEE+ROD, LEE+DCA].
            let base = sm(0)?;
            let mut t = Table::new(vec!["design (with Lee writeback)", "speedup vs LEE+CD"]);
            t.row(vec!["LEE+CD".to_string(), fmt(1.0)]);
            for i in 1..plan.units.len() {
                let x = sm(i)?;
                t.row(vec![
                    plan.units[i].label.clone(),
                    fmt(x.ws_geomean() / base.ws_geomean()),
                ]);
            }
            out(
                "fig19",
                "Fig 19 — speedup under DRAM-aware writeback (direct-mapped)",
                &t,
            );
        }
        "ablation_ff" => {
            // [FF-1 .. FF-5]; normalize to FF-4.
            let base = sm(3)?;
            let mut t = Table::new(vec!["flushing factor", "WS geomean (normalized to FF-4)"]);
            for i in 0..plan.units.len() {
                let x = sm(i)?;
                t.row(vec![
                    plan.units[i].label.clone(),
                    fmt(x.ws_geomean() / base.ws_geomean()),
                ]);
            }
            out(
                "ablation_ff",
                "§IV-C — flushing-factor sensitivity (DCA, set-associative)",
                &t,
            );
        }
        "mainmem" => {
            // Pairs per backend: [CD, DCA]. Absolute WS geomeans (each
            // normalised to its own backend's alone-IPC baseline), plus
            // DCA/CD to show whether the paper's edge survives a real
            // (or slower) backing store, plus the CD miss latency the
            // backend implies.
            let mut t = Table::new(vec![
                "main memory",
                "CD WS",
                "DCA WS",
                "DCA/CD",
                "CD miss ns",
                "DCA miss ns",
            ]);
            for pair in 0..plan.units.len() / 2 {
                let cd = sm(pair * 2)?;
                let dca = sm(pair * 2 + 1)?;
                let backend = plan.units[pair * 2]
                    .label
                    .split('+')
                    .next()
                    .unwrap_or("?")
                    .to_string();
                t.row(vec![
                    backend,
                    fmt(cd.ws_geomean()),
                    fmt(dca.ws_geomean()),
                    fmt(dca.ws_geomean() / cd.ws_geomean()),
                    format!("{:.1}", cd.mean_latency()),
                    format!("{:.1}", dca.mean_latency()),
                ]);
            }
            out(
                "mainmem",
                "Main-memory sensitivity — flat vs cycle-level DDR4 backend (direct-mapped)",
                &t,
            );
        }
        "designs" => {
            // Blocks of Design::ALL per (backend, policy) pair — see
            // shard::figure_plan. One row per pair: absolute WS per
            // design plus BAN/DCA (does fill economy pay off?).
            let n = Design::ALL.len();
            let mut header = vec!["main memory".to_string(), "policy".to_string()];
            header.extend(Design::ALL.iter().map(|d| format!("{} WS", d.label())));
            header.push("BAN/DCA".to_string());
            let mut t = Table::new(header);
            for block in 0..plan.units.len() / n {
                let mut parts = plan.units[block * n].label.split('+');
                let backend = parts.next().unwrap_or("?").to_string();
                let policy = parts.next().unwrap_or("?").to_string();
                let designs: Vec<_> = (0..n)
                    .map(|d| sm(block * n + d))
                    .collect::<Result<_, _>>()?;
                let mut row = vec![backend, policy];
                for x in &designs {
                    row.push(fmt(x.ws_geomean()));
                }
                let of = |design| &designs[Design::ALL.iter().position(|&d| d == design).unwrap()];
                row.push(fmt(
                    of(Design::Banshee).ws_geomean() / of(Design::Dca).ws_geomean()
                ));
                t.row(row);
            }
            out(
                "designs",
                "Design comparison — CD/ROD/DCA/BAN × replacement policy × main-memory tier \
                 (direct-mapped)",
                &t,
            );
        }
        other => return Err(format!("no renderer for figure {other:?}")),
    }
    Ok(())
}

/// Which shardable figures a selection pulls in, in `--all` order.
/// `shard::figure_plan` is the single authority on shardability: names
/// it declines (tables, fig7, fig18 — the local figures) are dropped
/// by the `filter_map` at the call site.
fn planned_figures(cli: &Cli) -> Vec<&'static str> {
    FIGURE_FLAGS
        .iter()
        .map(|flag| flag.trim_start_matches("--"))
        .filter(|short| wanted(cli, short))
        .map(|short| if short == "ff" { "ablation_ff" } else { short })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("figures: error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };

    // A malformed scale is a bad environment: refuse it before any
    // output or simulation rather than run a scale nobody asked for.
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("figures: error: {e}");
        std::process::exit(1);
    });

    // The output directory is load-bearing for every figure — create it
    // up front and refuse to run if that fails, instead of quietly
    // producing nothing.
    if let Err(e) = fs::create_dir_all("results") {
        eprintln!("figures: error: cannot create results/: {e}");
        std::process::exit(1);
    }

    eprintln!(
        "figures: insts/core={}, warmup/core={}, mixes={:?} (set DCA_FULL=1 for paper scale; \
         --jobs N to set the thread count, now {})",
        scale.insts, scale.warmup, scale.mixes, cli.jobs
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "D02: the sweep's wall-clock report, never a simulation input"
    )]
    let t0 = Instant::now();

    // Local (unsharded) figures.
    if wanted(&cli, "table1") {
        table1();
    }
    if wanted(&cli, "table2") {
        table2();
    }
    if wanted(&cli, "fig7") {
        fig7();
    }
    if wanted(&cli, "fig18") {
        fig18(&scale);
    }

    // Shardable figures: plan → run (reusing valid partials) → merge →
    // render. A name that neither plans nor appears in the local list
    // above is a wiring bug — fail loudly rather than silently
    // rendering nothing.
    const LOCAL_FIGURES: &[&str] = &["table1", "table2", "fig7", "fig18"];
    let mut plans: Vec<FigurePlan> = Vec::new();
    for name in planned_figures(&cli) {
        match shard::figure_plan(name, &scale) {
            Some(plan) => plans.push(plan),
            None => assert!(
                LOCAL_FIGURES.contains(&name),
                "figure {name} has neither a shard plan nor a local renderer"
            ),
        }
    }
    let mut warm = (0, 0);
    if !plans.is_empty() {
        let jobs = shard::plan_jobs(&plans, DEFAULT_CHUNK);
        let outcome = shard::run_jobs(&jobs, cli.jobs, &shard::partials_dir());
        eprintln!(
            "figures: {} jobs run, {} reused from prior partials, {} threads",
            outcome.run, outcome.reused, cli.jobs
        );
        if !outcome.failed.is_empty() {
            for (id, message) in &outcome.failed {
                eprintln!("figures: error: job {id} panicked: {message}");
            }
            std::process::exit(1);
        }
        for plan in &plans {
            if let Err(e) = render(plan, &outcome.store) {
                eprintln!("figures: error: {e}");
                std::process::exit(1);
            }
        }
        warm = (outcome.warm_built, outcome.warm_reused);
    }

    // Sweep wall-clock trajectory: how much warm-up sharing saved. Each
    // warm-up *built* is one actually paid; each *reused* is one a cold
    // harness would have re-run. (The benchmark's `--trace 1` mode
    // reports the same two counts for an in-process figure run as
    // `bench.warm.{builds,hits}`.)
    eprintln!(
        "figures: wall-clock {:.1}s; warm cache: {} warm-ups built, {} reused",
        t0.elapsed().as_secs_f64(),
        warm.0,
        warm.1
    );
    if WRITE_FAILED.load(Ordering::Relaxed) {
        std::process::exit(1);
    }
}
