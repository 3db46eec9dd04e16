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
//! ## Sharded mode
//!
//! `--jobs N` runs the requested figures through a **persistent pool**
//! of `N` supervised `figures --worker --serve` subprocesses: figures
//! are decomposed into deterministically named jobs (see
//! `dca_bench::shard`), each worker keeps its in-process warm cache
//! hot across jobs and writes one JSON partial per job under
//! `results/partials/`, and the supervisor merges the partials into
//! the same figure files a serial run writes — bit-identical, which
//! `crates/bench/tests/shard.rs` and `tests/pool.rs` lock. Partials
//! that already validate on disk are reused (resume after a crash or
//! Ctrl-C), stale partials from an older plan are pruned, and a job
//! that keeps failing is quarantined (`results/partials/
//! quarantine.json`) instead of sinking the sweep — its cells render
//! as `—` and the run exits degraded. See `shard::pool` for the wire
//! protocol and `shard::supervisor` for deadlines, retry/backoff and
//! the drain semantics. `--chunk M` sets the mixes (and alone
//! benchmarks) per job.
//!
//! One job can be re-run by hand through the same worker protocol:
//!
//! ```text
//! printf 'RUN 0 <job id>\n' | figures --worker --serve
//! ```
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success — every requested figure written |
//! | 1    | hard error (bad environment, unwritable results) |
//! | 2    | usage error |
//! | 3    | degraded — quarantined jobs; affected figure cells render as `—` |
//! | 130  | interrupted — in-flight jobs drained and flushed; re-run to resume |

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use std::collections::HashSet;

use dca::{Design, System, SystemConfig};
use dca_bench::shard::{self, FigurePlan, PartialStore, DEFAULT_CHUNK};
use dca_bench::{Scale, WarmCache};
use dca_cpu::{mix, Benchmark, TraceGen};
use dca_dram_cache::{OrgKind, TagCache};
use dca_metrics::Table;

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
        "usage: figures [--all] [{}] [--jobs N] [--chunk M]\n\
         \x20      figures --worker --serve\n\
         \n\
         \x20 --all          regenerate everything (default with no figure flags)\n\
         \x20 --jobs N       run through a persistent pool of N supervised workers\n\
         \x20 --chunk M      mixes per sharded job (default {DEFAULT_CHUNK})\n\
         \x20 --worker --serve\n\
         \x20                pool worker: RUN/EXIT over stdin, frames over stdout\n\
         \x20                (re-run one job by hand: printf 'RUN 0 <id>\\n' | ...)\n\
         \n\
         exit codes:\n\
         \x20   0  ok — every requested figure written\n\
         \x20   1  hard error (bad environment, unwritable results)\n\
         \x20   2  usage\n\
         \x20   3  degraded — quarantined jobs (see results/partials/\n\
         \x20      quarantine.json); affected cells render as \"—\"\n\
         \x20 130  interrupted — in-flight jobs drained and flushed; re-run the\n\
         \x20      same command to resume\n\
         \n\
         environment: DCA_FULL, DCA_INSTS, DCA_MIXES, DCA_WARMUP, DCA_WARM*,\n\
         \x20 DCA_JOB_TIMEOUT_MS, DCA_JOB_ATTEMPTS, DCA_RETRY_BACKOFF_MS,\n\
         \x20 DCA_HEARTBEAT_MS, DCA_HEARTBEAT_TIMEOUT_MS, DCA_POOL_INFLIGHT,\n\
         \x20 DCA_FAULT_PLAN",
        FIGURE_FLAGS.join("] [")
    )
}

struct Cli {
    /// Selected figure flags (without `--`); empty means all.
    figures: Vec<String>,
    /// Pool worker count; `None` is the serial in-process path.
    jobs: Option<usize>,
    /// Mixes per sharded job.
    chunk: usize,
    /// Pool-worker serve loop (`--worker --serve`).
    serve: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        figures: Vec::new(),
        jobs: None,
        chunk: DEFAULT_CHUNK,
        serve: false,
    };
    let mut all = false;
    let mut worker = false;
    let mut chunk = None;
    let mut it = args.iter();
    let value_of = |it: &mut std::slice::Iter<String>,
                    flag: &str,
                    inline: Option<&str>|
     -> Result<String, String> {
        if let Some(v) = inline {
            return Ok(v.to_string());
        }
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (arg.as_str(), None),
        };
        // Only --jobs/--chunk take a value; an inline `=value` on any
        // other flag is a typo'd invocation, not a selection.
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
            "--worker" => {
                no_value("--worker")?;
                worker = true;
            }
            "--serve" => {
                no_value("--serve")?;
                cli.serve = true;
            }
            "--jobs" => {
                let v = value_of(&mut it, "--jobs", inline)?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs wants a worker count >= 1, got {v:?}"))?;
                cli.jobs = Some(n);
            }
            "--chunk" => {
                let v = value_of(&mut it, "--chunk", inline)?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--chunk wants a size >= 1, got {v:?}"))?;
                chunk = Some(n);
            }
            f if FIGURE_FLAGS.contains(&f) => {
                no_value(f)?;
                cli.figures.push(f.trim_start_matches("--").to_string())
            }
            f => return Err(format!("unrecognized flag {f:?}")),
        }
    }
    if worker != cli.serve {
        return Err("--worker and --serve go together (the pool worker mode)".to_string());
    }
    if worker && (all || !cli.figures.is_empty() || cli.jobs.is_some() || chunk.is_some()) {
        return Err("--worker --serve takes no figure selection, --jobs or --chunk".to_string());
    }
    if let Some(n) = chunk {
        cli.chunk = n;
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

/// Table II: system parameters as configured.
fn table2() {
    let cfg = SystemConfig::paper(Design::Dca, OrgKind::paper_set_assoc());
    let t_ = cfg.timing;
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec!["processor", "4 GHz, x86, 192 ROB, 8-wide"]);
    t.row(vec!["L1 I/D", "32KB/2-way, 2 cycles, private"]);
    t.row(vec!["L2", "8MB, 20 cycles, shared"]);
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
            "{} entries/ch (32 for ROD); DCA flush 75%/85%; BLISS",
            cfg.read_q_cap
        ),
    ]);
    t.row(vec![
        "write queue".to_string(),
        format!(
            "{} entries/ch (96 for ROD); flush 50%/85%; BLISS",
            cfg.write_q_cap
        ),
    ]);
    t.row(vec!["memory latency", "50 ns + 2 GHz x 64-bit bus"]);
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

/// Cell builder that renders a missing value as an explicit hole
/// (`—`) and counts it, so a degraded run shows exactly which numbers
/// a quarantined job took with it.
struct Holes(usize);

impl Holes {
    fn cell(&mut self, v: Option<String>) -> String {
        v.unwrap_or_else(|| {
            self.0 += 1;
            "—".to_string()
        })
    }
}

/// Render one planned (shardable) figure from the merged store,
/// returning how many cells had to be rendered as holes. The unit
/// layouts here mirror `shard::figure_plan` exactly.
///
/// With `degraded` unset (the serial path, or a pool run with nothing
/// quarantined) a missing summary is a hard error — it can only mean a
/// planner/renderer mismatch, and silence would hide the bug. With
/// `degraded` set, missing summaries become holes.
fn render(
    plan: &FigurePlan,
    store: &PartialStore,
    chunk: usize,
    degraded: bool,
) -> Result<usize, String> {
    let sm = |i: usize| -> Result<Option<dca_bench::DesignSummary>, String> {
        match store.summary(&plan.units[i], &plan.mixes, chunk) {
            Ok(s) => Ok(Some(s)),
            Err(_) if degraded => Ok(None),
            Err(e) => Err(e),
        }
    };
    let mut h = Holes(0);
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
                    cells.push(
                        h.cell(
                            base.as_ref()
                                .zip(x.as_ref())
                                .map(|(b, x)| fmt(x.ws_geomean() / b.ws_geomean())),
                        ),
                    );
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
                    row.push(
                        h.cell(
                            summaries[0]
                                .as_ref()
                                .zip(x.as_ref())
                                .map(|(b, x)| fmt(x.ws[i] / b.ws[i])),
                        ),
                    );
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
                    h.cell(x.as_ref().map(|x| format!("{:.1}", x.mean_latency()))),
                    h.cell(
                        base.as_ref()
                            .zip(x.as_ref())
                            .map(|(b, x)| fmt(b.mean_latency() / x.mean_latency())),
                    ),
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
                    h.cell(x.as_ref().map(|x| format!("{:.2}", x.mean_apt()))),
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
                    h.cell(plain.as_ref().map(|p| fmt(p.mean_row_hit()))),
                    h.cell(remap.as_ref().map(|r| fmt(r.mean_row_hit()))),
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
                    h.cell(
                        base.as_ref()
                            .zip(x.as_ref())
                            .map(|(b, x)| fmt(x.ws_geomean() / b.ws_geomean())),
                    ),
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
                    h.cell(
                        base.as_ref()
                            .zip(x.as_ref())
                            .map(|(b, x)| fmt(x.ws_geomean() / b.ws_geomean())),
                    ),
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
                    h.cell(cd.as_ref().map(|c| fmt(c.ws_geomean()))),
                    h.cell(dca.as_ref().map(|d| fmt(d.ws_geomean()))),
                    h.cell(
                        cd.as_ref()
                            .zip(dca.as_ref())
                            .map(|(c, d)| fmt(d.ws_geomean() / c.ws_geomean())),
                    ),
                    h.cell(cd.as_ref().map(|c| format!("{:.1}", c.mean_latency()))),
                    h.cell(dca.as_ref().map(|d| format!("{:.1}", d.mean_latency()))),
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
                    row.push(h.cell(x.as_ref().map(|x| fmt(x.ws_geomean()))));
                }
                let dca = designs
                    .iter()
                    .zip(&plan.units[block * n..(block + 1) * n])
                    .find(|(_, u)| u.label.ends_with("+DCA"))
                    .and_then(|(s, _)| s.as_ref());
                let ban = designs
                    .iter()
                    .zip(&plan.units[block * n..(block + 1) * n])
                    .find(|(_, u)| u.label.ends_with("+BAN"))
                    .and_then(|(s, _)| s.as_ref());
                row.push(
                    h.cell(
                        dca.zip(ban)
                            .map(|(d, b)| fmt(b.ws_geomean() / d.ws_geomean())),
                    ),
                );
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
    Ok(h.0)
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

    // Pool-worker mode: serve RUN/EXIT commands forever (never
    // returns).
    if cli.serve {
        shard::pool::serve();
    }

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
         DCA_WARM=0 for cold warm-ups; DCA_WARM_PERSIST=1 to persist under results/warm/; \
         --jobs N to shard across processes)",
        scale.insts, scale.warmup, scale.mixes
    );
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

    // Shardable figures: plan → execute (inline or across workers) →
    // merge → render, one shared pipeline for both modes. A name that
    // neither plans nor appears in the local list above is a wiring
    // bug — fail loudly rather than silently rendering nothing.
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
    let mut degraded = false;
    if !plans.is_empty() {
        let jobs = shard::plan_jobs(&plans, cli.chunk);
        let store = if let Some(workers) = cli.jobs {
            shard::supervisor::install_signal_handlers();
            // Partials left by an *older plan* (different scale,
            // chunking, or figure set) would linger forever; prune
            // anything the current plan cannot consume.
            let valid: HashSet<String> = jobs.iter().map(|j| j.id.clone()).collect();
            let pruned = shard::prune_orphans(&valid);
            if pruned > 0 {
                eprintln!("figures: pruned {pruned} orphan partial(s) left by a previous plan");
            }
            match shard::supervisor::Supervisor::new(workers).run(&jobs) {
                Ok(outcome) => {
                    let s = outcome.stats;
                    eprintln!(
                        "figures: pool: {} jobs run, {} reused from prior partials, \
                         {} retried, {} quarantined, {} worker respawns, {workers} workers",
                        s.run, s.reused, s.retried, s.quarantined, s.respawns
                    );
                    if outcome.drained {
                        eprintln!(
                            "figures: interrupted; in-flight jobs were finished and \
                             flushed — re-run the same command to resume"
                        );
                        std::process::exit(130);
                    }
                    if !outcome.quarantined.is_empty() {
                        degraded = true;
                        eprintln!(
                            "figures: error: {} job(s) quarantined after repeated \
                             failures (details in {}); affected cells render as \"—\"",
                            outcome.quarantined.len(),
                            shard::quarantine_path().display()
                        );
                    }
                    outcome.store
                }
                Err(e) => {
                    eprintln!("figures: error: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            shard::execute_inline(&jobs)
        };
        let mut holes = 0;
        for plan in &plans {
            match render(plan, &store, cli.chunk, degraded) {
                Ok(n) => holes += n,
                Err(e) => {
                    eprintln!("figures: error: {e}");
                    std::process::exit(1);
                }
            }
        }
        if holes > 0 {
            eprintln!("figures: {holes} cell(s) rendered as holes due to quarantined jobs");
        }
    }

    // Sweep wall-clock trajectory: how much warm-up sharing saved. Each
    // cache *build* is a warm-up actually paid; each *hit* is one a cold
    // harness would have re-run. (The benchmark's `--trace 1` mode
    // reports the same two counts for an in-process figure run as
    // `bench.warm.{builds,hits}`.)
    let s = WarmCache::global().stats();
    eprintln!(
        "figures: wall-clock {:.1}s; warm cache: {} warm-ups built, {} reused, {} disk-loaded, \
         {} lock-waits ({} warm-ups avoided vs cold harness)",
        t0.elapsed().as_secs_f64(),
        s.builds,
        s.hits,
        s.disk_loads,
        s.lock_waits,
        s.hits + s.disk_loads
    );
    if WRITE_FAILED.load(Ordering::Relaxed) {
        std::process::exit(1);
    }
    if degraded {
        std::process::exit(3);
    }
}
