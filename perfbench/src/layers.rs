//! The traced run: per-layer numbers for one workload.
//!
//! For each of the workload's simulations it times the real warm-up,
//! restore and event loop, then replays each loop layer on that
//! simulation's own traffic (see [`crate::replay`]) and checks that the
//! replays are faithful. It then replays the harness stages in-process
//! through `dca_bench::shard`, and finally alternates traced and
//! untraced repetitions of the workload's operation to measure the
//! tracing overhead. Spans are written to the work directory.

use std::time::Instant;

use dca::{Design, System, SystemConfig, SystemReport, WarmState};
use dca_bench::shard::{decode_partial, encode_partial, execute_job, PartialStore, DEFAULT_CHUNK};
use dca_bench::{RunSpec, Scale, WarmCache};
use dca_cpu::{mix, Benchmark};
use dca_dram_cache::OrgKind;
use dca_metrics::Table;

use crate::catalog::LAYERS;
use crate::digest::{hex, report_digest, Checker};
use crate::replay;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self as w, guarded, insts_of, Workload};
use crate::{Args, Outcome};

/// Repetitions of the sub-millisecond harness stages (plan, codec,
/// merge, render), reported as the median of one pass.
const STAGE_REPS: usize = 25;

/// Warm-state residency of the in-process harness replay: enough for
/// one organisation's mixes plus an alone-run chunk, small enough to
/// keep the traced run's memory modest.
const WARM_CAP: &str = "8";

/// One simulation the loop layers are replayed on.
struct Sim {
    key: String,
    cfg: SystemConfig,
    benches: Vec<Benchmark>,
}

fn sims(a: &Args) -> Vec<Sim> {
    match a.workload {
        Workload::DesignSweepSaXpoint => Design::ALL
            .iter()
            .map(|&d| Sim {
                key: d.label().to_string(),
                cfg: w::w2_config(d, a.seed),
                benches: mix(w::W2_MIX).benches.to_vec(),
            })
            .collect(),
        // The figure run's own traffic: its DCA set-associative unit on
        // its first mix, at its scale and seed.
        Workload::FigureRegen => {
            let scale = w::w3_scale(a.seed);
            let m = scale.mixes[0];
            vec![Sim {
                key: format!("fig-dca-sa-mix{m}"),
                cfg: RunSpec::at_scale(Design::Dca, OrgKind::paper_set_assoc(), &scale).config(),
                benches: mix(m).benches.to_vec(),
            }]
        }
    }
}

/// The harness plan replayed in-process: the figures that sweep the
/// workload's own organisation and mixes. The sweep uses a smoke scale
/// so the harness stages, not the simulations, stay the subject.
fn harness_plan(a: &Args) -> (Vec<&'static str>, Scale) {
    let smoke = |mixes: Vec<u32>| Scale {
        insts: 20_000,
        warmup: 40_000,
        mixes,
    };
    match a.workload {
        Workload::DesignSweepSaXpoint => (vec!["fig14"], smoke(vec![w::W2_MIX])),
        Workload::FigureRegen => (w::W3_FIGURES.to_vec(), w::w3_scale(a.seed)),
    }
}

/// Sums the replays accumulate across simulations.
#[derive(Default)]
struct Acc {
    warm_s: Vec<f64>,
    restore_s: Vec<f64>,
    run_s: f64,
    attributed_s: f64,
    events: u64,
    insts: u64,
    gen: (u64, f64),
    sram: (u64, f64),
    l1: (u64, u64),
    l2: (u64, u64),
    tags: (u64, f64),
    inserts: u64,
    core: (u64, f64),
    ctrl_slots: (u64, f64),
    ctrl_idle: u64,
    picks: (u64, f64),
    dram: (u64, f64),
    ev: (u64, f64),
    mem: (u64, f64),
    mem_calls: (u64, u64),
    mem_rows: (u64, u64),
    mem_wait_ps: u64,
    waits_ps: [u64; 3],
    served: [u64; 3],
    forced: u64,
    spilled: u64,
    dev_accesses: u64,
    dev_reads: u64,
    dev_read_hits: f64,
    turnarounds: u64,
}

fn per_ns(x: (u64, f64)) -> f64 {
    x.1 / x.0 as f64 * 1e9
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// Per-warm-state replay results the simulations sharing it reuse.
struct WarmShared {
    fingerprint: u64,
    state: WarmState,
    core_s_per_inst: f64,
    mem_s_per_access: f64,
}

/// Run the traced measurement of `a.workload`.
pub fn run(a: &Args) -> Result<Outcome, String> {
    // Latched by the first `WarmCache::global()` call, which comes
    // later, in the harness replay.
    std::env::set_var("DCA_WARM_CAP", WARM_CAP);
    let started = Instant::now();
    let mut t = Tracer::new();
    let mut out = Outcome::default();
    let mut acc = Acc::default();
    let mut checker = w::sim_checker(a, a.workload);
    t.span("perfbench", "perfbench", |t| -> Result<(), String> {
        let mut shared: Option<WarmShared> = None;
        for sim in sims(a) {
            replay_sim(t, &sim, &mut shared, &mut acc, &mut checker, &mut out);
        }
        harness(t, a, &mut out)
    })?;
    overhead(a, started, &mut out)?;
    out.finish_checks(a, checker);
    emit(&acc, &mut out);
    let by_layer = t.self_time_by_layer();
    for layer in LAYERS {
        let self_s = by_layer.get(layer).copied().unwrap_or(0.0);
        out.push(&format!("{layer}.self_s"), self_s);
    }
    let path = a
        .work_dir
        .join(format!("spans-{}-seed{}.json", a.workload.name(), a.seed));
    t.write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note("spans", &path.display().to_string());
    Ok(out)
}

fn replay_sim(
    t: &mut Tracer,
    sim: &Sim,
    shared: &mut Option<WarmShared>,
    acc: &mut Acc,
    checker: &mut Checker,
    out: &mut Outcome,
) {
    let (cfg, benches) = (sim.cfg, &sim.benches[..]);
    let fingerprint = WarmState::fingerprint_for(&cfg, benches);
    if shared.as_ref().map(|s| s.fingerprint) != Some(fingerprint) {
        *shared = Some(replay_warm(t, &cfg, benches, acc, out));
    }
    let warm = shared.as_ref().expect("warm state replayed above");

    out.attempted += 1;
    let run = guarded(|| {
        let t0 = Instant::now();
        let sys = t.span("System::from_warm", "core.system", |_| {
            System::from_warm(cfg, benches, &warm.state)
        });
        let restore = t0.elapsed().as_secs_f64();
        let r = t.span("System::run", "core.system", |_| sys.run());
        (restore, t0.elapsed().as_secs_f64() - restore, r)
    });
    let Some((restore, run_s, report)) = run else {
        out.failed += 1;
        out.failures
            .push(format!("{}: simulation panicked", sim.key));
        return;
    };
    if !checker.check(&sim.key, &hex(report_digest(&report))) {
        out.failed += 1;
    }
    acc.restore_s.push(restore);

    // The same run with the access timeline recorded: the traffic the
    // loop-layer replays re-drive. Recording must not change results.
    let mut tcfg = cfg;
    tcfg.record_timeline = true;
    out.attempted += 1;
    let recorded = guarded(|| {
        t.span("System::run+timeline", "core.system", |_| {
            System::from_warm(tcfg, benches, &warm.state).run()
        })
    });
    let Some(recorded) = recorded.filter(|r| report_digest(r) == report_digest(&report)) else {
        out.failed += 1;
        out.failures.push(format!(
            "{}: timeline recording changed the results",
            sim.key
        ));
        return;
    };
    let entries = recorded
        .timeline
        .as_ref()
        .map_or(&[][..], |tl| tl.entries());
    let channels = replay::by_channel(&cfg, entries);

    let dram = replay::dram(t, &cfg, &channels);
    acc.dram = (acc.dram.0 + dram.0, acc.dram.1 + dram.1);
    let ctrl = replay::controller(t, &cfg, &channels);
    out.attempted += 1;
    if ctrl.issued != ctrl.accesses {
        let why = format!(
            "{}: controller replay issued {} of {} accesses",
            sim.key, ctrl.issued, ctrl.accesses
        );
        let layers = [
            "core.controller.ns_per_slot",
            "core.controller.idle_slot_frac",
            "sched.",
        ];
        out.invalidate(&layers, why);
    }
    acc.ctrl_slots = (acc.ctrl_slots.0 + ctrl.slots, acc.ctrl_slots.1 + ctrl.s);
    acc.ctrl_idle += ctrl.idle_slots;
    let picks = replay::sched(t, &cfg, &channels);
    acc.picks = (acc.picks.0 + picks.0, acc.picks.1 + picks.1);
    let ev = replay::events(t, &cfg, entries);
    acc.ev = (acc.ev.0 + ev.0, acc.ev.1 + ev.1);

    account(acc, &cfg, &report, run_s, warm, &ctrl, ev);
}

/// Fold one simulation's report into the sums, and charge its loop
/// time to the replayed layers at their measured cost per operation.
fn account(
    acc: &mut Acc,
    cfg: &SystemConfig,
    r: &SystemReport,
    run_s: f64,
    warm: &WarmShared,
    ctrl: &replay::ControllerReplay,
    ev: (u64, f64),
) {
    let accesses: u64 = r.channels.iter().map(|c| c.reads + c.writes).sum();
    let mem_accesses = r.main_mem.reads + r.main_mem.writes;
    let mut attributed = warm.core_s_per_inst * insts_of(r) as f64
        + ctrl.s / ctrl.issued.max(1) as f64 * accesses as f64
        + ev.1 / ev.0.max(1) as f64 * r.events_processed as f64;
    if cfg.main_mem.is_cycle() {
        attributed += warm.mem_s_per_access * mem_accesses as f64;
    }
    acc.run_s += run_s;
    acc.attributed_s += attributed;
    acc.events += r.events_processed;
    acc.insts += insts_of(r);
    for c in &r.channels {
        let s = &c.ctrl;
        acc.waits_ps[0] += s.pr_wait_ps;
        acc.waits_ps[1] += s.lr_wait_ps;
        acc.waits_ps[2] += s.write_wait_ps;
        acc.served[0] += s.pr_served.get();
        acc.served[1] += s.lr_served.get();
        acc.served[2] += s.writes_served.get();
        acc.forced += s.forced_drain_slots.get();
        acc.spilled += s.spilled.get();
        acc.dev_accesses += c.reads + c.writes;
        acc.dev_reads += c.reads;
        acc.dev_read_hits += c.read_row_hit_rate * c.reads as f64;
        acc.turnarounds += c.turnarounds;
    }
}

/// The real warm-up, timed, and its phase-by-phase replay, checked
/// against it byte for byte; then the replays that start from warm-up's
/// output (the main-memory miss stream, the cores).
fn replay_warm(
    t: &mut Tracer,
    cfg: &SystemConfig,
    benches: &[Benchmark],
    acc: &mut Acc,
    out: &mut Outcome,
) -> WarmShared {
    let t0 = Instant::now();
    let state = t.span("System::capture_warm", "core.warm", |_| {
        System::capture_warm(*cfg, benches)
    });
    acc.warm_s.push(t0.elapsed().as_secs_f64());
    let wr = t.span("warm.replay", "core.warm", |t| {
        replay::warm(t, cfg, benches)
    });
    out.attempted += 1;
    if wr.encoded != state.encode() {
        let why = "warm-up replay does not reproduce System::capture_warm".to_string();
        out.invalidate(&["cpu.", "mem_hier.", "dram_cache."], why);
    }
    acc.gen = (acc.gen.0 + wr.ops, acc.gen.1 + wr.gen_s);
    acc.sram = (acc.sram.0 + wr.sram_calls, acc.sram.1 + wr.sram_s);
    acc.l1 = (acc.l1.0 + wr.l1_hits, acc.l1.1 + wr.l1_probes);
    acc.l2 = (acc.l2.0 + wr.l2_misses, acc.l2.1 + wr.l2_probes);
    acc.tags = (acc.tags.0 + wr.tag_ops.len() as u64, acc.tags.1 + wr.tags_s);
    acc.inserts += wr.tag_inserts;

    let mem = replay::memory(t, &wr.tag_ops);
    out.attempted += 1;
    if !mem.all_served {
        let why = "main-memory replay left accesses unserved".to_string();
        out.invalidate(&["mem_hier.memory."], why);
    }
    acc.mem = (acc.mem.0 + mem.accesses, acc.mem.1 + mem.s);
    acc.mem_calls = (
        acc.mem_calls.0 + mem.empty_schedules,
        acc.mem_calls.1 + mem.schedule_calls,
    );
    let issued = mem.stats.reads + mem.stats.writes;
    acc.mem_rows = (acc.mem_rows.0 + mem.stats.row_hits, acc.mem_rows.1 + issued);
    acc.mem_wait_ps += mem.stats.queue_wait_ps;

    let core = replay::cores(t, cfg, &wr.gens);
    acc.core = (acc.core.0 + core.0, acc.core.1 + core.1);
    WarmShared {
        fingerprint: state.fingerprint(),
        state,
        core_s_per_inst: core.1 / core.0.max(1) as f64,
        mem_s_per_access: mem.s / mem.accesses.max(1) as f64,
    }
}

/// Median seconds of `STAGE_REPS` runs of `f`.
fn stage(t: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    t.span(name, "bench", |_| {
        let times: Vec<f64> = (0..STAGE_REPS)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    })
}

/// The harness stages of a figure run, in-process: plan, execute every
/// job, encode and decode its partial, merge, and render the tables.
fn harness(t: &mut Tracer, a: &Args, out: &mut Outcome) -> Result<(), String> {
    let (figures, scale) = harness_plan(a);
    let plan_s = stage(t, "bench.plan", || {
        std::hint::black_box(w::plan(&figures, &scale));
    });
    let (plans, jobs) = w::plan(&figures, &scale);
    let before = WarmCache::global().stats();
    out.attempted += jobs.len() as u64;
    let t0 = Instant::now();
    let results = t.span("bench.execute", "bench", |_| {
        jobs.iter()
            .map(|j| guarded(|| execute_job(&j.payload)))
            .collect::<Option<Vec<_>>>()
    });
    let execute_s = t0.elapsed().as_secs_f64();
    let Some(results) = results else {
        out.failed += jobs.len() as u64;
        return Err("a harness job panicked".to_string());
    };
    let after = WarmCache::global().stats();

    for (job, result) in jobs.iter().zip(&results) {
        let text = encode_partial(&job.id, result);
        if decode_partial(&text, job).as_ref() != Ok(result) {
            out.failed += 1;
            out.failures
                .push(format!("partial of {} does not round-trip", job.id));
        }
    }
    let codec_s = stage(t, "bench.partial_codec", || {
        for (job, result) in jobs.iter().zip(&results) {
            let text = encode_partial(&job.id, result);
            std::hint::black_box(decode_partial(&text, job).ok());
        }
    });
    let mut copies: Vec<_> = (0..STAGE_REPS).map(|_| results.clone()).collect();
    let mut store = PartialStore::default();
    let merge_s = stage(t, "bench.merge", || {
        store = PartialStore::default();
        for (job, result) in jobs.iter().zip(copies.pop().unwrap_or_default()) {
            store.insert(job, result);
        }
    });
    let mut render_err = None;
    let render_s = stage(t, "bench.render", || {
        for plan in &plans {
            let mut table = Table::new(vec!["unit", "ws", "apt", "miss_ns", "row_hit"]);
            for unit in &plan.units {
                match store.summary(unit, &plan.mixes, DEFAULT_CHUNK) {
                    Ok(s) => {
                        table.row(vec![
                            s.label.clone(),
                            format!("{:.3}", s.ws_geomean()),
                            format!("{:.2}", s.mean_apt()),
                            format!("{:.1}", s.mean_latency()),
                            format!("{:.3}", s.mean_row_hit()),
                        ]);
                    }
                    Err(e) => render_err = Some(e),
                }
            }
            std::hint::black_box((
                table.to_markdown(),
                table.to_csv(),
                table.to_json(plan.name),
            ));
        }
    });
    if let Some(e) = render_err {
        out.failed += 1;
        out.failures.push(format!("render: {e}"));
    }
    out.push("bench.plan_s", plan_s);
    out.push("bench.jobs", jobs.len() as f64);
    out.push("bench.execute_s", execute_s);
    out.push("bench.partial_codec_s", codec_s);
    out.push("bench.merge_s", merge_s);
    out.push("bench.render_s", render_s);
    out.push("bench.warm.hits", (after.hits - before.hits) as f64);
    out.push("bench.warm.builds", (after.builds - before.builds) as f64);
    Ok(())
}

/// Alternate untraced and traced repetitions of the workload's
/// operation until the run's time is up (at least two of each), and
/// report how much slower the traced ones are. The traced repetitions
/// record into a tracer of their own, so the number of them that fits
/// the run does not leak into the per-layer self times.
fn overhead(a: &Args, started: Instant, out: &mut Outcome) -> Result<(), String> {
    let mut checker = match a.workload {
        Workload::FigureRegen => w::w3_checker(a),
        _ => w::sim_checker(a, a.workload),
    };
    let mut t = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut rep = 0;
    while rep < 2 || started.elapsed() < a.seconds {
        for tracing in [false, true] {
            let tr = tracing.then_some(&mut t);
            let op_s = match a.workload {
                Workload::DesignSweepSaXpoint => {
                    w::design_sweep_rep(a.seed, tr, &mut checker, out).map(|r| r[1])
                }
                Workload::FigureRegen => {
                    let dir = w::rep_dir(a, if tracing { "traced" } else { "plain" }, rep);
                    let r = w::figure_rep(a, &dir, tr, &mut checker, out)?;
                    let _ = std::fs::remove_dir_all(&dir);
                    r.map(|(dt, _)| dt)
                }
            };
            if let Some(s) = op_s {
                if tracing { &mut traced } else { &mut plain }.push(s);
            }
        }
        rep += 1;
    }
    out.finish_checks(a, checker);
    out.push(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );
    Ok(())
}

/// Turn the sums into the per-layer metrics.
fn emit(acc: &Acc, out: &mut Outcome) {
    let wait_ns = |i: usize| acc.waits_ps[i] as f64 / acc.served[i].max(1) as f64 / 1000.0;
    let metrics: [(&'static str, f64); 31] = [
        (
            "core.system.ns_per_event",
            acc.run_s / acc.events as f64 * 1e9,
        ),
        ("core.system.events", acc.events as f64),
        (
            "core.system.events_per_kinst",
            ratio(acc.events, acc.insts) * 1000.0,
        ),
        ("core.system.restore_s", median(&acc.restore_s)),
        (
            "core.system.unattributed_frac",
            1.0 - acc.attributed_s / acc.run_s,
        ),
        ("core.warm.s", median(&acc.warm_s)),
        ("cpu.gen.ns_per_op", per_ns(acc.gen)),
        ("mem_hier.sram.ns_per_probe", per_ns(acc.sram)),
        ("mem_hier.l1.hit_rate", ratio(acc.l1.0, acc.l1.1)),
        ("mem_hier.l2.miss_rate", ratio(acc.l2.0, acc.l2.1)),
        ("dram_cache.tags.ns_per_lookup", per_ns(acc.tags)),
        ("dram_cache.tags.inserts", acc.inserts as f64),
        ("cpu.core.ns_per_inst", per_ns(acc.core)),
        ("core.controller.ns_per_slot", per_ns(acc.ctrl_slots)),
        (
            "core.controller.idle_slot_frac",
            ratio(acc.ctrl_idle, acc.ctrl_slots.0),
        ),
        ("sched.ns_per_pick", per_ns(acc.picks)),
        ("core.controller.pr_wait_ns", wait_ns(0)),
        ("core.controller.lr_wait_ns", wait_ns(1)),
        ("core.controller.write_wait_ns", wait_ns(2)),
        ("core.controller.forced_drain_slots", acc.forced as f64),
        ("core.controller.spilled", acc.spilled as f64),
        ("dram.ns_per_issue", per_ns(acc.dram)),
        ("dram.accesses", acc.dev_accesses as f64),
        ("dram.turnarounds", acc.turnarounds as f64),
        (
            "dram.accesses_per_turnaround",
            ratio(acc.dev_accesses, acc.turnarounds),
        ),
        (
            "dram.read_row_hit_rate",
            acc.dev_read_hits / acc.dev_reads as f64,
        ),
        ("sim_core.events.ns_per_op", per_ns(acc.ev)),
        ("mem_hier.memory.ns_per_access", per_ns(acc.mem)),
        (
            "mem_hier.memory.empty_schedule_frac",
            ratio(acc.mem_calls.0, acc.mem_calls.1),
        ),
        (
            "mem_hier.memory.row_hit_rate",
            ratio(acc.mem_rows.0, acc.mem_rows.1),
        ),
        (
            "mem_hier.memory.queue_wait_ns",
            acc.mem_wait_ps as f64 / acc.mem_rows.1 as f64 / 1000.0,
        ),
    ];
    for (name, v) in metrics {
        out.push(name, v);
    }
}
