//! Fault-injection matrix for the persistent worker pool (`figures
//! --jobs N` + `--worker --serve`), driven through the real binary with
//! deterministic faults from `DCA_FAULT_PLAN`:
//!
//! - hang past the job deadline → worker killed, job retried,
//!   merged figures byte-identical to serial;
//! - garbage/truncated result frame → babbling worker killed, job
//!   retried, byte-identical;
//! - crash on every attempt → quarantine after K, exit 3, explicit
//!   holes in the figure, `quarantine.json` written — then a clean
//!   re-run heals and removes it;
//! - SIGTERM mid-run → graceful drain, exit 130, resumable;
//! - stale partials from a different plan are pruned, foreign files
//!   left alone.
//!
//! The crash-on-attempt-0-then-succeed leg of the matrix lives in
//! `tests/shard.rs` alongside the resume/corruption coverage.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use dca_bench::shard::{figure_plan, plan_jobs, JobPayload, DEFAULT_CHUNK};
use dca_bench::Scale;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

const INSTS: &str = "2000";
const WARMUP: &str = "5000";
const MIXES: &str = "1,2";

fn tiny_scale() -> Scale {
    Scale {
        insts: 2000,
        warmup: 5000,
        mixes: vec![1, 2],
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dca-pool-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn figures_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(FIGURES);
    cmd.current_dir(dir)
        .env("DCA_INSTS", INSTS)
        .env("DCA_WARMUP", WARMUP)
        .env("DCA_MIXES", MIXES)
        .env_remove("DCA_FULL")
        .env_remove("DCA_WARM")
        .env_remove("DCA_WARM_CAP")
        .env_remove("DCA_WARM_PERSIST")
        .env_remove("DCA_WARM_DIR")
        .env_remove("DCA_FAULT_PLAN")
        .env_remove("DCA_JOB_TIMEOUT_MS")
        .env_remove("DCA_JOB_ATTEMPTS")
        .env_remove("DCA_RETRY_BACKOFF_MS")
        .env_remove("DCA_HEARTBEAT_MS")
        .env_remove("DCA_HEARTBEAT_TIMEOUT_MS")
        .env_remove("DCA_POOL_INFLIGHT");
    cmd
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn figures");
    assert!(
        out.status.success(),
        "figures failed ({}):\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read_outputs(dir: &Path) -> Vec<(String, Vec<u8>)> {
    ["fig14.md", "fig14.csv", "fig14.json"]
        .iter()
        .map(|f| {
            let bytes = std::fs::read(dir.join("results").join(f))
                .unwrap_or_else(|e| panic!("{f} missing in {}: {e}", dir.display()));
            (f.to_string(), bytes)
        })
        .collect()
}

fn serial_reference(tag: &str) -> Vec<(String, Vec<u8>)> {
    let dir = scratch(&format!("{tag}-serial"));
    run_ok(figures_cmd(&dir).arg("--fig14"));
    let outs = read_outputs(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    outs
}

fn fig14_jobs() -> Vec<dca_bench::shard::Job> {
    let plan = figure_plan("fig14", &tiny_scale()).expect("fig14 plans");
    plan_jobs(std::slice::from_ref(&plan), DEFAULT_CHUNK)
}

fn alone_job_id() -> String {
    fig14_jobs()
        .iter()
        .find(|j| matches!(j.payload, JobPayload::Alone { .. }))
        .expect("an alone job")
        .id
        .clone()
}

/// A worker that hangs past the per-job deadline is killed (its
/// heartbeats keep arriving, so it is the *deadline*, not heartbeat
/// silence, that fires), the job retried, and the merged output stays
/// byte-identical to serial.
#[test]
fn hang_past_deadline_is_killed_retried_and_bit_identical() {
    let serial = serial_reference("hang");
    let victim = alone_job_id();
    let dir = scratch("hang");
    let out = run_ok(
        figures_cmd(&dir)
            .args(["--fig14", "--jobs", "2"])
            .env("DCA_FAULT_PLAN", format!("hang:{victim}@0"))
            // Far above a tiny-scale debug job (~0.3 s), far below the
            // test timeout.
            .env("DCA_JOB_TIMEOUT_MS", "5000"),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("job deadline") && stderr.contains("retrying") && stderr.contains(&victim),
        "hang must be caught by the job deadline and retried:\n{stderr}"
    );
    assert_eq!(serial, read_outputs(&dir), "output must match serial");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that emits a truncated `OK` plus binary junk is a babbling
/// worker: killed and replaced, the job charged one attempt and retried,
/// output byte-identical.
#[test]
fn garbage_frame_kills_the_worker_and_stays_bit_identical() {
    let serial = serial_reference("garbage");
    let victim = alone_job_id();
    let dir = scratch("garbage");
    let out = run_ok(
        figures_cmd(&dir)
            .args(["--fig14", "--jobs", "2"])
            .env("DCA_FAULT_PLAN", format!("garbage:{victim}@0")),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("babbling"),
        "garbage frames must be reported as babbling:\n{stderr}"
    );
    assert!(
        stderr.contains("retrying") && stderr.contains(&victim),
        "the babbled job must be retried:\n{stderr}"
    );
    assert_eq!(serial, read_outputs(&dir), "output must match serial");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job that fails on every attempt is quarantined after
/// `DCA_JOB_ATTEMPTS`: the run exits 3 (degraded), writes
/// `results/partials/quarantine.json` with the job id, attempt count,
/// and worker stderr, and renders the affected cells as explicit `—`
/// holes while every other cell keeps its exact serial value. A clean
/// re-run heals the figure and removes the quarantine file.
#[test]
fn quarantine_after_k_failures_then_heal() {
    let serial = serial_reference("quarantine");
    let rod_id = fig14_jobs()
        .iter()
        .find(|j| j.id.contains("_rod_"))
        .expect("a ROD eval job")
        .id
        .clone();

    let dir = scratch("quarantine");
    let out = figures_cmd(&dir)
        .args(["--fig14", "--jobs", "2"])
        .env("DCA_FAULT_PLAN", format!("crash:{rod_id}@*"))
        .output()
        .expect("spawn figures");
    assert_eq!(
        out.status.code(),
        Some(3),
        "a quarantined run must exit 3 (degraded):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("quarantining job") && stderr.contains(&rod_id),
        "quarantine must be announced:\n{stderr}"
    );
    assert!(
        stderr.contains("rendered as holes"),
        "holes must be counted on stderr:\n{stderr}"
    );

    // quarantine.json names the job, the attempt budget, and carries
    // the worker's stderr for post-mortems.
    let qpath = dir.join(dca_bench::shard::quarantine_path());
    let qtext = std::fs::read_to_string(&qpath).expect("quarantine.json written");
    assert!(
        qtext.contains(&rod_id),
        "quarantine must name the job:\n{qtext}"
    );
    assert!(
        qtext.contains("\"attempts\": 3"),
        "quarantine must record the attempt budget:\n{qtext}"
    );
    assert!(
        qtext.contains("\"stderr\""),
        "quarantine must carry worker stderr:\n{qtext}"
    );

    // The ROD row is an explicit hole; CD and DCA keep real values.
    let md = std::fs::read_to_string(dir.join("results").join("fig14.md")).expect("fig14.md");
    for line in md.lines().filter(|l| l.starts_with('|')) {
        if line.contains("ROD") {
            assert!(line.contains('—'), "ROD cells must be holes: {line}");
        } else if line.contains("CD") || line.contains("DCA") {
            assert!(
                !line.contains('—'),
                "healthy cells must keep values: {line}"
            );
        }
    }

    // Heal: without the fault plan the one missing job re-runs, the
    // quarantine file disappears, and the figures converge to serial.
    let out = run_ok(figures_cmd(&dir).args(["--fig14", "--jobs", "2"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let reused = format!("{} reused", fig14_jobs().len() - 1);
    assert!(
        stderr.contains("1 jobs run") && stderr.contains(&reused),
        "heal must run exactly the quarantined job:\n{stderr}"
    );
    assert!(
        !qpath.exists(),
        "a clean run must remove the stale quarantine file"
    );
    assert_eq!(
        serial,
        read_outputs(&dir),
        "healed output must match serial"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quarantine record must survive *unrelated* pool sessions in the
/// same directory (a clean fig15 run must not clobber fig14's entry —
/// its jobs are disjoint, so nothing about the broken job changed) and
/// must be pruned the moment the job has a valid partial again: the
/// heal-merge keys on on-disk evidence, not on which figure a session
/// happened to run.
#[test]
fn quarantine_entries_survive_foreign_sessions_until_healed() {
    let serial = serial_reference("qforeign");
    let rod_id = fig14_jobs()
        .iter()
        .find(|j| j.id.contains("_rod_"))
        .expect("a ROD eval job")
        .id
        .clone();

    // 1. Break fig14's ROD job on every attempt → quarantined, exit 3.
    let dir = scratch("qforeign");
    let out = figures_cmd(&dir)
        .args(["--fig14", "--jobs", "2"])
        .env("DCA_FAULT_PLAN", format!("crash:{rod_id}@*"))
        .output()
        .expect("spawn figures");
    assert_eq!(
        out.status.code(),
        Some(3),
        "the broken run must exit 3:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let qpath = dir.join(dca_bench::shard::quarantine_path());
    assert!(
        std::fs::read_to_string(&qpath)
            .expect("quarantine written")
            .contains(&rod_id),
        "quarantine must name the broken job"
    );

    // 2. A clean *fig15* session (direct-mapped — fully disjoint jobs)
    // exits 0 and must leave fig14's still-unhealed entry in place.
    run_ok(figures_cmd(&dir).args(["--fig15", "--jobs", "2"]));
    assert!(
        std::fs::read_to_string(&qpath)
            .expect("quarantine must survive the fig15 session")
            .contains(&rod_id),
        "an unrelated session must not clobber the unhealed entry"
    );

    // 3. A clean fig14 run produces a valid partial for the job; the
    // stale entry is pruned, the file removed, the figure healed.
    run_ok(figures_cmd(&dir).args(["--fig14", "--jobs", "2"]));
    assert!(!qpath.exists(), "a healed quarantine file must be removed");
    assert_eq!(
        serial,
        read_outputs(&dir),
        "healed output must match serial"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM mid-run drains gracefully: no new jobs are dispatched,
/// in-flight work is resolved, partials are flushed, and the process
/// exits 130; re-running the same command resumes from the flushed
/// partials and converges to the serial output.
#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully_and_resumes() {
    let serial = serial_reference("drain");
    let dir = scratch("drain");
    // Hang every alone job forever (alone jobs are dispatched first),
    // with a short deadline so the drain resolves the stuck in-flight
    // job quickly after the signal lands.
    let mut child = figures_cmd(&dir)
        .args(["--fig14", "--jobs", "2"])
        .env("DCA_FAULT_PLAN", "hang:al_*@*")
        .env("DCA_JOB_TIMEOUT_MS", "2500")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn figures");
    // Let the pool start and dispatch the hanging job, then interrupt.
    std::thread::sleep(Duration::from_millis(1000));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM must succeed");

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(s) = child.try_wait().expect("try_wait") {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "drain must finish well before 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let out = child.wait_with_output().expect("collect output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        status.code(),
        Some(130),
        "a drained run must exit 130:\n{stderr}"
    );
    assert!(
        stderr.contains("stop requested") && stderr.contains("re-run the same command to resume"),
        "the drain must be announced:\n{stderr}"
    );

    // Resume without the fault plan: whatever flushed is reused, the
    // rest runs, and the result is byte-identical to serial.
    run_ok(figures_cmd(&dir).args(["--fig14", "--jobs", "2"]));
    assert_eq!(
        serial,
        read_outputs(&dir),
        "resumed output must match serial"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Partials left by a *different* plan (another figure, scale, or
/// chunking) are pruned before the pool starts, with a count on stderr;
/// files that are not job partials are left alone.
#[test]
fn orphan_partials_are_pruned_and_foreign_files_kept() {
    let serial = serial_reference("prune");
    let dir = scratch("prune");
    let partials = dir.join("results").join("partials");
    std::fs::create_dir_all(&partials).expect("partials dir");

    // A syntactically valid job id from a plan the current invocation
    // does not include → orphan, must be pruned.
    let fig12 = figure_plan("fig12", &tiny_scale()).expect("fig12 plans");
    let foreign_job = plan_jobs(std::slice::from_ref(&fig12), DEFAULT_CHUNK)
        .iter()
        .map(|j| j.id.clone())
        .find(|id| fig14_jobs().iter().all(|j| j.id != *id))
        .expect("a fig12-only job id");
    let orphan = partials.join(format!("{foreign_job}.json"));
    std::fs::write(&orphan, b"{}").expect("plant orphan");
    // Not a job partial at all → must survive untouched.
    let notes = partials.join("notes.txt");
    std::fs::write(&notes, b"keep me").expect("plant notes");

    let out = run_ok(figures_cmd(&dir).args(["--fig14", "--jobs", "2"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("pruned 1 orphan partial(s)"),
        "the orphan count must be logged:\n{stderr}"
    );
    assert!(!orphan.exists(), "the stale partial must be removed");
    assert_eq!(
        std::fs::read(&notes).expect("notes survive"),
        b"keep me",
        "foreign files must not be touched"
    );
    assert_eq!(serial, read_outputs(&dir), "output must match serial");
    let _ = std::fs::remove_dir_all(&dir);
}
