//! End-to-end tests of the process-sharded figure harness: the
//! `figures` binary is driven as a real subprocess (supervisor plus
//! persistent pool workers) against scratch working directories, and
//! its sharded output is compared byte-for-byte to the serial path.
//! Fault injection is deterministic via `DCA_FAULT_PLAN` (see
//! `dca_bench::shard::pool`); the full failure matrix lives in
//! `tests/pool.rs`. Also covers the bench front-end behaviours:
//! unknown flags exit 2 with a usage listing, an unwritable `results/`
//! is a reported error, a malformed scale variable exits 1 before any
//! simulation, and malformed `DCA_WARM*` knobs warn instead of silently
//! falling back.

use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use dca_bench::shard::{figure_plan, plan_jobs, JobPayload, DEFAULT_CHUNK};
use dca_bench::Scale;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

/// The tiny scale every subprocess in this file runs at. Small enough
/// for debug-mode CI, big enough that the three designs diverge.
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
        "dca-shard-test-{tag}-{}-{:?}",
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

/// `fig`'s rendered `.md`, `.csv` and `.json` files under `dir`.
fn read_outputs(dir: &Path, fig: &str) -> Vec<(String, Vec<u8>)> {
    ["md", "csv", "json"]
        .iter()
        .map(|ext| {
            let f = format!("{fig}.{ext}");
            let bytes = std::fs::read(dir.join("results").join(&f))
                .unwrap_or_else(|e| panic!("{f} missing in {}: {e}", dir.display()));
            (f, bytes)
        })
        .collect()
}

/// The tentpole guarantee: a `--jobs 2` pool run produces byte-identical
/// figure files to the serial in-process run, an injected worker crash
/// is retried and reported, a re-run against the surviving partials
/// reuses them all (crash-safe resume), and a second figure in the same
/// directory runs only the jobs the first did not flush.
#[test]
fn sharded_run_is_bit_identical_retries_crashes_and_resumes() {
    // Serial reference.
    let serial_dir = scratch("serial");
    run_ok(figures_cmd(&serial_dir).arg("--fig14"));
    let serial = read_outputs(&serial_dir, "fig14");

    // Pick a real eval job id to crash, from the same plan the binary
    // derives (same scale → same ids).
    let plan = figure_plan("fig14", &tiny_scale()).expect("fig14 is shardable");
    let jobs = plan_jobs(std::slice::from_ref(&plan), DEFAULT_CHUNK);
    let crash_id = jobs
        .iter()
        .find(|j| matches!(j.payload, JobPayload::Eval { .. }))
        .expect("an eval job")
        .id
        .clone();

    // Pool run with one injected worker crash (first attempt only).
    let shard_dir = scratch("jobs2");
    let out = run_ok(
        figures_cmd(&shard_dir)
            .args(["--fig14", "--jobs", "2"])
            .env("DCA_FAULT_PLAN", format!("crash:{crash_id}@0")),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("retrying") && stderr.contains(&crash_id),
        "supervisor must report the retried job:\n{stderr}"
    );
    assert!(
        stderr.contains("1 retried"),
        "exactly one retry expected:\n{stderr}"
    );
    assert_eq!(
        serial,
        read_outputs(&shard_dir, "fig14"),
        "sharded figure files must be byte-identical to serial"
    );

    // Crash-safe resume: every partial survived, so a second sharded
    // run executes zero jobs and still renders identical files.
    let out = run_ok(figures_cmd(&shard_dir).args(["--fig14", "--jobs", "2"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("0 jobs run") && stderr.contains(&format!("{} reused", jobs.len())),
        "resume must reuse all {} partials:\n{stderr}",
        jobs.len()
    );
    assert_eq!(serial, read_outputs(&shard_dir, "fig14"));

    // A corrupted partial is detected, re-run, and heals.
    let victim = dca_bench::shard::partial_path(&crash_id);
    let victim = shard_dir.join(victim);
    std::fs::write(&victim, b"{\"schema\": 1, \"job\": \"torn").expect("corrupt partial");
    let out = run_ok(figures_cmd(&shard_dir).args(["--fig14", "--jobs", "2"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("ignoring invalid partial") && stderr.contains("1 jobs run"),
        "corrupt partial must be re-run:\n{stderr}"
    );
    assert_eq!(serial, read_outputs(&shard_dir, "fig14"));

    // Partial reuse across figures: fig12 shares jobs with fig14, so the
    // pool runs only fig12's own jobs and reuses every flushed one.
    let fig12 = figure_plan("fig12", &tiny_scale()).expect("fig12 is shardable");
    let fig12_jobs = plan_jobs(std::slice::from_ref(&fig12), DEFAULT_CHUNK);
    let flushed: HashSet<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
    let reused = fig12_jobs
        .iter()
        .filter(|j| flushed.contains(j.id.as_str()))
        .count();
    let fresh = fig12_jobs.len() - reused;
    assert!(
        reused > 0 && fresh > 0,
        "fig12 must share some jobs with fig14 and add some of its own"
    );
    run_ok(figures_cmd(&serial_dir).arg("--fig12"));
    let out = run_ok(figures_cmd(&shard_dir).args(["--fig12", "--jobs", "2"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("{fresh} jobs run, {reused} reused")),
        "fig12 must run {fresh} jobs and reuse {reused} fig14 partials:\n{stderr}"
    );
    assert_eq!(
        read_outputs(&serial_dir, "fig12"),
        read_outputs(&shard_dir, "fig12"),
        "fig12 from reused partials must be byte-identical to serial"
    );

    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&shard_dir);
}

/// Unknown flags exit 2 with a usage listing instead of silently
/// producing nothing. `--serve` outside `--worker` is a usage error, as
/// are options `figures` does not have, a value after `--serve`, and
/// pool options given to a worker.
#[test]
fn unknown_flags_exit_2_with_usage() {
    for bad in [
        &["--fig99"][..],
        &["--figs"],
        &["--jobs", "zero"],
        &["--fig14=2"],
        &["--all=x"],
        &["--batch", "3"],
        &["--serve"],
        &["--serve", "127.0.0.1:1"],
        &["--agent", "127.0.0.1:1"],
        &["--worker", "--serve", "--job", "x"],
        &["--worker", "--job", "x"],
        &["--worker", "--serve", "--chunk", "3"],
        &["--worker", "--serve", "--jobs", "2"],
        &["--worker"],
        &["--job", "x"],
    ] {
        let dir = scratch("badflag");
        let out = figures_cmd(&dir).args(bad).output().expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bad:?} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: figures"),
            "{bad:?} must print usage:\n{stderr}"
        );
        assert!(
            std::fs::read_dir(dir.join("results")).is_err(),
            "a rejected invocation must not create outputs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite bugfix: when `results/` cannot be created, the run fails
/// loudly instead of writing nothing and exiting 0.
#[test]
fn unwritable_results_dir_is_a_reported_error() {
    let dir = scratch("noresults");
    // A plain file where the directory must go.
    std::fs::write(dir.join("results"), b"in the way").expect("block results/");
    let out = figures_cmd(&dir).arg("--table1").output().expect("spawn");
    assert!(!out.status.success(), "must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create results/"),
        "failure must be reported:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed scale variable is a bad environment: `figures` names the
/// variable and its value and exits 1 before it writes or simulates
/// anything. A well-formed value resolves to the scale `figures` prints.
#[test]
fn malformed_scale_exits_1_before_any_simulation() {
    // (variable, value, fragment of the printed scale when accepted)
    for (name, value, accepted) in [
        ("DCA_MIXES", "31", None),
        ("DCA_MIXES", "0", None),
        ("DCA_MIXES", "1,x", None),
        ("DCA_MIXES", "1,,2", None),
        ("DCA_MIXES", "", None),
        ("DCA_INSTS", "abc", None),
        ("DCA_INSTS", "0", None),
        ("DCA_INSTS", "-5", None),
        ("DCA_WARMUP", "0", None),
        ("DCA_WARMUP", "1e5", None),
        ("DCA_FULL", "yes", None),
        ("DCA_FULL", "2", None),
        ("DCA_MIXES", " 2 , 30", Some("mixes=[2, 30]")),
        ("DCA_INSTS", "3000", Some("insts/core=3000,")),
        ("DCA_WARMUP", "7", Some("warmup/core=7,")),
        ("DCA_FULL", "0", Some("insts/core=2000,")),
        ("DCA_FULL", "1", Some("insts/core=2000,")),
    ] {
        let dir = scratch("scale");
        // A rejected value runs the figure that used to panic or run a
        // default scale; an accepted one a figure that simulates nothing.
        let fig = if accepted.is_some() {
            "--table1"
        } else {
            "--fig14"
        };
        let out = figures_cmd(&dir)
            .arg(fig)
            .env(name, value)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        match accepted {
            Some(scale) => {
                assert!(out.status.success(), "{name}={value:?}:\n{stderr}");
                assert!(stderr.contains(scale), "{name}={value:?}:\n{stderr}");
            }
            None => {
                assert_eq!(out.status.code(), Some(1), "{name}={value:?}:\n{stderr}");
                assert!(
                    stderr.contains(&format!("figures: error: {name}={value:?} ")),
                    "the error must name {name} and its value:\n{stderr}"
                );
                assert!(
                    !dir.join("results").exists(),
                    "{name}={value:?} must be rejected before any output"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite bugfix: malformed `DCA_WARM*` knobs warn (naming the
/// value and the fallback) instead of silently using defaults.
#[test]
fn malformed_warm_knobs_warn_on_stderr() {
    let dir = scratch("knobs");
    let out = run_ok(
        figures_cmd(&dir)
            .arg("--table1")
            .env("DCA_WARM_CAP", "abc")
            .env("DCA_WARM_PERSIST", "yes")
            .env("DCA_WARM", "2"),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("DCA_WARM_CAP=\"abc\" is not an integer"),
        "cap warning missing:\n{stderr}"
    );
    assert!(
        stderr.contains("DCA_WARM_PERSIST=\"yes\""),
        "persist warning missing:\n{stderr}"
    );
    assert!(
        stderr.contains("DCA_WARM=\"2\""),
        "reuse warning missing:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // And a zero cap warns about positivity.
    let dir = scratch("knobs0");
    let out = run_ok(figures_cmd(&dir).arg("--table1").env("DCA_WARM_CAP", "0"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("DCA_WARM_CAP=\"0\" must be a positive integer"),
        "zero-cap warning missing:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drive one `figures --worker --serve` process through the pool's
/// wire protocol: one `RUN 0 <id>` frame per job, then stdin EOF, which
/// the worker answers with `BYE` and exit 0. Returns the stdout frames.
fn serve_jobs(dir: &Path, ids: &[&str]) -> Vec<String> {
    let mut child = figures_cmd(dir)
        .args(["--worker", "--serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    let mut stdin = child.stdin.take().expect("worker stdin");
    for id in ids {
        writeln!(stdin, "RUN 0 {id}").expect("write RUN frame");
    }
    drop(stdin);
    let out = child.wait_with_output().expect("worker output");
    assert!(
        out.status.success(),
        "worker failed ({}):\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

/// One worker process drains several jobs in order, answering `OK <id>`
/// for each and writing one valid partial per job.
#[test]
fn batched_workers_drain_multiple_jobs() {
    let plan = figure_plan("fig14", &tiny_scale()).expect("plan");
    let jobs = plan_jobs(std::slice::from_ref(&plan), DEFAULT_CHUNK);
    assert!(jobs.len() >= 2, "need at least two jobs to batch");
    let dir = scratch("batch-hand");
    let frames = serve_jobs(&dir, &[&jobs[0].id, &jobs[1].id]);
    let oks: Vec<&str> = frames
        .iter()
        .filter_map(|f| f.strip_prefix("OK "))
        .collect();
    assert_eq!(
        oks,
        [jobs[0].id.as_str(), jobs[1].id.as_str()],
        "{frames:?}"
    );
    assert_eq!(frames.last().map(String::as_str), Some("BYE"), "{frames:?}");
    for job in &jobs[..2] {
        let text = std::fs::read_to_string(dir.join(dca_bench::shard::partial_path(&job.id)))
            .unwrap_or_else(|e| panic!("the worker must write {}: {e}", job.id));
        dca_bench::shard::decode_partial(&text, job).expect("partial validates");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job id re-run by hand through the worker protocol produces a
/// partial the supervisor would accept, and a malformed id is an `ERR`
/// frame that leaves the worker serving.
#[test]
fn worker_mode_writes_a_valid_partial() {
    let dir = scratch("worker");
    let plan = figure_plan("fig14", &tiny_scale()).expect("plan");
    let job = plan_jobs(std::slice::from_ref(&plan), DEFAULT_CHUNK)
        .into_iter()
        .find(|j| matches!(j.payload, JobPayload::Alone { .. }))
        .expect("an alone job");
    let frames = serve_jobs(&dir, &["ev_bogus", &job.id]);
    assert!(
        frames.iter().any(|f| f.starts_with("ERR ev_bogus ")),
        "a malformed id must be an ERR frame: {frames:?}"
    );
    assert!(
        frames.iter().any(|f| *f == format!("OK {}", job.id)),
        "the worker must keep serving after an ERR: {frames:?}"
    );
    let text = std::fs::read_to_string(dir.join(dca_bench::shard::partial_path(&job.id)))
        .expect("partial written");
    dca_bench::shard::decode_partial(&text, &job).expect("partial validates");
    let _ = std::fs::remove_dir_all(&dir);
}
