//! End-to-end tests of the figure runner: the `figures` binary is
//! driven as a real subprocess against scratch working directories, and
//! its output with no flag, `--jobs 1` and `--jobs 2` is compared byte
//! for byte. Covers partial reuse (resume, a corrupt partial, a second
//! figure sharing jobs), a killed run that resumes, partials from
//! another build, orphan pruning, and, through `shard::run_jobs`
//! directly, partials equal to each job's serial result and panics
//! while listing a job or building its warm state. Also covers the
//! bench front-end behaviours: unknown flags exit 2 with a usage
//! listing, an unwritable `results/` is a reported error, a malformed
//! scale variable exits 1 before any simulation, and `figures` does not
//! read the warm cache's `DCA_WARM_CAP`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use dca::Design;
use dca_bench::shard::{
    decode_partial, execute_job, figure_plan, partial_path, plan_jobs, run_jobs, Job, JobPayload,
    JobResult, BUILD_STAMP, DEFAULT_CHUNK,
};
use dca_bench::{RunSpec, Scale};
use dca_dram_cache::OrgKind;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

/// The tiny scale every subprocess in this file runs at. Small enough
/// for debug-mode CI, big enough that the designs diverge.
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
        .env_remove("DCA_FULL");
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

fn jobs_of(fig: &str) -> Vec<Job> {
    let plan = figure_plan(fig, &tiny_scale()).expect("a shardable figure");
    plan_jobs(std::slice::from_ref(&plan), DEFAULT_CHUNK)
}

/// The runner's guarantee: the thread count never changes a byte of
/// the figure files or builds a warm state twice, a re-run against the
/// partials on disk runs nothing, a corrupt partial is re-run, and a
/// second figure in the same directory runs only the jobs the first
/// did not write.
#[test]
fn thread_counts_are_bit_identical_and_partials_resume() {
    let runs: [(&str, &[&str]); 3] = [
        ("default", &[]),
        ("jobs1", &["--jobs", "1"]),
        ("jobs2", &["--jobs", "2"]),
    ];
    let dirs: Vec<PathBuf> = runs.iter().map(|(tag, _)| scratch(tag)).collect();
    let jobs = jobs_of("fig14");
    // fig14 is one organisation and one policy: every design of a mix
    // shares the mix's warm state, and each alone run has its own.
    let mut keys = BTreeSet::new();
    let mut requests = 0;
    for job in &jobs {
        match &job.payload {
            JobPayload::Eval { mixes, .. } => {
                requests += mixes.len();
                keys.extend(mixes.iter().map(|m| format!("mix {m}")));
            }
            JobPayload::Alone { benches, .. } => {
                requests += benches.len();
                keys.extend(benches.iter().map(|b| b.name().to_string()));
            }
        }
    }
    let built_once = format!(
        "{} warm-ups built, {} reused",
        keys.len(),
        requests - keys.len()
    );
    for (dir, (_, flags)) in dirs.iter().zip(&runs) {
        let out = run_ok(figures_cmd(dir).arg("--fig14").args(*flags));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&built_once),
            "with {flags:?} each warm state must be built once ({built_once}):\n{stderr}"
        );
    }
    let reference = read_outputs(&dirs[0], "fig14");
    for (dir, (_, flags)) in dirs.iter().zip(&runs) {
        assert_eq!(
            reference,
            read_outputs(dir, "fig14"),
            "fig14 with {flags:?} must be byte-identical to the default run"
        );
    }

    // Resume: every partial survived, so a re-run executes zero jobs
    // and still renders identical files.
    let dir = &dirs[2];
    let out = run_ok(figures_cmd(dir).args(["--fig14", "--jobs", "2"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("0 jobs run, {} reused", jobs.len())),
        "resume must reuse all {} partials:\n{stderr}",
        jobs.len()
    );
    assert_eq!(reference, read_outputs(dir, "fig14"));

    // A corrupted partial is detected, re-run, and heals.
    let victim = dir.join(partial_path(&jobs[jobs.len() - 1].id));
    std::fs::write(&victim, b"{\"schema\": 1, \"job\": \"torn").expect("corrupt partial");
    let out = run_ok(figures_cmd(dir).args(["--fig14", "--jobs", "2"]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("ignoring invalid partial") && stderr.contains("1 jobs run"),
        "corrupt partial must be re-run:\n{stderr}"
    );
    assert_eq!(reference, read_outputs(dir, "fig14"));

    // Partial reuse across figures: fig12 shares jobs with fig14, so a
    // fig12 run after fig14 runs only fig12's own jobs, and its files
    // are byte-identical whatever the thread count.
    let fig14: BTreeSet<String> = jobs.iter().map(|j| j.id.clone()).collect();
    let fig12_jobs = jobs_of("fig12");
    let reused = fig12_jobs.iter().filter(|j| fig14.contains(&j.id)).count();
    let fresh = fig12_jobs.len() - reused;
    assert_eq!((fresh, reused), (4, 6), "fig12's plan drifted");
    for (dir, (_, flags)) in dirs.iter().zip(&runs) {
        let out = run_ok(figures_cmd(dir).arg("--fig12").args(*flags));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{fresh} jobs run, {reused} reused")),
            "fig12 with {flags:?} must run {fresh} jobs and reuse {reused}:\n{stderr}"
        );
        assert_eq!(
            read_outputs(&dirs[0], "fig12"),
            read_outputs(dir, "fig12"),
            "fig12 with {flags:?} must be byte-identical to the default run"
        );
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A run killed outright (SIGKILL, so no handler can flush anything)
/// keeps every partial it finished: a re-run reuses them and renders
/// the same bytes as an uninterrupted run.
#[test]
fn killed_run_resumes_from_its_partials() {
    // Eight mixes at 65k instructions leave the run 0.57-0.81 s of work
    // after its first partial lands in release, and 0.79-1.00 s at
    // opt-level 2 (2-core host), so the kill lands mid-run. 50k could
    // leave as little as 0.39 s once the warm-up ran on two threads.
    let mixes = "1,2,3,4,5,6,7,8";
    let insts = "65000";
    let reference = scratch("kill-reference");
    run_ok(
        figures_cmd(&reference)
            .arg("--fig14")
            .env("DCA_MIXES", mixes)
            .env("DCA_INSTS", insts),
    );

    let dir = scratch("killed");
    let partials = dir.join("results").join("partials");
    let mut child = figures_cmd(&dir)
        .args(["--fig14", "--jobs", "2"])
        .env("DCA_MIXES", mixes)
        .env("DCA_INSTS", insts)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn figures");
    let written = |dir: &Path| {
        std::fs::read_dir(dir).map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
                .count()
        })
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "D02: a test deadline, never a simulation input"
    )]
    let start = Instant::now();
    while written(&partials) == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "no partial within 120 s"
        );
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "figures finished before it could be killed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL figures");
    let status = child.wait().expect("reap figures");
    assert!(!status.success(), "the kill must interrupt the run");
    let kept = written(&partials);

    let out = run_ok(
        figures_cmd(&dir)
            .args(["--fig14", "--jobs", "2"])
            .env("DCA_MIXES", mixes)
            .env("DCA_INSTS", insts),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let reused: usize = stderr
        .lines()
        .find_map(|l| {
            l.split(" jobs run, ")
                .nth(1)?
                .split(' ')
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no job count line:\n{stderr}"));
    assert!(
        reused >= 1 && reused <= kept,
        "the re-run must reuse the {kept} partial(s) the killed run wrote:\n{stderr}"
    );
    assert_eq!(
        read_outputs(&reference, "fig14"),
        read_outputs(&dir, "fig14")
    );
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Partials stamped by another build are discarded, with one warning
/// naming the count, and everything re-runs — warm-ups included: no
/// warm state outlives the process that built it, even where the
/// variables that once persisted warm states are still set.
#[test]
fn partials_from_another_build_are_discarded() {
    let reference = scratch("stamp-reference");
    run_ok(figures_cmd(&reference).arg("--fig14"));
    let jobs = jobs_of("fig14");
    let dir = scratch("stamp");
    let warm_dir = dir.join("warm");
    let fig14 = || {
        let mut cmd = figures_cmd(&dir);
        cmd.arg("--fig14")
            .env("DCA_WARM_PERSIST", "1")
            .env("DCA_WARM_DIR", &warm_dir);
        cmd
    };
    let warm_builds = |stderr: &str| -> usize {
        stderr
            .lines()
            .find_map(|l| {
                l.split_once(" warm-ups built")?
                    .0
                    .rsplit(' ')
                    .next()?
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("no warm-cache line:\n{stderr}"))
    };
    let out = run_ok(&mut fig14());
    let built = warm_builds(&String::from_utf8_lossy(&out.stderr));
    let stamp = dir.join("results").join("partials").join(BUILD_STAMP);
    assert!(stamp.exists(), "a run must stamp its partials");
    std::fs::write(&stamp, "0123456789abcdef\n").expect("overwrite the stamp");
    let out = run_ok(&mut fig14());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!(
            "discarded {} partial(s) written by another build",
            jobs.len()
        )),
        "the discard must be announced with its count:\n{stderr}"
    );
    assert!(
        stderr.contains(&format!("{} jobs run, 0 reused", jobs.len())),
        "every job must re-run:\n{stderr}"
    );
    assert_eq!(
        warm_builds(&stderr),
        built,
        "the re-run must build every warm state afresh:\n{stderr}"
    );
    assert_eq!(
        read_outputs(&reference, "fig14"),
        read_outputs(&dir, "fig14")
    );
    // The new stamp makes the next run reuse everything again.
    let out = run_ok(&mut fig14());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("0 jobs run, {} reused", jobs.len())),
        "{stderr}"
    );
    assert!(!warm_dir.exists(), "no warm state may be written to disk");
    assert!(!dir.join("results").join("warm").exists());
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Partials left by a *different* plan (another figure, scale, or
/// chunking) are pruned before anything runs, with a count on stderr;
/// files that are not job partials are left alone.
#[test]
fn orphan_partials_are_pruned_and_foreign_files_kept() {
    let dir = scratch("prune");
    run_ok(figures_cmd(&dir).arg("--fig14"));
    let reference = read_outputs(&dir, "fig14");
    let partials = dir.join("results").join("partials");

    // A job id from a plan the current invocation does not include →
    // orphan, must be pruned.
    let fig14: BTreeSet<String> = jobs_of("fig14").into_iter().map(|j| j.id).collect();
    let foreign_job = jobs_of("fig12")
        .into_iter()
        .map(|j| j.id)
        .find(|id| !fig14.contains(id))
        .expect("a fig12-only job id");
    let orphan = partials.join(format!("{foreign_job}.json"));
    std::fs::write(&orphan, b"{}").expect("plant orphan");
    // Not a job partial at all → must survive untouched.
    let notes = partials.join("notes.txt");
    std::fs::write(&notes, b"keep me").expect("plant notes");

    let out = run_ok(figures_cmd(&dir).arg("--fig14"));
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
    assert_eq!(reference, read_outputs(&dir, "fig14"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The runner files every report under the job and the mix it belongs
/// to: at one thread and at two, each partial it writes decodes to
/// exactly the result `execute_job` computes for that job on its own.
#[test]
fn runner_partials_match_serial_execution() {
    let jobs = jobs_of("fig14");
    let reference: Vec<JobResult> = jobs.iter().map(|j| execute_job(&j.payload)).collect();
    for threads in [1, 2] {
        let root = scratch(&format!("serial-{threads}"));
        let dir = root.join("partials");
        let outcome = run_jobs(&jobs, threads, &dir);
        assert!(outcome.failed.is_empty(), "{:?}", outcome.failed);
        assert_eq!((outcome.run, outcome.reused), (jobs.len(), 0));
        for (job, want) in jobs.iter().zip(&reference) {
            let text = std::fs::read_to_string(dir.join(format!("{}.json", job.id)))
                .unwrap_or_else(|e| panic!("{} must have a partial: {e}", job.id));
            assert_eq!(
                decode_partial(&text, job).as_ref(),
                Ok(want),
                "{} on {threads} thread(s) differs from its serial result",
                job.id
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A job that panics is named with its message, every other job still
/// writes a valid partial, and a re-run runs only the failed jobs. One
/// job panics while listing its simulations, another while building its
/// warm state.
#[test]
fn a_panicking_job_is_isolated() {
    let mut jobs = jobs_of("fig14");
    // `dca_cpu::mix` panics on mix 31.
    let bad = Job::new(JobPayload::Eval {
        spec: RunSpec::at_scale(Design::Dca, OrgKind::DirectMapped, &tiny_scale()),
        mixes: vec![31],
    });
    // Seven ways list and fingerprint, but cannot fill a row's sixty
    // data slots: `CacheGeometry::new` panics inside the warm-up.
    let bad_warmup = Job::new(JobPayload::Eval {
        spec: RunSpec::at_scale(Design::Dca, OrgKind::SetAssoc { ways: 7 }, &tiny_scale()),
        mixes: vec![1],
    });
    jobs.insert(1, bad.clone());
    jobs.insert(3, bad_warmup.clone());
    let dir = scratch("panic").join("partials");

    let outcome = run_jobs(&jobs, 2, &dir);
    assert_eq!((outcome.run, outcome.reused), (jobs.len(), 0));
    assert_eq!(outcome.failed.len(), 2, "{:?}", outcome.failed);
    let message = |id: &str| {
        outcome
            .failed
            .iter()
            .find(|(failed, _)| failed == id)
            .map(|(_, message)| message.clone())
            .unwrap_or_else(|| panic!("{id} must fail: {:?}", outcome.failed))
    };
    let listing = message(&bad.id);
    assert!(listing.contains("got 31"), "{listing}");
    let warmup = message(&bad_warmup.id);
    assert!(warmup.contains("fill the 60 data slots"), "{warmup}");
    for job in &jobs {
        let path = dir.join(format!("{}.json", job.id));
        if job.id == bad.id || job.id == bad_warmup.id {
            assert!(!path.exists(), "{} failed and has no partial", job.id);
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} must have a partial: {e}", job.id));
        decode_partial(&text, job).expect("the partial validates");
    }

    let again = run_jobs(&jobs, 2, &dir);
    assert_eq!((again.run, again.reused), (2, jobs.len() - 2));
    assert_eq!(again.failed.len(), 2, "{:?}", again.failed);
    let _ = std::fs::remove_dir_all(dir.parent().expect("scratch root"));
}

/// Unknown flags exit 2 with a usage listing instead of silently
/// producing nothing — including the flags of modes `figures` no longer
/// has, a bad thread count, and a value on a flag that takes none.
#[test]
fn unknown_flags_exit_2_with_usage() {
    for bad in [
        &["--fig99"][..],
        &["--figs"],
        &["--jobs", "zero"],
        &["--jobs", "0"],
        &["--jobs"],
        &["--fig14=2"],
        &["--all=x"],
        &["--batch", "3"],
        &["--chunk", "3"],
        &["--worker"],
        &["--serve"],
        &["--worker", "--serve"],
        &["--serve", "127.0.0.1:1"],
        &["--agent", "127.0.0.1:1"],
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

/// The runner keeps no warm cache, so `figures` never reads
/// `DCA_WARM_CAP`: a malformed value draws no warning, even from a run
/// that simulates. (The cache's own warnings are unit tests of
/// `dca_bench::warm`.)
#[test]
fn figures_does_not_read_the_warm_cap() {
    let dir = scratch("knobs");
    let out = run_ok(figures_cmd(&dir).arg("--fig14").env("DCA_WARM_CAP", "abc"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("DCA_WARM_CAP"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
