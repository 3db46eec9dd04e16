//! Worker side of the persistent pool: the wire protocol, the serve
//! loop behind `figures --worker --serve`, and the deterministic
//! fault-injection plan both sides of the tests lean on.
//!
//! ## Wire protocol
//!
//! One frame per line, fields separated by single spaces. The
//! coordinator writes to the worker's stdin:
//!
//! ```text
//! RUN <attempt> <job_id>    dispatch one job; <attempt> is the
//!                           0-based try index (fault plans key on it)
//! EXIT                      finish up and exit 0
//! ```
//!
//! The worker answers on stdout:
//!
//! ```text
//! HELLO <pid> v1            once, immediately after start
//! HB <seq> <progress>       heartbeat, every DCA_HEARTBEAT_MS
//!                           (default 250 ms); <progress> is a
//!                           monotonic work counter (jobs finished +
//!                           warm-lock wait ticks), so a worker
//!                           legitimately waiting on another process's
//!                           warm-up keeps its job deadline alive
//! OK <job_id>               job done, partial written
//! ERR <job_id> <message>    job failed (the worker lives on)
//! BYE                       acknowledges EXIT (or stdin EOF)
//! ```
//!
//! Anything else arriving on the coordinator's side of the pipe is a
//! *babbling* worker: the supervisor kills and respawns it, and the
//! in-flight job consumes one attempt. Human-facing chatter belongs on
//! stderr, which the supervisor captures per worker (the tail is
//! attached to quarantine records).
//!
//! ## Exit codes
//!
//! A serve worker exits `0` after `EXIT`/EOF, [`FAULT_EXIT`] on an
//! injected crash, and `1` on an internal error (unusable stdio).
//!
//! ## Fault plan (`DCA_FAULT_PLAN`)
//!
//! A comma-separated list of `<mode>:<glob>@<attempt>` rules, e.g.
//! `crash:ev_*_m2@1,hang:al_*@0,garbage:*@*`. `<mode>` is one of
//! `crash` (exit [`FAULT_EXIT`] before running the job), `hang`
//! (never finish the job but keep heartbeating — exercises the job
//! deadline), `garbage` (emit a truncated frame plus binary-ish noise
//! on stdout — exercises babble detection). `<glob>` matches the whole
//! job id with `*` wildcards; `<attempt>` is a 0-based try index or
//! `*` for every attempt. The first matching rule wins. Matching is a
//! pure function of `(job id, attempt)`, so runs are deterministic and
//! a plan like `crash:…@0` means "crash the first try, succeed on the
//! retry" — which the integration tests use to assert byte-identical
//! output under every failure mode.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Protocol version tag carried by `HELLO`.
pub const PROTOCOL_VERSION: &str = "v1";

/// Exit code of an injected `crash` fault (distinct from `1` so a real
/// worker bug is distinguishable from a planned one in CI logs).
pub const FAULT_EXIT: i32 = 101;

/// Environment variable naming the fault plan.
pub const FAULT_PLAN_ENV: &str = "DCA_FAULT_PLAN";

/// Heartbeat cadence (`DCA_HEARTBEAT_MS`, default 250 ms).
pub fn heartbeat_period() -> Duration {
    let ms = std::env::var("DCA_HEARTBEAT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v >= 10)
        .unwrap_or(250);
    Duration::from_millis(ms)
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// A worker→coordinator frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// `HELLO <pid> <version>`
    Hello {
        /// Worker process id.
        pid: u32,
        /// Protocol version token.
        version: String,
    },
    /// `HB <seq> <progress>`
    Hb {
        /// Monotonic heartbeat sequence number.
        seq: u64,
        /// Monotonic work counter (see module docs).
        progress: u64,
    },
    /// `OK <job_id>`
    Ok {
        /// The finished job.
        job_id: String,
    },
    /// `ERR <job_id> <message>`
    Err {
        /// The failed job.
        job_id: String,
        /// One-line failure description.
        message: String,
    },
    /// `BYE`
    Bye,
}

/// Parse one stdout line into a [`Frame`]. `Err` carries the offending
/// line — the supervisor treats it as a babbling worker.
pub fn parse_frame(line: &str) -> Result<Frame, String> {
    let mut it = line.splitn(2, ' ');
    let head = it.next().unwrap_or("");
    let rest = it.next().unwrap_or("");
    match head {
        "HELLO" => {
            let mut f = rest.split(' ');
            let pid = f
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| line.to_string())?;
            let version = f.next().ok_or_else(|| line.to_string())?.to_string();
            if f.next().is_some() {
                return Err(line.to_string());
            }
            Ok(Frame::Hello { pid, version })
        }
        "HB" => {
            let mut f = rest.split(' ');
            let seq = f
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| line.to_string())?;
            let progress = f
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| line.to_string())?;
            if f.next().is_some() {
                return Err(line.to_string());
            }
            Ok(Frame::Hb { seq, progress })
        }
        "OK" => {
            if rest.is_empty() || rest.contains(' ') {
                return Err(line.to_string());
            }
            Ok(Frame::Ok {
                job_id: rest.to_string(),
            })
        }
        "ERR" => {
            let mut f = rest.splitn(2, ' ');
            let job_id = f
                .next()
                .filter(|j| !j.is_empty())
                .ok_or_else(|| line.to_string())?;
            let message = f.next().unwrap_or("(no message)").to_string();
            Ok(Frame::Err {
                job_id: job_id.to_string(),
                message,
            })
        }
        "BYE" if rest.is_empty() => Ok(Frame::Bye),
        _ => Err(line.to_string()),
    }
}

// ---------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------

/// What an injected fault does to the worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Exit [`FAULT_EXIT`] before running the job.
    Crash,
    /// Never finish the job; heartbeats continue.
    Hang,
    /// Emit garbage frames on stdout, then stall.
    Garbage,
}

/// One `<mode>:<glob>@<attempt>` rule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// What to do on a match.
    pub mode: FaultMode,
    /// `*`-glob over the whole job id.
    pub glob: String,
    /// 0-based attempt to fire on; `None` = every attempt.
    pub attempt: Option<u32>,
}

/// A parsed `DCA_FAULT_PLAN`. An empty plan matches nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Rules in plan order; the first match wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parse a plan string (see module docs for the grammar).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (mode, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("fault rule {part:?} is missing the ':' after its mode"))?;
            let mode = match mode {
                "crash" => FaultMode::Crash,
                "hang" => FaultMode::Hang,
                "garbage" => FaultMode::Garbage,
                other => {
                    return Err(format!(
                        "unknown fault mode {other:?} (want crash, hang or garbage)"
                    ))
                }
            };
            let (glob, attempt) = rest
                .split_once('@')
                .ok_or_else(|| format!("fault rule {part:?} is missing the '@<attempt>' part"))?;
            if glob.is_empty() {
                return Err(format!("fault rule {part:?} has an empty job glob"));
            }
            let attempt = if attempt == "*" {
                None
            } else {
                Some(
                    attempt
                        .parse()
                        .map_err(|_| format!("bad attempt {attempt:?} in fault rule {part:?}"))?,
                )
            };
            rules.push(FaultRule {
                mode,
                glob: glob.to_string(),
                attempt,
            });
        }
        Ok(FaultPlan { rules })
    }

    /// The plan from [`FAULT_PLAN_ENV`]; a malformed plan is a hard
    /// error (a test harness typo must not silently run fault-free).
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var(FAULT_PLAN_ENV) {
            Ok(text) => FaultPlan::parse(&text),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// The fault to inject for `(job_id, attempt)`, if any.
    pub fn fault_for(&self, job_id: &str, attempt: u32) -> Option<FaultMode> {
        self.rules
            .iter()
            .find(|r| r.attempt.is_none_or(|a| a == attempt) && glob_match(&r.glob, job_id))
            .map(|r| r.mode)
    }
}

/// `*`-wildcard match of `pat` against the whole of `text`.
pub fn glob_match(pat: &str, text: &str) -> bool {
    // Iterative backtracking matcher (bytes: job ids are ASCII).
    let (p, t) = (pat.as_bytes(), text.as_bytes());
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = pi;
            mark = ti;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

// ---------------------------------------------------------------------
// Serve loop
// ---------------------------------------------------------------------

#[cfg(unix)]
fn ignore_sigint() {
    // The controlling terminal delivers Ctrl-C to the whole foreground
    // process group; workers must ignore it so the supervisor can drain
    // in-flight jobs instead of losing its pool mid-flush. No libc in
    // the workspace — bind signal(2) directly.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIG_IGN: usize = 1;
    unsafe {
        signal(SIGINT, SIG_IGN);
    }
}

#[cfg(not(unix))]
fn ignore_sigint() {}

/// The `figures --worker --serve` entry point: read `RUN`/`EXIT`
/// commands from stdin forever, keeping the process's warm cache hot
/// across jobs. Never returns.
pub fn serve() -> ! {
    ignore_sigint();
    let plan = match FaultPlan::from_env() {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("figures worker: error: bad {FAULT_PLAN_ENV}: {e}");
            std::process::exit(1);
        }
    };

    let progress = Arc::new(AtomicU64::new(0));
    {
        let out = std::io::stdout();
        let mut out = out.lock();
        let _ = writeln!(out, "HELLO {} {PROTOCOL_VERSION}", std::process::id());
    }
    // Heartbeat thread. Each writeln! is one write_fmt under stdout's
    // internal lock, so frames never tear across threads; stdout is
    // line-buffered, so every frame flushes at its newline.
    {
        let progress = Arc::clone(&progress);
        let period = heartbeat_period();
        std::thread::spawn(move || {
            let mut seq = 0u64;
            loop {
                std::thread::sleep(period);
                let p = progress.load(Ordering::Relaxed) + crate::warm::wait_ticks();
                let mut out = std::io::stdout();
                if writeln!(out, "HB {seq} {p}").is_err() {
                    return; // coordinator is gone; the main loop will see EOF
                }
                seq += 1;
            }
        });
    }

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim_end();
        if line == "EXIT" {
            break;
        }
        let Some(rest) = line.strip_prefix("RUN ") else {
            if !line.is_empty() {
                eprintln!("figures worker: warning: ignoring unknown command {line:?}");
            }
            continue;
        };
        let Some((attempt, job_id)) = rest.split_once(' ') else {
            eprintln!("figures worker: warning: malformed RUN {rest:?}");
            continue;
        };
        let attempt: u32 = match attempt.parse() {
            Ok(a) => a,
            Err(_) => {
                eprintln!("figures worker: warning: malformed attempt in RUN {rest:?}");
                continue;
            }
        };
        match plan.fault_for(job_id, attempt) {
            Some(FaultMode::Crash) => {
                eprintln!("figures worker: fault plan: crashing on {job_id} (attempt {attempt})");
                std::process::exit(FAULT_EXIT);
            }
            Some(FaultMode::Hang) => {
                eprintln!("figures worker: fault plan: hanging on {job_id} (attempt {attempt})");
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            Some(FaultMode::Garbage) => {
                eprintln!("figures worker: fault plan: babbling on {job_id} (attempt {attempt})");
                let mut out = std::io::stdout();
                let _ = writeln!(out, "OK"); // truncated result frame
                let _ = writeln!(out, "\u{1}\u{2} not a frame \u{7f}");
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            None => {}
        }
        let reply = match super::run_worker(job_id) {
            Ok(()) => format!("OK {job_id}"),
            // Frames are line-oriented; fold any multi-line error.
            Err(e) => format!("ERR {job_id} {}", e.replace('\n', "; ")),
        };
        progress.fetch_add(1, Ordering::Relaxed);
        let mut out = std::io::stdout();
        if writeln!(out, "{reply}").is_err() {
            break;
        }
    }
    let mut out = std::io::stdout();
    let _ = writeln!(out, "BYE");
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        assert_eq!(
            parse_frame("HELLO 1234 v1"),
            Ok(Frame::Hello {
                pid: 1234,
                version: "v1".into()
            })
        );
        assert_eq!(
            parse_frame("HB 7 42"),
            Ok(Frame::Hb {
                seq: 7,
                progress: 42
            })
        );
        assert_eq!(
            parse_frame("OK ev_dm_cd_x0_l0_ff4_i1_w1_s0_mmf_m1"),
            Ok(Frame::Ok {
                job_id: "ev_dm_cd_x0_l0_ff4_i1_w1_s0_mmf_m1".into()
            })
        );
        assert_eq!(
            parse_frame("ERR al_x cannot write partial: disk full"),
            Ok(Frame::Err {
                job_id: "al_x".into(),
                message: "cannot write partial: disk full".into()
            })
        );
        assert_eq!(parse_frame("BYE"), Ok(Frame::Bye));
    }

    #[test]
    fn garbage_lines_are_rejected() {
        for line in [
            "",
            "OK",
            "OK two ids",
            "HB 7",
            "HB x y",
            "HELLO 12",
            "BYE now",
            "\u{1}\u{2} not a frame \u{7f}",
            "ok lowercase",
            "ERR ",
        ] {
            assert!(parse_frame(line).is_err(), "{line:?} must not parse");
        }
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("ev_*", "ev_sa15_cd"));
        assert!(!glob_match("ev_*", "al_sa15"));
        assert!(glob_match("ev_*_m2", "ev_sa15_cd_m2"));
        assert!(!glob_match("ev_*_m2", "ev_sa15_cd_m2.3"));
        assert!(glob_match("*dca*", "ev_sa15_dca_x0"));
        assert!(glob_match("a*b*c", "a__b__b_c"));
        assert!(!glob_match("a*b*c", "a__b__b_d"));
        assert!(glob_match("abc", "abc"));
        assert!(!glob_match("abc", "abcd"));
        assert!(!glob_match("", "x"));
        assert!(glob_match("", ""));
    }

    #[test]
    fn fault_plans_parse_and_match() {
        let plan = FaultPlan::parse("crash:ev_*_m2@1, hang:al_*@0,garbage:*dca*@*").expect("plan");
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.fault_for("ev_x_m2", 1), Some(FaultMode::Crash));
        assert_eq!(plan.fault_for("ev_x_m2", 0), None);
        assert_eq!(plan.fault_for("al_x", 0), Some(FaultMode::Hang));
        assert_eq!(plan.fault_for("al_x", 1), None);
        assert_eq!(plan.fault_for("ev_dca_m9", 5), Some(FaultMode::Garbage));
        // First match wins: a crash rule shadows a later catch-all.
        let plan = FaultPlan::parse("crash:a*@*,garbage:*@*").expect("plan");
        assert_eq!(plan.fault_for("abc", 3), Some(FaultMode::Crash));
        assert_eq!(plan.fault_for("zzz", 3), Some(FaultMode::Garbage));
        assert_eq!(FaultPlan::parse("").expect("empty").rules.len(), 0);
        for bad in [
            "crash",
            "crash:ev_*",
            "boom:ev_*@1",
            "crash:@1",
            "crash:ev_*@x",
            "drop:ev_*",
            "torn",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Only crash, hang and garbage are modes; anything else, such as
        // a transport-level fault name, is rejected as unknown.
        for mode in ["drop", "torn", "garbage-frame"] {
            let err = FaultPlan::parse(&format!("{mode}:ev_*@0")).expect_err(mode);
            assert!(err.starts_with("unknown fault mode"), "{mode}: {err}");
        }
    }
}
