//! Coordinator side of the persistent pool: a supervisor that owns N
//! long-lived `figures --worker --serve` subprocesses and drives a job
//! queue through them with deadlines, retries and quarantine.
//!
//! ## Supervisor state machine
//!
//! Each worker *slot* is in one of three states:
//!
//! ```text
//!            spawn                 RUN frame written
//!   dead ───────────────▶ idle ─────────────────────▶ busy
//!     ▲                    ▲                            │
//!     │   kill (deadline,  │        OK/ERR frame        │
//!     └────────────────────┴────────────────────────────┘
//!         babble, heartbeat silence, EOF)
//! ```
//!
//! * **dead → idle**: [`Supervisor::run`] respawns dead slots whenever
//!   undone work remains (initial spawn is the same transition).
//! * **idle → busy**: the dispatcher writes `RUN <attempt> <job_id>`.
//!   Dispatch prefers a job's *warm-affinity* slot — the slot that last
//!   ran its [`warm_group`](super::warm_group) — so a group's warm-up
//!   is built once and stays hot in that worker; otherwise the
//!   lowest-index idle slot wins, which consolidates work onto few
//!   workers instead of faulting fresh address spaces for no benefit.
//!   At most [`PoolConfig::inflight`] slots are busy at once (default:
//!   `min(workers, cores)`; the remaining workers are hot spares).
//! * **busy → idle**: an `OK` frame whose partial validates records the
//!   job; an `ERR` frame (or an `OK` with no valid partial behind it)
//!   consumes one attempt.
//! * **busy/idle → dead**: the supervisor kills a worker that (a) blew
//!   the per-job deadline — `DCA_JOB_TIMEOUT_MS` measured from the last
//!   *progress change* in its heartbeats, so warm-lock waits don't
//!   count against it, (b) went heartbeat-silent for
//!   `DCA_HEARTBEAT_TIMEOUT_MS`, (c) *babbled* (an unparseable stdout
//!   line, or a result frame for a job it wasn't given), or (d) hit
//!   EOF/a failed pipe write. A killed slot's generation counter is
//!   bumped so late events from its old reader threads are discarded.
//!
//! A failed job is retried with exponential backoff plus deterministic
//! jitter derived from `digest64(job id) ^ attempt` — no wall-clock
//! entropy, so a given plan replays identically. After
//! `DCA_JOB_ATTEMPTS` total attempts the job is **quarantined**: its
//! id, last error and the worker's captured stderr tail (bounded by
//! lines *and* bytes) are recorded in
//! `results/partials/quarantine.json`, and the sweep carries on —
//! figures render the missing cells as explicit holes and `figures`
//! exits degraded instead of aborting a multi-hour sweep for one
//! poisoned job. The record is cross-session: writing it keeps prior
//! entries that are still holes and prunes any whose job has since
//! landed a valid partial, so a job quarantined in one session and
//! completed in a later one stops rendering as a hole.
//!
//! On Ctrl-C/SIGTERM ([`install_signal_handlers`]) the supervisor
//! **drains**: it stops dispatching, lets in-flight jobs finish and
//! flush their partials, shuts the pool down, and reports
//! [`Outcome::drained`] — a re-run resumes from the partials on disk.
//!
//! ## Environment knobs
//!
//! | knob | default | meaning |
//! |---|---|---|
//! | `DCA_JOB_TIMEOUT_MS` | 600 000 | per-job deadline, from last progress change |
//! | `DCA_HEARTBEAT_TIMEOUT_MS` | 10 000 | kill a worker silent this long |
//! | `DCA_JOB_ATTEMPTS` | 3 | total attempts before quarantine |
//! | `DCA_RETRY_BACKOFF_MS` | 25 | backoff base (doubles per attempt) |
//! | `DCA_POOL_INFLIGHT` | min(workers, cores) | concurrent busy slots |
//!
//! (`DCA_HEARTBEAT_MS` and `DCA_FAULT_PLAN` are worker-side; see
//! [`pool`](super::pool).)

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dca_sim_core::digest64;

use super::pool::{parse_frame, Frame};
use super::{json, load_existing_partial, quarantine_path, warm_group, Job, PartialStore};

/// Lines of worker stderr retained per worker for quarantine records.
const STDERR_TAIL_LINES: usize = 50;

/// Total bytes of stderr retained per worker. Bounds the tail by size
/// as well as by line count, so 50 huge lines cannot bloat
/// `quarantine.json`.
const STDERR_TAIL_BYTES: usize = 16 * 1024;

/// Bytes kept of any single stderr line; the excess is replaced by a
/// truncation marker (one pathological multi-megabyte line must not
/// consume the whole byte budget, let alone the record).
const STDERR_LINE_BYTES: usize = 2 * 1024;

/// Append `line` to a bounded stderr tail, enforcing all three caps:
/// per-line bytes (truncate, marking how much was cut), total lines
/// and total bytes (evict oldest first; the newest line always stays).
fn push_stderr_tail(tail: &mut VecDeque<String>, line: String) {
    let line = if line.len() > STDERR_LINE_BYTES {
        let mut cut = STDERR_LINE_BYTES;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}… [+{} bytes]", &line[..cut], line.len() - cut)
    } else {
        line
    };
    tail.push_back(line);
    while tail.len() > 1
        && (tail.len() > STDERR_TAIL_LINES
            || tail.iter().map(String::len).sum::<usize>() > STDERR_TAIL_BYTES)
    {
        tail.pop_front();
    }
}

// ---------------------------------------------------------------------
// Stop flag + signal handlers
// ---------------------------------------------------------------------

static STOP: AtomicBool = AtomicBool::new(false);

/// Whether a drain has been requested (signal or [`request_stop`]).
pub fn stop_requested() -> bool {
    STOP.load(Ordering::SeqCst)
}

/// Programmatic drain request (what the signal handlers call; exposed
/// for tests).
pub fn request_stop() {
    STOP.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that request a graceful drain.
/// Workers ignore SIGINT themselves (see `pool::serve`), so a terminal
/// Ctrl-C reaches only the supervisor and the pool drains cleanly.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        STOP.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// No-op off Unix; `stop_requested` can still be driven by
/// [`request_stop`].
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Supervisor policy, latched once per run (see the module-docs knob
/// table).
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker slots to maintain.
    pub workers: usize,
    /// Maximum concurrently busy slots; the rest are hot spares.
    pub inflight: usize,
    /// Total attempts per job before quarantine.
    pub max_attempts: u32,
    /// Per-job deadline, measured from the last progress change.
    pub job_timeout: Duration,
    /// Kill a worker whose stdout has been silent this long.
    pub hb_timeout: Duration,
    /// Retry backoff base; doubles per attempt, plus deterministic
    /// jitter.
    pub backoff_base: Duration,
}

fn env_pos_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => match v.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!(
                    "warning: {name}={v:?} is not a positive integer; using the default {default}"
                );
                default
            }
        },
        Err(_) => default,
    }
}

impl PoolConfig {
    /// Policy for `workers` slots, with every knob read from the
    /// environment exactly once.
    pub fn from_env(workers: usize) -> PoolConfig {
        let workers = workers.max(1);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // More busy lanes than cores buys nothing but context-switch
        // and allocator-fault overhead for this CPU-bound work; extra
        // workers still earn their keep as pre-spawned failover spares.
        let inflight = match std::env::var("DCA_POOL_INFLIGHT") {
            Ok(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!(
                        "warning: DCA_POOL_INFLIGHT={v:?} is not a positive integer; \
                         using min(workers, cores)"
                    );
                    workers.min(cores)
                }
            },
            Err(_) => workers.min(cores),
        }
        .clamp(1, workers);
        PoolConfig {
            workers,
            inflight,
            max_attempts: env_pos_u64("DCA_JOB_ATTEMPTS", 3) as u32,
            job_timeout: Duration::from_millis(env_pos_u64("DCA_JOB_TIMEOUT_MS", 600_000)),
            hb_timeout: Duration::from_millis(env_pos_u64("DCA_HEARTBEAT_TIMEOUT_MS", 10_000)),
            backoff_base: Duration::from_millis(env_pos_u64("DCA_RETRY_BACKOFF_MS", 25)),
        }
    }
}

/// Deterministic retry delay before `attempt` (1-based retry index):
/// `base · 2^(attempt-1)` plus jitter below one base period, derived
/// from the job id — stable across runs, different across jobs, so a
/// burst of same-cause failures still de-synchronises.
pub fn retry_delay(base: Duration, job_id: &str, attempt: u32) -> Duration {
    let base_ms = base.as_millis().max(1) as u64;
    let backoff = base_ms << (attempt.saturating_sub(1)).min(10);
    let jitter = (digest64(job_id.as_bytes()) ^ u64::from(attempt)) % base_ms;
    Duration::from_millis(backoff + jitter)
}

// ---------------------------------------------------------------------
// Outcome types
// ---------------------------------------------------------------------

/// What the pool did, for the end-of-run stats line.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Jobs executed to a valid partial this run.
    pub run: usize,
    /// Jobs satisfied by a pre-existing valid partial.
    pub reused: usize,
    /// Failed attempts that were re-queued.
    pub retried: usize,
    /// Jobs given up on after `max_attempts`.
    pub quarantined: usize,
    /// Workers killed and replaced (initial spawns not counted).
    pub respawns: usize,
}

/// One poison job: what failed, how often, and what the worker said.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// The job id.
    pub job_id: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// The last failure reason.
    pub error: String,
    /// Tail of the last worker's stderr.
    pub stderr: Vec<String>,
}

/// Result of a supervised run. `store` holds every job that finished
/// (this run or reused); `quarantined` lists the holes.
pub struct Outcome {
    /// Merged results for all completed jobs.
    pub store: PartialStore,
    /// Counters for the stats line.
    pub stats: PoolStats,
    /// Poison jobs, in quarantine order.
    pub quarantined: Vec<Quarantined>,
    /// True when a stop request ended the run with work left undone
    /// (in-flight jobs were finished and flushed; a re-run resumes).
    pub drained: bool,
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

/// Events flowing from per-worker reader threads to the control loop.
enum Event {
    /// One stdout line from worker `slot` (at generation `gen`).
    Line { slot: usize, gen: u64, line: String },
    /// Worker `slot`'s stdout closed.
    Eof { slot: usize, gen: u64 },
}

/// A dispatched job riding on a busy slot.
struct Busy {
    job: Job,
    /// 0-based attempt index (echoed in the `RUN` frame).
    attempt: u32,
    started: Instant,
    /// Last `progress` value seen in a heartbeat.
    progress: u64,
    /// When `progress` last changed (deadline basis).
    progress_at: Instant,
}

/// One worker slot (see the module-docs state machine).
struct WorkerSlot {
    /// Bumped on every (re)spawn and kill; events carrying an older
    /// generation are stale and dropped.
    gen: u64,
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    busy: Option<Busy>,
    /// Last time any frame arrived (heartbeat-silence basis).
    last_frame_at: Instant,
}

impl WorkerSlot {
    fn empty() -> WorkerSlot {
        WorkerSlot {
            gen: 0,
            child: None,
            stdin: None,
            stderr_tail: Arc::new(Mutex::new(VecDeque::new())),
            busy: None,
            last_frame_at: Instant::now(),
        }
    }

    fn alive(&self) -> bool {
        self.child.is_some()
    }

    fn idle(&self) -> bool {
        self.alive() && self.busy.is_none()
    }
}

/// The persistent-pool coordinator. Construct with [`Supervisor::new`]
/// and call [`Supervisor::run`] once per job list.
pub struct Supervisor {
    cfg: PoolConfig,
}

impl Supervisor {
    /// A supervisor for `workers` slots, configured from the
    /// environment.
    pub fn new(workers: usize) -> Supervisor {
        Supervisor {
            cfg: PoolConfig::from_env(workers),
        }
    }

    /// Run `jobs` to completion (or drain). Hard `Err` only for
    /// environment-level failures (cannot spawn workers at all);
    /// per-job failures land in [`Outcome::quarantined`] instead.
    pub fn run(&self, jobs: &[Job]) -> Result<Outcome, String> {
        let mut state = RunState {
            cfg: &self.cfg,
            exe: std::env::current_exe()
                .map_err(|e| format!("cannot locate the figures binary: {e}"))?,
            tx: None,
            slots: Vec::new(),
            queue: VecDeque::new(),
            delayed: Vec::new(),
            affinity: HashMap::new(),
            store: PartialStore::default(),
            stats: PoolStats::default(),
            quarantined: Vec::new(),
        };

        for job in jobs {
            if let Some(result) = load_existing_partial(job) {
                state.store.insert(job, result);
                state.stats.reused += 1;
            } else {
                state.queue.push_back((job.clone(), 0));
            }
        }

        let drained = if state.queue.is_empty() {
            false // everything reused; never spawn a pool for nothing
        } else {
            let (tx, rx) = mpsc::channel();
            state.tx = Some(tx);
            let n = self.cfg.workers.min(state.queue.len()).max(1);
            state.slots = (0..n).map(|_| WorkerSlot::empty()).collect();
            let drained = state.control_loop(&rx);
            state.shutdown();
            drained?
        };

        write_quarantine(&state.quarantined)?;
        Ok(Outcome {
            store: state.store,
            stats: state.stats,
            quarantined: state.quarantined,
            drained,
        })
    }
}

/// All mutable state of one `run` call.
struct RunState<'a> {
    cfg: &'a PoolConfig,
    exe: PathBuf,
    /// Kept alive so `recv_timeout` can never observe disconnection.
    tx: Option<Sender<Event>>,
    slots: Vec<WorkerSlot>,
    queue: VecDeque<(Job, u32)>,
    delayed: Vec<(Instant, Job, u32)>,
    /// warm group → slot that last ran a job of that group.
    affinity: HashMap<String, usize>,
    store: PartialStore,
    stats: PoolStats,
    quarantined: Vec<Quarantined>,
}

impl RunState<'_> {
    /// The main event loop; returns whether the run drained early.
    fn control_loop(&mut self, rx: &Receiver<Event>) -> Result<bool, String> {
        let mut announced_drain = false;
        loop {
            let stopping = stop_requested();
            if stopping && !announced_drain {
                announced_drain = true;
                eprintln!(
                    "figures: stop requested; draining {} in-flight job(s), then flushing",
                    self.inflight()
                );
            }

            // Promote due retries.
            let now = Instant::now();
            let mut i = 0;
            while i < self.delayed.len() {
                if self.delayed[i].0 <= now {
                    let (_, job, attempt) = self.delayed.remove(i);
                    self.queue.push_back((job, attempt));
                } else {
                    i += 1;
                }
            }

            if !stopping {
                self.ensure_workers()?;
                self.dispatch();
            }

            if self.inflight() == 0
                && (stopping || (self.queue.is_empty() && self.delayed.is_empty()))
            {
                return Ok(stopping && !(self.queue.is_empty() && self.delayed.is_empty()));
            }

            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(ev) => self.handle_event(ev),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("supervisor keeps its own sender alive")
                }
            }
            while let Ok(ev) = rx.try_recv() {
                self.handle_event(ev);
            }

            self.check_deadlines();
        }
    }

    fn inflight(&self) -> usize {
        self.slots.iter().filter(|s| s.busy.is_some()).count()
    }

    /// Respawn dead slots while undone work remains, never exceeding
    /// what that work can use.
    fn ensure_workers(&mut self) -> Result<(), String> {
        let pending = self.queue.len() + self.delayed.len();
        if pending == 0 {
            return Ok(());
        }
        let want = (self.inflight() + pending).min(self.slots.len());
        let mut alive = self.slots.iter().filter(|s| s.alive()).count();
        for si in 0..self.slots.len() {
            if alive >= want {
                break;
            }
            if !self.slots[si].alive() {
                self.spawn_into(si)?;
                alive += 1;
            }
        }
        Ok(())
    }

    fn spawn_into(&mut self, si: usize) -> Result<(), String> {
        debug_assert!(self.slots[si].busy.is_none(), "respawn of a busy slot");
        let gen = self.slots[si].gen + 1;
        // Workers inherit the whole environment — scale knobs, fault
        // plan, and (only if the *user* configured one) a shared warm
        // dir. The pool deliberately does not force warm persistence:
        // its whole point is warm state staying hot in-process.
        let mut child = Command::new(&self.exe)
            .args(["--worker", "--serve"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn pool worker: {e}"))?;
        let (Some(stdin), Some(stdout), Some(stderr)) =
            (child.stdin.take(), child.stdout.take(), child.stderr.take())
        else {
            // Pipes we asked for are missing: reap the child and report
            // it as a spawn failure so the retry budget applies.
            let _ = child.kill();
            let _ = child.wait();
            return Err("pool worker spawned without stdio pipes".to_string());
        };

        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| "pool event channel closed while spawning".to_string())?
            .clone();
        std::thread::spawn(move || {
            let reader = BufReader::new(stdout);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if tx
                    .send(Event::Line {
                        slot: si,
                        gen,
                        line,
                    })
                    .is_err()
                {
                    return;
                }
            }
            let _ = tx.send(Event::Eof { slot: si, gen });
        });

        let tail = Arc::new(Mutex::new(VecDeque::new()));
        {
            let tail = Arc::clone(&tail);
            std::thread::spawn(move || {
                let reader = BufReader::new(stderr);
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    eprintln!("[worker {si}] {line}");
                    // A poisoned tail mutex only ever holds log lines;
                    // keep collecting rather than killing the reader.
                    push_stderr_tail(&mut tail.lock().unwrap_or_else(|p| p.into_inner()), line);
                }
            });
        }

        if gen > 1 {
            self.stats.respawns += 1;
        }
        self.slots[si] = WorkerSlot {
            gen,
            child: Some(child),
            stdin: Some(stdin),
            stderr_tail: tail,
            busy: None,
            last_frame_at: Instant::now(),
        };
        Ok(())
    }

    /// Fill busy lanes up to the in-flight cap, warm-affinity first.
    fn dispatch(&mut self) {
        loop {
            if self.inflight() >= self.cfg.inflight || self.queue.is_empty() {
                return;
            }
            // Prefer the first queued job whose warm group already has
            // an idle home slot; otherwise take the queue head.
            let pos = self
                .queue
                .iter()
                .position(|(job, _)| {
                    self.affinity
                        .get(&warm_group(&job.payload))
                        .is_some_and(|&s| self.slots[s].idle())
                })
                .unwrap_or(0);
            let group = warm_group(&self.queue[pos].0.payload);
            let slot = self
                .affinity
                .get(&group)
                .copied()
                .filter(|&s| self.slots[s].idle())
                .or_else(|| self.slots.iter().position(|s| s.idle()));
            let Some(si) = slot else { return };
            let Some((job, attempt)) = self.queue.remove(pos) else {
                return;
            };
            let wrote = self.slots[si].stdin.as_mut().is_some_and(|w| {
                writeln!(w, "RUN {attempt} {}", job.id).is_ok() && w.flush().is_ok()
            });
            if wrote {
                self.affinity.insert(group, si);
                let now = Instant::now();
                self.slots[si].busy = Some(Busy {
                    job,
                    attempt,
                    started: now,
                    progress: 0,
                    progress_at: now,
                });
            } else {
                // The worker died while idle; the job never started, so
                // it keeps its attempt count.
                eprintln!("figures: worker {si}: pipe write failed; replacing the worker");
                self.queue.push_front((job, attempt));
                self.kill_worker(si);
                return; // ensure_workers respawns on the next tick
            }
        }
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::Eof { slot: si, gen } => {
                if self.slots[si].gen != gen {
                    return; // stale reader of a killed generation
                }
                let status = self.slots[si]
                    .child
                    .take()
                    .and_then(|mut c| c.wait().ok())
                    .map_or_else(|| "unknown status".to_string(), |s| s.to_string());
                self.slots[si].stdin = None;
                self.slots[si].gen += 1;
                self.fail_busy(si, &format!("worker exited mid-run ({status})"));
            }
            Event::Line {
                slot: si,
                gen,
                line,
            } => {
                if self.slots[si].gen != gen {
                    return;
                }
                self.slots[si].last_frame_at = Instant::now();
                match parse_frame(&line) {
                    Err(bad) => self.babble(si, &format!("unparseable frame {bad:?}")),
                    Ok(Frame::Hello { .. }) | Ok(Frame::Bye) => {}
                    Ok(Frame::Hb { progress, .. }) => {
                        if let Some(busy) = self.slots[si].busy.as_mut() {
                            if progress != busy.progress {
                                busy.progress = progress;
                                busy.progress_at = Instant::now();
                            }
                        }
                    }
                    Ok(Frame::Ok { job_id }) => {
                        let matches = self.slots[si]
                            .busy
                            .as_ref()
                            .is_some_and(|b| b.job.id == job_id);
                        if !matches {
                            self.babble(si, &format!("OK for a job it was not given ({job_id})"));
                            return;
                        }
                        let Some(busy) = self.slots[si].busy.take() else {
                            return;
                        };
                        match load_existing_partial(&busy.job) {
                            Some(result) => {
                                self.store.insert(&busy.job, result);
                                self.stats.run += 1;
                            }
                            None => {
                                self.slots[si].busy = Some(busy);
                                self.fail_busy(si, "worker reported OK but left no valid partial");
                            }
                        }
                    }
                    Ok(Frame::Err { job_id, message }) => {
                        let matches = self.slots[si]
                            .busy
                            .as_ref()
                            .is_some_and(|b| b.job.id == job_id);
                        if matches {
                            self.fail_busy(si, &message);
                        } else {
                            self.babble(si, &format!("ERR for a job it was not given ({job_id})"));
                        }
                    }
                }
            }
        }
    }

    /// A worker sent something the protocol forbids: kill it, charge
    /// the in-flight job (if any) one attempt.
    fn babble(&mut self, si: usize, what: &str) {
        eprintln!("figures: worker {si} is babbling: {what}; killing it");
        self.kill_worker(si);
        self.fail_busy(si, &format!("worker babbled: {what}"));
    }

    /// Kill a worker process and invalidate its event generation.
    fn kill_worker(&mut self, si: usize) {
        let slot = &mut self.slots[si];
        slot.gen += 1;
        slot.stdin = None;
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Resolve a failed in-flight job: salvage a flushed partial if the
    /// worker got that far, else retry with backoff or quarantine.
    fn fail_busy(&mut self, si: usize, why: &str) {
        let Some(busy) = self.slots[si].busy.take() else {
            return;
        };
        // A worker can die between flushing the partial and saying OK;
        // the partial is self-validating, so judge by the disk.
        if let Some(result) = load_existing_partial(&busy.job) {
            eprintln!(
                "figures: worker {si}: {why}, but job {} had already flushed a valid partial; \
                 keeping it",
                busy.job.id
            );
            self.store.insert(&busy.job, result);
            self.stats.run += 1;
            return;
        }
        let attempts_used = busy.attempt + 1;
        if attempts_used >= self.cfg.max_attempts {
            eprintln!(
                "figures: quarantining job {} after {attempts_used} attempt(s): {why}",
                busy.job.id
            );
            // A poisoned tail mutex still holds usable log lines.
            let stderr = self.slots[si]
                .stderr_tail
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .cloned()
                .collect();
            self.stats.quarantined += 1;
            self.quarantined.push(Quarantined {
                job_id: busy.job.id,
                attempts: attempts_used,
                error: why.to_string(),
                stderr,
            });
        } else {
            let delay = retry_delay(self.cfg.backoff_base, &busy.job.id, attempts_used);
            eprintln!(
                "figures: retrying job {} in {delay:?} (attempt {} of {}): {why}",
                busy.job.id,
                attempts_used + 1,
                self.cfg.max_attempts
            );
            self.stats.retried += 1;
            self.delayed
                .push((Instant::now() + delay, busy.job, busy.attempt + 1));
        }
    }

    /// Enforce per-job deadlines and heartbeat silence.
    fn check_deadlines(&mut self) {
        let now = Instant::now();
        for si in 0..self.slots.len() {
            if !self.slots[si].alive() {
                continue;
            }
            if let Some(busy) = &self.slots[si].busy {
                let basis = busy.started.max(busy.progress_at);
                if now.duration_since(basis) > self.cfg.job_timeout {
                    let why = format!("no progress for {:?} (job deadline)", self.cfg.job_timeout);
                    self.kill_worker(si);
                    self.fail_busy(si, &why);
                    continue;
                }
            }
            if now.duration_since(self.slots[si].last_frame_at) > self.cfg.hb_timeout {
                let why = format!("no heartbeat for {:?}", self.cfg.hb_timeout);
                eprintln!("figures: worker {si}: {why}; killing it");
                self.kill_worker(si);
                self.fail_busy(si, &why);
            }
        }
    }

    /// Ask every live worker to exit, give the pool a moment, then
    /// force the stragglers.
    fn shutdown(&mut self) {
        for slot in &mut self.slots {
            if let Some(w) = slot.stdin.as_mut() {
                let _ = writeln!(w, "EXIT");
            }
            slot.stdin = None;
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let mut all_gone = true;
            for slot in &mut self.slots {
                if let Some(child) = slot.child.as_mut() {
                    match child.try_wait() {
                        Ok(Some(_)) => slot.child = None,
                        _ => all_gone = false,
                    }
                }
            }
            if all_gone || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Parse `results/partials/quarantine.json` back into records. Absent
/// or unreadable files yield an empty list (the record is advisory —
/// partials are the source of truth for results).
fn read_quarantine() -> Vec<Quarantined> {
    let Ok(text) = std::fs::read_to_string(quarantine_path()) else {
        return Vec::new();
    };
    let Ok(v) = json::parse(&text) else {
        return Vec::new();
    };
    let Some(list) = v.get("quarantined").and_then(json::Value::as_arr) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for q in list {
        let (Some(job_id), Some(attempts), Some(error)) =
            (q.get_str("job"), q.get_u64("attempts"), q.get_str("error"))
        else {
            continue;
        };
        let stderr = q
            .get("stderr")
            .and_then(json::Value::as_arr)
            .map(|lines| {
                lines
                    .iter()
                    .filter_map(|l| l.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        out.push(Quarantined {
            job_id: job_id.to_string(),
            attempts: attempts.min(u64::from(u32::MAX)) as u32,
            error: error.to_string(),
            stderr,
        });
    }
    out
}

/// Retain the prior-session quarantine entries that are still holes:
/// drop entries superseded by a `current` record for the same job and
/// — the heal path — entries whose job `healed` (a valid partial now
/// exists, e.g. a later session re-ran it successfully). Entries with
/// ids a current binary cannot even parse are treated as healed too:
/// they can never match a planned job again.
fn prune_quarantine(
    prior: Vec<Quarantined>,
    current: &[Quarantined],
    healed: impl Fn(&str) -> bool,
) -> Vec<Quarantined> {
    prior
        .into_iter()
        .filter(|q| !current.iter().any(|c| c.job_id == q.job_id) && !healed(&q.job_id))
        .collect()
}

/// Whether `job_id` now has a valid partial on disk (unparseable ids
/// count as healed; see [`prune_quarantine`]).
fn healed_on_disk(job_id: &str) -> bool {
    match super::parse_job_id(job_id) {
        Ok(payload) => load_existing_partial(&Job {
            id: job_id.to_string(),
            payload,
        })
        .is_some(),
        Err(_) => true,
    }
}

/// Write `results/partials/quarantine.json`: this run's records plus
/// every prior entry that is still an unhealed hole (a job quarantined
/// by one figure's session must survive another figure's clean run —
/// but must disappear the moment any session lands a valid partial
/// for it). When nothing remains, the file is removed.
fn write_quarantine(quarantined: &[Quarantined]) -> Result<(), String> {
    let path = quarantine_path();
    let kept = prune_quarantine(read_quarantine(), quarantined, healed_on_disk);
    let all: Vec<&Quarantined> = kept.iter().chain(quarantined.iter()).collect();
    if all.is_empty() {
        // A clean slate must not leave a stale quarantine behind.
        let _ = std::fs::remove_file(&path);
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut text = String::from("{\n  \"schema\": 1,\n  \"quarantined\": [\n");
    for (i, q) in all.iter().enumerate() {
        let stderr: Vec<String> = q
            .stderr
            .iter()
            .map(|l| format!("\"{}\"", json::escape(l)))
            .collect();
        text.push_str(&format!(
            "    {{\"job\": \"{}\", \"attempts\": {}, \"error\": \"{}\", \"stderr\": [{}]}}{}\n",
            json::escape(&q.job_id),
            q.attempts,
            json::escape(&q.error),
            stderr.join(", "),
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    text.push_str("  ]\n}\n");
    // Same atomicity discipline as partials: stage + rename.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, &text)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot write {}: {e}", path.display())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_is_deterministic_and_grows() {
        let base = Duration::from_millis(25);
        let a1 = retry_delay(base, "ev_sa15_cd_x0", 1);
        assert_eq!(
            a1,
            retry_delay(base, "ev_sa15_cd_x0", 1),
            "same inputs, same delay"
        );
        let a2 = retry_delay(base, "ev_sa15_cd_x0", 2);
        let a3 = retry_delay(base, "ev_sa15_cd_x0", 3);
        // Exponential envelope: attempt n sits in [base·2^(n-1), base·2^(n-1) + base).
        for (n, d) in [(1u32, a1), (2, a2), (3, a3)] {
            let lo = 25u64 << (n - 1);
            let ms = d.as_millis() as u64;
            assert!(
                (lo..lo + 25).contains(&ms),
                "attempt {n}: {ms} ms outside [{lo}, {})",
                lo + 25
            );
        }
        // Different jobs de-synchronise (jitter differs with overwhelming
        // likelihood for these two ids; locked here as a regression).
        assert_ne!(
            retry_delay(base, "ev_sa15_cd_x0", 1),
            retry_delay(base, "al_sa15_bgcc", 1)
        );
    }

    #[test]
    fn stop_flag_round_trips() {
        assert!(!stop_requested());
        request_stop();
        assert!(stop_requested());
        STOP.store(false, Ordering::SeqCst);
    }

    #[test]
    fn retry_delay_is_a_pure_function_with_the_documented_shape() {
        // Exact construction: base·2^min(attempt-1, 10) plus
        // digest-derived jitter below one base period. Locking the
        // formula (digest64 is platform-stable) locks the jitter
        // across runs and platforms.
        let base = Duration::from_millis(25);
        for id in ["ev_sa15_cd_x0", "al_dm_bgcc", "ev_dm_dca_x1_l1"] {
            for attempt in [1u32, 2, 3, 9, 10, 11, 64, u32::MAX] {
                let want = (25u64 << attempt.saturating_sub(1).min(10))
                    + (digest64(id.as_bytes()) ^ u64::from(attempt)) % 25;
                assert_eq!(
                    retry_delay(base, id, attempt),
                    Duration::from_millis(want),
                    "{id} attempt {attempt}"
                );
                assert_eq!(
                    retry_delay(base, id, attempt),
                    retry_delay(base, id, attempt),
                    "same inputs, same delay"
                );
            }
        }
    }

    #[test]
    fn retry_delay_base_is_monotone_to_the_shift_cap_and_never_overflows() {
        let base = Duration::from_millis(25);
        let id = "ev_sa15_rod_x0";
        let mut prev_lo = 0u64;
        for attempt in 1..=11u32 {
            let lo = 25u64 << (attempt - 1).min(10);
            let ms = retry_delay(base, id, attempt).as_millis() as u64;
            assert!(
                (lo..lo + 25).contains(&ms),
                "attempt {attempt}: {ms} ms outside [{lo}, {})",
                lo + 25
            );
            assert!(lo >= prev_lo, "base must be monotone non-decreasing");
            prev_lo = lo;
        }
        // Past the shift cap the base saturates at 2^10·base: attempts
        // 11, 12, 10^6 and u32::MAX all sit in the same envelope — no
        // shift overflow, no wrap back to short delays.
        let cap_lo = 25u64 << 10;
        for attempt in [11u32, 12, 100, 1_000_000, u32::MAX] {
            let ms = retry_delay(base, id, attempt).as_millis() as u64;
            assert!(
                (cap_lo..cap_lo + 25).contains(&ms),
                "attempt {attempt}: {ms} ms escaped the cap envelope"
            );
        }
        // attempt 0 (defensive: retries are 1-based) must not shift by
        // -1; it shares attempt 1's envelope.
        let ms = retry_delay(base, id, 0).as_millis() as u64;
        assert!((25..75).contains(&ms), "attempt 0: {ms} ms");
    }

    #[test]
    fn stderr_tail_is_bounded_by_lines_and_bytes() {
        // Line-count cap (short lines never hit the byte caps).
        let mut tail = VecDeque::new();
        for i in 0..200 {
            push_stderr_tail(&mut tail, format!("line {i}"));
        }
        assert_eq!(tail.len(), STDERR_TAIL_LINES);
        assert_eq!(tail.back().map(String::as_str), Some("line 199"));
        assert_eq!(tail.front().map(String::as_str), Some("line 150"));

        // One pathological multi-megabyte line is truncated with a
        // marker instead of swallowing the budget.
        let mut tail = VecDeque::new();
        push_stderr_tail(&mut tail, "x".repeat(5 * 1024 * 1024));
        assert_eq!(tail.len(), 1);
        let kept = tail.back().expect("kept line");
        assert!(
            kept.len() < STDERR_LINE_BYTES + 64,
            "kept {} bytes",
            kept.len()
        );
        assert!(
            kept.ends_with("bytes]"),
            "truncation marker missing: {kept:?}"
        );

        // Total bytes cap: many near-cap lines evict oldest-first and
        // the retained tail stays within the byte budget.
        let mut tail = VecDeque::new();
        for i in 0..100 {
            push_stderr_tail(&mut tail, format!("{i:04} {}", "y".repeat(1024)));
        }
        let bytes: usize = tail.iter().map(String::len).sum();
        assert!(bytes <= STDERR_TAIL_BYTES, "{bytes} bytes retained");
        assert!(
            tail.len() < STDERR_TAIL_LINES,
            "byte cap must bite first here"
        );
        assert!(tail.back().expect("newest").starts_with("0099"));

        // Truncation never splits a UTF-8 character.
        let mut tail = VecDeque::new();
        push_stderr_tail(&mut tail, "é".repeat(STDERR_LINE_BYTES));
        assert!(tail.back().expect("kept").is_char_boundary(0));
    }

    #[test]
    fn prune_quarantine_heals_and_deduplicates() {
        let q = |id: &str| Quarantined {
            job_id: id.to_string(),
            attempts: 3,
            error: "gave up".to_string(),
            stderr: vec![],
        };
        let prior = vec![
            q("healed"),
            q("still_bad"),
            q("superseded"),
            q("unparseable"),
        ];
        let current = vec![q("superseded")];
        let kept = prune_quarantine(prior, &current, |id| id == "healed" || id == "unparseable");
        let ids: Vec<&str> = kept.iter().map(|k| k.job_id.as_str()).collect();
        assert_eq!(ids, vec!["still_bad"]);
    }
}
