//! Process-wide cache of [`WarmState`] checkpoints, so every design and
//! remap variant of a `(mix, org, warmup, seed)` tuple in a sweep pays
//! for exactly one functional warm-up.
//!
//! Lookup is keyed by [`WarmState::fingerprint_for`]; concurrent
//! requests for the *same* key rendezvous on a per-key [`OnceLock`]
//! (one thread warms, the rest block on that key only), while requests
//! for different keys warm in parallel — exactly what
//! [`run_parallel`](crate::run_parallel) sweeps need.
//!
//! The cache is bounded (insertion-order eviction; a warm state for the
//! default organisation is tens of MB) and optionally persisted:
//!
//! * `DCA_WARM=0` — disable warm reuse entirely; every run warms cold.
//! * `DCA_WARM_CAP=n` — keep at most `n` states in memory (default 48,
//!   sized to one organisation's full paper-scale pass; see
//!   `DEFAULT_CAP`).
//! * `DCA_WARM_PERSIST=1` — also write/read blobs under `results/warm/`.
//! * `DCA_WARM_DIR=path` — persist under `path` instead.
//!
//! Every `DCA_WARM*` knob is **latched once, at cache construction**
//! (for the shared instance: first use of [`WarmCache::global`]).
//! Flipping the environment mid-process can therefore never split one
//! sweep into cached and cold halves — a sweep sees exactly the policy
//! it started under.
//!
//! On-disk blobs are validated by magic, format version, digest *and*
//! fingerprint before use (see `dca::warm` for the format and the
//! invalidation rules); anything stale, truncated or corrupt — e.g. a
//! blob torn by a crashed writer — is logged as a warning and treated
//! as a cache miss, falling back to a cold warm-up rather than an
//! error. Writers stage into a uniquely named temp file and atomically
//! rename it into place, so concurrent `run_parallel` workers (or
//! whole processes) persisting the same fingerprint can never
//! interleave partial writes into one visible blob — reuse can only
//! ever be a cache hit of the exact bytes a cold warm-up would
//! produce.
//!
//! ## Cross-process coordination
//!
//! When several *processes* share one `DCA_WARM_DIR` (the sharded
//! figure harness, `figures --jobs N`), atomic renames alone still let
//! two workers *build* the same warm-up concurrently — correct but
//! wasted work. A coarse **advisory lock file** (`<fp>.lock`, created
//! with `O_EXCL`) closes that hole: the first builder of a fingerprint
//! takes the lock, everyone else polls the blob path (**read → verify
//! → retry**) until the finished blob validates, the lock disappears
//! (then whoever re-acquires proceeds), or a deadline passes
//! (`DCA_WARM_LOCK_MS`, default 60 000) — at which point the waiter
//! shrugs and builds locally, because the lock is advisory and a
//! crashed holder must never wedge the sweep. Lock waits are counted
//! in [`WarmCacheStats::lock_waits`].
//!
//! The lock file carries its **owner's pid**: a waiter that finds the
//! owner dead (`/proc/<pid>` gone) reclaims the lock immediately
//! instead of sleeping out the full deadline — a worker killed
//! mid-warm-up costs the survivors one poll interval, not
//! `DCA_WARM_LOCK_MS` per waiter. Reclaims are counted in
//! [`WarmCacheStats::lock_reclaims`]; a lock whose content does not
//! parse as a pid (or a live-but-hung owner) still falls back to the
//! deadline. Waiters also bump a process-wide [`wait_ticks`] counter
//! each poll, which pool workers fold into their heartbeat `progress`
//! field — so a worker legitimately parked on another process's
//! warm-up keeps its job deadline alive (see `shard::pool`).
//!
//! ## Per-host warm directories
//!
//! Both the lock protocol and the reclaim heuristic are **per-host by
//! construction**: the warm directory is resolved against the process's
//! own filesystem (`results/warm/` under its cwd, or `DCA_WARM_DIR`),
//! and owner liveness is judged by the local `/proc` table — a pid is
//! only meaningful on the machine that minted it. Pointing processes on
//! two hosts at one network-shared `DCA_WARM_DIR` is therefore
//! unsupported (the pid check would judge foreign owners with the local
//! proc table); give each host its own directory.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use dca::{System, SystemConfig, WarmState};
use dca_cpu::Benchmark;
use dca_sim_core::FastHashMap;

/// Process-wide count of advisory-lock poll iterations, across every
/// cache instance. Strictly monotonic while a thread is *waiting* —
/// which is exactly when a pool worker looks stalled from the outside —
/// so `shard::pool` heartbeats report it as forward progress.
static WAIT_TICKS: AtomicU64 = AtomicU64::new(0);

/// Total warm-lock poll iterations this process has performed so far.
pub fn wait_ticks() -> u64 {
    WAIT_TICKS.load(Ordering::Relaxed)
}

/// Monotonic counters describing what the cache did so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarmCacheStats {
    /// Warm-ups actually executed.
    pub builds: u64,
    /// Lookups served from an already-resident state.
    pub hits: u64,
    /// States loaded from a valid on-disk blob.
    pub disk_loads: u64,
    /// Times this cache waited on another process's advisory lock.
    pub lock_waits: u64,
    /// Stale locks reclaimed because their owner pid was dead.
    pub lock_reclaims: u64,
}

/// One per-key rendezvous point: same-key builders serialise on the
/// `OnceLock`, everyone shares the resulting `Arc<WarmState>`.
type WarmSlot = Arc<OnceLock<Arc<WarmState>>>;

/// A bounded, fingerprint-keyed store of warm states.
pub struct WarmCache {
    /// Resident slots by fingerprint, plus insertion order for eviction.
    slots: Mutex<(FastHashMap<u64, WarmSlot>, VecDeque<u64>)>,
    cap: usize,
    disk_dir: Option<PathBuf>,
    /// `DCA_WARM` latched at construction: whether callers should reuse
    /// warm state at all.
    reuse: bool,
    /// How long to wait on another process's advisory build lock before
    /// giving up and building locally (`DCA_WARM_LOCK_MS`).
    lock_timeout: Duration,
    builds: AtomicU64,
    hits: AtomicU64,
    disk_loads: AtomicU64,
    lock_waits: AtomicU64,
    lock_reclaims: AtomicU64,
}

impl Default for WarmCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Default residency cap. Sized for the harness's worst working set:
/// figure sweeps are *design-major* (every design re-walks all mixes in
/// the same order), so the cap must cover one organisation's full
/// paper-scale pass — 30 mixes + 11 alone-IPC single-bench states = 41
/// keys — or a cyclic scan against a smaller FIFO yields zero reuse on
/// the second and later designs. 48 leaves headroom; at ~30 MB per
/// state that bounds residency near 1.4 GB at `DCA_FULL=1` (tune with
/// `DCA_WARM_CAP`; the default 8-mix scale stays under ~600 MB).
const DEFAULT_CAP: usize = 48;

/// Default advisory-lock wait (ms): generous against a slow builder,
/// small against a whole sweep's wall clock.
const DEFAULT_LOCK_MS: u64 = 60_000;

impl WarmCache {
    /// A cache configured from the environment (see module docs). All
    /// `DCA_WARM*` knobs are read here, exactly once — the returned
    /// cache's policy is immutable for its lifetime. A malformed knob
    /// warns (once, here) naming the offending value and the fallback
    /// used, instead of silently pretending it was never set.
    pub fn new() -> Self {
        let cap = match std::env::var("DCA_WARM_CAP") {
            Ok(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => n,
                Ok(_) => {
                    eprintln!(
                        "warning: DCA_WARM_CAP={v:?} must be a positive integer; \
                         using the default cap of {DEFAULT_CAP}"
                    );
                    DEFAULT_CAP
                }
                Err(_) => {
                    eprintln!(
                        "warning: DCA_WARM_CAP={v:?} is not an integer; \
                         using the default cap of {DEFAULT_CAP}"
                    );
                    DEFAULT_CAP
                }
            },
            Err(_) => DEFAULT_CAP,
        };
        let persist = match std::env::var("DCA_WARM_PERSIST") {
            Ok(v) if v == "1" => true,
            Ok(v) if v == "0" || v.is_empty() => false,
            Ok(v) => {
                eprintln!(
                    "warning: DCA_WARM_PERSIST={v:?} is neither \"0\" nor \"1\"; \
                     treating it as disabled (set DCA_WARM_PERSIST=1 to persist)"
                );
                false
            }
            Err(_) => false,
        };
        let disk_dir = std::env::var("DCA_WARM_DIR")
            .ok()
            .map(PathBuf::from)
            .or_else(|| persist.then(|| PathBuf::from("results/warm")));
        let reuse = match std::env::var("DCA_WARM") {
            Ok(v) if v == "0" => false,
            Ok(v) if v == "1" => true,
            Ok(v) => {
                eprintln!(
                    "warning: DCA_WARM={v:?} is neither \"0\" nor \"1\"; \
                     treating it as enabled (set DCA_WARM=0 to disable warm reuse)"
                );
                true
            }
            Err(_) => true,
        };
        let lock_ms = match std::env::var("DCA_WARM_LOCK_MS") {
            Ok(v) => match v.parse::<u64>() {
                Ok(ms) => ms,
                Err(_) => {
                    eprintln!(
                        "warning: DCA_WARM_LOCK_MS={v:?} is not an integer; \
                         using the default of {DEFAULT_LOCK_MS} ms"
                    );
                    DEFAULT_LOCK_MS
                }
            },
            Err(_) => DEFAULT_LOCK_MS,
        };
        Self::with_policy(cap, disk_dir, reuse).with_lock_timeout(Duration::from_millis(lock_ms))
    }

    /// A cache with an explicit policy, bypassing the environment
    /// (tests and embedders that must not depend on process-global
    /// state).
    pub fn with_policy(cap: usize, disk_dir: Option<PathBuf>, reuse: bool) -> Self {
        WarmCache {
            slots: Mutex::new((FastHashMap::default(), VecDeque::new())),
            cap: cap.max(1),
            disk_dir,
            reuse,
            lock_timeout: Duration::from_millis(DEFAULT_LOCK_MS),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            disk_loads: AtomicU64::new(0),
            lock_waits: AtomicU64::new(0),
            lock_reclaims: AtomicU64::new(0),
        }
    }

    /// Override the advisory-lock wait deadline (tests mostly).
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// The process-wide shared instance. Environment knobs are latched
    /// the first time this is called and never re-read.
    pub fn global() -> &'static WarmCache {
        static GLOBAL: OnceLock<WarmCache> = OnceLock::new();
        GLOBAL.get_or_init(WarmCache::new)
    }

    /// Whether warm reuse is enabled for this cache (`DCA_WARM=0` at
    /// construction opts out; anything else opts in).
    pub fn reuse_enabled(&self) -> bool {
        self.reuse
    }

    /// Whether warm reuse is enabled for the process-wide instance.
    /// Latched once at [`WarmCache::global`] construction: flipping
    /// `DCA_WARM` mid-process cannot make one sweep mix cached and
    /// cold runs.
    pub fn enabled() -> bool {
        Self::global().reuse_enabled()
    }

    /// Counters so far.
    pub fn stats(&self) -> WarmCacheStats {
        WarmCacheStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            disk_loads: self.disk_loads.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            lock_reclaims: self.lock_reclaims.load(Ordering::Relaxed),
        }
    }

    /// The warm state for `(cfg, benches)`, built (or disk-loaded) on
    /// first request and shared thereafter.
    pub fn get_or_build(&self, cfg: &SystemConfig, benches: &[Benchmark]) -> Arc<WarmState> {
        let fp = WarmState::fingerprint_for(cfg, benches);
        let slot = {
            let mut guard = self.slots.lock().unwrap();
            let (map, order) = &mut *guard;
            if let Some(slot) = map.get(&fp) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                slot.clone()
            } else {
                let slot = Arc::new(OnceLock::new());
                map.insert(fp, slot.clone());
                order.push_back(fp);
                // Bound residency; in-flight users keep their Arc alive.
                while map.len() > self.cap {
                    if let Some(old) = order.pop_front() {
                        map.remove(&old);
                    }
                }
                slot
            }
        };
        slot.get_or_init(|| {
            let guard = match self.disk_coordinate(fp) {
                DiskOutcome::Loaded(state) => {
                    self.disk_loads.fetch_add(1, Ordering::Relaxed);
                    return Arc::new(state);
                }
                DiskOutcome::Build(guard) => guard,
            };
            self.builds.fetch_add(1, Ordering::Relaxed);
            let state = System::capture_warm(*cfg, benches);
            self.try_disk_store(&state);
            // Release the advisory lock only after the blob is visible,
            // so a waiter that sees the lock vanish finds the result.
            drop(guard);
            Arc::new(state)
        })
        .clone()
    }

    /// Decide how to satisfy a miss when a disk pool is configured:
    /// load an existing blob, wait out another process's build
    /// (read → verify → retry under the advisory lock), or build
    /// locally — holding the lock when we could get it, lock-free when
    /// the wait deadline passed (the lock is advisory; a crashed
    /// holder must never wedge the sweep).
    fn disk_coordinate(&self, fp: u64) -> DiskOutcome {
        let Some(path) = self.blob_path(fp) else {
            return DiskOutcome::Build(None);
        };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let lock_path = path.with_extension("lock");
        let deadline = Instant::now() + self.lock_timeout;
        let mut waited = false;
        loop {
            // quiet after the first pass: while polling, a not-yet-
            // complete or not-yet-replaced blob is expected, not news.
            if let Some(state) = self.try_disk_load_impl(fp, waited) {
                return DiskOutcome::Loaded(state);
            }
            match LockGuard::try_acquire(&lock_path) {
                Acquire::Held(guard) => {
                    // We own the build — but re-check the blob once
                    // more: the previous holder may have finished
                    // storing between our read and our acquisition
                    // (read-verify-retry).
                    if let Some(state) = self.try_disk_load_impl(fp, true) {
                        return DiskOutcome::Loaded(state);
                    }
                    return DiskOutcome::Build(Some(guard));
                }
                Acquire::Busy => {
                    // A lock whose recorded owner is dead will never be
                    // released; reclaim it now instead of sleeping out
                    // the deadline. (A waiter could in principle read a
                    // stale pid just as a new live owner re-creates the
                    // file — the lock is advisory, so the worst case is
                    // one duplicated warm-up, never corruption: blobs
                    // land via exclusive-temp + atomic rename.)
                    if lock_owner_is_dead(&lock_path) && std::fs::remove_file(&lock_path).is_ok() {
                        self.lock_reclaims.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "warning: warm lock {} was held by a dead process; reclaimed it",
                            lock_path.display()
                        );
                        continue;
                    }
                }
                // An unusable warm dir must degrade to an immediate
                // cold build, not a full lock-deadline sleep per key.
                Acquire::Unavailable => return DiskOutcome::Build(None),
            }
            if !waited {
                waited = true;
                self.lock_waits.fetch_add(1, Ordering::Relaxed);
            }
            if Instant::now() >= deadline {
                eprintln!(
                    "warning: warm lock {} still held after {:?}; building locally \
                     (the lock is advisory — a live-but-stuck holder cannot block this run)",
                    lock_path.display(),
                    self.lock_timeout
                );
                return DiskOutcome::Build(None);
            }
            WAIT_TICKS.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn blob_path(&self, fp: u64) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{fp:016x}.warm")))
    }

    /// Load and fully validate an on-disk blob. A missing file is a
    /// silent miss; a file that *exists* but fails validation
    /// (truncated, bit-rotted, torn, or carrying the wrong
    /// fingerprint) is a **logged** miss (unless `quiet`, used while
    /// polling another process's in-flight build) — the caller falls
    /// back to a cold warm-up instead of erroring, and the next store
    /// replaces the bad blob.
    fn try_disk_load_impl(&self, fp: u64, quiet: bool) -> Option<WarmState> {
        let path = self.blob_path(fp)?;
        let bytes = std::fs::read(&path).ok()?;
        match WarmState::decode(&bytes) {
            Ok(state) if state.fingerprint() == fp => Some(state),
            Ok(state) => {
                if !quiet {
                    eprintln!(
                        "warning: warm blob {} carries fingerprint {:#018x}, expected {:#018x}; \
                         ignoring it and warming cold",
                        path.display(),
                        state.fingerprint(),
                        fp
                    );
                }
                None
            }
            Err(e) => {
                if !quiet {
                    eprintln!(
                        "warning: warm blob {} is truncated or corrupt ({e}); \
                         ignoring it and warming cold",
                        path.display()
                    );
                }
                None
            }
        }
    }

    /// Best-effort persistence; I/O failure only costs future reuse.
    fn try_disk_store(&self, state: &WarmState) {
        let Some(path) = self.blob_path(state.fingerprint()) else {
            return;
        };
        if let Some(dir) = path.parent() {
            if std::fs::create_dir_all(dir).is_err() {
                return;
            }
        }
        // Exclusive staging + atomic rename: the temp name is unique
        // per (process, store) so two workers — threads or whole
        // processes — racing on the same fingerprint each write their
        // own complete file, and whichever renames last wins with a
        // whole blob. A reader can never observe a partial write.
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // Whether the write failed (partial file) or the rename did,
        // never leave the uniquely named staging file behind.
        if std::fs::write(&tmp, state.encode()).is_err() || std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// How a disk-backed miss gets satisfied.
enum DiskOutcome {
    /// A valid blob was (eventually) read.
    Loaded(WarmState),
    /// Build locally; the guard (if any) is the held advisory lock,
    /// released by the caller after the blob is stored.
    Build(Option<LockGuard>),
}

/// Holder of one `<fp>.lock` advisory file; best-effort removal on
/// drop. Creation uses `create_new` (O_EXCL), so exactly one process
/// can hold a given lock at a time.
struct LockGuard {
    path: PathBuf,
}

/// Outcome of one lock-acquisition attempt.
enum Acquire {
    /// We hold the lock.
    Held(LockGuard),
    /// Someone else holds it (`EEXIST`) — waiting is meaningful.
    Busy,
    /// The lock file cannot be created at all (missing/read-only dir,
    /// …) — waiting would spin until the deadline for nothing, so the
    /// caller should build immediately.
    Unavailable,
}

impl LockGuard {
    fn try_acquire(path: &std::path::Path) -> Acquire {
        use std::io::Write as _;
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
        {
            Ok(mut f) => {
                // Waiters parse this pid to reclaim the lock the moment
                // its owner dies (see `lock_owner_is_dead`).
                let _ = writeln!(f, "{}", std::process::id());
                Acquire::Held(LockGuard {
                    path: path.to_path_buf(),
                })
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Acquire::Busy,
            Err(_) => Acquire::Unavailable,
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether the pid recorded in a lock file belongs to a process that no
/// longer exists. Errs on the side of *alive*: an unreadable lock, a
/// pid that does not parse (older lock formats, torn writes), or a
/// platform without `/proc` all return `false`, leaving the
/// `DCA_WARM_LOCK_MS` deadline as the backstop.
fn lock_owner_is_dead(lock_path: &std::path::Path) -> bool {
    let Ok(text) = std::fs::read_to_string(lock_path) else {
        return false;
    };
    let Ok(pid) = text.trim().parse::<u32>() else {
        return false;
    };
    if cfg!(target_os = "linux") {
        !std::path::Path::new(&format!("/proc/{pid}")).exists()
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca::Design;
    use dca_dram_cache::OrgKind;

    fn tiny_cfg(seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped).scaled(5_000, 10_000);
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn lock_owner_liveness_is_judged_by_the_local_proc_table() {
        let dir = std::env::temp_dir().join(format!("dca_warm_lock_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lock = dir.join("fp.lock");
        // Our own pid is alive on this host.
        std::fs::write(&lock, format!("{}\n", std::process::id())).unwrap();
        assert!(!lock_owner_is_dead(&lock));
        // A pid beyond any realistic pid_max is dead — but only where a
        // /proc table exists to say so.
        std::fs::write(&lock, "999999999\n").unwrap();
        assert_eq!(lock_owner_is_dead(&lock), cfg!(target_os = "linux"));
        // Unparseable content and a missing file both err alive,
        // leaving the deadline as the backstop.
        std::fs::write(&lock, "not-a-pid\n").unwrap();
        assert!(!lock_owner_is_dead(&lock));
        std::fs::remove_file(&lock).unwrap();
        assert!(!lock_owner_is_dead(&lock));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_key_builds_once_and_shares() {
        let cache = WarmCache::new();
        let cfg = tiny_cfg(1);
        let benches = [Benchmark::Gcc];
        let a = cache.get_or_build(&cfg, &benches);
        let b = cache.get_or_build(&cfg, &benches);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!(s.builds, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn design_variants_share_one_warmup() {
        let cache = WarmCache::new();
        let benches = [Benchmark::Gcc];
        for design in Design::ALL {
            let mut cfg = tiny_cfg(2);
            cfg.design = design;
            cache.get_or_build(&cfg, &benches);
        }
        assert_eq!(
            cache.stats().builds,
            1,
            "one warm-up shared by all {} designs",
            Design::ALL.len()
        );
    }

    #[test]
    fn different_seeds_build_separately() {
        let cache = WarmCache::new();
        let benches = [Benchmark::Gcc];
        cache.get_or_build(&tiny_cfg(3), &benches);
        cache.get_or_build(&tiny_cfg(4), &benches);
        assert_eq!(cache.stats().builds, 2);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dca-warm-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn disk_persistence_round_trips_across_cache_instances() {
        let dir = scratch_dir("roundtrip");
        let cfg = tiny_cfg(20);
        let benches = [Benchmark::Gcc];
        let writer = WarmCache::with_policy(4, Some(dir.clone()), true);
        writer.get_or_build(&cfg, &benches);
        assert_eq!(writer.stats().builds, 1);
        // A fresh cache (think: next process) loads from disk, no build.
        let reader = WarmCache::with_policy(4, Some(dir.clone()), true);
        reader.get_or_build(&cfg, &benches);
        let s = reader.stats();
        assert_eq!((s.builds, s.disk_loads), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_blobs_fall_back_to_cold_warmup() {
        let dir = scratch_dir("corrupt");
        let cfg = tiny_cfg(21);
        let benches = [Benchmark::Gcc];
        let fp = dca::WarmState::fingerprint_for(&cfg, &benches);
        let blob_path = dir.join(format!("{fp:016x}.warm"));

        // Pure garbage where a blob should be.
        std::fs::write(&blob_path, b"not a warm state at all").expect("write garbage");
        let cache = WarmCache::with_policy(4, Some(dir.clone()), true);
        let state = cache.get_or_build(&cfg, &benches);
        let s = cache.stats();
        assert_eq!(
            (s.builds, s.disk_loads),
            (1, 0),
            "garbage blob must rebuild"
        );

        // The rebuild replaced the garbage with a valid blob.
        let healed = WarmCache::with_policy(4, Some(dir.clone()), true);
        assert!(Arc::ptr_eq(
            &healed.get_or_build(&cfg, &benches),
            &healed.get_or_build(&cfg, &benches)
        ));
        assert_eq!(healed.stats().disk_loads, 1, "store healed the blob");

        // A torn write: truncate the now-valid blob mid-payload.
        let bytes = std::fs::read(&blob_path).expect("read blob");
        std::fs::write(&blob_path, &bytes[..bytes.len() / 2]).expect("truncate");
        let torn = WarmCache::with_policy(4, Some(dir.clone()), true);
        let rebuilt = torn.get_or_build(&cfg, &benches);
        assert_eq!(torn.stats().builds, 1, "truncated blob must rebuild");
        assert_eq!(rebuilt.fingerprint(), state.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_v3_blob_downgrades_to_cold_warmup_without_poisoning() {
        // A warm pool written before the replacement-policy layer
        // (format v3) must not survive the v4 bump: the loader warns,
        // warms cold, and the store replaces the stale blob — the pool
        // heals instead of erroring or serving pre-policy tag state.
        let dir = scratch_dir("v3-downgrade");
        let cfg = tiny_cfg(22);
        let benches = [Benchmark::Gcc];
        let fp = dca::WarmState::fingerprint_for(&cfg, &benches);
        let blob_path = dir.join(format!("{fp:016x}.warm"));

        // Forge a v3-stamped blob with a valid digest — the exact
        // shape a pre-bump harness left behind, so only the version
        // check can reject it.
        let fresh = System::capture_warm(cfg, &benches).encode();
        let mut stale = fresh[..fresh.len() - 8].to_vec();
        stale[8..12].copy_from_slice(&3u32.to_le_bytes()); // version field
        let d = dca_sim_core::digest64(&stale);
        stale.extend_from_slice(&d.to_le_bytes());
        std::fs::write(&blob_path, &stale).expect("plant stale v3 blob");

        let cache = WarmCache::with_policy(4, Some(dir.clone()), true);
        let state = cache.get_or_build(&cfg, &benches);
        assert_eq!(state.fingerprint(), fp);
        let s = cache.stats();
        assert_eq!(
            (s.builds, s.disk_loads),
            (1, 0),
            "a stale v3 blob must fall back to a cold warm-up"
        );

        // The rebuild replaced the stale blob with a current-format
        // one, byte-identical to a fresh cold capture.
        let healed = std::fs::read(&blob_path).expect("blob present after heal");
        assert_eq!(healed, fresh, "store must heal the pool with a v4 blob");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_is_latched_at_construction() {
        // `with_policy` freezes the reuse decision; the instance cannot
        // be re-configured afterwards (the env equivalents are read
        // exactly once, in `new`).
        let on = WarmCache::with_policy(4, None, true);
        let off = WarmCache::with_policy(4, None, false);
        assert!(on.reuse_enabled());
        assert!(!off.reuse_enabled());
    }

    #[test]
    fn concurrent_caches_sharing_one_disk_dir_build_once() {
        // Two *independent* cache instances (stand-ins for two worker
        // processes) race on the same fingerprint in one DCA_WARM_DIR:
        // the advisory lock must let exactly one build while the other
        // waits and then loads the stored blob — no corruption, no
        // double warm-up.
        let dir = scratch_dir("advisory");
        let cfg = tiny_cfg(30);
        let benches = [Benchmark::Gcc];
        let a = WarmCache::with_policy(4, Some(dir.clone()), true);
        let b = WarmCache::with_policy(4, Some(dir.clone()), true);
        let (fa, fb) = std::thread::scope(|scope| {
            let ha = scope.spawn(|| a.get_or_build(&cfg, &benches).fingerprint());
            let hb = scope.spawn(|| b.get_or_build(&cfg, &benches).fingerprint());
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(fa, fb, "both instances must resolve the same state");
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(
            sa.builds + sb.builds,
            1,
            "exactly one build across the two instances (a={sa:?}, b={sb:?})"
        );
        assert_eq!(
            sa.disk_loads + sb.disk_loads,
            1,
            "the non-builder must load the builder's blob (a={sa:?}, b={sb:?})"
        );
        // The winning blob must be whole and reloadable.
        let fresh = WarmCache::with_policy(4, Some(dir.clone()), true);
        fresh.get_or_build(&cfg, &benches);
        assert_eq!(fresh.stats().disk_loads, 1, "blob survived the race intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_stale_lock_times_out_and_builds() {
        // A lock whose content is not a pid (older format, torn write)
        // cannot be liveness-checked, so it must fall back to the
        // deadline: delay, never block.
        let dir = scratch_dir("stale-lock");
        let cfg = tiny_cfg(31);
        let benches = [Benchmark::Gcc];
        let fp = dca::WarmState::fingerprint_for(&cfg, &benches);
        std::fs::write(dir.join(format!("{fp:016x}.lock")), b"not-a-pid\n")
            .expect("plant stale lock");
        let cache = WarmCache::with_policy(4, Some(dir.clone()), true)
            .with_lock_timeout(Duration::from_millis(200));
        let t0 = Instant::now();
        let state = cache.get_or_build(&cfg, &benches);
        assert_eq!(state.fingerprint(), fp);
        let s = cache.stats();
        assert_eq!(
            (s.builds, s.lock_waits, s.lock_reclaims),
            (1, 1, 0),
            "waited, then built"
        );
        assert!(
            t0.elapsed() >= Duration::from_millis(200),
            "must actually have waited out the deadline"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn stale_lock_from_dead_process_is_reclaimed_immediately() {
        // A worker killed mid-warm-up leaves its lock behind; because
        // the lock records the owner pid, waiters must reclaim it as
        // soon as they see the owner gone — NOT sleep out the (here:
        // prohibitive) DCA_WARM_LOCK_MS deadline.
        let dir = scratch_dir("dead-owner");
        let cfg = tiny_cfg(33);
        let benches = [Benchmark::Gcc];
        let fp = dca::WarmState::fingerprint_for(&cfg, &benches);

        // A real, genuinely dead pid: spawn a subprocess (this very
        // test binary, told to run a test that does not exist, so it
        // exits immediately) and reap it.
        let exe = std::env::current_exe().expect("test binary path");
        let child = std::process::Command::new(exe)
            .args(["--exact", "no_such_test_anywhere", "--test-threads", "1"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn short-lived subprocess");
        let dead_pid = child.id();
        child.wait_with_output().expect("reap subprocess");
        assert!(
            !std::path::Path::new(&format!("/proc/{dead_pid}")).exists(),
            "subprocess must be fully reaped"
        );

        std::fs::write(dir.join(format!("{fp:016x}.lock")), format!("{dead_pid}\n"))
            .expect("plant dead-owner lock");
        let cache = WarmCache::with_policy(4, Some(dir.clone()), true)
            .with_lock_timeout(Duration::from_secs(120));
        let t0 = Instant::now();
        let state = cache.get_or_build(&cfg, &benches);
        assert_eq!(state.fingerprint(), fp);
        let s = cache.stats();
        assert_eq!(s.builds, 1, "reclaimed, then built");
        assert_eq!(s.lock_reclaims, 1, "the dead owner's lock was reclaimed");
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "reclaim must not wait toward the 120 s deadline"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_disk_dir_builds_immediately_without_lock_wait() {
        // A warm dir that cannot exist (a path *under a plain file*)
        // must degrade to an immediate cold build — not spin out the
        // whole lock deadline for every fingerprint.
        let dir = scratch_dir("unusable");
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"file, not dir").expect("blocker file");
        let cache = WarmCache::with_policy(4, Some(blocker.join("warm")), true)
            .with_lock_timeout(Duration::from_secs(60));
        let t0 = Instant::now();
        cache.get_or_build(&tiny_cfg(32), &[Benchmark::Gcc]);
        let s = cache.stats();
        assert_eq!((s.builds, s.lock_waits), (1, 0), "built cold, no wait");
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "must not sleep toward the lock deadline"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_same_key_requests_build_once() {
        let cache = WarmCache::new();
        let cfg = tiny_cfg(5);
        let benches = [Benchmark::Gcc];
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.get_or_build(&cfg, &benches);
                });
            }
        });
        assert_eq!(cache.stats().builds, 1);
    }
}
