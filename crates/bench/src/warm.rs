//! Process-wide cache of [`WarmState`] checkpoints, so every design and
//! remap variant of a `(mix, org, warmup, seed)` tuple in a sweep pays
//! for exactly one functional warm-up.
//!
//! Lookup is keyed by [`WarmState::fingerprint_for`]; concurrent
//! requests for the *same* key rendezvous on a per-key [`OnceLock`]
//! (one thread warms, the rest block on that key only), while requests
//! for different keys warm in parallel — exactly what the threads of
//! [`shard::run_jobs`](crate::shard::run_jobs) need.
//!
//! ## Residency
//!
//! A warm state for the default organisation is tens of MB, so states
//! leave the cache two ways:
//!
//! * **Released by the sweep runner.** `shard::run_jobs` counts, before
//!   it starts, how many pending jobs request each state, and calls
//!   [`WarmCache::evict`] when the last of them finishes. Residency
//!   therefore follows the jobs in flight, and no state is dropped
//!   while a pending job still needs it, so no warm-up is built twice.
//! * **The cap**, a backstop for callers that never release: at most
//!   `DCA_WARM_CAP` states stay resident, evicted in insertion order.
//!
//! ## Knobs
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
//! rename it into place, so two writers of the same fingerprint (two
//! caches, or two runs sharing one `DCA_WARM_DIR`) can never interleave
//! partial writes into one visible blob — reuse can only ever be a
//! cache hit of the exact bytes a cold warm-up would produce.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dca::{System, SystemConfig, WarmState};
use dca_cpu::Benchmark;
use dca_sim_core::FastHashMap;

/// Monotonic counters describing what the cache did so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarmCacheStats {
    /// Warm-ups actually executed.
    pub builds: u64,
    /// Lookups served from an already-resident state.
    pub hits: u64,
    /// States loaded from a valid on-disk blob.
    pub disk_loads: u64,
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
    builds: AtomicU64,
    hits: AtomicU64,
    disk_loads: AtomicU64,
}

impl Default for WarmCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Default residency cap. Sized for the harness's worst working set
/// when nothing releases states: figure sweeps are *design-major*
/// (every design re-walks all mixes in the same order), so the cap must
/// cover one organisation's full paper-scale pass — 30 mixes + 11
/// alone-IPC single-bench states = 41 keys — or a cyclic scan against a
/// smaller FIFO yields zero reuse on the second and later designs. 48
/// leaves headroom; `shard::run_jobs` releases states long before it.
const DEFAULT_CAP: usize = 48;

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
        Self::with_policy(cap, disk_dir, reuse)
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
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            disk_loads: AtomicU64::new(0),
        }
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
            if let Some(state) = self.try_disk_load(fp) {
                self.disk_loads.fetch_add(1, Ordering::Relaxed);
                return Arc::new(state);
            }
            self.builds.fetch_add(1, Ordering::Relaxed);
            let state = System::capture_warm(*cfg, benches);
            self.try_disk_store(&state);
            Arc::new(state)
        })
        .clone()
    }

    /// Drop the state with `fingerprint` (a [`WarmState::fingerprint_for`]
    /// value) from the cache, if resident. Runs still holding it keep
    /// their `Arc`; the next request for it warms (or disk-loads) anew.
    pub fn evict(&self, fingerprint: u64) {
        let mut guard = self
            .slots
            .lock()
            .expect("no thread panics while holding the slot map");
        let (map, order) = &mut *guard;
        if map.remove(&fingerprint).is_some() {
            order.retain(|&fp| fp != fingerprint);
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
    /// fingerprint) is a **logged** miss — the caller falls back to a
    /// cold warm-up instead of erroring, and the next store replaces
    /// the bad blob.
    fn try_disk_load(&self, fp: u64) -> Option<WarmState> {
        let path = self.blob_path(fp)?;
        let bytes = std::fs::read(&path).ok()?;
        match WarmState::decode(&bytes) {
            Ok(state) if state.fingerprint() == fp => Some(state),
            Ok(state) => {
                eprintln!(
                    "warning: warm blob {} carries fingerprint {:#018x}, expected {:#018x}; \
                     ignoring it and warming cold",
                    path.display(),
                    state.fingerprint(),
                    fp
                );
                None
            }
            Err(e) => {
                eprintln!(
                    "warning: warm blob {} is truncated or corrupt ({e}); \
                     ignoring it and warming cold",
                    path.display()
                );
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
        // per (process, store) so two writers racing on the same
        // fingerprint each write their own complete file, and whichever
        // renames last wins with a whole blob. A reader can never
        // observe a partial write.
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
    fn unusable_disk_dir_builds_immediately_without_lock_wait() {
        // A warm dir that cannot exist (a path *under a plain file*)
        // must degrade to an immediate cold build, not an error.
        let dir = scratch_dir("unusable");
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"file, not dir").expect("blocker file");
        let cache = WarmCache::with_policy(4, Some(blocker.join("warm")), true);
        let cfg = tiny_cfg(32);
        let state = cache.get_or_build(&cfg, &[Benchmark::Gcc]);
        assert_eq!(
            state.fingerprint(),
            dca::WarmState::fingerprint_for(&cfg, &[Benchmark::Gcc])
        );
        let s = cache.stats();
        assert_eq!((s.builds, s.disk_loads), (1, 0), "built cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicted_state_stays_alive_for_its_holders_and_is_rebuilt_on_request() {
        let cache = WarmCache::with_policy(4, None, true);
        let cfg = tiny_cfg(6);
        let benches = [Benchmark::Gcc];
        let held = cache.get_or_build(&cfg, &benches);
        cache.evict(held.fingerprint());
        // Evicting an absent key is a no-op.
        cache.evict(held.fingerprint());
        // The holder's Arc is untouched; a new request warms anew.
        let again = cache.get_or_build(&cfg, &benches);
        assert!(!Arc::ptr_eq(&held, &again));
        assert_eq!(held.encode(), again.encode());
        let s = cache.stats();
        assert_eq!((s.builds, s.hits), (2, 0));
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
