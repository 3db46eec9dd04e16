//! Process-wide cache of [`WarmState`] checkpoints, so every design and
//! remap variant of a `(mix, org, warmup, seed)` tuple run through
//! [`RunSpec::run_benches`](crate::RunSpec::run_benches) pays for
//! exactly one functional warm-up.
//!
//! Lookup is keyed by [`WarmState::fingerprint_for`]; concurrent
//! requests for the *same* key rendezvous on a per-key [`OnceLock`]
//! (one thread warms, the rest block on that key only), while requests
//! for different keys warm in parallel.
//!
//! The figure runner, [`shard::run_jobs`](crate::shard::run_jobs), does
//! not use this cache: it hands each thread a whole group of
//! simulations sharing one warm state, which the thread builds, reuses
//! and finally moves into the group's last run. The cache serves the
//! in-process callers of `run_benches` and `run_mix`, and the
//! integration tests' simulation memo (`tests/common/mod.rs`): tests
//! and [`shard::execute_job`](crate::shard::execute_job), the serial
//! reference for one job's result that perfbench's trace mode replays.
//!
//! ## Residency
//!
//! Warm states live only in this process: nothing writes them to disk
//! or reads them back. A warm state for the default organisation is
//! tens of MB, and nothing releases one once it is built, so the cap is
//! the only bound: at most `DCA_WARM_CAP` states stay resident, evicted
//! in insertion order. A run still holding an evicted state keeps its
//! `Arc`; the next request for it warms anew.
//!
//! ## Knobs
//!
//! * `DCA_WARM_CAP=n` — keep at most `n` states in memory (default 48;
//!   see `DEFAULT_CAP`). Read once, when the cache is constructed (for
//!   the shared instance: the first use of [`WarmCache::global`]). A
//!   malformed value warns on stderr and the default applies.

use std::collections::VecDeque;
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
}

/// One per-key rendezvous point: same-key builders serialise on the
/// `OnceLock`, everyone shares the resulting `Arc<WarmState>`.
type WarmSlot = Arc<OnceLock<Arc<WarmState>>>;

/// A bounded, fingerprint-keyed store of warm states.
pub struct WarmCache {
    /// Resident slots by fingerprint, plus insertion order for eviction.
    slots: Mutex<(FastHashMap<u64, WarmSlot>, VecDeque<u64>)>,
    cap: usize,
    builds: AtomicU64,
    hits: AtomicU64,
}

impl Default for WarmCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Default residency cap. A caller of `run_benches` that sweeps every
/// design over the same mixes (design-major, each design re-walking
/// the mixes in the same order) cycles through one organisation's keys:
/// at paper scale 30 mixes + 11 alone-IPC single-bench states = 41.
/// Against a smaller FIFO that cyclic scan yields zero reuse on the
/// second and later designs, so the cap covers it, with headroom.
const DEFAULT_CAP: usize = 48;

/// The cap a `DCA_WARM_CAP` value asks for, or the warning to print
/// (naming the value and the default used instead) when it is not a
/// positive integer.
fn parse_cap(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        Ok(_) => Err(format!(
            "DCA_WARM_CAP={value:?} must be a positive integer; \
             using the default cap of {DEFAULT_CAP}"
        )),
        Err(_) => Err(format!(
            "DCA_WARM_CAP={value:?} is not an integer; \
             using the default cap of {DEFAULT_CAP}"
        )),
    }
}

impl WarmCache {
    /// A cache capped by `DCA_WARM_CAP` (see module docs), read here,
    /// exactly once. A malformed value warns, naming the value and the
    /// default used instead, rather than silently pretending it was
    /// never set.
    pub fn new() -> Self {
        let cap = match std::env::var("DCA_WARM_CAP") {
            Ok(v) => parse_cap(&v).unwrap_or_else(|warning| {
                eprintln!("warning: {warning}");
                DEFAULT_CAP
            }),
            Err(_) => DEFAULT_CAP,
        };
        Self::with_cap(cap)
    }

    /// A cache holding at most `cap` states, bypassing the environment
    /// (tests and embedders that must not depend on process-global
    /// state).
    pub fn with_cap(cap: usize) -> Self {
        WarmCache {
            slots: Mutex::new((FastHashMap::default(), VecDeque::new())),
            cap: cap.max(1),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The process-wide shared instance. `DCA_WARM_CAP` is read the
    /// first time this is called and never re-read.
    pub fn global() -> &'static WarmCache {
        static GLOBAL: OnceLock<WarmCache> = OnceLock::new();
        GLOBAL.get_or_init(WarmCache::new)
    }

    /// Counters so far.
    pub fn stats(&self) -> WarmCacheStats {
        WarmCacheStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// The warm state for `(cfg, benches)`, built on first request and
    /// shared thereafter.
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
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(System::capture_warm(*cfg, benches))
        })
        .clone()
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

    #[test]
    fn malformed_cap_values_warn_and_fall_back_to_the_default() {
        assert_eq!(parse_cap("7"), Ok(7));
        let warning = parse_cap("abc").expect_err("not an integer");
        assert!(
            warning.contains("DCA_WARM_CAP=\"abc\" is not an integer")
                && warning.contains(&format!("default cap of {DEFAULT_CAP}")),
            "{warning}"
        );
        let warning = parse_cap("0").expect_err("not positive");
        assert!(
            warning.contains("DCA_WARM_CAP=\"0\" must be a positive integer")
                && warning.contains(&format!("default cap of {DEFAULT_CAP}")),
            "{warning}"
        );
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
