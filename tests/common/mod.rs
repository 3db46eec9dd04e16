//! A per-binary memo of simulations: a test binary runs each distinct
//! simulation once, and builds each warm state once.
//!
//! [`run`] returns the report of a configuration on a Table I mix. The
//! first call for a (configuration, mix) pair simulates it; later calls
//! return the same report. Each run restores from the warm state of its
//! `WarmState::fingerprint_for`, which [`WarmCache`] builds once with
//! `System::capture_warm`. A warm-restored run is bit-identical to a
//! cold `System::new` run (`tests/warm_checkpoint_equivalence.rs`), so
//! the memo changes no result.
//!
//! The harness runs tests on parallel threads. Each pair has its own
//! `OnceLock`, so distinct simulations run in parallel, and a second
//! caller of a pair waits for the first instead of repeating its work.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use dca::{System, SystemConfig, SystemReport};
use dca_bench::WarmCache;
use dca_cpu::mix;

/// The report of `cfg` on Table I mix `mix_id`, simulated once per
/// binary.
pub fn run(cfg: SystemConfig, mix_id: u32) -> SystemReport {
    type Cell = Arc<OnceLock<SystemReport>>;
    static RUNS: Mutex<BTreeMap<(String, u32), Cell>> = Mutex::new(BTreeMap::new());
    // The Debug form of a `SystemConfig` spells out every field.
    let key = (format!("{cfg:?}"), mix_id);
    let cell = Arc::clone(RUNS.lock().unwrap().entry(key).or_default());
    let report = cell.get_or_init(|| {
        let benches = mix(mix_id).benches;
        let warm = WarmCache::global().get_or_build(&cfg, &benches);
        System::from_warm(cfg, &benches, &warm).run()
    });
    report.clone()
}
