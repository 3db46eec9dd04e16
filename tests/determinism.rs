//! Bit-level reproducibility: identical configurations must produce
//! identical statistics, and different seeds must actually differ.

use dca::{Design, System, SystemConfig, SystemReport};
use dca_cpu::mix;
use dca_dram_cache::OrgKind;

fn run(seed: u64, design: Design) -> SystemReport {
    let mut cfg = SystemConfig::paper(design, OrgKind::paper_set_assoc());
    cfg.target_insts = 40_000;
    cfg.warmup_ops = 150_000;
    cfg.seed = seed;
    System::new(cfg, &mix(5).benches).run()
}

#[test]
fn identical_seeds_identical_results() {
    for design in Design::ALL {
        let a = run(7, design);
        let b = run(7, design);
        assert_eq!(
            a.digest(),
            b.digest(),
            "{} non-deterministic",
            design.label()
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(7, Design::Dca);
    let b = run(8, Design::Dca);
    assert_ne!(a.digest(), b.digest());
}

#[test]
fn designs_share_functional_workload() {
    // Same seed ⇒ same instruction streams ⇒ closely matching request
    // *counts* across designs (scheduling changes timing, and timing
    // feeds back into eviction order, so allow small drift).
    let a = run(7, Design::Cd);
    let b = run(7, Design::Dca);
    let reads_a = a.cache_read_hits + a.cache_read_misses;
    let reads_b = b.cache_read_hits + b.cache_read_misses;
    let drift = (reads_a as f64 - reads_b as f64).abs() / reads_a as f64;
    assert!(
        drift < 0.05,
        "demand-read counts should track closely: {} vs {}",
        reads_a,
        reads_b
    );
}
