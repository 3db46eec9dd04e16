//! Determinism regression across event-engine implementations.
//!
//! The calendar-queue engine replaced the original `BinaryHeap` engine on
//! the promise that `(time, insertion-seq)` delivery order — and hence
//! every simulation statistic — is preserved bit-for-bit. That promise
//! now covers four engines: the heap oracle, the fixed-width calendar
//! queue, the density-adaptive calendar queue, and the domain-sharded
//! engine at 1/2/4 threads. These tests hold it under the full system
//! model: the same seed must produce identical `SystemReport`s
//! run-to-run on each engine, *and* across the whole engine × design ×
//! organisation matrix.

use dca::{Design, EngineSel, System, SystemConfig, SystemReport};
use dca_cpu::mix;
use dca_dram_cache::OrgKind;

/// Every engine variant under test. The heap engine is the oracle the
/// others are compared against.
const ENGINES: [EngineSel; 6] = [
    EngineSel::Heap,
    EngineSel::Calendar,
    EngineSel::CalendarAdaptive,
    EngineSel::Sharded { threads: 1 },
    EngineSel::Sharded { threads: 2 },
    EngineSel::Sharded { threads: 4 },
];

fn engine_label(e: EngineSel) -> String {
    e.token()
}

fn run(design: Design, org: OrgKind, engine: EngineSel, seed: u64) -> SystemReport {
    let mut cfg = SystemConfig::paper(design, org);
    cfg.target_insts = 40_000;
    cfg.warmup_ops = 150_000;
    cfg.seed = seed;
    cfg.engine = engine;
    System::new(cfg, &mix(3).benches).run()
}

#[test]
fn same_engine_same_seed_identical() {
    for engine in ENGINES {
        let a = run(Design::Dca, OrgKind::DirectMapped, engine, 11);
        let b = run(Design::Dca, OrgKind::DirectMapped, engine, 11);
        assert_eq!(
            a.digest(),
            b.digest(),
            "{} engine is not reproducible",
            engine_label(engine)
        );
    }
}

#[test]
fn all_engines_agree_bit_for_bit_all_designs() {
    for design in Design::ALL {
        let oracle = run(design, OrgKind::DirectMapped, EngineSel::Heap, 11);
        let oracle_fp = oracle.digest();
        for engine in ENGINES {
            if engine == EngineSel::Heap {
                continue;
            }
            let r = run(design, OrgKind::DirectMapped, engine, 11);
            assert_eq!(
                r.digest(),
                oracle_fp,
                "{} diverges from the heap oracle on {}",
                engine_label(engine),
                design.label()
            );
        }
    }
}

#[test]
fn all_engines_agree_set_assoc_and_other_seed() {
    let oracle = run(Design::Dca, OrgKind::paper_set_assoc(), EngineSel::Heap, 99);
    let oracle_fp = oracle.digest();
    for engine in ENGINES {
        let r = run(Design::Dca, OrgKind::paper_set_assoc(), engine, 99);
        assert_eq!(
            r.digest(),
            oracle_fp,
            "{} diverges on the set-associative organisation",
            engine_label(engine)
        );
    }
}

#[test]
fn calendar_slot_width_is_a_pure_perf_knob() {
    // The configurable bucket width must never leak into results: runs
    // at extreme widths (16 ps and 64 ns slots) match the default and
    // the heap engine bit-for-bit — on the fixed, adaptive (initial
    // width), and sharded (per-shard width) engines alike.
    let reference = run(Design::Dca, OrgKind::DirectMapped, EngineSel::Heap, 23);
    let reference_fp = reference.digest();
    for engine in [
        EngineSel::Calendar,
        EngineSel::CalendarAdaptive,
        EngineSel::Sharded { threads: 2 },
    ] {
        for shift in [4u32, 10, 16] {
            let mut cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
            cfg.target_insts = 40_000;
            cfg.warmup_ops = 150_000;
            cfg.seed = 23;
            cfg.engine = engine;
            cfg.event_slot_shift = shift;
            let r = System::new(cfg, &mix(3).benches).run();
            assert_eq!(
                r.digest(),
                reference_fp,
                "slot shift {shift} changed results on {}",
                engine_label(engine)
            );
        }
    }
}
