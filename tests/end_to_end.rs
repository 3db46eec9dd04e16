//! End-to-end integration tests: every design × organisation combination
//! runs a multiprogrammed mix to completion with sane statistics.

use dca::{Design, System, SystemConfig, SystemReport};
use dca_cpu::{mix, Benchmark};
use dca_dram_cache::OrgKind;

fn run(design: Design, org: OrgKind, remap: bool, lee: bool) -> SystemReport {
    let mut cfg = if remap {
        SystemConfig::paper_remap(design, org)
    } else {
        SystemConfig::paper(design, org)
    };
    cfg.lee_writeback = lee;
    cfg.target_insts = 50_000;
    cfg.warmup_ops = 200_000;
    System::new(cfg, &mix(1).benches).run()
}

#[test]
fn all_design_org_combinations_complete() {
    for design in Design::ALL {
        for org in [OrgKind::paper_set_assoc(), OrgKind::DirectMapped] {
            let r = run(design, org, false, false);
            assert!(
                r.cores.iter().all(|c| c.insts >= 50_000),
                "{} {} did not finish",
                design.label(),
                org.label()
            );
            assert!(r.cores.iter().all(|c| c.ipc > 0.0 && c.ipc < 8.0));
        }
    }
}

#[test]
fn remap_variants_complete() {
    for design in Design::ALL {
        let r = run(design, OrgKind::DirectMapped, true, false);
        assert!(r.cores.iter().all(|c| c.insts >= 50_000));
    }
}

#[test]
fn lee_writeback_variants_complete() {
    for design in Design::ALL {
        let r = run(design, OrgKind::DirectMapped, false, true);
        assert!(r.cores.iter().all(|c| c.insts >= 50_000));
        assert!(
            r.writeback_requests > 0,
            "Lee policy must produce writebacks"
        );
    }
}

#[test]
fn request_traffic_is_consistent() {
    let r = run(Design::Cd, OrgKind::paper_set_assoc(), false, false);
    // Every demand miss eventually refills: refills <= misses (some may
    // be in flight at the end of simulation) and in the same ballpark.
    assert!(r.refill_requests <= r.cache_read_misses);
    assert!(
        r.refill_requests * 10 >= r.cache_read_misses * 8,
        "most misses refill: {} of {}",
        r.refill_requests,
        r.cache_read_misses
    );
    // Miss path reads main memory (plus MAP-I mispredicted prefetches).
    assert!(r.mem_reads >= r.cache_read_misses);
    // Channel read/write traffic exists on every channel.
    for (i, ch) in r.channels.iter().enumerate() {
        assert!(ch.reads > 0, "channel {i} saw no reads");
        assert!(ch.writes > 0, "channel {i} saw no writes");
    }
}

#[test]
fn set_assoc_does_more_accesses_per_request_than_direct_mapped() {
    // Fig 2: an SA read is up to 3 accesses, a DM read is one fused TAD.
    let sa = run(Design::Cd, OrgKind::paper_set_assoc(), false, false);
    let dm = run(Design::Cd, OrgKind::DirectMapped, false, false);
    let sa_accesses: u64 = sa.channels.iter().map(|c| c.reads + c.writes).sum();
    let dm_accesses: u64 = dm.channels.iter().map(|c| c.reads + c.writes).sum();
    let sa_reqs =
        sa.cache_read_hits + sa.cache_read_misses + sa.writeback_requests + sa.refill_requests;
    let dm_reqs =
        dm.cache_read_hits + dm.cache_read_misses + dm.writeback_requests + dm.refill_requests;
    let sa_ratio = sa_accesses as f64 / sa_reqs as f64;
    let dm_ratio = dm_accesses as f64 / dm_reqs as f64;
    assert!(
        sa_ratio > dm_ratio + 0.3,
        "SA must average more accesses per request: SA {sa_ratio:.2} vs DM {dm_ratio:.2}"
    );
}

#[test]
fn single_benchmark_runs_for_every_benchmark() {
    for bench in Benchmark::ALL {
        let mut cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        cfg.target_insts = 20_000;
        cfg.warmup_ops = 50_000;
        let r = System::new(cfg, &[bench]).run();
        assert!(r.cores[0].insts >= 20_000, "{} stalled", bench.name());
    }
}

#[test]
fn predictor_learns_the_workload() {
    let r = run(Design::Dca, OrgKind::DirectMapped, false, false);
    assert!(
        r.predictor_accuracy > 0.6,
        "MAP-I should beat coin flips, got {:.2}",
        r.predictor_accuracy
    );
}

#[test]
fn smallest_valid_queues_run_to_completion() {
    // The boundary sizes `SystemConfig::validate` accepts. One entry
    // fewer and the admission gate closes below the write drain's low
    // mark (write queue) or below DCA's ScheduleAll band (read queue),
    // and the run would poll forever.
    for m in [1, 7, 22] {
        for design in Design::ALL {
            let mut cfg = SystemConfig::paper(design, OrgKind::DirectMapped).scaled(10_000, 20_000);
            cfg.write_q_cap = 5;
            if design == Design::Dca {
                cfg.read_q_cap = 14;
            }
            assert_eq!(cfg.validate(), Ok(()));
            let r = System::new(cfg, &mix(m).benches).run();
            assert!(
                r.cores.iter().all(|c| c.insts >= 10_000),
                "{} on mix {m} did not finish",
                design.label()
            );
        }
    }
}
