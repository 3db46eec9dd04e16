//! The tier-generic main-memory refactor must be invisible when the
//! `FlatLatency` backend is selected: every run is **bit-identical to
//! the pre-refactor seed model**, locked here against fingerprints
//! captured from the seed simulator immediately before the refactor
//! (commit 8caf634, `SystemConfig::paper(..).scaled(25_000, 120_000)`
//! on Table I mix 3). With the cycle-level backend the same machinery
//! must run every design to completion, deterministically, under both
//! event engines.

use dca::{Design, System, SystemConfig};
use dca_cpu::mix;
use dca_dram_cache::{OrgKind, ReplacementPolicy};
use dca_mem_hier::MainMemConfig;

/// Seed-model fingerprints: (design, org, end_time_ps, events,
/// mem_reads, mem_writes, cache_read_hits, cache_read_misses,
/// writeback_requests, per-core (insts, cycles)).
#[allow(
    clippy::type_complexity,
    reason = "one flat tuple per golden row reads as a table"
)]
const SEED_GOLDEN: &[(&str, &str, u64, u64, u64, u64, u64, u64, u64, &[(u64, u64)])] = &[
    (
        "CD",
        "DM",
        48201078,
        41402,
        5892,
        4,
        206,
        5875,
        411,
        &[
            (25000, 192809),
            (25001, 129060),
            (25002, 173177),
            (25000, 174664),
        ],
    ),
    (
        "ROD",
        "DM",
        48583372,
        42760,
        5890,
        4,
        210,
        5875,
        413,
        &[
            (25000, 194338),
            (25001, 118551),
            (25002, 187583),
            (25000, 147642),
        ],
    ),
    (
        "DCA",
        "DM",
        41206800,
        40709,
        5891,
        5,
        209,
        5875,
        411,
        &[
            (25000, 164832),
            (25001, 106944),
            (25002, 152852),
            (25000, 148419),
        ],
    ),
    (
        "CD",
        "SA",
        38348120,
        47394,
        5883,
        0,
        214,
        5869,
        410,
        &[
            (25000, 153397),
            (25001, 99482),
            (25002, 141706),
            (25000, 99710),
        ],
    ),
    (
        "ROD",
        "SA",
        41981150,
        48541,
        5883,
        0,
        217,
        5869,
        413,
        &[
            (25000, 167929),
            (25001, 98015),
            (25002, 156746),
            (25000, 103720),
        ],
    ),
    (
        "DCA",
        "SA",
        35521240,
        47270,
        5883,
        0,
        215,
        5869,
        411,
        &[
            (25000, 142089),
            (25001, 84300),
            (25002, 132414),
            (25000, 89396),
        ],
    ),
];

fn design_of(label: &str) -> Design {
    match label {
        "CD" => Design::Cd,
        "ROD" => Design::Rod,
        "DCA" => Design::Dca,
        other => panic!("unknown design {other}"),
    }
}

fn org_of(label: &str) -> OrgKind {
    match label {
        "DM" => OrgKind::DirectMapped,
        "SA" => OrgKind::paper_set_assoc(),
        other => panic!("unknown org {other}"),
    }
}

#[test]
fn flat_backend_is_bit_identical_to_the_seed_model() {
    for &(design, org, end_ps, events, mr, mw, hits, misses, wbs, cores) in SEED_GOLDEN {
        let cfg = SystemConfig::paper(design_of(design), org_of(org)).scaled(25_000, 120_000);
        assert!(
            !cfg.main_mem.is_cycle(),
            "paper() must default to the flat seed backend"
        );
        let r = System::new(cfg, &mix(3).benches).run();
        let got_cores: Vec<(u64, u64)> = r.cores.iter().map(|c| (c.insts, c.cycles)).collect();
        assert_eq!(
            (
                r.end_time.ps(),
                r.events_processed,
                r.mem_reads,
                r.mem_writes,
                r.cache_read_hits,
                r.cache_read_misses,
                r.writeback_requests,
                got_cores.as_slice(),
            ),
            (end_ps, events, mr, mw, hits, misses, wbs, cores),
            "{design}/{org}: FlatLatency diverged from the seed model"
        );
        assert_eq!(r.main_mem.backend, "flat");
        assert_eq!(r.main_mem.reads, mr);
        assert_eq!(r.main_mem.writes, mw);
    }
}

#[test]
fn explicit_srrip_policy_is_bit_identical_to_the_seed_model() {
    // The replacement-policy layer must be a pure refactor for SRRIP:
    // spelling out the seed's hard-wired policy explicitly reproduces
    // the pre-refactor fingerprints bit for bit, for every existing
    // design on both organisations.
    for &(design, org, end_ps, events, mr, mw, hits, misses, wbs, cores) in SEED_GOLDEN {
        let mut cfg = SystemConfig::paper(design_of(design), org_of(org)).scaled(25_000, 120_000);
        assert_eq!(
            cfg.replacement,
            ReplacementPolicy::Srrip,
            "SRRIP must stay the default policy"
        );
        cfg.replacement = ReplacementPolicy::Srrip;
        let r = System::new(cfg, &mix(3).benches).run();
        let got_cores: Vec<(u64, u64)> = r.cores.iter().map(|c| (c.insts, c.cycles)).collect();
        assert_eq!(
            (
                r.end_time.ps(),
                r.events_processed,
                r.mem_reads,
                r.mem_writes,
                r.cache_read_hits,
                r.cache_read_misses,
                r.writeback_requests,
                got_cores.as_slice(),
            ),
            (end_ps, events, mr, mw, hits, misses, wbs, cores),
            "{design}/{org}: explicit SRRIP diverged from the seed model"
        );
    }
}

#[test]
fn cycle_backend_is_engine_independent() {
    // The cycle-level device's MemPump/MemArrive events must behave
    // identically under both engines: calendar (default) and heap.
    let mut cfg =
        SystemConfig::paper_cycle_mem(Design::Dca, OrgKind::DirectMapped).scaled(20_000, 80_000);
    let calendar = System::new(cfg, &mix(3).benches).run();
    assert_eq!(calendar.main_mem.backend, "cycle");
    cfg.engine = dca::EngineSel::Heap;
    let heap = System::new(cfg, &mix(3).benches).run();
    assert_eq!(
        calendar.digest(),
        heap.digest(),
        "cycle backend diverges under the heap engine"
    );
}

#[test]
fn bandwidth_divisor_monotonically_hurts() {
    // Dividing main-memory bandwidth can only slow a fixed workload
    // down (or leave it unchanged) — the sensitivity sweep's sanity
    // anchor.
    let run = |div: u32| {
        let mut cfg = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped).scaled(20_000, 80_000);
        cfg.main_mem = MainMemConfig::ddr4_bandwidth_div(div);
        System::new(cfg, &mix(3).benches).run()
    };
    let full = run(1);
    let quarter = run(4);
    assert!(
        quarter.end_time >= full.end_time,
        "quarter-bandwidth run finished earlier ({:?} < {:?})",
        quarter.end_time,
        full.end_time
    );
    assert!(full.mem_reads > 0);
}

#[test]
fn cycle_backend_reports_device_behaviour() {
    let cfg =
        SystemConfig::paper_cycle_mem(Design::Cd, OrgKind::DirectMapped).scaled(25_000, 120_000);
    let r = System::new(cfg, &mix(3).benches).run();
    let s = &r.main_mem;
    assert_eq!(s.backend, "cycle");
    assert_eq!(s.reads, r.mem_reads);
    assert_eq!(s.writes, r.mem_writes);
    assert!(s.reads > 1_000, "mix 3 misses heavily at this scale");
    assert!(
        s.row_hits + s.row_conflicts <= s.reads + s.writes,
        "row outcomes partition issued accesses"
    );
    assert!(s.row_hit_rate() >= 0.0 && s.row_hit_rate() <= 1.0);
    assert!(s.busy_ps > 0, "bursts occupy the data bus");
    assert!(s.peak_queue > 0, "bursty misses must queue");
}
