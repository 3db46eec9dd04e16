//! The paper's headline shapes, asserted at reduced scale. These are the
//! acceptance tests of the reproduction: who wins, in which order, and
//! roughly by how much (each test's assertion states its margin;
//! `figures` renders the full tables under `results/`).
//!
//! These run 4-core simulations and are the slowest tests in the suite;
//! they use throughput (sum-of-IPC) speedups at a fixed mix set, which
//! tracks the weighted-speedup ordering at this scale.

use dca::{Design, System, SystemConfig};
use dca_cpu::mix;
use dca_dram_cache::OrgKind;

/// Sum-of-IPC over a couple of representative mixes.
fn throughput(design: Design, org: OrgKind) -> f64 {
    let mut total = 1.0;
    for mid in [1u32, 13] {
        let mut cfg = SystemConfig::paper(design, org);
        cfg.target_insts = 120_000;
        cfg.warmup_ops = 400_000;
        let r = System::new(cfg, &mix(mid).benches).run();
        total *= r.cores.iter().map(|c| c.ipc).sum::<f64>();
    }
    total.sqrt()
}

#[test]
fn dca_beats_cd_and_rod_direct_mapped() {
    let cd = throughput(Design::Cd, OrgKind::DirectMapped);
    let rod = throughput(Design::Rod, OrgKind::DirectMapped);
    let dca = throughput(Design::Dca, OrgKind::DirectMapped);
    // Fig 8 (DM): DCA ~ +20.8% over CD, ROD in between.
    assert!(
        dca > cd * 1.08,
        "DCA must clearly beat CD (DM): {dca:.3} vs {cd:.3}"
    );
    assert!(
        dca > rod * 1.05,
        "DCA must clearly beat ROD (DM): {dca:.3} vs {rod:.3}"
    );
    assert!(
        rod > cd * 0.95,
        "ROD must not collapse vs CD (DM): {rod:.3} vs {cd:.3}"
    );
}

#[test]
fn dca_beats_cd_and_rod_set_assoc() {
    let cd = throughput(Design::Cd, OrgKind::paper_set_assoc());
    let rod = throughput(Design::Rod, OrgKind::paper_set_assoc());
    let dca = throughput(Design::Dca, OrgKind::paper_set_assoc());
    // Fig 8 (SA): DCA ~ +16.4% over CD.
    assert!(
        dca > cd * 1.05,
        "DCA must beat CD (SA): {dca:.3} vs {cd:.3}"
    );
    assert!(
        dca > rod * 1.05,
        "DCA must beat ROD (SA): {dca:.3} vs {rod:.3}"
    );
}

#[test]
fn dca_gains_more_on_direct_mapped_than_set_assoc() {
    // §VI-A: "DCA provides more speedup in the direct-mapped design"
    // (the SA read queue holds 2 entries per read, pressuring the LR
    // buffering).
    let dm_gain = throughput(Design::Dca, OrgKind::DirectMapped)
        / throughput(Design::Cd, OrgKind::DirectMapped);
    let sa_gain = throughput(Design::Dca, OrgKind::paper_set_assoc())
        / throughput(Design::Cd, OrgKind::paper_set_assoc());
    assert!(
        dm_gain > sa_gain * 0.98,
        "DM gain {dm_gain:.3} should meet or exceed SA gain {sa_gain:.3}"
    );
}

#[test]
fn dca_keeps_its_lead_with_remapping() {
    // Fig 9: remapping mitigates RRC but not priority inversion, so DCA
    // still beats CD when both use the XOR remap.
    let run = |design: Design| {
        let mut cfg = SystemConfig::paper_remap(design, OrgKind::DirectMapped);
        cfg.target_insts = 120_000;
        cfg.warmup_ops = 400_000;
        let r = System::new(cfg, &mix(17).benches).run();
        r.cores.iter().map(|c| c.ipc).sum::<f64>()
    };
    let cd = run(Design::Cd);
    let dca = run(Design::Dca);
    assert!(
        dca > cd * 1.03,
        "DCA+remap must beat CD+remap: {dca:.3} vs {cd:.3}"
    );
}

#[test]
fn dca_keeps_its_lead_under_lee_writeback() {
    // Fig 19: DRAM-aware LLC writeback does not remove the tag-read
    // problem; DCA still wins (paper: ~7% DM).
    let run = |design: Design| {
        let mut cfg = SystemConfig::paper(design, OrgKind::DirectMapped);
        cfg.lee_writeback = true;
        cfg.target_insts = 120_000;
        cfg.warmup_ops = 400_000;
        let r = System::new(cfg, &mix(6).benches).run();
        r.cores.iter().map(|c| c.ipc).sum::<f64>()
    };
    let cd = run(Design::Cd);
    let dca = run(Design::Dca);
    assert!(
        dca > cd * 1.02,
        "LEE+DCA must beat LEE+CD: {dca:.3} vs {cd:.3}"
    );
}

#[test]
fn miss_latency_ordering_matches_fig12_13() {
    for org in [OrgKind::paper_set_assoc(), OrgKind::DirectMapped] {
        let lat = |design: Design| {
            let mut cfg = SystemConfig::paper(design, org);
            cfg.target_insts = 120_000;
            cfg.warmup_ops = 400_000;
            System::new(cfg, &mix(13).benches)
                .run()
                .l2_miss_latency
                .mean_ns()
        };
        let cd = lat(Design::Cd);
        let dca = lat(Design::Dca);
        assert!(
            dca < cd,
            "{}: DCA miss latency {dca:.1} must beat CD {cd:.1}",
            org.label()
        );
    }
}

#[test]
fn flushing_factor_is_insensitive_below_five() {
    // §IV-C: FF-1..FF-4 within ~1% of each other (allow 5% at this scale).
    let ws = |ff: u8| {
        let mut cfg = SystemConfig::paper(Design::Dca, OrgKind::paper_set_assoc());
        cfg.dca.flushing_factor = ff;
        cfg.target_insts = 100_000;
        cfg.warmup_ops = 400_000;
        let r = System::new(cfg, &mix(1).benches).run();
        r.cores.iter().map(|c| c.ipc).sum::<f64>()
    };
    let ff4 = ws(4);
    for ff in [1u8, 2, 3] {
        let v = ws(ff);
        assert!(
            (v / ff4 - 1.0).abs() < 0.05,
            "FF-{ff} deviates from FF-4: {v:.3} vs {ff4:.3}"
        );
    }
}
