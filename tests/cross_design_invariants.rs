//! Invariants that distinguish the three controller designs, checked on
//! live simulations (not unit fixtures): queue-placement consequences,
//! the PR/LR machinery, and turnaround behaviour. Simulations go through
//! the binary's memo (`common::run`), so each design × organisation cell
//! runs once.

mod common;

use dca::{Design, SystemConfig, SystemReport};
use dca_dram_cache::OrgKind;

fn run(design: Design, org: OrgKind) -> SystemReport {
    let mut cfg = SystemConfig::paper(design, org);
    cfg.target_insts = 80_000;
    cfg.warmup_ops = 400_000;
    common::run(cfg, 13)
}

#[test]
fn rod_turns_the_bus_around_far_more_than_cd() {
    // Figs 14/15: ROD processes roughly a third of CD's accesses per
    // turnaround, because its write queue mixes directions.
    for org in [OrgKind::paper_set_assoc(), OrgKind::DirectMapped] {
        let cd = run(Design::Cd, org);
        let rod = run(Design::Rod, org);
        assert!(
            cd.accesses_per_turnaround() > rod.accesses_per_turnaround() * 1.5,
            "{}: CD apt {:.2} vs ROD {:.2}",
            org.label(),
            cd.accesses_per_turnaround(),
            rod.accesses_per_turnaround()
        );
    }
}

#[test]
fn dca_batches_turnarounds_much_better_than_rod() {
    // Figs 14/15: DCA processes close to CD's accesses per turnaround.
    for org in [OrgKind::paper_set_assoc(), OrgKind::DirectMapped] {
        let dca = run(Design::Dca, org);
        let rod = run(Design::Rod, org);
        assert!(
            dca.accesses_per_turnaround() > rod.accesses_per_turnaround() * 1.2,
            "{}: DCA apt {:.2} vs ROD {:.2}",
            org.label(),
            dca.accesses_per_turnaround(),
            rod.accesses_per_turnaround()
        );
    }
}

#[test]
fn dca_uses_ofs_and_serves_both_classes() {
    let r = run(Design::Dca, OrgKind::paper_set_assoc());
    let ofs: u64 = r
        .channels
        .iter()
        .map(|c| c.ctrl.ofs_row_friendly.get() + c.ctrl.ofs_rrpc_cold.get())
        .sum();
    let lr: u64 = r.channels.iter().map(|c| c.ctrl.lr_served.get()).sum();
    assert!(ofs > 0, "OFS must fire");
    assert!(ofs <= lr, "OFS issues are a subset of LR services");
    // Most LRs should leave through OFS, not through ScheduleAll pressure.
    assert!(
        ofs * 2 > lr,
        "OFS should carry the bulk of LR flushing: {ofs} of {lr}"
    );
}

#[test]
fn dca_lrs_wait_longer_than_prs() {
    // The design's point: LRs are deferred, PRs go first.
    let r = run(Design::Dca, OrgKind::paper_set_assoc());
    let pr_wait: f64 = r.channels.iter().map(|c| c.ctrl.pr_wait_ns()).sum::<f64>() / 4.0;
    let lr_wait: f64 = r.channels.iter().map(|c| c.ctrl.lr_wait_ns()).sum::<f64>() / 4.0;
    assert!(
        lr_wait > pr_wait * 1.5,
        "LRs must be held back: pr {pr_wait:.0}ns lr {lr_wait:.0}ns"
    );
}

#[test]
fn cd_does_not_defer_lrs() {
    // Under CD the same accesses share one queue with no class bias, so
    // LR wait is comparable to PR wait (inversion, not deferral).
    let r = run(Design::Cd, OrgKind::paper_set_assoc());
    let pr_wait: f64 = r.channels.iter().map(|c| c.ctrl.pr_wait_ns()).sum::<f64>() / 4.0;
    let lr_wait: f64 = r.channels.iter().map(|c| c.ctrl.lr_wait_ns()).sum::<f64>() / 4.0;
    assert!(
        lr_wait < pr_wait * 3.0,
        "CD serves LRs in-line: pr {pr_wait:.0}ns lr {lr_wait:.0}ns"
    );
}

#[test]
fn dca_improves_pr_latency_over_cd() {
    // The mechanism behind Figs 12/13: priority reads wait less under DCA.
    for org in [OrgKind::paper_set_assoc(), OrgKind::DirectMapped] {
        let cd = run(Design::Cd, org);
        let dca = run(Design::Dca, org);
        let cd_pr: f64 = cd.channels.iter().map(|c| c.ctrl.pr_wait_ns()).sum::<f64>();
        let dca_pr: f64 = dca
            .channels
            .iter()
            .map(|c| c.ctrl.pr_wait_ns())
            .sum::<f64>();
        assert!(
            dca_pr < cd_pr,
            "{}: DCA PR wait {:.0} must beat CD {:.0}",
            org.label(),
            dca_pr / 4.0,
            cd_pr / 4.0
        );
    }
}

#[test]
fn forced_drains_happen_under_write_pressure() {
    for design in Design::ALL {
        let r = run(design, OrgKind::DirectMapped);
        let drains: u64 = r
            .channels
            .iter()
            .map(|c| c.ctrl.forced_drain_slots.get())
            .sum();
        assert!(drains > 0, "{} never force-drained", design.label());
    }
}
