//! Warm-state checkpointing must be invisible in the results: a run
//! restored from a [`dca::WarmState`] ([`System::from_warm`]) has to
//! produce a byte-identical report to a cold run of the same
//! configuration, for every controller design, both organisations,
//! every main-memory backend, every replacement policy and trace-driven
//! mixes.

use dca::{Design, System, SystemConfig, SystemReport, WarmState};
use dca_cpu::{mix, Benchmark};
use dca_dram::Organization;
use dca_dram_cache::{OrgKind, ReplacementPolicy};

fn cfg(design: Design, org: OrgKind) -> SystemConfig {
    // Small but non-trivial: long enough that every request kind flows.
    SystemConfig::paper(design, org).scaled(25_000, 120_000)
}

/// Render every field of the report — integers and floats alike — so
/// "byte-identical" means exactly that. The timeline is `None` for all
/// runs here, so the Debug form is total.
fn report_bytes(r: &SystemReport) -> String {
    format!("{r:?}")
}

/// Run `c` cold and restored from `warm`, and require both reports to
/// be identical, by Debug bytes and by [`SystemReport::digest`].
/// Returns the cold report.
fn assert_restore_matches_cold(
    c: SystemConfig,
    benches: &[Benchmark],
    warm: &WarmState,
    what: &str,
) -> SystemReport {
    let cold = System::new(c, benches).run();
    let restored = System::from_warm(c, benches, warm).run();
    assert_eq!(
        report_bytes(&cold),
        report_bytes(&restored),
        "{what} restored diverged from cold"
    );
    assert_eq!(cold.digest(), restored.digest(), "{what} restored");
    cold
}

#[test]
fn restored_runs_match_cold_runs_for_all_designs_and_orgs() {
    let benches = mix(3).benches;
    for org in [OrgKind::DirectMapped, OrgKind::paper_set_assoc()] {
        // One capture per organisation, shared by all designs — the
        // exact reuse pattern the figure sweeps rely on.
        let warm = System::capture_warm(cfg(Design::Cd, org), &benches);
        for design in Design::ALL {
            let what = format!("{} {}", design.label(), org.label());
            assert_restore_matches_cold(cfg(design, org), &benches, &warm, &what);
        }
    }
}

#[test]
fn restored_runs_match_cold_runs_under_every_replacement_policy() {
    // On the paper geometry no set fills at this scale, so the tests
    // above restore only fresh replacement state. A stacked DRAM of 512
    // row frames (2,048 sets of 15 ways) makes warm-up evict, so each
    // restored state carries aged RRPVs or LRU stack positions.
    let benches = mix(3).benches;
    let mut digests: Vec<(ReplacementPolicy, u64)> = Vec::new();
    for policy in ReplacementPolicy::ALL {
        let mut c = cfg(Design::Dca, OrgKind::paper_set_assoc());
        c.dram_org = Organization {
            rows_per_bank: 8,
            ..Organization::paper()
        };
        c.replacement = policy;
        let warm = System::capture_warm(c, &benches);
        let what = format!("DCA SA {}", policy.label());
        let cold = assert_restore_matches_cold(c, &benches, &warm, &what);
        // Distinct reports show the policies chose different victims,
        // so this geometry does put the sets under pressure.
        for &(other, digest) in &digests {
            assert_ne!(cold.digest(), digest, "{policy:?} ran like {other:?}");
        }
        digests.push((policy, cold.digest()));
    }
}

#[test]
fn cycle_main_memory_restored_runs_match_cold_runs() {
    // The cycle-level main-memory backends are pure timing-phase
    // devices: a warm state captured under the *flat* backend must drive
    // a DDR4 or a 3DXPoint run to a byte-identical report vs a cold run
    // for every design and both organisations.
    use dca_mem_hier::MainMemConfig;
    let benches = mix(3).benches;
    for org in [OrgKind::DirectMapped, OrgKind::paper_set_assoc()] {
        let warm = System::capture_warm(cfg(Design::Cd, org), &benches);
        for (backend, main_mem) in [
            ("ddr4", MainMemConfig::ddr4()),
            ("xpoint", MainMemConfig::xpoint()),
        ] {
            for design in Design::ALL {
                let mut c = cfg(design, org);
                c.main_mem = main_mem;
                let what = format!("{} {} {backend}", design.label(), org.label());
                let cold = assert_restore_matches_cold(c, &benches, &warm, &what);
                assert_eq!(cold.main_mem.backend, "cycle");
            }
        }
    }
}

#[test]
fn remapped_run_restores_from_unmapped_capture() {
    // The bank remap permutes banks only; (set, tag) placement — all
    // warm-up touches — is mapping-independent, so one capture must
    // serve both mappings bit-for-bit.
    let benches = [Benchmark::Libquantum, Benchmark::Lbm];
    let base = cfg(Design::Dca, OrgKind::DirectMapped);
    let warm = System::capture_warm(base, &benches);
    let mut remapped = base;
    remapped.mapping = dca_dram::MappingScheme::XorRemap;
    let cold = System::new(remapped, &benches).run();
    let restored = System::from_warm(remapped, &benches, &warm).run();
    assert_eq!(report_bytes(&cold), report_bytes(&restored));
}

#[test]
fn trace_driven_restored_runs_match_cold_runs() {
    // The trace front-end must be a full citizen of warm-state
    // checkpointing: a mix containing trace-replay cores restores from
    // a capture to a byte-identical report, for every design.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/libquantum_2800.dcat"
    );
    let trace = dca_cpu::register_trace_file(fixture).expect("register fixture");
    let benches = [trace, Benchmark::Mcf];
    let warm = System::capture_warm(cfg(Design::Cd, OrgKind::DirectMapped), &benches);
    for design in Design::ALL {
        let c = cfg(design, OrgKind::DirectMapped);
        let cold = System::new(c, &benches).run();
        let restored = System::from_warm(c, &benches, &warm).run();
        assert_eq!(
            report_bytes(&cold),
            report_bytes(&restored),
            "{} trace-driven restored run diverged from cold",
            design.label()
        );
    }
}
