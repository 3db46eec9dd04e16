//! Warm-state checkpointing must be invisible in the results: a run
//! restored from a [`WarmState`] has to produce a byte-identical report
//! to a cold run of the same configuration — for every controller
//! design, both organisations, and across the on-disk codec — and
//! component `snapshot → restore` must round-trip exactly.

use dca::{Design, System, SystemConfig, SystemReport, WarmState};
use dca_cpu::{mix, Benchmark};
use dca_dram_cache::{OrgKind, TagArray};
use dca_mem_hier::SramCache;
use dca_sim_core::{ByteReader, ByteWriter};
use proptest::prelude::*;

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

#[test]
fn restored_runs_match_cold_runs_for_all_designs_and_orgs() {
    let benches = mix(3).benches;
    for org in [OrgKind::DirectMapped, OrgKind::paper_set_assoc()] {
        // One capture per organisation, shared by all three designs —
        // the exact reuse pattern the figure sweeps rely on.
        let warm = System::capture_warm(cfg(Design::Cd, org), &benches);
        for design in Design::ALL {
            let c = cfg(design, org);
            let cold = System::new(c, &benches).run();
            let restored = System::from_warm(c, &benches, &warm).run();
            assert_eq!(
                report_bytes(&cold),
                report_bytes(&restored),
                "{} {} restored run diverged from cold",
                design.label(),
                org.label()
            );
        }
    }
}

#[test]
fn cycle_main_memory_restored_runs_match_cold_runs() {
    // The cycle-level main-memory backends are pure timing-phase
    // devices: a warm state captured under the *flat* backend must drive
    // a DDR4 or a 3DXPoint run to a byte-identical report vs a cold run
    // — in memory and through the on-disk codec — for every design.
    use dca_mem_hier::MainMemConfig;
    let benches = mix(3).benches;
    let flat_cfg = cfg(Design::Cd, OrgKind::DirectMapped);
    let warm = System::capture_warm(flat_cfg, &benches);
    let decoded = WarmState::decode(&warm.encode()).expect("decode");
    for (backend, main_mem) in [
        ("ddr4", MainMemConfig::ddr4()),
        ("xpoint", MainMemConfig::xpoint()),
    ] {
        for design in Design::ALL {
            let mut c = cfg(design, OrgKind::DirectMapped);
            c.main_mem = main_mem;
            let cold = System::new(c, &benches).run();
            assert_eq!(cold.main_mem.backend, "cycle");
            let restored = System::from_warm(c, &benches, &warm).run();
            assert_eq!(
                report_bytes(&cold),
                report_bytes(&restored),
                "{} {backend} restored run diverged from cold",
                design.label()
            );
            let redecoded = System::from_warm(c, &benches, &decoded).run();
            assert_eq!(
                report_bytes(&cold),
                report_bytes(&redecoded),
                "{} {backend} codec-restored run diverged from cold",
                design.label()
            );
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
    // a capture — in memory *and* through the on-disk codec — to a
    // byte-identical report, for every design.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/libquantum_2800.dcat"
    );
    let trace = dca_cpu::register_trace_file(fixture).expect("register fixture");
    let benches = [trace, Benchmark::Mcf];
    let warm = System::capture_warm(cfg(Design::Cd, OrgKind::DirectMapped), &benches);
    let decoded = WarmState::decode(&warm.encode()).expect("decode");
    assert_eq!(decoded.fingerprint(), warm.fingerprint());
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
        let redecoded = System::from_warm(c, &benches, &decoded).run();
        assert_eq!(
            report_bytes(&cold),
            report_bytes(&redecoded),
            "{} trace-driven codec-restored run diverged from cold",
            design.label()
        );
    }
}

#[test]
fn codec_round_trip_preserves_run_equivalence() {
    // Cold run vs a run restored from a decode(encode(state)) blob —
    // the full on-disk path, not just the in-memory clone.
    let benches = [Benchmark::Gcc, Benchmark::Mcf];
    let c = cfg(Design::Rod, OrgKind::DirectMapped);
    let warm = System::capture_warm(c, &benches);
    let decoded = WarmState::decode(&warm.encode()).expect("decode");
    let cold = System::new(c, &benches).run();
    let restored = System::from_warm(c, &benches, &decoded).run();
    assert_eq!(report_bytes(&cold), report_bytes(&restored));
}

proptest! {
    /// `snapshot → restore` rewinds an `SramCache` exactly: replaying
    /// the same op suffix from the snapshot yields identical hits,
    /// evictions and statistics, no matter what happened in between.
    #[test]
    fn sram_snapshot_restore_round_trips(
        prefix in prop::collection::vec((0u64..512, any::<bool>()), 0..300),
        suffix in prop::collection::vec((0u64..512, any::<bool>()), 1..300),
        noise in prop::collection::vec((0u64..512, any::<bool>()), 0..100)
    ) {
        let mut cache = SramCache::new(64 * 64, 4);
        for &(block, w) in &prefix {
            if !cache.probe(block, w) {
                cache.allocate(block, w);
            }
        }
        let snap = cache.snapshot();
        let replay = |c: &mut SramCache| -> Vec<(bool, Option<(u64, bool)>)> {
            suffix
                .iter()
                .map(|&(block, w)| {
                    let hit = c.probe(block, w);
                    let evicted = (!hit).then(|| c.allocate(block, w)).flatten();
                    (hit, evicted)
                })
                .collect()
        };
        let reference = replay(&mut cache);
        // Diverge arbitrarily, then rewind.
        for &(block, w) in &noise {
            cache.probe(block, w);
            cache.allocate(block, w);
        }
        cache.restore(&snap);
        prop_assert_eq!(&replay(&mut cache), &reference);
        prop_assert_eq!(
            cache.stats().accesses.get(),
            snap.stats().accesses.get() + suffix.len() as u64
        );
    }

    /// Same property for the DRAM-cache `TagArray`, additionally through
    /// the binary codec: decode(encode(snapshot)) behaves identically.
    #[test]
    fn tag_array_snapshot_restore_round_trips(
        prefix in prop::collection::vec((0u64..64, 0u32..128, any::<bool>()), 0..300),
        suffix in prop::collection::vec((0u64..64, 0u32..128, any::<bool>()), 1..300)
    ) {
        let mut tags = TagArray::new(64, 4);
        for &(set, tag, dirty) in &prefix {
            match tags.lookup(set, tag) {
                Some(w) => tags.touch(set, w),
                None => {
                    tags.insert(set, tag, dirty);
                }
            }
        }
        let snap = tags.snapshot();
        let mut w = ByteWriter::new();
        snap.encode(&mut w);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        let mut decoded = TagArray::decode(&mut r).expect("decode");
        r.finish().expect("fully consumed");

        // Per-op observation: (lookup outcome, predicted victim way).
        type TagStep = (Option<u16>, (u16, Option<(u32, bool)>));
        let replay = |t: &mut TagArray| -> Vec<TagStep> {
            suffix
                .iter()
                .map(|&(set, tag, dirty)| {
                    let found = t.lookup(set, tag);
                    let victim = t.victim_way(set);
                    match found {
                        Some(way) => t.set_dirty(set, way, dirty),
                        None => {
                            t.insert(set, tag, dirty);
                        }
                    }
                    (found, victim)
                })
                .collect()
        };
        let reference = replay(&mut tags);
        // Wreck the live array, rewind, and also replay the decoded twin.
        for set in 0..64 {
            tags.insert(set, 9999, true);
        }
        tags.restore(&snap);
        prop_assert_eq!(&replay(&mut tags), &reference);
        prop_assert_eq!(&replay(&mut decoded), &reference);
    }
}
