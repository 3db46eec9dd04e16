//! End-to-end coverage of the trace-file workload front-end: the
//! checked-in fixture must round-trip bit-for-bit and reproduce from
//! its generator recipe, a trace-driven mix must run through the real
//! harness path (`RunSpec::run_mix` + warm-cache reuse) with results
//! identical to a cold run, and malformed inputs must surface as typed
//! errors, never panics.

use std::sync::Arc;

use dca::Design;
use dca_bench::{RunSpec, WarmCache};
use dca_cpu::{
    decode_trace, dump_synthetic, encode_trace, mix, register_mix, register_trace_bytes,
    register_trace_file, Benchmark, TraceEncoding, TraceError,
};
use dca_dram_cache::OrgKind;

/// The checked-in fixture (resolved relative to the suite crate, so
/// the tests pass from any working directory).
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/libquantum_2800.dcat"
);

/// The exact `tracegen-dump` invocation that produced the fixture.
const FIXTURE_BENCH: Benchmark = Benchmark::Libquantum;
const FIXTURE_OPS: u64 = 2_800;
const FIXTURE_SEED: u64 = 7;

fn harness_spec() -> RunSpec {
    // Explicit small scale: these tests must not depend on DCA_INSTS /
    // DCA_FULL in the environment.
    RunSpec {
        design: Design::Dca,
        org: OrgKind::DirectMapped,
        remap: false,
        lee: false,
        flushing_factor: 4,
        policy: dca_dram_cache::ReplacementPolicy::Srrip,
        main_mem: dca_bench::MainMemKind::Flat,
        insts: 20_000,
        warmup: 60_000,
        seed: 0xDCA_2016,
    }
}

#[test]
fn fixture_round_trips_bit_for_bit_and_reproduces_from_its_recipe() {
    let bytes = std::fs::read(FIXTURE).expect("fixture present");
    assert!(bytes.len() < 10 * 1024, "fixture must stay tiny");
    let records = decode_trace(&bytes).expect("fixture decodes");
    assert_eq!(records.len() as u64, FIXTURE_OPS);
    // decode → encode reproduces the exact file bytes.
    assert_eq!(encode_trace(&records, TraceEncoding::Delta), bytes);
    // The fixture is exactly `tracegen-dump libquantum 2800 --seed 7`:
    // anyone can regenerate it, and generator drift is caught here
    // rather than silently shipping a stale fixture.
    let regenerated = dump_synthetic(FIXTURE_BENCH, FIXTURE_OPS, FIXTURE_SEED);
    assert_eq!(regenerated, records, "fixture no longer matches its recipe");
    assert_eq!(encode_trace(&regenerated, TraceEncoding::Delta), bytes);
}

#[test]
fn trace_mix_runs_through_run_mix_with_warm_reuse() {
    let trace = register_trace_file(FIXTURE).expect("register fixture");
    let m = register_mix([trace, Benchmark::Mcf, Benchmark::Gcc, trace]);
    assert!(mix(m.id).benches[0].is_trace());
    let spec = harness_spec();

    // The real harness path: run_mix resolves the registered mix and
    // (by default) shares the functional warm-up through the global
    // WarmCache. Warm-cached and cold runs must be indistinguishable.
    let warm = spec.run_mix(m.id);
    let cold = spec.run_mix_cold(m.id);
    assert_eq!(
        format!("{warm:?}"),
        format!("{cold:?}"),
        "trace-driven warm-cached run must be bit-for-bit identical to cold"
    );
    assert!(warm.cores.iter().all(|c| c.insts >= spec.insts));
    assert_eq!(warm.cores[0].bench, trace.name());

    // Repeating the run hits the cache and stays deterministic.
    let again = spec.run_mix(m.id);
    assert_eq!(format!("{warm:?}"), format!("{again:?}"));
}

#[test]
fn trace_workloads_share_one_warmup_across_designs() {
    // The sweep-reuse property the warm cache exists for, now with a
    // trace workload in the mix: every design variant of the same
    // (benches, org, warmup, seed) tuple pays for one warm-up.
    let trace = register_trace_file(FIXTURE).expect("register fixture");
    let benches = [trace, Benchmark::Mcf];
    let cache = WarmCache::with_policy(4, None, true);
    let mut states = Vec::new();
    for design in Design::ALL {
        let mut spec = harness_spec();
        spec.design = design;
        states.push(cache.get_or_build(&spec.config(), &benches));
    }
    assert_eq!(cache.stats().builds, 1, "one warm-up for three designs");
    assert!(Arc::ptr_eq(&states[0], &states[1]));
    assert!(Arc::ptr_eq(&states[0], &states[2]));
}

#[test]
fn edited_trace_content_gets_a_fresh_warm_fingerprint() {
    // Warm-state keys hash the trace *content digest*: editing one
    // record re-keys every checkpoint, so a stale blob can never
    // satisfy the edited workload.
    let bytes = std::fs::read(FIXTURE).expect("fixture present");
    let original = register_trace_bytes("fp-edit-a", &bytes).expect("register");
    let mut records = decode_trace(&bytes).expect("decode");
    records[1000].is_store = !records[1000].is_store;
    let edited = register_trace_bytes("fp-edit-b", &encode_trace(&records, TraceEncoding::Delta))
        .expect("register");
    let cfg = harness_spec().config();
    let fp_a = dca::WarmState::fingerprint_for(&cfg, &[original, Benchmark::Mcf]);
    let fp_b = dca::WarmState::fingerprint_for(&cfg, &[edited, Benchmark::Mcf]);
    assert_ne!(fp_a, fp_b);
}

#[test]
fn malformed_traces_are_typed_errors_not_panics() {
    let bytes = std::fs::read(FIXTURE).expect("fixture present");

    // Truncations at every depth: header, record area, last byte.
    for cut in [0, 4, 12, 20, bytes.len() / 2, bytes.len() - 1] {
        let err = decode_trace(&bytes[..cut]).expect_err("truncation must fail");
        let _ = err.to_string(); // Display is total
    }

    // Registering garbage surfaces the typed error, not a panic.
    assert!(matches!(
        register_trace_bytes("garbage", b"garbage-bytes-here"),
        Err(TraceError::BadMagic)
    ));

    // A version from the future is refused by version, not misparsed.
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        decode_trace(&future),
        Err(TraceError::UnsupportedVersion(99))
    ));

    // Registering a missing file is an Io error.
    assert!(matches!(
        register_trace_file("/nonexistent/definitely/missing.dcat"),
        Err(TraceError::Io(_))
    ));
}
