//! Linter test suite: per-rule fixtures with seeded violations, pragma
//! suppression, the `--json` schema golden, CLI exit codes, and the
//! "tree is clean" self-test over the real workspace.

use std::path::{Path, PathBuf};
use std::process::Command;

use dca_lint::{mask_source, scan_file, scan_workspace, test_line_flags};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

// ---------------------------------------------------------------------------
// Scanner internals
// ---------------------------------------------------------------------------

#[test]
fn masking_preserves_line_structure() {
    let src = "let a = \"multi \\\n line \\\" str\";\nlet b = r#\"raw } { \"quote\" \"#;\n/* block\ncomment */ let c = 'x';\nlet d: &'static str = \"s\"; // trailing\n";
    let masked = mask_source(src);
    assert_eq!(src.lines().count(), masked.lines().count());
    // No string/comment content survives…
    for word in [
        "multi", "line", "raw", "quote", "block", "comment", "trailing",
    ] {
        assert!(!masked.contains(word), "{word} leaked into masked source");
    }
    // …but code does, including the lifetime.
    for code in ["let a =", "let b =", "let c =", "let d: &'static str"] {
        assert!(masked.contains(code), "{code} missing from masked source");
    }
}

#[test]
fn cfg_test_items_are_flagged_to_their_closing_brace() {
    let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn also_live() {}\n";
    let flags = test_line_flags(&mask_source(src));
    assert_eq!(flags, vec![false, true, true, true, true, false]);
}

#[test]
fn fast_hash_map_does_not_trip_d01() {
    let (findings, _) = scan_file(
        "crates/sim-core/src/x.rs",
        "use crate::hash::FastHashMap;\npub fn f() -> FastHashMap<u64, u64> {\n    FastHashMap::default()\n}\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hash_map_in_non_sim_crate_is_fine() {
    let (findings, _) = scan_file(
        "crates/bench/src/x.rs",
        "use std::collections::HashMap;\npub fn f() -> HashMap<u64, u64> {\n    HashMap::new()\n}\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

#[test]
fn violations_fixture_trips_every_rule() {
    let report = scan_workspace(&fixture("violations")).expect("scan");
    let got: Vec<(&str, &str, usize)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    let expected: Vec<(&str, &str, usize)> = vec![
        ("R01", "crates/bench/src/shard/pool.rs", 5),
        ("R01", "crates/bench/src/shard/supervisor.rs", 5),
        ("R01", "crates/bench/src/shard/supervisor.rs", 7),
        ("R01", "crates/bench/src/shard/supervisor.rs", 15),
        ("C01", "crates/core/src/codec.rs", 4),
        ("P01", "crates/core/src/codec.rs", 57),
        ("P01", "crates/core/src/codec.rs", 58),
        ("P01", "crates/core/src/codec.rs", 59),
        ("D01", "crates/sim-core/src/maps.rs", 4),
        ("D03", "crates/sim-core/src/maps.rs", 13),
        ("D02", "crates/sim-core/src/maps.rs", 20),
        ("D01", "crates/sim-core/src/maps.rs", 24),
        ("D01", "crates/sim-core/src/maps.rs", 26),
    ];
    assert_eq!(got, expected);
    assert!(report.pragmas.is_empty());
    // One finding per seeded violation and nothing from the #[cfg(test)]
    // blocks, comments, or strings that repeat the same patterns.
    let c01 = report
        .findings
        .iter()
        .find(|f| f.rule == "C01")
        .expect("C01 finding");
    assert!(c01.message.contains("`generation`"), "{}", c01.message);
}

#[test]
fn allow_pragmas_suppress_and_are_reported() {
    let report = scan_workspace(&fixture("allowed")).expect("scan");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let got: Vec<(&str, &str, usize)> = report
        .pragmas
        .iter()
        .map(|p| (p.rule.as_str(), p.path.as_str(), p.line))
        .collect();
    let expected: Vec<(&str, &str, usize)> = vec![
        ("R01", "crates/bench/src/shard/pool.rs", 4),
        ("D01", "crates/sim-core/src/maps.rs", 4),
        ("D01", "crates/sim-core/src/maps.rs", 7),
        ("D03", "crates/sim-core/src/maps.rs", 13),
        ("D02", "crates/sim-core/src/maps.rs", 21),
    ];
    assert_eq!(got, expected);
    assert!(report.pragmas.iter().all(|p| !p.reason.is_empty()));
}

#[test]
fn clean_fixture_is_clean() {
    let report = scan_workspace(&fixture("clean")).expect("scan");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.pragmas.is_empty());
    assert_eq!(report.files_scanned, 1);
}

// ---------------------------------------------------------------------------
// Self-test: the real tree lints clean, with only the documented pragmas
// ---------------------------------------------------------------------------

#[test]
fn real_workspace_is_clean() {
    let report = scan_workspace(&workspace_root()).expect("scan");
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: {} {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        report.findings.is_empty(),
        "tree has lint findings:\n{}",
        rendered.join("\n")
    );
    // The only sanctioned pragmas are the FastHashMap definition site in
    // sim-core::hash. Adding a pragma anywhere else must be a conscious
    // decision: document it here.
    for p in &report.pragmas {
        assert_eq!(
            (p.rule.as_str(), p.path.as_str()),
            ("D01", "crates/sim-core/src/hash.rs"),
            "undocumented pragma at {}:{} ({})",
            p.path,
            p.line,
            p.reason,
        );
    }
    assert_eq!(
        report.pragmas.len(),
        3,
        "pragma count drifted: {:?}",
        report.pragmas
    );
}

// ---------------------------------------------------------------------------
// CLI: exit codes and the JSON schema golden
// ---------------------------------------------------------------------------

fn run_lint(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dca-lint"))
        .args(args)
        .output()
        .expect("run");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_exit_codes() {
    let violations = fixture("violations");
    let clean = fixture("clean");
    let (code, _, _) = run_lint(&["--root", violations.to_str().expect("utf8 path")]);
    assert_eq!(code, 1, "violations must exit 1");
    let (code, _, _) = run_lint(&["--root", clean.to_str().expect("utf8 path")]);
    assert_eq!(code, 0, "clean tree must exit 0");
    let (code, _, err) = run_lint(&["--frobnicate"]);
    assert_eq!(code, 2, "unknown flag must exit 2");
    assert!(err.contains("usage"), "{err}");
    let (code, _, _) = run_lint(&["--root", "/nonexistent/dca-lint-root"]);
    assert_eq!(code, 2, "missing root must exit 2");
}

#[test]
fn json_output_matches_schema_golden() {
    let violations = fixture("violations");
    let (code, stdout, _) =
        run_lint(&["--json", "--root", violations.to_str().expect("utf8 path")]);
    assert_eq!(code, 1);
    let golden = r#"{
  "schema": 1,
  "files_scanned": 4,
  "findings": [
    {"rule": "R01", "path": "crates/bench/src/shard/pool.rs", "line": 5, "message": "unwrap in crash-recoverable shard code: degrade via retry/quarantine, do not abort"},
    {"rule": "R01", "path": "crates/bench/src/shard/supervisor.rs", "line": 5, "message": "expect in crash-recoverable shard code: degrade via retry/quarantine, do not abort"},
    {"rule": "R01", "path": "crates/bench/src/shard/supervisor.rs", "line": 7, "message": "panic! in crash-recoverable shard code: degrade via retry/quarantine, do not abort"},
    {"rule": "R01", "path": "crates/bench/src/shard/supervisor.rs", "line": 15, "message": "unwrap in crash-recoverable shard code: degrade via retry/quarantine, do not abort"},
    {"rule": "C01", "path": "crates/core/src/codec.rs", "line": 4, "message": "struct Snapshot has fn encode but field `generation` never mentioned in its encode/decode bodies"},
    {"rule": "P01", "path": "crates/core/src/codec.rs", "line": 57, "message": "pragma names unknown rule `Z99`"},
    {"rule": "P01", "path": "crates/core/src/codec.rs", "line": 58, "message": "allow(C01) pragma carries no reason"},
    {"rule": "P01", "path": "crates/core/src/codec.rs", "line": 59, "message": "malformed pragma: expected `dca-lint: allow(<rule>) <reason>`"},
    {"rule": "D01", "path": "crates/sim-core/src/maps.rs", "line": 4, "message": "std HashMap in sim-crate code: SipHash keys differ per process; use FastHashMap or BTreeMap"},
    {"rule": "D03", "path": "crates/sim-core/src/maps.rs", "line": 13, "message": "unsorted iteration (iter) over hash map `counts`: order leaks into results; collect & sort, or use BTreeMap"},
    {"rule": "D02", "path": "crates/sim-core/src/maps.rs", "line": 20, "message": "wall-clock read (Instant::now) outside the bench-timing allowlist: host timing must not reach sim code"},
    {"rule": "D01", "path": "crates/sim-core/src/maps.rs", "line": 24, "message": "std HashMap in sim-crate code: SipHash keys differ per process; use FastHashMap or BTreeMap"},
    {"rule": "D01", "path": "crates/sim-core/src/maps.rs", "line": 26, "message": "std HashMap in sim-crate code: SipHash keys differ per process; use FastHashMap or BTreeMap"}
  ],
  "allow_pragmas": []
}
"#;
    assert_eq!(stdout, golden);
}

#[test]
fn cli_json_on_real_workspace_is_clean() {
    let root = workspace_root();
    let (code, stdout, stderr) = run_lint(&["--json", "--root", root.to_str().expect("utf8 path")]);
    assert_eq!(
        code, 0,
        "real tree must lint clean\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("\"findings\": []"), "{stdout}");
}
