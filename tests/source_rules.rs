//! The two source-level facts behind the determinism and codec rules
//! (see `dca_sim_core`'s crate docs) that the compiler checks only once
//! they are written down:
//!
//! * C01: every `fn encode(&self` under `crates/*/src` opens with an
//!   exhaustive `let Self { … } = self;` (no `..`) or a `match self`, so a
//!   field added without being encoded fails the build (E0027).
//! * D01/D02: the only lint expectations for `clippy.toml`'s disallowed
//!   types and methods are the three documented sites.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read_dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn encoders_destructure_self_and_disallowed_expectations_are_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut encoders = 0;
    let mut expectations = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap().to_string_lossy();
        if rel == "tests/source_rules.rs" {
            continue;
        }
        let text = fs::read_to_string(path).expect("read source");
        let code: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .collect();
        for (i, line) in code.iter().enumerate() {
            for rest in line.split("clippy::disallowed_").skip(1) {
                let kind: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                expectations.push((rel.to_string(), format!("disallowed_{kind}")));
            }
            if !(rel.contains("/src/") && line.contains("fn encode(&self")) {
                continue;
            }
            encoders += 1;
            let body = code[i + 1..].join(" ");
            if body.starts_with("match self") {
                continue;
            }
            let pattern = body
                .strip_prefix("let Self {")
                .and_then(|rest| rest.split_once("} = self;"))
                .map(|(fields, _)| fields);
            assert!(
                pattern.is_some_and(|fields| !fields.contains("..")),
                "{rel}: `{line}` must open with an exhaustive `let Self {{ … }} = self;`"
            );
        }
    }
    assert!(encoders >= 7, "found only {encoders} encoders");
    expectations.sort();
    assert_eq!(
        expectations,
        [
            ("crates/bench/src/bin/figures.rs", "disallowed_methods"),
            ("crates/bench/tests/shard.rs", "disallowed_methods"),
            ("crates/sim-core/src/hash.rs", "disallowed_types"),
        ]
        .map(|(path, lint)| (path.to_string(), lint.to_string()))
    );
}
