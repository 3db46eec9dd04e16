//! `dca-lint` — a workspace-wide determinism & robustness linter.
//!
//! Everything this reproduction promises — paper figures byte-identical
//! across engines, warm restores, serial vs worker pool — rests on
//! invariants that runtime bit-identity tests only catch *after* a
//! violation slips in. This crate enforces them statically, at the source
//! level, with zero dependencies (a hand-rolled line/token scanner; no
//! `syn`, consistent with the offline shim policy).
//!
//! # Rules
//!
//! | Rule | Scope | What it guards |
//! |------|-------|----------------|
//! | D01  | sim crates, non-test | no `std::collections::HashMap`/`HashSet` — SipHash's per-process random keys make hash order (and anything derived from it) differ run to run. Use `FastHashMap`/`FastHashSet` from `dca-sim-core::hash`, or `BTreeMap`. |
//! | D02  | all crates, non-test | no `Instant::now`/`SystemTime` outside the bench-timing allowlist ([`D02_ALLOW`]) — wall-clock reads in sim code leak host timing into results. |
//! | D03  | sim crates, non-test | no unsorted iteration (`.iter()`, `.keys()`, `for .. in &map`, …) over hash maps — order leaks into event order and reports. Collect & sort, or use `BTreeMap`. |
//! | C01  | all crates, non-test | codec coverage: a struct with `fn encode` must mention every named field somewhere in its `encode`/`decode` bodies — catches the "added a field, forgot the codec" class that forced the `WarmState` v2→v3→v4 bumps. |
//! | R01  | `shard::{supervisor,pool}`, non-test | no `unwrap`/`expect`/`panic!` — the worker pool exists to survive worker crashes, hangs and protocol garbage, so its paths must degrade (retry, respawn, quarantine) through error values instead of aborting the sweep. |
//! | P01  | everywhere | a `dca-lint:` pragma that names an unknown rule or carries no reason is itself a finding. |
//!
//! "Non-test" means: not under a `tests/` or `benches/` directory, and not
//! inside a `#[cfg(test)]` item. Comments and string literals are blanked
//! before matching, so prose never trips a rule.
//!
//! # Escape hatch
//!
//! Any finding can be suppressed with an inline pragma naming the rule and
//! giving a reason:
//!
//! ```text
//! use std::collections::HashMap; // dca-lint: allow(D01) this module defines FastHashMap
//! ```
//!
//! Pragmas live in plain `//` comments (doc comments and string literals
//! are never parsed as pragmas). A pragma on a line of code suppresses
//! that line; a pragma on a line of its own suppresses the next line.
//! Every pragma is reported in the
//! `--json` output (`allow_pragmas`), and the self-test in
//! `tests/lint.rs` pins the set of pragmas in this tree to the documented
//! ones — adding a pragma means documenting it there.
//!
//! # Usage
//!
//! ```text
//! cargo run -p dca-lint            # human-readable findings
//! cargo run -p dca-lint -- --json  # machine-readable (schema 1), used by CI
//! dca-lint --root <dir>            # scan a different workspace-shaped tree
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage/IO error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Rule identifiers with one-line descriptions (stable order).
pub const RULES: &[(&str, &str)] = &[
    (
        "D01",
        "std HashMap/HashSet in non-test sim-crate code (SipHash nondeterminism)",
    ),
    (
        "D02",
        "wall-clock read (Instant::now/SystemTime) outside the bench-timing allowlist",
    ),
    (
        "D03",
        "unsorted iteration over a hash map in sim-crate code",
    ),
    (
        "C01",
        "struct with fn encode whose encode/decode bodies do not mention every field",
    ),
    (
        "R01",
        "unwrap/expect/panic! in crash-recoverable shard code",
    ),
    ("P01", "malformed dca-lint allow pragma"),
];

/// Crates whose non-test code must be bit-deterministic: everything that
/// runs inside a simulation or renders its reports.
pub const SIM_CRATES: &[&str] = &[
    "sim-core",
    "dram",
    "dram-cache",
    "mem-hier",
    "sched",
    "cpu",
    "core",
    "metrics",
];

/// Files allowed to read the wall clock, with the reason why (D02).
pub const D02_ALLOW: &[(&str, &str)] = &[
    (
        "crates/criterion-shim/src/lib.rs",
        "bench harness shim measures wall time by design",
    ),
    (
        "crates/bench/src/bin/perf_smoke.rs",
        "perf smoke exists to measure wall clock",
    ),
    (
        "crates/bench/src/bin/figures.rs",
        "CLI reports sweep wall-clock timings",
    ),
    (
        "crates/bench/src/warm.rs",
        "stale warm-dir lock reclaim keys off wall-clock age",
    ),
    (
        "crates/bench/src/shard/supervisor.rs",
        "job deadlines and heartbeat liveness need a clock",
    ),
];

/// Modules where panicking is forbidden (R01): the worker pool's
/// crash-recoverable paths, supervisor and worker side.
pub const R01_FILES: &[&str] = &[
    "crates/bench/src/shard/supervisor.rs",
    "crates/bench/src/shard/pool.rs",
];

/// A single lint violation at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub message: String,
}

/// An inline `// dca-lint: allow(<rule>) <reason>` pragma found in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowPragma {
    pub rule: String,
    pub path: String,
    pub line: usize,
    pub reason: String,
}

/// The result of scanning a workspace-shaped tree.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub pragmas: Vec<AllowPragma>,
    pub files_scanned: usize,
}

fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == rule && *r != "P01")
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whole-identifier occurrences of `needle` in `hay` (byte offsets).
fn ident_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let before_ok = hay[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let after_ok = hay[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

fn has_ident(hay: &str, needle: &str) -> bool {
    !ident_positions(hay, needle).is_empty()
}

/// Blank comments, string/char literals (line structure preserved) so the
/// rule matchers only ever see code.
pub fn mask_source(src: &str) -> String {
    mask(src, false)
}

/// Like [`mask_source`] but plain `//` comments are kept verbatim — the
/// haystack for pragma parsing. Doc comments (`///`, `//!`), block
/// comments and string literals are still blanked, so prose and message
/// strings that mention the pragma syntax never parse as pragmas.
pub fn pragma_source(src: &str) -> String {
    mask(src, true)
}

fn mask(src: &str, keep_plain_comments: bool) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        let c = b[i];
        if c == '/' && b.get(i + 1) == Some(&'/') {
            let doc = matches!(b.get(i + 2), Some(&'/') | Some(&'!'));
            let keep = keep_plain_comments && !doc;
            while i < b.len() && b[i] != '\n' {
                out.push(if keep { b[i] } else { ' ' });
                i += 1;
            }
        } else if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            out.extend([' ', ' ']);
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.extend([' ', ' ']);
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.extend([' ', ' ']);
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if (c == 'r' || c == 'b')
            && !out.last().is_some_and(|&p| is_ident_char(p))
            && raw_string_open(&b, i).is_some()
        {
            let (quote_at, hashes) = raw_string_open(&b, i).unwrap();
            out.extend(std::iter::repeat_n(' ', quote_at - i + 1));
            i = quote_at + 1;
            while i < b.len() {
                if b[i] == '"' && (0..hashes).all(|m| b.get(i + 1 + m) == Some(&'#')) {
                    out.extend(std::iter::repeat_n(' ', hashes + 1));
                    i += 1 + hashes;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
        } else if c == '"'
            || (c == 'b'
                && b.get(i + 1) == Some(&'"')
                && !out.last().is_some_and(|&p| is_ident_char(p)))
        {
            if c == 'b' {
                out.push(' ');
                i += 1;
            }
            out.push(' ');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    // `\<newline>` line continuation: keep the newline so
                    // line numbering stays aligned.
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                } else if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if c == '\'' {
            // Distinguish a lifetime (`'a`, `'static`) from a char literal.
            let next = b.get(i + 1).copied();
            let is_lifetime = next.is_some_and(is_ident_char) && b.get(i + 2) != Some(&'\'');
            if is_lifetime {
                out.push(c);
                i += 1;
            } else {
                out.push(' ');
                i += 1;
                if b.get(i) == Some(&'\\') {
                    out.extend([' ', ' ']);
                    i += 2;
                } else if i < b.len() {
                    out.push(' ');
                    i += 1;
                }
                if b.get(i) == Some(&'\'') {
                    out.push(' ');
                    i += 1;
                }
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out.into_iter().collect()
}

/// If `b[i..]` opens a raw string (`r"`, `r#"`, `br"`, …), return the index
/// of the opening quote and the hash count.
fn raw_string_open(b: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if b.get(j) != Some(&'r') {
        return None;
    }
    let mut k = j + 1;
    let mut hashes = 0usize;
    while b.get(k) == Some(&'#') {
        hashes += 1;
        k += 1;
    }
    (b.get(k) == Some(&'"')).then_some((k, hashes))
}

/// Per-line flags: `true` when the line belongs to a `#[cfg(test)]` item
/// (attribute line through closing brace), tracked by brace depth over the
/// masked source.
pub fn test_line_flags(masked: &str) -> Vec<bool> {
    let nlines = masked.lines().count();
    let mut flags = vec![false; nlines.max(1)];
    let b: Vec<char> = masked.chars().collect();
    let mut line = 0usize;
    let mut depth = 0i64;
    let mut region_depth: Option<i64> = None;
    let mut pending_from: Option<usize> = None;
    let mut i = 0;
    let mark = |flags: &mut Vec<bool>, l: usize| {
        if l < flags.len() {
            flags[l] = true;
        }
    };
    while i < b.len() {
        let c = b[i];
        if region_depth.is_some() {
            mark(&mut flags, line);
        }
        match c {
            '\n' => line += 1,
            '#' if region_depth.is_none()
                && pending_from.is_none()
                && b[i..].starts_with(&"#[cfg(test)]".chars().collect::<Vec<_>>()[..]) =>
            {
                pending_from = Some(line);
            }
            '{' => {
                if let Some(from) = pending_from.take() {
                    region_depth = Some(depth);
                    for l in from..=line {
                        mark(&mut flags, l);
                    }
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if region_depth == Some(depth) {
                    region_depth = None;
                    mark(&mut flags, line);
                }
            }
            ';' => {
                // `#[cfg(test)] use …;` / `mod tests;`: item with no body.
                if let Some(from) = pending_from.take() {
                    for l in from..=line {
                        mark(&mut flags, l);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    flags
}

/// Parsed pragmas for one file plus malformed-pragma findings. The map is
/// suppressed-line → rules suppressed on it.
struct Pragmas {
    allows: Vec<AllowPragma>,
    malformed: Vec<Finding>,
    suppress: BTreeMap<usize, Vec<String>>,
}

fn collect_pragmas(path: &str, pragma_lines: &[&str], masked_lines: &[&str]) -> Pragmas {
    let mut p = Pragmas {
        allows: Vec::new(),
        malformed: Vec::new(),
        suppress: BTreeMap::new(),
    };
    for (idx, raw) in pragma_lines.iter().enumerate() {
        let Some(at) = raw.find("dca-lint:") else {
            continue;
        };
        let rest = raw[at + "dca-lint:".len()..].trim_start();
        let parsed = rest.strip_prefix("allow(").and_then(|r| {
            let close = r.find(')')?;
            let rule = r[..close].trim().to_string();
            let reason = r[close + 1..].trim().to_string();
            Some((rule, reason))
        });
        let (rule, reason) = match parsed {
            Some(ok) => ok,
            None => {
                p.malformed.push(Finding {
                    rule: "P01",
                    path: path.to_string(),
                    line: idx + 1,
                    message: "malformed pragma: expected `dca-lint: allow(<rule>) <reason>`".into(),
                });
                continue;
            }
        };
        if !is_known_rule(&rule) {
            p.malformed.push(Finding {
                rule: "P01",
                path: path.to_string(),
                line: idx + 1,
                message: format!("pragma names unknown rule `{rule}`"),
            });
            continue;
        }
        if reason.is_empty() {
            p.malformed.push(Finding {
                rule: "P01",
                path: path.to_string(),
                line: idx + 1,
                message: format!("allow({rule}) pragma carries no reason"),
            });
            continue;
        }
        // A pragma on a code line covers that line; on a comment-only line
        // it covers the next line.
        let has_code = masked_lines.get(idx).is_some_and(|m| !m.trim().is_empty());
        let target = if has_code { idx } else { idx + 1 };
        p.suppress.entry(target).or_default().push(rule.clone());
        p.allows.push(AllowPragma {
            rule,
            path: path.to_string(),
            line: idx + 1,
            reason,
        });
    }
    p
}

/// Classification of one file, derived from its root-relative path.
struct FileCtx {
    sim_crate: bool,
    r01: bool,
    d02_allowed: bool,
}

impl FileCtx {
    fn new(rel: &str) -> Self {
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next());
        FileCtx {
            sim_crate: crate_name.is_some_and(|c| SIM_CRATES.contains(&c)),
            r01: R01_FILES.contains(&rel),
            d02_allowed: D02_ALLOW.iter().any(|(p, _)| *p == rel),
        }
    }
}

/// Scan one file's source, returning findings and pragmas.
pub fn scan_file(rel: &str, src: &str) -> (Vec<Finding>, Vec<AllowPragma>) {
    let ctx = FileCtx::new(rel);
    let masked = mask_source(src);
    let for_pragmas = pragma_source(src);
    let pragma_lines: Vec<&str> = for_pragmas.lines().collect();
    let masked_lines: Vec<&str> = masked.lines().collect();
    let test = test_line_flags(&masked);
    let pragmas = collect_pragmas(rel, &pragma_lines, &masked_lines);

    let mut findings = pragmas.malformed.clone();
    let mut push = |f: Finding, suppress: &BTreeMap<usize, Vec<String>>| {
        let line_idx = f.line - 1;
        let allowed = suppress
            .get(&line_idx)
            .is_some_and(|rules| rules.iter().any(|r| r == f.rule));
        if !allowed {
            findings.push(f);
        }
    };

    let d03_names = if ctx.sim_crate {
        d03_map_names(&masked_lines, &test)
    } else {
        Vec::new()
    };

    for (idx, ml) in masked_lines.iter().enumerate() {
        if test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let line = idx + 1;
        if ctx.sim_crate {
            for ty in ["HashMap", "HashSet"] {
                if has_ident(ml, ty) {
                    push(
                        Finding {
                            rule: "D01",
                            path: rel.into(),
                            line,
                            message: format!(
                                "std {ty} in sim-crate code: SipHash keys differ per process; use Fast{ty} or BTreeMap"
                            ),
                        },
                        &pragmas.suppress,
                    );
                }
            }
            for name in &d03_names {
                if let Some(what) = d03_iteration(ml, name) {
                    push(
                        Finding {
                            rule: "D03",
                            path: rel.into(),
                            line,
                            message: format!(
                                "unsorted iteration ({what}) over hash map `{name}`: order leaks into results; collect & sort, or use BTreeMap"
                            ),
                        },
                        &pragmas.suppress,
                    );
                }
            }
        }
        if !ctx.d02_allowed {
            let hit = if ml.contains("Instant::now") {
                Some("Instant::now")
            } else if has_ident(ml, "SystemTime") {
                Some("SystemTime")
            } else {
                None
            };
            if let Some(what) = hit {
                push(
                    Finding {
                        rule: "D02",
                        path: rel.into(),
                        line,
                        message: format!(
                            "wall-clock read ({what}) outside the bench-timing allowlist: host timing must not reach sim code"
                        ),
                    },
                    &pragmas.suppress,
                );
            }
        }
        if ctx.r01 {
            let mut hits: Vec<&str> = Vec::new();
            for m in ["unwrap", "expect"] {
                for at in ident_positions(ml, m) {
                    if ml[..at].trim_end().ends_with('.') {
                        hits.push(m);
                    }
                }
            }
            for at in ident_positions(ml, "panic") {
                if ml[at + "panic".len()..].starts_with('!') {
                    hits.push("panic!");
                }
            }
            for what in hits {
                push(
                    Finding {
                        rule: "R01",
                        path: rel.into(),
                        line,
                        message: format!(
                            "{what} in crash-recoverable shard code: degrade via retry/quarantine, do not abort"
                        ),
                    },
                    &pragmas.suppress,
                );
            }
        }
    }

    for f in c01_check(&masked, &test) {
        push(
            Finding {
                rule: "C01",
                path: rel.into(),
                line: f.0,
                message: f.1,
            },
            &pragmas.suppress,
        );
    }

    (findings, pragmas.allows)
}

/// Names of variables/fields declared with a hash-map type (D03 universe).
fn d03_map_names(masked_lines: &[&str], test: &[bool]) -> Vec<String> {
    const MAP_TYPES: &[&str] = &["HashMap", "HashSet", "FastHashMap", "FastHashSet"];
    let mut names: Vec<String> = Vec::new();
    for (idx, ml) in masked_lines.iter().enumerate() {
        if test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for ty in MAP_TYPES {
            for at in ident_positions(ml, ty) {
                if let Some(name) = declared_name(ml, at) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// Given `…name: path::Type<…>` with the type at byte `at`, recover `name`;
/// also handles `let [mut] name = Type::new()`.
fn declared_name(line: &str, at: usize) -> Option<String> {
    let before = &line[..at];
    // Annotation form: strip the path prefix back to a single `:`.
    let mut s = before.trim_end();
    while s.ends_with("::") || s.chars().next_back().is_some_and(is_ident_char) {
        if let Some(stripped) = s.strip_suffix("::") {
            s = stripped;
        } else {
            let cut = s
                .rfind(|c: char| !is_ident_char(c))
                .map_or(0, |p| p + c_len(s, p));
            s = &s[..cut];
        }
        s = s.trim_end();
    }
    if s.ends_with(':') && !s.ends_with("::") {
        let name = trailing_ident(s[..s.len() - 1].trim_end());
        if name.is_some() {
            return name;
        }
    }
    // Binding form: `let [mut] name = … Type …`.
    for lat in ident_positions(line, "let") {
        if lat < at {
            let mut rest = line[lat + 3..].trim_start();
            if let Some(r) = rest.strip_prefix("mut ") {
                rest = r.trim_start();
            }
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() && line[lat..at].contains('=') {
                return Some(name);
            }
        }
    }
    None
}

fn c_len(s: &str, at: usize) -> usize {
    s[at..].chars().next().map_or(1, |c| c.len_utf8())
}

fn trailing_ident(s: &str) -> Option<String> {
    let start = s
        .rfind(|c: char| !is_ident_char(c))
        .map_or(0, |p| p + c_len(s, p));
    let id = &s[start..];
    (!id.is_empty() && !id.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .then(|| id.to_string())
}

/// Does this masked line iterate over `name` in hash order?
fn d03_iteration(ml: &str, name: &str) -> Option<&'static str> {
    const METHODS: &[&str] = &[
        "iter()",
        "iter_mut()",
        "keys()",
        "values()",
        "values_mut()",
        "drain(",
        "into_iter()",
    ];
    for at in ident_positions(ml, name) {
        let after = &ml[at + name.len()..];
        if let Some(rest) = after.strip_prefix('.') {
            for m in METHODS {
                if rest.starts_with(m) {
                    return Some(match *m {
                        "drain(" => "drain",
                        other => {
                            // strip the parens for the message
                            &other[..other.len() - 2]
                        }
                    });
                }
            }
        }
        // `for x in &name` / `for x in name`
        let before = ml[..at].trim_end();
        let b = before
            .strip_suffix('&')
            .map(str::trim_end)
            .unwrap_or(before);
        let b = b.strip_suffix("mut").map(str::trim_end).unwrap_or(b);
        let b = b.strip_suffix('&').map(str::trim_end).unwrap_or(b);
        if b.ends_with(" in") && has_ident(ml, "for") {
            return Some("for-in");
        }
    }
    None
}

/// C01: structs with `fn encode` must mention every named field in their
/// encode/decode bodies. Returns `(line, message)` pairs.
fn c01_check(masked: &str, test: &[bool]) -> Vec<(usize, String)> {
    let structs = parse_structs(masked, test);
    let codecs = parse_codec_bodies(masked, test);
    let mut out = Vec::new();
    for s in structs {
        let Some((encode, decode)) = codecs.get(&s.name) else {
            continue;
        };
        if encode.is_empty() {
            continue;
        }
        let union = format!("{encode}\n{decode}");
        let missing: Vec<&str> = s
            .fields
            .iter()
            .map(String::as_str)
            .filter(|f| !has_ident(&union, f))
            .collect();
        if !missing.is_empty() {
            out.push((
                s.line,
                format!(
                    "struct {} has fn encode but field{} {} never mentioned in its encode/decode bodies",
                    s.name,
                    if missing.len() == 1 { "" } else { "s" },
                    missing
                        .iter()
                        .map(|f| format!("`{f}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        }
    }
    out
}

struct StructDef {
    name: String,
    line: usize,
    fields: Vec<String>,
}

fn line_of(masked: &str, at: usize) -> usize {
    masked[..at].matches('\n').count() + 1
}

fn parse_structs(masked: &str, test: &[bool]) -> Vec<StructDef> {
    let mut out = Vec::new();
    for at in ident_positions(masked, "struct") {
        let line = line_of(masked, at);
        if test.get(line - 1).copied().unwrap_or(false) {
            continue;
        }
        let rest = masked[at + "struct".len()..].trim_start();
        let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        if name.is_empty() {
            continue;
        }
        // Find the body opener at angle-depth 0; `(` or `;` first ⇒ tuple
        // or unit struct, which C01 skips.
        let after = &rest[name.len()..];
        let mut angle = 0i32;
        let mut body_at = None;
        for (pos, c) in after.char_indices() {
            match c {
                '<' => angle += 1,
                '>' => angle -= 1,
                '{' if angle <= 0 => {
                    body_at = Some(pos);
                    break;
                }
                '(' | ';' if angle <= 0 => break,
                _ => {}
            }
        }
        let Some(bat) = body_at else { continue };
        let body = balanced_block(&after[bat..]);
        out.push(StructDef {
            name,
            line,
            fields: field_names(body),
        });
    }
    out
}

/// Given text starting at `{`, return the slice inside the matching `}`.
fn balanced_block(s: &str) -> &str {
    let mut depth = 0i32;
    for (pos, c) in s.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &s[1..pos];
                }
            }
            _ => {}
        }
    }
    &s[1.min(s.len())..]
}

/// Named fields of a struct body: split on depth-0 commas, take the ident
/// before the first depth-0 `:` of each chunk.
fn field_names(body: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut chunk = String::new();
    let flush = |chunk: &mut String, fields: &mut Vec<String>| {
        let c = chunk.trim();
        if let Some(colon) = find_depth0_colon(c) {
            if let Some(name) = trailing_ident(c[..colon].trim_end()) {
                fields.push(name);
            }
        }
        chunk.clear();
    };
    for c in body.chars() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' | '>' => depth -= 1,
            ',' if depth == 0 => {
                flush(&mut chunk, &mut fields);
                continue;
            }
            _ => {}
        }
        chunk.push(c);
    }
    flush(&mut chunk, &mut fields);
    fields
}

/// First single-`:` at bracket-depth 0 (skips `::`).
fn find_depth0_colon(s: &str) -> Option<usize> {
    let b: Vec<char> = s.chars().collect();
    let mut depth = 0i32;
    let mut i = 0;
    let mut byte = 0;
    while i < b.len() {
        match b[i] {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' | '>' => depth -= 1,
            ':' if depth == 0 => {
                if b.get(i + 1) == Some(&':') {
                    byte += 2;
                    i += 2;
                    continue;
                }
                return Some(byte);
            }
            _ => {}
        }
        byte += b[i].len_utf8();
        i += 1;
    }
    None
}

/// For each type with an inherent/trait impl in this file, the concatenated
/// bodies of its `fn encode` and `fn decode` (empty string when absent).
fn parse_codec_bodies(masked: &str, test: &[bool]) -> BTreeMap<String, (String, String)> {
    let mut map: BTreeMap<String, (String, String)> = BTreeMap::new();
    for at in ident_positions(masked, "impl") {
        let line = line_of(masked, at);
        if test.get(line - 1).copied().unwrap_or(false) {
            continue;
        }
        let rest = &masked[at + "impl".len()..];
        // Walk tokens to the body `{`, tracking the last depth-0 ident as
        // the type name; `for` restarts it (trait impls), `where` ends it.
        let mut angle = 0i32;
        let mut name = String::new();
        let mut cur = String::new();
        let mut frozen = false;
        let mut body_at = None;
        for (pos, c) in rest.char_indices() {
            if is_ident_char(c) {
                cur.push(c);
                continue;
            }
            if !cur.is_empty() {
                match (cur.as_str(), angle, frozen) {
                    ("for", 0, _) => name.clear(),
                    ("where", 0, _) => frozen = true,
                    ("dyn", _, _) => {}
                    (id, 0, false) if !id.chars().next().is_some_and(|f| f.is_ascii_digit()) => {
                        name = id.to_string();
                    }
                    _ => {}
                }
                cur.clear();
            }
            match c {
                '<' => angle += 1,
                '>' => angle -= 1,
                '{' if angle <= 0 => {
                    body_at = Some(pos);
                    break;
                }
                ';' if angle <= 0 => break,
                _ => {}
            }
        }
        let (Some(bat), false) = (body_at, name.is_empty()) else {
            continue;
        };
        let body = balanced_block(&rest[bat..]);
        let entry = map.entry(name).or_default();
        for (fn_name, slot) in [("encode", 0usize), ("decode", 1usize)] {
            for fat in ident_positions(body, "fn") {
                let sig = body[fat + 2..].trim_start();
                if !sig.starts_with(fn_name)
                    || sig[fn_name.len()..]
                        .chars()
                        .next()
                        .is_some_and(is_ident_char)
                {
                    continue;
                }
                if let Some(open) = body[fat..].find('{') {
                    let fbody = balanced_block(&body[fat + open..]);
                    let dst = if slot == 0 {
                        &mut entry.0
                    } else {
                        &mut entry.1
                    };
                    dst.push_str(fbody);
                    dst.push('\n');
                }
            }
        }
    }
    map
}

// ---------------------------------------------------------------------------
// Workspace walking & reporting
// ---------------------------------------------------------------------------

fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|c| c == "tests" || c == "benches" || c == "fixtures" || c == "target")
}

/// Collect all non-test `.rs` files under `<root>/crates/*`, sorted.
fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Err(format!("{} has no crates/ directory", root.display()));
    }
    let mut files = Vec::new();
    let mut stack = vec![crates];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "tests" && name != "benches" && name != "fixtures" && name != "target" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scan the workspace-shaped tree rooted at `root`.
pub fn scan_workspace(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("{} escapes root", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        if is_test_path(&rel) {
            continue;
        }
        let src = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let (findings, pragmas) = scan_file(&rel, &src);
        report.findings.extend(findings);
        report.pragmas.extend(pragmas);
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    report
        .pragmas
        .sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    Ok(report)
}

/// Walk up from `start` to the first directory holding a `[workspace]`
/// manifest.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the report as a stable machine-readable JSON document (schema 1).
pub fn render_json(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 1,\n");
    let _ = writeln!(s, "  \"files_scanned\": {},", report.files_scanned);
    s.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            s,
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            f.rule,
            json_escape(&f.path),
            f.line,
            json_escape(&f.message)
        );
    }
    s.push_str(if report.findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    s.push_str("  \"allow_pragmas\": [");
    for (i, p) in report.pragmas.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            s,
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
            json_escape(&p.rule),
            json_escape(&p.path),
            p.line,
            json_escape(&p.reason)
        );
    }
    s.push_str(if report.pragmas.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });
    s.push_str("}\n");
    s
}

/// Render the report for humans: one `path:line: RULE message` per finding.
pub fn render_text(report: &Report) -> String {
    let mut s = String::new();
    for f in &report.findings {
        let _ = writeln!(s, "{}:{}: {} {}", f.path, f.line, f.rule, f.message);
    }
    let _ = writeln!(
        s,
        "dca-lint: {} finding{} in {} files ({} allow pragma{})",
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.files_scanned,
        report.pragmas.len(),
        if report.pragmas.len() == 1 { "" } else { "s" },
    );
    s
}
