//! `perfbench` — the DCA simulator's benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.sh` builds this package and the `figures` binary, then runs this
//! program, which drives the simulator only through its public API. See
//! `perfbench/README.md` for the workloads and the metrics.
//!
//! Output: one JSON line with the full record (environment, every
//! metric's median, quartiles and sample count, failures), then, as the
//! last line, `{"correct", "attempted", "failed", "metrics"}` with each
//! metric's median.

mod catalog;
mod digest;
mod host;
mod layers;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use workloads::{Workload, DEFAULT_SEED};

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The `figures` binary `figure-regen` runs.
    pub figures: PathBuf,
    /// Scratch space for figure runs and the span file.
    pub work_dir: PathBuf,
    /// Stored goldens (digests and figure files for the default seed).
    pub goldens: PathBuf,
    /// Store this run's results as the goldens instead of checking them.
    pub bless: bool,
}

const USAGE: &str = "usage: perfbench --workload <design-sweep-sa-xpoint|figure-regen> \
--seed <n> --seconds <1-60> --trace <0|1> --figures <path> --work-dir <dir> --goldens <dir> [--bless]";

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut kv: BTreeMap<String, String> = BTreeMap::new();
        let mut bless = false;
        let mut it = argv;
        while let Some(flag) = it.next() {
            if flag == "--bless" {
                bless = true;
                continue;
            }
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            kv.insert(key.to_string(), value);
        }
        let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
        let workload = take("workload")?;
        let workload =
            Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let seed = take("seed")?
            .parse()
            .map_err(|_| "--seed wants an unsigned integer".to_string())?;
        let seconds: u64 = take("seconds")?
            .parse()
            .ok()
            .filter(|s| (1..=60).contains(s))
            .ok_or("--seconds wants a whole number from 1 to 60")?;
        let trace = match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace wants 0 or 1, got {t:?}")),
        };
        let args = Args {
            workload,
            seed,
            seconds: Duration::from_secs(seconds),
            trace,
            // Absolute, because `figures` runs in its own directory.
            figures: {
                let f = PathBuf::from(take("figures")?);
                std::fs::canonicalize(&f).unwrap_or(f)
            },
            work_dir: take("work-dir")?.into(),
            goldens: take("goldens")?.into(),
            bless,
        };
        if let Some(k) = kv.keys().next() {
            return Err(format!("unknown flag --{k}"));
        }
        Ok(args)
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    samples: BTreeMap<String, Vec<f64>>,
    /// Metrics whose replay failed its fidelity check: reported as null.
    invalid: Vec<&'static str>,
    /// Other names a metric goes by (workload-specific names).
    aliases: Vec<(&'static str, &'static str)>,
    notes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn push(&mut self, metric: &str, v: f64) {
        self.samples.entry(metric.to_string()).or_default().push(v);
    }

    pub fn alias(&mut self, alias: &'static str, metric: &'static str) {
        self.aliases.push((alias, metric));
    }

    pub fn note(&mut self, key: &'static str, value: &str) {
        self.notes.push((key, value.to_string()));
    }

    /// Record a failed fidelity check: every metric starting with one of
    /// `prefixes` is reported as null instead of a number.
    pub fn invalidate(&mut self, prefixes: &[&'static str], why: String) {
        self.invalid.extend_from_slice(prefixes);
        self.failed += 1;
        self.failures.push(why);
    }

    /// Fold a checker's mismatches into the failures, and under
    /// `--bless` store what it saw as the workload's digest goldens.
    pub fn finish_checks(&mut self, a: &Args, checker: digest::Checker) {
        if a.bless && a.seed == DEFAULT_SEED && a.workload != Workload::FigureRegen {
            let path = digest::golden_path(&a.goldens, a.workload.name());
            if let Err(e) = std::fs::write(&path, checker.observed()) {
                self.failures.push(format!("bless {}: {e}", path.display()));
            }
        }
        self.failures.extend(checker.failures);
    }

    fn summary(&self, name: &str) -> (f64, f64, f64, usize) {
        if self.invalid.iter().any(|p| name.starts_with(p)) {
            return (f64::NAN, f64::NAN, f64::NAN, 0);
        }
        let xs = self.samples.get(name).map_or(&[][..], Vec::as_slice);
        let (q1, q3) = stats::quartiles(xs);
        (stats::median(xs), q1, q3, xs.len())
    }
}

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| default.to_string())
}

/// The full record: environment plus every metric's median, quartiles
/// and sample count.
fn record_line(a: &Args, o: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let mut metrics = Vec::new();
    for (name, unit) in catalogue {
        let (med, q1, q3, n) = o.summary(name);
        metrics.push(format!(
            "{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {n}, \"unit\": {}}}",
            stats::string(name),
            stats::num(med),
            stats::num(q1),
            stats::num(q3),
            stats::string(unit)
        ));
    }
    let aliases: Vec<String> = o
        .aliases
        .iter()
        .map(|(a, m)| format!("{}: {}", stats::string(a), stats::string(m)))
        .collect();
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", stats::string(k), stats::string(v)))
        .collect();
    let failures: Vec<String> = o.failures.iter().map(|f| stats::string(f)).collect();
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    format!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"run_seconds\": {}, \
         \"host_cores\": {}, \"rustc\": {}, \"git_commit\": {}, \"source_digest\": {}, \
         \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"failures\": [{}], \
         \"aliases\": {{{}}}, \"notes\": {{{}}}, \"metrics\": {{{}}}}}}}",
        stats::string(a.workload.name()),
        a.seed,
        a.trace,
        a.seconds.as_secs(),
        host::host_cores(),
        stats::string(&env_or("PERFBENCH_RUSTC", "unknown")),
        stats::string(&env_or("PERFBENCH_GIT_COMMIT", "none")),
        stats::string(&host::source_digest(std::path::Path::new("."))),
        o.attempted,
        o.failed,
        stats::num(failed_frac),
        failures.join(", "),
        aliases.join(", "),
        notes.join(", "),
        metrics.join(", ")
    )
}

/// The result line: each metric's median and unit.
fn result_line(o: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                stats::string(name),
                stats::num(o.summary(name).0),
                stats::string(unit)
            )
        })
        .collect();
    let correct = o.failed == 0 && o.failures.is_empty() && o.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The workload is fixed by the arguments alone: no inherited
    // simulator knob (`DCA_WARM_DIR`, `DCA_FULL`, ...) may change it.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DCA_") {
            std::env::remove_var(key);
        }
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let (outcome, catalogue) = if args.trace {
        (layers::run(&args), catalog::PER_LAYER)
    } else {
        (workloads::measure(&args), catalog::END_TO_END)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", record_line(&args, &outcome, catalogue));
    println!("{}", result_line(&outcome, catalogue));
}
