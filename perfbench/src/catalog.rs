//! Every metric the benchmark reports, with its unit. The untraced run
//! prints exactly [`END_TO_END`], the traced run exactly [`PER_LAYER`];
//! `BENCHMARK.json` lists the same names (a test holds them together).

/// End-to-end metrics, measured with tracing off.
///
/// * `setup_s` — set-up before the measured operation: the shared
///   `System::capture_warm` (build + functional warm-up) for
///   `design-sweep-sa-xpoint`; for `figure-regen`, `capture_warm` of
///   each warm state the figure run builds for its evaluations, summed.
/// * `run_s` — wall time of one operation: a four-design sweep from the
///   shared warm state (`from_warm` + `run` × 4), or one `figures`
///   invocation.
/// * `sim_minst_per_s` — simulated instructions, all cores, per host
///   second of `System::run` (per second of the `figures` invocation for
///   `figure-regen`).
/// * `peak_rss_mb` — peak resident set of the process doing the
///   simulating: the benchmark itself, or the largest process of the
///   `figures` tree.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run. `ns` is host time per call;
/// `sim_ns` is simulated time; counts and ratios come from the
/// simulator's own reports and repeat exactly for a given seed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.system.ns_per_event", "ns"),
    ("core.system.events", "count"),
    ("core.system.events_per_kinst", "1/kinst"),
    ("core.system.restore_s", "s"),
    ("core.system.unattributed_frac", "fraction"),
    ("core.warm.s", "s"),
    ("cpu.gen.ns_per_op", "ns"),
    ("mem_hier.sram.ns_per_probe", "ns"),
    ("mem_hier.l1.hit_rate", "fraction"),
    ("mem_hier.l2.miss_rate", "fraction"),
    ("dram_cache.tags.ns_per_lookup", "ns"),
    ("dram_cache.tags.inserts", "count"),
    ("cpu.core.ns_per_inst", "ns"),
    ("core.controller.ns_per_slot", "ns"),
    ("core.controller.idle_slot_frac", "fraction"),
    ("sched.ns_per_pick", "ns"),
    ("core.controller.pr_wait_ns", "sim_ns"),
    ("core.controller.lr_wait_ns", "sim_ns"),
    ("core.controller.write_wait_ns", "sim_ns"),
    ("core.controller.forced_drain_slots", "count"),
    ("core.controller.spilled", "count"),
    ("dram.ns_per_issue", "ns"),
    ("dram.accesses", "count"),
    ("dram.turnarounds", "count"),
    ("dram.accesses_per_turnaround", "ratio"),
    ("dram.read_row_hit_rate", "fraction"),
    ("sim_core.events.ns_per_op", "ns"),
    ("mem_hier.memory.ns_per_access", "ns"),
    ("mem_hier.memory.empty_schedule_frac", "fraction"),
    ("mem_hier.memory.row_hit_rate", "fraction"),
    ("mem_hier.memory.queue_wait_ns", "sim_ns"),
    ("bench.plan_s", "s"),
    ("bench.jobs", "count"),
    ("bench.execute_s", "s"),
    ("bench.partial_codec_s", "s"),
    ("bench.merge_s", "s"),
    ("bench.render_s", "s"),
    ("bench.warm.hits", "count"),
    ("bench.warm.builds", "count"),
    ("trace.overhead_frac", "fraction"),
    ("core.system.self_s", "s"),
    ("core.warm.self_s", "s"),
    ("cpu.gen.self_s", "s"),
    ("mem_hier.sram.self_s", "s"),
    ("dram_cache.tags.self_s", "s"),
    ("cpu.core.self_s", "s"),
    ("core.controller.self_s", "s"),
    ("sched.self_s", "s"),
    ("dram.self_s", "s"),
    ("sim_core.events.self_s", "s"),
    ("mem_hier.memory.self_s", "s"),
    ("bench.self_s", "s"),
];

/// Layers whose self time the traced run reports (`<layer>.self_s`).
pub const LAYERS: &[&str] = &[
    "core.system",
    "core.warm",
    "cpu.gen",
    "mem_hier.sram",
    "dram_cache.tags",
    "cpu.core",
    "core.controller",
    "sched",
    "dram",
    "sim_core.events",
    "mem_hier.memory",
    "bench",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_metric_has_a_valid_name_and_a_unit() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "metric {name} has bad unit {unit:?}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        for layer in LAYERS {
            let self_s = format!("{layer}.self_s");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == self_s), "{self_s}");
        }
    }

    /// `BENCHMARK.json` at the repository root names the same metrics,
    /// with the same units, in the same sections.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }
}
