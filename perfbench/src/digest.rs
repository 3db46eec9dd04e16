//! The correctness side of the benchmark: a digest over every public
//! field of a `SystemReport`, and the golden checker that turns a
//! mismatch into a counted failure instead of a panic.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dca::{ChannelReport, CoreReport, CtrlStats, SystemReport};
use dca_mem_hier::MainMemStats;
use dca_sim_core::{digest64, ByteWriter};

/// Digest of every public `SystemReport` field except the optional
/// access timeline (a diagnostic recording, not a result). The structs
/// are destructured without `..`, so a field added to any of them stops
/// this file from compiling until the digest covers it.
pub fn report_digest(r: &SystemReport) -> u64 {
    let SystemReport {
        cores,
        channels,
        l2_miss_latency,
        cache_read_hits,
        cache_read_misses,
        predictor_accuracy,
        mem_reads,
        mem_writes,
        main_mem,
        writeback_requests,
        refill_requests,
        cache_fills,
        fill_bypasses,
        end_time,
        events_processed,
        timeline: _,
    } = r;
    let mut w = ByteWriter::new();
    w.put_u64(cores.len() as u64);
    for core in cores {
        let CoreReport {
            bench,
            insts,
            cycles,
            ipc,
        } = core;
        w.put_u64(bench.len() as u64);
        w.put_bytes(bench.as_bytes());
        w.put_u64(*insts);
        w.put_u64(*cycles);
        w.put_f64(*ipc);
    }
    w.put_u64(channels.len() as u64);
    for ch in channels {
        let ChannelReport {
            reads,
            writes,
            turnarounds,
            accesses_per_turnaround,
            read_row_hit_rate,
            read_row_conflicts,
            ctrl,
        } = ch;
        w.put_u64(*reads);
        w.put_u64(*writes);
        w.put_u64(*turnarounds);
        w.put_f64(*accesses_per_turnaround);
        w.put_f64(*read_row_hit_rate);
        w.put_u64(*read_row_conflicts);
        let CtrlStats {
            pr_served,
            lr_served,
            writes_served,
            ofs_row_friendly,
            ofs_rrpc_cold,
            forced_drain_slots,
            spilled,
            sched_all_entries,
            pr_wait_ps,
            lr_wait_ps,
            write_wait_ps,
        } = ctrl;
        for c in [
            pr_served,
            lr_served,
            writes_served,
            ofs_row_friendly,
            ofs_rrpc_cold,
            forced_drain_slots,
            spilled,
            sched_all_entries,
        ] {
            w.put_u64(c.get());
        }
        w.put_u64(*pr_wait_ps);
        w.put_u64(*lr_wait_ps);
        w.put_u64(*write_wait_ps);
    }
    // LatencyStat keeps its fields private; its public accessors are
    // its whole observable state.
    w.put_u64(l2_miss_latency.count());
    w.put_f64(l2_miss_latency.mean_ns());
    w.put_f64(l2_miss_latency.p99_ns());
    w.put_u64(*cache_read_hits);
    w.put_u64(*cache_read_misses);
    w.put_f64(*predictor_accuracy);
    w.put_u64(*mem_reads);
    w.put_u64(*mem_writes);
    let MainMemStats {
        backend,
        reads,
        writes,
        busy_ps,
        row_hits,
        row_conflicts,
        turnarounds,
        peak_queue,
        queue_wait_ps,
    } = main_mem;
    w.put_u64(backend.len() as u64);
    w.put_bytes(backend.as_bytes());
    for v in [
        reads,
        writes,
        busy_ps,
        row_hits,
        row_conflicts,
        turnarounds,
        peak_queue,
        queue_wait_ps,
    ] {
        w.put_u64(*v);
    }
    for v in [
        writeback_requests,
        refill_requests,
        cache_fills,
        fill_bypasses,
        events_processed,
    ] {
        w.put_u64(*v);
    }
    w.put_u64(end_time.ps());
    digest64(&w.into_vec())
}

/// Compares each keyed result against its golden (when one is stored
/// for this seed) or else against the first result seen under that key
/// in this run, so every repetition must agree. A mismatch is recorded,
/// never raised.
pub struct Checker {
    goldens: BTreeMap<String, String>,
    first: BTreeMap<String, String>,
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker with no goldens: repetitions only have to agree.
    pub fn new() -> Self {
        Checker {
            goldens: BTreeMap::new(),
            first: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    /// A checker whose goldens are `key value` lines (see [`golden_path`]).
    pub fn with_goldens(text: &str) -> Self {
        let mut c = Checker::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            if let Some((k, v)) = line.split_once(' ') {
                c.goldens.insert(k.to_string(), v.trim().to_string());
            }
        }
        c
    }

    /// Check one result; returns whether it matched.
    pub fn check(&mut self, key: &str, value: &str) -> bool {
        let want = match self.goldens.get(key) {
            Some(g) => g.clone(),
            None => self
                .first
                .entry(key.to_string())
                .or_insert_with(|| value.to_string())
                .clone(),
        };
        if want == value {
            true
        } else {
            self.failures
                .push(format!("{key}: got {value}, expected {want}"));
            false
        }
    }

    /// `key value` lines of the first result seen per key — what
    /// `--bless` stores as the goldens.
    pub fn observed(&self) -> String {
        self.first
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect()
    }
}

/// Where the digest goldens of `workload` live.
pub fn golden_path(goldens: &Path, workload: &str) -> PathBuf {
    goldens.join(format!("{workload}.digests"))
}

/// Hex form of a digest, as stored in golden files.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_golden_is_a_counted_failure_not_a_panic() {
        let mut c = Checker::with_goldens("mix1 00000000deadbeef\n");
        assert!(!c.check("mix1", "0123456789abcdef"));
        assert_eq!(c.failures.len(), 1);
        // Keys without a golden only have to agree across repetitions.
        assert!(c.check("mix22", "aa"));
        assert!(c.check("mix22", "aa"));
        assert!(!c.check("mix22", "bb"));
        assert_eq!(c.failures.len(), 2);
    }
}
