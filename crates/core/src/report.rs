//! Per-run reports: everything the paper's figures consume.

use dca_mem_hier::MainMemStats;
use dca_metrics::LatencyStat;
use dca_sim_core::{digest64, ByteWriter, SimTime};

use crate::controller::CtrlStats;
use crate::timeline::Timeline;

/// Per-core outcome.
#[derive(Clone, Debug)]
pub struct CoreReport {
    /// Benchmark name on this core.
    pub bench: String,
    /// Instructions retired.
    pub insts: u64,
    /// Cycles at 4 GHz.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
}

/// Per-channel device + controller outcome.
#[derive(Clone, Debug)]
pub struct ChannelReport {
    /// Read accesses issued to the device.
    pub reads: u64,
    /// Write accesses issued to the device.
    pub writes: u64,
    /// Bus direction switches.
    pub turnarounds: u64,
    /// Accesses per turnaround (Figs 14–15 metric).
    pub accesses_per_turnaround: f64,
    /// Row-buffer hit rate over read accesses (Figs 16–17 metric).
    pub read_row_hit_rate: f64,
    /// Read accesses that row-conflicted.
    pub read_row_conflicts: u64,
    /// Controller counters.
    pub ctrl: CtrlStats,
}

/// The full result of one simulation.
#[derive(Clone, Debug)]
pub struct SystemReport {
    /// Per-core results, in core order.
    pub cores: Vec<CoreReport>,
    /// Per-channel results.
    pub channels: Vec<ChannelReport>,
    /// L2 miss latency (demand reads to the DRAM cache), Figs 12–13.
    pub l2_miss_latency: LatencyStat,
    /// DRAM-cache demand-read hits.
    pub cache_read_hits: u64,
    /// DRAM-cache demand-read misses.
    pub cache_read_misses: u64,
    /// MAP-I prediction accuracy.
    pub predictor_accuracy: f64,
    /// Main-memory reads.
    pub mem_reads: u64,
    /// Main-memory writes.
    pub mem_writes: u64,
    /// Main-memory device statistics (backend, queue occupancy, row hit
    /// rate, bus busy time). For the flat backend only the traffic and
    /// bus-busy counters are populated.
    pub main_mem: MainMemStats,
    /// Writeback requests presented to the DRAM cache.
    pub writeback_requests: u64,
    /// Refill requests presented to the DRAM cache.
    pub refill_requests: u64,
    /// Miss fills admitted into the cache (equals `refill_requests` for
    /// every design except Banshee, whose frequency gate filters them).
    pub cache_fills: u64,
    /// Miss fills the Banshee-style frequency gate bypassed (0 for the
    /// other designs): the block answered the cores but was not
    /// installed, saving the fill's DRAM-cache write traffic.
    pub fill_bypasses: u64,
    /// Final simulated time.
    pub end_time: SimTime,
    /// Events the engine delivered over the run (the
    /// `core.system.events` count the benchmark reports).
    pub events_processed: u64,
    /// Optional detailed access timeline (when configured).
    pub timeline: Option<Timeline>,
}

impl SystemReport {
    /// DRAM-cache demand-read hit rate.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_read_hits + self.cache_read_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_read_hits as f64 / total as f64
        }
    }

    /// Fraction of miss fills the fill gate bypassed (0 when every fill
    /// was admitted — i.e. for every design except Banshee).
    pub fn fill_bypass_rate(&self) -> f64 {
        let total = self.cache_fills + self.fill_bypasses;
        if total == 0 {
            0.0
        } else {
            self.fill_bypasses as f64 / total as f64
        }
    }

    /// Device-wide accesses per turnaround (weighted by accesses).
    pub fn accesses_per_turnaround(&self) -> f64 {
        let accesses: u64 = self.channels.iter().map(|c| c.reads + c.writes).sum();
        let turnarounds: u64 = self.channels.iter().map(|c| c.turnarounds).sum();
        if turnarounds == 0 {
            accesses as f64
        } else {
            accesses as f64 / turnarounds as f64
        }
    }

    /// Device-wide read row-buffer hit rate (weighted by reads).
    pub fn read_row_hit_rate(&self) -> f64 {
        let reads: u64 = self.channels.iter().map(|c| c.reads).sum();
        if reads == 0 {
            return 0.0;
        }
        let hits: f64 = self
            .channels
            .iter()
            .map(|c| c.read_row_hit_rate * c.reads as f64)
            .sum();
        hits / reads as f64
    }

    /// Digest of every statistic the report carries, the optional
    /// timeline excepted (a diagnostic recording, not a result). Two runs
    /// agree bit for bit exactly when their digests do, so this is the
    /// one fingerprint equivalence and golden tests compare.
    ///
    /// Every report struct is destructured without `..`, so a field added
    /// to any of them does not compile until the digest covers it. The
    /// byte layout matches `perfbench`'s `report_digest`, so the values
    /// are interchangeable.
    pub fn digest(&self) -> u64 {
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
        } = self;
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
}
