//! Device timing and organisation parameters (paper Table II).

use dca_sim_core::Duration;

/// DRAM timing parameters. All values are stored in picoseconds.
///
/// Field names follow the JEDEC mnemonics used in the paper:
/// activate-to-CAS (tRCD), CAS latency (tCAS), precharge (tRP), row active
/// minimum (tRAS), write-to-read turnaround (tWTR), read-to-precharge
/// (tRTP), read-to-write turnaround (tRTW), write recovery (tWR) and the
/// 64-byte data burst time (tBURST).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingParams {
    /// ACT → CAS delay.
    pub t_rcd: Duration,
    /// CAS → first data beat.
    pub t_cas: Duration,
    /// PRE duration.
    pub t_rp: Duration,
    /// Minimum row-open time (ACT → PRE).
    pub t_ras: Duration,
    /// Write→read bus turnaround.
    pub t_wtr: Duration,
    /// Read CAS → PRE minimum.
    pub t_rtp: Duration,
    /// Read→write bus turnaround.
    pub t_rtw: Duration,
    /// Write recovery: end of write burst → PRE minimum.
    pub t_wr: Duration,
    /// Data burst for one 64-byte block.
    pub t_burst: Duration,
}

impl TimingParams {
    /// The paper's die-stacked DRAM timings (Table II):
    /// tRCD-tCAS-tRP-tRAS = 8-8-8-30 ns, tWTR-tRTP-tRTW = 5-7.5-1.67 ns,
    /// tWR-tBURST = 15-3.33 ns.
    pub fn paper_stacked() -> Self {
        TimingParams {
            t_rcd: Duration::from_ns(8),
            t_cas: Duration::from_ns(8),
            t_rp: Duration::from_ns(8),
            t_ras: Duration::from_ns(30),
            t_wtr: Duration::from_ns(5),
            t_rtp: Duration::from_ns_f64(7.5),
            t_rtw: Duration::from_ns_f64(1.67),
            t_wr: Duration::from_ns(15),
            t_burst: Duration::from_ns_f64(3.33),
        }
    }

    /// Commodity DDR4-2400 timings (CL17-ish speed grade), the off-chip
    /// *main-memory* tier behind the DRAM cache. A 64-byte block on a
    /// 64-bit × 2400 MT/s channel bursts in 8 beats = 3.33 ns, matching
    /// the 16 GB/s pin bandwidth Table II's flat model assumes.
    pub fn ddr4_2400() -> Self {
        TimingParams {
            t_rcd: Duration::from_ns_f64(14.16),
            t_cas: Duration::from_ns_f64(14.16),
            t_rp: Duration::from_ns_f64(14.16),
            t_ras: Duration::from_ns(32),
            t_wtr: Duration::from_ns_f64(7.5),
            t_rtp: Duration::from_ns_f64(7.5),
            t_rtw: Duration::from_ns_f64(2.5),
            t_wr: Duration::from_ns(15),
            t_burst: Duration::from_ns_f64(3.33),
        }
    }

    /// A 3DXPoint-like slow persistent-memory tier behind a DDR-style
    /// interface (the gem5 unified DRAM-cache controller for 3DXPoint
    /// models the same shape). Reads pay a long media sensing time
    /// (tRCD ≈ 120 ns vs DDR4's 14 ns); writes are far slower still —
    /// the write recovery tWR ≈ 400 ns holds the bank through the
    /// media program, so write-heavy traffic serialises hard. The bus
    /// interface (tCAS, tBURST) stays DDR4-like: the media, not the
    /// link, is the bottleneck.
    pub fn xpoint() -> Self {
        TimingParams {
            t_rcd: Duration::from_ns(120),
            t_cas: Duration::from_ns_f64(14.16),
            t_rp: Duration::from_ns(20),
            t_ras: Duration::from_ns(160),
            t_wtr: Duration::from_ns(30),
            t_rtp: Duration::from_ns_f64(7.5),
            t_rtw: Duration::from_ns_f64(2.5),
            t_wr: Duration::from_ns(400),
            t_burst: Duration::from_ns_f64(3.33),
        }
    }

    /// Scale the data-burst time by `div`, dividing the channel's data
    /// bandwidth by the same factor while leaving the core timings
    /// untouched — the knob behind the main-memory-bandwidth
    /// sensitivity sweep.
    pub fn with_bandwidth_divisor(mut self, div: u32) -> Self {
        assert!(div >= 1, "bandwidth divisor must be >= 1");
        self.t_burst = Duration::from_ps(self.t_burst.ps() * div as u64);
        self
    }

    /// Latency of a best-case read row hit (CAS + burst), used for sanity
    /// checks and documentation examples.
    pub fn row_hit_read_latency(&self) -> Duration {
        self.t_cas + self.t_burst
    }

    /// Latency of a worst-case read row conflict (PRE + ACT + CAS + burst),
    /// assuming tRAS/tRTP/tWR already satisfied.
    pub fn row_conflict_read_latency(&self) -> Duration {
        self.t_rp + self.t_rcd + self.t_cas + self.t_burst
    }
}

/// Physical organisation of the stacked-DRAM array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Organization {
    /// Independent channels, each with its own controller, bus and banks.
    pub channels: u32,
    /// Ranks per channel (paper: 1).
    pub ranks: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Row buffer size in bytes.
    pub row_bytes: u32,
}

impl Organization {
    /// The paper's organisation: 4 channels, 1 rank/channel, 16 banks/rank,
    /// 4 KB row buffer. Rows-per-bank is derived from the 256 MB capacity:
    /// 256 MB / (4 ch × 16 banks × 4 KB) = 1024 rows.
    pub fn paper() -> Self {
        Organization {
            channels: 4,
            ranks: 1,
            banks_per_rank: 16,
            rows_per_bank: 1024,
            row_bytes: 4096,
        }
    }

    /// One off-chip DDR4-style main-memory channel: 16 banks, 8 KB rows,
    /// 32 K rows/bank = 4 GB. The channel/bank/bus machinery is
    /// tier-generic — this preset simply instantiates it with
    /// main-memory geometry instead of the stacked-DRAM one.
    pub const fn ddr4_main() -> Self {
        Organization {
            channels: 1,
            ranks: 1,
            banks_per_rank: 16,
            rows_per_bank: 32_768,
            row_bytes: 8192,
        }
    }

    /// Banks per channel (ranks × banks/rank).
    pub const fn banks_per_channel(&self) -> u32 {
        self.ranks * self.banks_per_rank
    }

    /// Total banks across all channels (the paper's RRPC state covers all
    /// 64 of them).
    pub fn total_banks(&self) -> u32 {
        self.channels * self.banks_per_channel()
    }

    /// Total rows across the device (= number of 4 KB row frames the
    /// DRAM cache is carved into).
    pub fn total_rows(&self) -> u64 {
        self.channels as u64 * self.banks_per_channel() as u64 * self.rows_per_bank as u64
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_rows() * self.row_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timing_values() {
        let t = TimingParams::paper_stacked();
        assert_eq!(t.t_rcd.ps(), 8_000);
        assert_eq!(t.t_cas.ps(), 8_000);
        assert_eq!(t.t_rp.ps(), 8_000);
        assert_eq!(t.t_ras.ps(), 30_000);
        assert_eq!(t.t_wtr.ps(), 5_000);
        assert_eq!(t.t_rtp.ps(), 7_500);
        assert_eq!(t.t_rtw.ps(), 1_670);
        assert_eq!(t.t_wr.ps(), 15_000);
        assert_eq!(t.t_burst.ps(), 3_330);
    }

    #[test]
    fn wtr_dominates_rtw() {
        // §II-A: write→read turnarounds are the expensive direction in
        // both commodity and stacked parts; the asymmetry matters for the
        // write-drain policies. DDR4-2400 has §II-A's DDR3-1600 values
        // (tWTR = 7.5 ns, tRTW = 2.5 ns).
        let stacked = TimingParams::paper_stacked();
        let ddr4 = TimingParams::ddr4_2400();
        assert!(stacked.t_wtr > stacked.t_rtw);
        assert!(ddr4.t_wtr > ddr4.t_rtw);
    }

    #[test]
    fn paper_organisation_capacity_is_256mb() {
        let org = Organization::paper();
        assert_eq!(org.capacity_bytes(), 256 * 1024 * 1024);
        assert_eq!(org.total_banks(), 64);
        assert_eq!(org.banks_per_channel(), 16);
        assert_eq!(org.total_rows(), 65_536);
    }

    #[test]
    fn ddr4_main_memory_presets() {
        let t = TimingParams::ddr4_2400();
        // 64 B on a 64-bit × 2400 MT/s channel: 3.33 ns, i.e. the same
        // 16 GB/s the flat model's "2 GHz × 64-bit bus" serialises at.
        assert_eq!(t.t_burst.ps(), 3_330);
        assert!(t.t_wtr > t.t_rtw, "WTR asymmetry holds off-chip too");
        let org = Organization::ddr4_main();
        assert_eq!(org.capacity_bytes(), 4 << 30);
        assert_eq!(org.banks_per_channel(), 16);
    }

    #[test]
    fn xpoint_is_slow_and_write_asymmetric() {
        let x = TimingParams::xpoint();
        let d = TimingParams::ddr4_2400();
        assert_eq!(x.t_rcd.ps(), 120_000);
        assert_eq!(x.t_wr.ps(), 400_000);
        assert!(
            x.t_rcd.ps() > 5 * d.t_rcd.ps(),
            "reads pay the media sensing time"
        );
        assert!(
            x.t_wr.ps() > 20 * d.t_wr.ps(),
            "writes pay the media program time"
        );
        assert!(x.t_wtr > x.t_rtw, "WTR asymmetry holds for XPoint too");
        assert_eq!(x.t_burst, d.t_burst, "the link itself is DDR4-like");
    }

    #[test]
    fn bandwidth_divisor_scales_burst_only() {
        let base = TimingParams::ddr4_2400();
        let half = base.with_bandwidth_divisor(2);
        assert_eq!(half.t_burst.ps(), 2 * base.t_burst.ps());
        assert_eq!(half.t_rcd, base.t_rcd);
        assert_eq!(half.t_wtr, base.t_wtr);
        assert_eq!(base.with_bandwidth_divisor(1), base);
    }

    #[test]
    fn derived_latencies() {
        let t = TimingParams::paper_stacked();
        assert_eq!(t.row_hit_read_latency().ps(), 11_330);
        assert_eq!(t.row_conflict_read_latency().ps(), 27_330);
    }
}
