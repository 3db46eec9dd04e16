//! # dca-mem-hier — SRAM cache hierarchy and main-memory substrate
//!
//! Everything between the cores and the DRAM-cache controller, per the
//! paper's Table II system configuration:
//!
//! * [`sram`] — a generic set-associative SRAM cache model used for the
//!   per-core L1s (32 KB, 2-way, 2 cycles) and the shared L2 (8 MB,
//!   20 cycles). Functional tags + LRU + dirty bits; timing is a fixed
//!   hit latency applied by the system model.
//! * [`mshr`] — miss-status holding registers for the L2: merge duplicate
//!   block misses, bound outstanding misses, and provide backpressure.
//! * [`memory`] — off-chip main memory behind a per-run backend choice
//!   ([`MainMemConfig`]): the seed **flat** model (Table II's 50 ns
//!   access latency behind a 2 GHz × 64-bit bus, fixed latency plus
//!   bandwidth serialisation — preserved bit-for-bit) or the
//!   **cycle-level** DDR4-style device, which reuses the tier-generic
//!   `dca_dram` channel/bank/bus machinery behind an FR-FCFS-scheduled
//!   `dca_sched::AccessQueue`, so miss refills, dirty victims and Lee
//!   writebacks contend at a real device. A run chooses only the
//!   backend and the cycle device's timing; latencies, geometry and
//!   queue size are constants of the module.
//! * [`lee`] — Lee et al.'s DRAM-aware last-level-cache writeback \[20\]
//!   (§VII, Fig 19): when a dirty block is written back, other dirty
//!   blocks of the same DRAM-cache row are eagerly written back too,
//!   trading extra writes for row-buffer locality.

pub mod lee;
pub mod memory;
pub mod mshr;
pub mod sram;

pub use lee::collect_same_row_dirty;
pub use memory::{CycleMemory, FlatMemory, MainMemConfig, MainMemStats, MainMemory, MemArrival};
pub use mshr::{Mshr, MshrOutcome};
pub use sram::{SramCache, SramStats};
