//! # dca — the DRAM-Cache-Aware DRAM controller
//!
//! A full-system reproduction of **Huang, Nagarajan & Joshi, "DCA: a
//! DRAM-Cache-Aware DRAM Controller" (SC '16)**.
//!
//! A request to a tags-in-DRAM cache expands into several DRAM accesses
//! (tag read, data read, tag write, ...). How a controller queues and
//! schedules those accesses decides whether critical demand reads wait
//! behind writeback bookkeeping. This crate implements the paper's three
//! designs over the shared substrate crates:
//!
//! * **CD** (conventional design, §III-A) — classify by *access type*:
//!   reads to the read queue, writes to the write queue. Minimises
//!   turnarounds but suffers **read priority inversion** and
//!   **read-read conflicts** (RRC).
//! * **ROD** (request-oriented design, §III-B) — classify by *request
//!   type*: everything belonging to a demand read goes to the read queue,
//!   everything belonging to a writeback/refill to the write queue (tag
//!   writes of read requests excepted, per the paper's footnote).
//!   Avoids inversion but triples turnarounds and stretches write-queue
//!   flushes.
//! * **DCA** (§IV) — CD's queues plus a **PR/LR split** in the read
//!   queue: priority reads are demand-read accesses, low-priority reads
//!   are tag/victim reads of writebacks and refills. LRs are held back
//!   like writes and flushed by the **Opportunistic Flushing Scheme**:
//!   an LR may issue when its bank has no row conflict, or when the
//!   bank's 3-bit **re-reference prediction counter (RRPC)** says the
//!   bank has not been touched by PRs recently (below the flushing
//!   factor FF). Algorithm 1's 85 %/75 % occupancy hysteresis lets LRs
//!   compete when the read queue backs up.
//!
//! [`System`] wires 4 cores → private L1s → shared L2 (+MSHRs) → the
//! per-channel controllers → the stacked-DRAM device → main memory, and
//! runs the deterministic event loop. [`SystemConfig`] reproduces
//! Table II; [`SystemReport`] carries every statistic the paper's figures
//! need.
//!
//! ## Tier-generic memory devices
//!
//! The `dca_dram` channel/bank/bus machinery is parameterised purely by
//! `TimingParams` + `Organization`, so the *same* cycle-level model
//! serves two tiers: the stacked-DRAM array behind the cache controller
//! (Table II geometry) and — since the main-memory refactor — the
//! off-chip DRAM behind the cache. [`SystemConfig::main_mem`] selects
//! the backing-store model:
//!
//! * **`MainMemConfig::Flat`** (default): the seed model — a fixed
//!   50 ns access latency plus 16 GB/s bus serialisation. Bit-identical
//!   to the pre-refactor simulator (`tests/main_mem_equivalence.rs`
//!   locks it against captured seed fingerprints).
//! * **`MainMemConfig::Cycle { timing }`**: a DDR4-style device (one
//!   16-bank channel, 8 KB rows) with DDR4-2400 (`ddr4()`) or
//!   3DXPoint-like (`xpoint()`) timing, driven through a bounded
//!   FR-FCFS access queue. The timing is the variant's only field; the
//!   flat latencies and the cycle device's geometry, queue size and
//!   controller latency are constants of `dca_mem_hier::memory`. Miss
//!   refills, dirty-victim writebacks and Lee-writeback bursts contend
//!   for real banks and a real bus. The device is event-driven:
//!   `Ev::MemPump` runs its scheduler whenever work arrives or a bank
//!   frees, and `Ev::MemArrive` routes each read completion back to its
//!   request — including the MAP-I speculative-prefetch race, where data
//!   can arrive before the tag check resolves (the request's `Fetch`
//!   state arbitrates). `MainMemConfig::ddr4_bandwidth_div` scales the
//!   burst time for main-memory-bandwidth sensitivity sweeps (the
//!   `figures --mainmem` table).
//!
//! [`SystemReport::main_mem`] reports the device either way: traffic,
//! bus busy time, and (cycle backend) row hit/conflict counts, queue
//! occupancy peaks and queueing delay.
//!
//! ## Warm-state checkpointing
//!
//! Construction has three phases: **build** (cold hierarchy), **warm-up**
//! (functional, timing-free streaming of `warmup_ops` ops per core) and
//! the **timing** run. Warm-up is ~45 % of a short run's wall clock and
//! is design-, timing- and bank-mapping-independent, so a
//! figure sweep over CD/ROD/DCA × {direct, XOR-remap} on one mix can
//! share a single warm-up:
//!
//! * [`System::capture_warm`] runs build + warm-up and returns a
//!   [`WarmState`]: the warmed L1s and L2, a compact snapshot of the tag
//!   array (its non-zero words, about a tenth of the dense array), the
//!   mid-stream workload generators (RNG cursors included) and the
//!   MAP-I table (carried for completeness; warm-up does not currently
//!   train it), keyed by a fingerprint of exactly the inputs warm-up
//!   depends on (benchmarks, cache/DRAM geometry, `warmup_ops`, seed —
//!   see the [`warm`] module docs for the scheme, the in-memory form
//!   and the state's canonical byte image).
//! * [`System::from_warm`] builds a runnable system directly from a
//!   `WarmState`, skipping warm-up: it rebuilds the dense tag array
//!   first, then copies the rest. The run is bit-for-bit identical to a
//!   cold [`System::new`] (asserted by
//!   `tests/warm_checkpoint_equivalence.rs` on every CI run). It is the
//!   only way to restore one.
//!
//! Both [`System::new`] and [`System::capture_warm`] warm up through one
//! two-stage pipeline over batches of ops. A helper thread draws each
//! batch from the workload generators and applies the DRAM-cache
//! tag-array operations; the calling thread runs the batch through the
//! L1s and the L2 and hands back its tag operations (each L2-miss block,
//! then its dirty L2 victim if there is one) in program order. The split
//! is exact: the generators never read cache state, and the tag array
//! consumes nothing but the L2's stream of misses and dirty victims, so
//! the warmed state is byte-identical to streaming one op at a time
//! through all three levels. A unit test in `system.rs` keeps that
//! serial loop as its oracle. The helper is a scoped thread, joined
//! before the call returns, and a panic in either stage reaches the
//! caller with its own message.
//!
//! A warm state lives only in the memory of the process that captured
//! it. The `dca-bench` figure runner builds each warm state once per
//! group of runs sharing it, restores every run of the group from it
//! and drops it when the group ends; `dca-bench`'s process-wide,
//! in-memory `WarmCache` shares warm-ups between in-process callers of
//! `RunSpec::run_benches`.
//!
//! ```
//! use dca::{Design, SystemConfig, System};
//! use dca_dram_cache::OrgKind;
//! use dca_cpu::Benchmark;
//!
//! let mut cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
//! cfg.target_insts = 50_000; // tiny demo run
//! cfg.warmup_ops = 10_000;
//! let report = dca::System::new(cfg, &[Benchmark::Libquantum, Benchmark::Mcf]).run();
//! assert!(report.cores[0].ipc > 0.0);
//! ```

pub mod config;
pub mod controller;
pub mod report;
pub mod rrpc;
pub mod system;
pub mod timeline;
pub mod warm;

pub use config::{Design, EngineSel, SystemConfig};
pub use controller::{ChannelController, CtrlStats};
pub use report::{ChannelReport, CoreReport, SystemReport};
pub use rrpc::Rrpc;
pub use system::System;
pub use timeline::{Timeline, TimelineEntry};
pub use warm::{WarmState, WARM_FORMAT_VERSION};
