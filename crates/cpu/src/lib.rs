//! # dca-cpu — core model and synthetic workloads
//!
//! The processor side of the reproduction. The paper ran SPEC CPU2006 on
//! gem5's OoO x86 model; the phenomena it studies, however, live in the
//! DRAM-cache controller. What the controller needs from the CPU side is
//! (a) bursts of demand reads with realistic memory-level parallelism and
//! dependence structure, (b) a writeback stream produced by real cache
//! evictions, and (c) a way to convert latency changes back into IPC.
//! This crate provides exactly that:
//!
//! * [`profile`] — per-benchmark characterisations of the 11 SPEC 2006
//!   memory-intensive benchmarks used in Table I (memory intensity, store
//!   fraction, working-set size, access pattern, dependence), driving
//!   seeded synthetic generators.
//! * [`trace`] — the generators themselves: streaming, pointer-chasing
//!   and mixed patterns producing an infinite deterministic op stream.
//! * [`tracefile`] — replayable trace-file workloads: a compact
//!   versioned binary format (`.dcat`: varint records, optional delta
//!   encoding), a digest-keyed process registry, and the
//!   [`TraceReader`] that replays a registered trace. Real application
//!   traces (or `tracegen-dump` captures of synthetic runs) drive the
//!   identical core/hierarchy path as the generators.
//! * [`stream`] — [`OpStream`], the single op source a core executes:
//!   generator or trace replay, so both workload kinds participate in
//!   warm-state checkpointing.
//! * [`core`] — an out-of-order-approximating core: 192-entry ROB,
//!   8-wide issue/retire at 4 GHz (Table II), bounded memory-level
//!   parallelism, dependent loads serialise, stores retire into the
//!   hierarchy without stalling.
//! * [`port`] — the memory-port trait through which the core talks to the
//!   cache hierarchy owned by the system crate.
//! * [`workload`] — the 30 four-benchmark mixes of Table I, plus
//!   runtime-registered custom mixes (how trace workloads enter the
//!   figure harness: [`tracefile::register_trace_file`] →
//!   [`workload::register_mix`] → any mix-id-driven entry point).

pub mod core;
pub mod port;
pub mod profile;
pub mod stream;
pub mod trace;
pub mod tracefile;
pub mod workload;

pub use crate::core::{Core, CoreConfig, CoreState};
pub use port::{MemOp, MemPort, PortResponse};
pub use profile::{Benchmark, Pattern, Profile};
pub use stream::OpStream;
pub use trace::{TraceGen, TraceOp};
pub use tracefile::{
    decode_trace, dump_synthetic, encode_trace, register_trace_bytes, register_trace_file,
    TraceEncoding, TraceError, TraceId, TraceReader, TraceRecord,
};
pub use workload::{mix, mix_names, register_mix, Mix, CUSTOM_MIX_BASE, TABLE1_MIXES};
