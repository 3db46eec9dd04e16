//! [`OpStream`] — the one op source a [`Core`](crate::core::Core)
//! executes, unifying the synthetic generators ([`TraceGen`]) and the
//! trace-file replayers ([`TraceReader`]) behind a single
//! `next_op`/`encode` surface.
//!
//! Everything above this module (the core model, the system warm-up,
//! warm-state checkpoints) is agnostic to where ops come from; this
//! enum is the only place that dispatches. The encoded form is a
//! one-byte kind tag followed by the variant's own payload, so the
//! byte image of a synthetic workload's cursor can never equal a trace
//! replay cursor's.

use dca_sim_core::ByteWriter;

use crate::profile::Benchmark;
use crate::trace::{TraceGen, TraceOp};
use crate::tracefile::TraceReader;

/// Kind tags of the encoded form.
const KIND_GEN: u8 = 0;
const KIND_REPLAY: u8 = 1;

/// A deterministic, checkpointable source of memory operations.
#[derive(Clone, Debug)]
pub enum OpStream {
    /// Synthetic generator (Table I profiles).
    Gen(TraceGen),
    /// Trace-file replayer.
    Replay(TraceReader),
}

impl OpStream {
    /// The stream for `bench` over the region starting at block `base`:
    /// a seeded [`TraceGen`] for synthetic benchmarks, a [`TraceReader`]
    /// for registered traces (`seed` is irrelevant to a replay — the
    /// records *are* the stream).
    pub fn for_bench(bench: Benchmark, base: u64, seed: u64) -> OpStream {
        match bench {
            Benchmark::Trace(id) => OpStream::Replay(TraceReader::new(id, base)),
            b => OpStream::Gen(TraceGen::new(b.profile(), base, seed)),
        }
    }

    /// The workload this stream produces.
    pub fn bench(&self) -> Benchmark {
        match self {
            OpStream::Gen(g) => g.profile().bench,
            OpStream::Replay(r) => r.bench(),
        }
    }

    /// Produce the next op.
    #[inline]
    pub fn next_op(&mut self) -> TraceOp {
        match self {
            OpStream::Gen(g) => g.next_op(),
            OpStream::Replay(r) => r.next_op(),
        }
    }

    /// Ops produced so far.
    pub fn generated(&self) -> u64 {
        match self {
            OpStream::Gen(g) => g.generated(),
            OpStream::Replay(r) => r.generated(),
        }
    }

    /// Serialise the stream state (part of the warm-state byte image).
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            OpStream::Gen(g) => {
                w.put_u8(KIND_GEN);
                g.encode(w);
            }
            OpStream::Replay(r) => {
                w.put_u8(KIND_REPLAY);
                r.encode(w);
            }
        }
    }
}

impl From<TraceGen> for OpStream {
    fn from(g: TraceGen) -> Self {
        OpStream::Gen(g)
    }
}

impl From<TraceReader> for OpStream {
    fn from(r: TraceReader) -> Self {
        OpStream::Replay(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracefile::{encode_trace, register_trace_bytes, TraceEncoding, TraceRecord};

    fn trace_bench() -> Benchmark {
        let records: Vec<TraceRecord> = (0..64)
            .map(|i| TraceRecord {
                gap: 3,
                block: i * 5 % 97,
                is_store: i % 4 == 0,
            })
            .collect();
        register_trace_bytes(
            "opstream-test",
            &encode_trace(&records, TraceEncoding::Delta),
        )
        .expect("register")
    }

    #[test]
    fn dispatches_by_bench_kind() {
        let syn = OpStream::for_bench(Benchmark::Gcc, 1 << 26, 9);
        assert!(matches!(syn, OpStream::Gen(_)));
        assert_eq!(syn.bench(), Benchmark::Gcc);
        let tb = trace_bench();
        let rep = OpStream::for_bench(tb, 2 << 26, 9);
        assert!(matches!(rep, OpStream::Replay(_)));
        assert_eq!(rep.bench(), tb);
    }
}
