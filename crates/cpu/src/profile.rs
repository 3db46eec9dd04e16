//! Benchmark profiles: the 11 SPEC CPU2006 memory-intensive benchmarks of
//! Table I, characterised for the synthetic generators.
//!
//! The parameters are qualitative but deliberate, drawn from the standard
//! characterisation literature for these benchmarks: lbm is a write-heavy
//! streaming stencil; libquantum streams one large array with modest
//! writes; mcf and omnetpp are pointer-chasers with large and mid-size
//! working sets respectively; leslie3d/bwaves/GemsFDTD/milc are multi-
//! stream scientific codes; gcc/soplex/astar sit in between. What matters
//! for the controller study is the *shape* of the resulting L2 miss and
//! writeback streams (row locality, read/write balance, dependence), not
//! exact MPKI values.

use crate::tracefile::{self, TraceId};

/// The benchmarks appearing in Table I, plus registered trace-file
/// workloads (see [`crate::tracefile`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// 429.mcf — pointer-chasing over a huge graph.
    Mcf,
    /// 450.soplex — sparse LP solver, mixed pattern.
    Soplex,
    /// 403.gcc — compiler, mixed, moderate intensity.
    Gcc,
    /// 462.libquantum — single-array streaming.
    Libquantum,
    /// 473.astar — path-finding, pointer-heavy, small-ish working set.
    Astar,
    /// 471.omnetpp — discrete-event simulator, pointer-chasing.
    Omnetpp,
    /// 459.GemsFDTD — FDTD solver, many concurrent streams.
    GemsFDTD,
    /// 437.leslie3d — CFD, multi-stream.
    Leslie3d,
    /// 410.bwaves — CFD, large streams.
    Bwaves,
    /// 470.lbm — lattice-Boltzmann, write-heavy streaming.
    Lbm,
    /// 433.milc — lattice QCD, strided/mixed.
    Milc,
    /// A replayed trace-file workload, registered through
    /// [`crate::tracefile::register_trace_file`]. The handle is `Copy`
    /// like every Table I benchmark, so trace workloads slot into mixes
    /// and harness tables unchanged; the records live in the process
    /// trace registry.
    Trace(TraceId),
}

impl Benchmark {
    /// All *synthetic* benchmarks, in a fixed order (indexing PCs and
    /// seeds). Trace workloads are registered at runtime and do not
    /// appear here.
    pub const ALL: [Benchmark; 11] = [
        Benchmark::Mcf,
        Benchmark::Soplex,
        Benchmark::Gcc,
        Benchmark::Libquantum,
        Benchmark::Astar,
        Benchmark::Omnetpp,
        Benchmark::GemsFDTD,
        Benchmark::Leslie3d,
        Benchmark::Bwaves,
        Benchmark::Lbm,
        Benchmark::Milc,
    ];

    /// Canonical lower-case name as used in Table I; for trace
    /// workloads, the name given at registration (usually the file
    /// stem).
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Mcf => "mcf",
            Benchmark::Soplex => "soplex",
            Benchmark::Gcc => "gcc",
            Benchmark::Libquantum => "libquantum",
            Benchmark::Astar => "astar",
            Benchmark::Omnetpp => "omnetpp",
            Benchmark::GemsFDTD => "GemsFDTD",
            Benchmark::Leslie3d => "leslie3d",
            Benchmark::Bwaves => "bwaves",
            Benchmark::Lbm => "lbm",
            Benchmark::Milc => "milc",
            Benchmark::Trace(id) => tracefile::trace_data(id).name,
        }
    }

    /// Parse a Table I name, falling back to registered trace names.
    pub fn from_name(s: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .iter()
            .copied()
            .find(|b| b.name() == s)
            .or_else(|| tracefile::find_trace_by_name(s))
    }

    /// Stable small integer id (PC-space partitioning). Synthetic
    /// benchmarks occupy 0..11; trace workloads follow in registration
    /// order, so every workload keeps a private 4096-entry PC window.
    pub fn id(self) -> u32 {
        match self {
            Benchmark::Trace(id) => Benchmark::ALL.len() as u32 + id.index() as u32,
            b => Benchmark::ALL.iter().position(|&x| x == b).unwrap() as u32,
        }
    }

    /// Whether this workload replays a trace file rather than a
    /// synthetic generator.
    pub fn is_trace(self) -> bool {
        matches!(self, Benchmark::Trace(_))
    }

    /// This benchmark's generator profile.
    ///
    /// # Panics
    /// Panics for trace workloads — a replayed trace has no synthetic
    /// profile; build an op stream with
    /// [`OpStream::for_bench`](crate::stream::OpStream::for_bench)
    /// instead of reaching for the generator parameters.
    pub fn profile(self) -> Profile {
        use Pattern::*;
        // (pattern, mem_fraction, store_fraction, ws_mb, mean_gap)
        match self {
            Benchmark::Mcf => Profile::new(self, Chase { chains: 8 }, 0.42, 0.18, 160, 2),
            Benchmark::Soplex => Profile::new(self, Mixed { stream_prob: 0.55 }, 0.36, 0.28, 32, 3),
            Benchmark::Gcc => Profile::new(self, Mixed { stream_prob: 0.60 }, 0.28, 0.30, 24, 3),
            Benchmark::Libquantum => Profile::new(self, Stream { streams: 2 }, 0.35, 0.25, 24, 2),
            Benchmark::Astar => Profile::new(self, Chase { chains: 4 }, 0.32, 0.24, 24, 3),
            Benchmark::Omnetpp => Profile::new(self, Chase { chains: 6 }, 0.33, 0.33, 32, 3),
            Benchmark::GemsFDTD => Profile::new(self, Stream { streams: 7 }, 0.40, 0.32, 128, 2),
            Benchmark::Leslie3d => Profile::new(self, Stream { streams: 5 }, 0.36, 0.30, 48, 2),
            Benchmark::Bwaves => Profile::new(self, Stream { streams: 4 }, 0.40, 0.30, 96, 2),
            Benchmark::Lbm => Profile::new(self, Stream { streams: 3 }, 0.40, 0.47, 192, 2),
            Benchmark::Milc => Profile::new(self, Mixed { stream_prob: 0.45 }, 0.36, 0.34, 64, 3),
            Benchmark::Trace(id) => panic!(
                "trace workload '{}' has no synthetic profile; drive it through an OpStream",
                tracefile::trace_data(id).name
            ),
        }
    }
}

/// Memory access pattern family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// `streams` concurrent sequential streams over the working set.
    Stream {
        /// Number of concurrent streams.
        streams: u8,
    },
    /// Pointer chasing over `chains` independent chains (dependent loads).
    Chase {
        /// Number of independent chains (= exploitable MLP).
        chains: u8,
    },
    /// Stream with probability `stream_prob`, random access otherwise.
    Mixed {
        /// Probability of taking the streaming component.
        stream_prob: f64,
    },
}

/// Full generator profile for one benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// Which benchmark this is.
    pub bench: Benchmark,
    /// Access pattern family.
    pub pattern: Pattern,
    /// Fraction of instructions that are memory operations.
    pub mem_fraction: f64,
    /// Fraction of memory operations that are stores.
    pub store_fraction: f64,
    /// Working-set size in 64-byte blocks.
    pub ws_blocks: u64,
    /// Mean compute-instruction gap between memory ops (geometric).
    pub mean_gap: u32,
    /// Probability an access revisits far-past data (reuse distance
    /// beyond the L2 but within DRAM-cache residency). This is what makes
    /// the DRAM cache *hit* — SPEC's medium-distance temporal reuse.
    pub reuse_prob: f64,
}

impl Profile {
    fn new(
        bench: Benchmark,
        pattern: Pattern,
        mem_fraction: f64,
        store_fraction: f64,
        ws_mb: u64,
        mean_gap: u32,
    ) -> Profile {
        // Pointer-chasers re-traverse structures more than pure streams.
        let reuse_prob = match pattern {
            Pattern::Stream { .. } => 0.75,
            Pattern::Chase { .. } => 0.78,
            Pattern::Mixed { .. } => 0.78,
        };
        Profile {
            bench,
            pattern,
            mem_fraction,
            store_fraction,
            ws_blocks: ws_mb * 1024 * 1024 / 64,
            mean_gap,
            reuse_prob,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("firefox"), None);
    }

    #[test]
    fn ids_are_unique_and_dense() {
        for (i, b) in Benchmark::ALL.iter().enumerate() {
            assert_eq!(b.id() as usize, i);
        }
    }

    #[test]
    fn profiles_are_sane() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert!(p.mem_fraction > 0.2 && p.mem_fraction < 0.5, "{b:?}");
            assert!(p.store_fraction > 0.1 && p.store_fraction < 0.5, "{b:?}");
            assert!(p.ws_blocks >= 20 * 1024 * 1024 / 64, "{b:?} ws too small");
            assert!(p.mean_gap >= 2, "{b:?}");
        }
    }

    #[test]
    fn trace_handles_have_names_ids_and_no_profile() {
        use crate::tracefile::{encode_trace, register_trace_bytes, TraceEncoding, TraceRecord};
        let bytes = encode_trace(
            &[TraceRecord {
                gap: 1,
                block: 42,
                is_store: false,
            }],
            TraceEncoding::Delta,
        );
        let b = register_trace_bytes("profile-trace-test", &bytes).expect("register");
        assert!(b.is_trace());
        assert_eq!(b.name(), "profile-trace-test");
        assert!(b.id() >= Benchmark::ALL.len() as u32, "ids follow Table I");
        assert_eq!(Benchmark::from_name("profile-trace-test"), Some(b));
        assert!(std::panic::catch_unwind(move || b.profile()).is_err());
    }

    #[test]
    fn lbm_is_the_write_heaviest() {
        let max = Benchmark::ALL
            .iter()
            .max_by(|a, b| {
                a.profile()
                    .store_fraction
                    .partial_cmp(&b.profile().store_fraction)
                    .unwrap()
            })
            .copied()
            .unwrap();
        assert_eq!(max, Benchmark::Lbm);
    }

    #[test]
    fn working_sets_contest_cache_capacity() {
        // Individual working sets exceed the L2 by an order of magnitude,
        // and the large benchmarks combine in 4-core mixes to contest the
        // 240 MB DRAM-cache data capacity.
        for b in Benchmark::ALL {
            assert!(b.profile().ws_blocks * 64 > 2 * 8 * 1024 * 1024, "{b:?}");
        }
        let big: u64 = Benchmark::ALL
            .iter()
            .map(|b| b.profile().ws_blocks * 64)
            .filter(|&ws| ws >= 96 * 1024 * 1024)
            .count() as u64;
        assert!(big >= 3, "need several large benchmarks, got {big}");
    }
}
