//! The 30 four-benchmark multiprogrammed mixes of Table I, plus
//! runtime-registered custom mixes (the entry point for trace-file
//! workloads: register traces with
//! [`crate::tracefile::register_trace_file`], bundle the handles into a
//! mix with [`register_mix`], and every harness path that resolves a
//! mix id through [`mix`] runs it unchanged).

use std::sync::{Mutex, OnceLock};

use crate::profile::Benchmark;

/// One 4-core workload mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// 1-based mix number as in Table I.
    pub id: u32,
    /// The four benchmarks, one per core.
    pub benches: [Benchmark; 4],
}

impl Mix {
    /// Table I's "a-b-c-d" name.
    pub fn name(&self) -> String {
        format!(
            "{}-{}-{}-{}",
            self.benches[0].name(),
            self.benches[1].name(),
            self.benches[2].name(),
            self.benches[3].name()
        )
    }
}

use Benchmark::*;

/// Table I verbatim: mixes 1–30.
pub const TABLE1_MIXES: [[Benchmark; 4]; 30] = [
    [Soplex, Mcf, Gcc, Libquantum],          // 1
    [Astar, Omnetpp, GemsFDTD, Gcc],         // 2
    [Mcf, Soplex, Astar, Leslie3d],          // 3
    [Bwaves, Lbm, Libquantum, Leslie3d],     // 4
    [Omnetpp, Milc, Leslie3d, Astar],        // 5
    [Soplex, Astar, Lbm, Mcf],               // 6
    [Lbm, Omnetpp, Leslie3d, Bwaves],        // 7
    [Milc, Leslie3d, Omnetpp, Gcc],          // 8
    [Bwaves, Astar, Gcc, Leslie3d],          // 9
    [Omnetpp, Libquantum, Mcf, Gcc],         // 10
    [Gcc, Libquantum, Lbm, Soplex],          // 11
    [Gcc, Leslie3d, GemsFDTD, Soplex],       // 12
    [Lbm, Libquantum, Omnetpp, Bwaves],      // 13
    [Gcc, Mcf, Leslie3d, Milc],              // 14
    [Omnetpp, Mcf, Leslie3d, Lbm],           // 15
    [Libquantum, Lbm, Soplex, Astar],        // 16
    [Milc, Libquantum, Bwaves, GemsFDTD],    // 17
    [Leslie3d, Astar, Libquantum, Bwaves],   // 18
    [Lbm, Gcc, Mcf, Libquantum],             // 19
    [Soplex, Astar, GemsFDTD, Leslie3d],     // 20
    [GemsFDTD, Astar, Leslie3d, Libquantum], // 21
    [Libquantum, Milc, Lbm, Mcf],            // 22
    [Lbm, Libquantum, Leslie3d, Bwaves],     // 23
    [Milc, Leslie3d, Omnetpp, Bwaves],       // 24
    [Bwaves, Astar, GemsFDTD, Leslie3d],     // 25
    [Gcc, Soplex, Libquantum, Milc],         // 26
    [Omnetpp, Lbm, Leslie3d, GemsFDTD],      // 27
    [Soplex, Bwaves, GemsFDTD, Leslie3d],    // 28
    [GemsFDTD, Leslie3d, Libquantum, Milc],  // 29
    [Omnetpp, Bwaves, Leslie3d, GemsFDTD],   // 30
];

/// First id handed out to runtime-registered mixes; 1..=30 stays
/// reserved for Table I.
pub const CUSTOM_MIX_BASE: u32 = 1000;

fn custom_mixes() -> &'static Mutex<Vec<Mix>> {
    static CUSTOM: OnceLock<Mutex<Vec<Mix>>> = OnceLock::new();
    CUSTOM.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a custom 4-core mix (typically holding [`Benchmark::Trace`]
/// handles), returning it with a fresh id ≥ [`CUSTOM_MIX_BASE`] that
/// [`mix`] resolves for the rest of the process lifetime. Registering
/// the same benchmark quadruple again returns the existing id.
pub fn register_mix(benches: [Benchmark; 4]) -> Mix {
    let mut reg = custom_mixes().lock().unwrap();
    if let Some(m) = reg.iter().find(|m| m.benches == benches) {
        return *m;
    }
    let m = Mix {
        id: CUSTOM_MIX_BASE + reg.len() as u32,
        benches,
    };
    reg.push(m);
    m
}

/// Mix `id`: 1-based Table I ids, or an id returned by [`register_mix`].
///
/// # Panics
/// Panics if `id` is neither in `1..=30` nor registered.
pub fn mix(id: u32) -> Mix {
    if (1..=30).contains(&id) {
        return Mix {
            id,
            benches: TABLE1_MIXES[(id - 1) as usize],
        };
    }
    if id >= CUSTOM_MIX_BASE {
        if let Some(m) = custom_mixes()
            .lock()
            .unwrap()
            .get((id - CUSTOM_MIX_BASE) as usize)
        {
            return *m;
        }
    }
    panic!("mix id must be 1..=30 or a registered custom mix, got {id}");
}

/// All thirty mixes.
pub fn all_mixes() -> Vec<Mix> {
    (1..=30).map(mix).collect()
}

/// The Table I names of all mixes, for reports.
pub fn mix_names() -> Vec<String> {
    all_mixes().iter().map(|m| m.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_mixes_of_four() {
        assert_eq!(all_mixes().len(), 30);
        for m in all_mixes() {
            assert_eq!(m.benches.len(), 4);
        }
    }

    #[test]
    fn spot_check_against_table1() {
        assert_eq!(mix(1).name(), "soplex-mcf-gcc-libquantum");
        assert_eq!(mix(2).name(), "astar-omnetpp-GemsFDTD-gcc");
        assert_eq!(mix(15).name(), "omnetpp-mcf-leslie3d-lbm");
        assert_eq!(mix(22).name(), "libquantum-milc-lbm-mcf");
        assert_eq!(mix(30).name(), "omnetpp-bwaves-leslie3d-GemsFDTD");
    }

    #[test]
    fn every_benchmark_appears() {
        let mut seen = std::collections::BTreeSet::new();
        for m in all_mixes() {
            for b in m.benches {
                seen.insert(b);
            }
        }
        assert_eq!(seen.len(), 11, "all 11 benchmarks used in Table I");
    }

    #[test]
    #[should_panic(expected = "1..=30")]
    fn mix_zero_panics() {
        mix(0);
    }

    #[test]
    fn custom_mixes_register_and_resolve() {
        let benches = [Mcf, Mcf, Gcc, Lbm]; // not a Table I quadruple
        let m = register_mix(benches);
        assert!(m.id >= CUSTOM_MIX_BASE);
        assert_eq!(mix(m.id), m);
        assert_eq!(register_mix(benches).id, m.id, "idempotent");
        let other = register_mix([Lbm, Lbm, Lbm, Lbm]);
        assert_ne!(other.id, m.id);
    }

    #[test]
    #[should_panic(expected = "registered custom mix")]
    fn unregistered_custom_mix_panics() {
        mix(CUSTOM_MIX_BASE + 9999);
    }

    #[test]
    fn names_list_matches() {
        let names = mix_names();
        assert_eq!(names.len(), 30);
        assert_eq!(names[0], "soplex-mcf-gcc-libquantum");
    }
}
