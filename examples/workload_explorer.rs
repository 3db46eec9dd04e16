//! Explore the synthetic SPEC-2006-like workload generators: per-
//! benchmark stream character, store fractions, and the L2-miss /
//! writeback traffic each one induces.
//!
//! ```text
//! cargo run --example workload_explorer --release [benchmark]
//! ```

use dca::{Design, System, SystemConfig};
use dca_cpu::{Benchmark, TraceGen};
use dca_dram_cache::OrgKind;
use std::collections::BTreeSet;

fn stream_character(bench: Benchmark) -> (f64, f64, f64) {
    let mut g = TraceGen::new(bench.profile(), 0, 42);
    let mut stores = 0u64;
    let mut dependent = 0u64;
    let mut seen = BTreeSet::new();
    let mut revisits = 0u64;
    const N: u64 = 50_000;
    for _ in 0..N {
        let op = g.next_op();
        if op.is_store {
            stores += 1;
        }
        if op.dependent {
            dependent += 1;
        }
        if !seen.insert(op.block) {
            revisits += 1;
        }
    }
    (
        stores as f64 / N as f64,
        dependent as f64 / N as f64,
        revisits as f64 / N as f64,
    )
}

fn main() {
    let filter = std::env::args().nth(1);
    println!(
        "{:<12} {:>8} {:>10} {:>9} | {:>8} {:>9} {:>9} {:>8}",
        "benchmark", "stores", "dependent", "revisits", "IPC", "hit-rate", "wb-reqs", "rowhit"
    );
    for bench in Benchmark::ALL {
        if let Some(f) = &filter {
            if bench.name() != f {
                continue;
            }
        }
        let (st, dep, rev) = stream_character(bench);
        // One-core timing run for the induced DRAM-cache traffic.
        let mut cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        cfg.target_insts = 100_000;
        cfg.warmup_ops = 300_000;
        let r = System::new(cfg, &[bench]).run();
        println!(
            "{:<12} {:>7.1}% {:>9.1}% {:>8.1}% | {:>8.3} {:>8.1}% {:>9} {:>7.1}%",
            bench.name(),
            st * 100.0,
            dep * 100.0,
            rev * 100.0,
            r.cores[0].ipc,
            r.cache_hit_rate() * 100.0,
            r.writeback_requests,
            r.read_row_hit_rate() * 100.0,
        );
    }
    println!("\nstores/dependent/revisits characterise the generator stream;");
    println!("the right half is a 100k-instruction solo run (DCA, direct-mapped).");
}
