//! Property-based tests for the DRAM device model: bus exclusivity,
//! timing monotonicity and mapping bijectivity under arbitrary access
//! sequences.

use dca_dram::{
    AccessKind, AddressMapper, BurstLen, DramAccess, DramChannel, MappingScheme, Organization,
    RowOutcome, TimingParams,
};
use dca_sim_core::SimTime;
use proptest::prelude::*;

fn arb_access() -> impl Strategy<Value = DramAccess> {
    (0u32..16, 0u32..64, any::<bool>(), any::<bool>()).prop_map(|(bank, row, write, tad)| {
        DramAccess {
            bank,
            row,
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            burst: if tad {
                BurstLen::Tad80
            } else {
                BurstLen::Block64
            },
        }
    })
}

proptest! {
    /// Data bursts never overlap on the shared bus, regardless of the
    /// access sequence, and per-bank issue order is respected.
    #[test]
    fn bursts_serialise_on_the_bus(accesses in prop::collection::vec(arb_access(), 1..100)) {
        let mut ch = DramChannel::new(TimingParams::paper_stacked(), &Organization::paper());
        let mut windows: Vec<(u64, u64)> = Vec::new();
        let mut now = SimTime::ZERO;
        for acc in accesses {
            // Wait for the bank if it's busy (the controller contract).
            let at = now.max(ch.bank_busy_until(acc.bank));
            let info = ch.issue(acc, at);
            prop_assert!(info.burst_end > info.burst_start);
            prop_assert!(info.burst_start >= at);
            windows.push((info.burst_start.ps(), info.burst_end.ps()));
            // Advance "now" sometimes to interleave, sometimes not.
            if acc.bank % 2 == 0 {
                now = info.burst_end;
            }
        }
        windows.sort_unstable();
        for pair in windows.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].0, "bus overlap: {pair:?}");
        }
    }

    /// The row outcome reported by issue always matches the preceding
    /// peek, and a repeat access to the same row is a hit.
    #[test]
    fn peek_predicts_issue(accesses in prop::collection::vec(arb_access(), 1..60)) {
        let mut ch = DramChannel::new(TimingParams::paper_stacked(), &Organization::paper());
        for acc in accesses {
            let at = ch.bank_busy_until(acc.bank);
            let predicted = ch.peek_outcome(acc.bank, acc.row);
            let info = ch.issue(acc, at);
            prop_assert_eq!(predicted, info.outcome);
            prop_assert_eq!(ch.peek_outcome(acc.bank, acc.row), RowOutcome::Hit);
        }
    }

    /// Channel statistics are conserved: hits + closed + conflicts equals
    /// the access count, per direction.
    #[test]
    fn stats_are_conserved(accesses in prop::collection::vec(arb_access(), 1..120)) {
        let mut ch = DramChannel::new(TimingParams::paper_stacked(), &Organization::paper());
        for acc in &accesses {
            let at = ch.bank_busy_until(acc.bank);
            ch.issue(*acc, at);
        }
        let s = ch.stats();
        prop_assert_eq!(
            s.reads.get(),
            s.read_row_hits.get() + s.read_row_closed.get() + s.read_row_conflicts.get()
        );
        prop_assert_eq!(
            s.writes.get(),
            s.write_row_hits.get() + s.write_row_closed.get() + s.write_row_conflicts.get()
        );
        prop_assert_eq!(s.reads.get() + s.writes.get(), accesses.len() as u64);
        prop_assert_eq!(ch.bus().accesses(), accesses.len() as u64);
    }

    /// Both mapping schemes are bijections over the frame space.
    #[test]
    fn mappings_are_bijective(xor in any::<bool>()) {
        let scheme = if xor { MappingScheme::XorRemap } else { MappingScheme::Direct };
        let m = AddressMapper::new(&Organization::paper(), scheme);
        let mut seen = dca_sim_core::FastHashMap::with_capacity(m.frames() as usize);
        for f in 0..m.frames() {
            prop_assert!(seen.insert(m.locate(f), ()).is_none());
        }
    }

    /// Turnaround accounting: the number of turnarounds is exactly the
    /// number of direction switches in the issue order.
    #[test]
    fn turnaround_count_matches_switches(accesses in prop::collection::vec(arb_access(), 1..100)) {
        let mut ch = DramChannel::new(TimingParams::paper_stacked(), &Organization::paper());
        let mut switches = 0u64;
        let mut last: Option<AccessKind> = None;
        for acc in &accesses {
            let at = ch.bank_busy_until(acc.bank);
            ch.issue(*acc, at);
            if let Some(prev) = last {
                if prev != acc.kind {
                    switches += 1;
                }
            }
            last = Some(acc.kind);
        }
        prop_assert_eq!(ch.bus().turnarounds(), switches);
    }
}
