//! Property-based tests for queues, arbiters and hysteresis.

use dca_dram::{DramAccess, RowOutcome};
use dca_sched::{
    AccessQueue, Bliss, DrainPolicy, FrFcfs, Hysteresis, QueueEntry, ReadClass, SlotSet,
};
use dca_sim_core::{Duration, SimTime};
use proptest::prelude::*;

fn entry(id: u64, app: u8, bank: u32, at: u64) -> QueueEntry {
    QueueEntry {
        id,
        access: DramAccess::read(bank, (id % 8) as u32),
        app,
        class: ReadClass::Priority,
        enqueued_at: SimTime(at),
    }
}

/// Banks the bank-index properties spread entries over.
const BANKS: u32 = 16;

/// One random queue step: `(op, position, (bank, row, age, app, is_pr))`.
/// Ops 0 and 1 push, 2 removes the entry at `position` (mod length), so
/// queues fill up and then churn.
type Step = (u8, usize, (u32, u32, u64, u8, bool));

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0u8..3,
            0usize..128,
            (0u32..BANKS, 0u32..4, 0u64..64, 0u8..4, any::<bool>()),
        ),
        1..400,
    )
}

/// Apply `step` (the `id`-th) to `q`.
fn apply(q: &mut AccessQueue, id: u64, step: Step) {
    let (op, pos, (bank, row, age, app, pr)) = step;
    if op < 2 {
        let _ = q.push(QueueEntry {
            id,
            access: DramAccess::read(bank, row),
            app,
            class: if pr {
                ReadClass::Priority
            } else {
                ReadClass::LowPriority
            },
            enqueued_at: SimTime(age),
        });
    } else if !q.is_empty() {
        let slot = q.iter().nth(pos % q.len()).expect("in range").0;
        q.remove(slot);
    }
}

/// The slot set of the entries `keep` accepts, found by visiting every
/// entry — the filter the bank index replaces.
fn brute_set(q: &AccessQueue, keep: impl Fn(&QueueEntry) -> bool) -> SlotSet {
    q.iter()
        .filter(|(_, e)| keep(e))
        .fold(0, |set, (slot, _)| set | 1 << slot)
}

fn on(mask: u64, bank: u32) -> bool {
    (mask >> bank) & 1 == 1
}

/// The BLISS rules applied one at a time, as the paper states them:
/// keep non-blacklisted entries if any, then row hits if any, then the
/// oldest (lowest id on an age tie).
fn bliss_oracle(
    bliss: &Bliss,
    cands: &[(usize, &QueueEntry)],
    outcome: impl Fn(&QueueEntry) -> RowOutcome,
) -> Option<usize> {
    let mut pool: Vec<(usize, &QueueEntry)> = cands.to_vec();
    if pool.iter().any(|(_, e)| !bliss.is_blacklisted(e.app)) {
        pool.retain(|(_, e)| !bliss.is_blacklisted(e.app));
    }
    if pool.iter().any(|(_, e)| outcome(e) == RowOutcome::Hit) {
        pool.retain(|(_, e)| outcome(e) == RowOutcome::Hit);
    }
    pool.iter()
        .min_by_key(|(_, e)| (e.enqueued_at, e.id))
        .map(|(s, _)| *s)
}

proptest! {
    /// Under random push/remove sequences at every queue size in use,
    /// the occupied-bank mask, the PR slot set and every `in_banks`
    /// query equal a brute-force filter of `iter()`, and `iter_in`
    /// yields exactly the entries of its set.
    #[test]
    fn bank_index_matches_a_filter_of_iter(
        cap in 0usize..3,
        ops in steps(),
        masks in prop::collection::vec(any::<u64>(), 4..5)
    ) {
        let mut q = AccessQueue::new([32, 64, 96][cap]);
        for (id, step) in ops.into_iter().enumerate() {
            apply(&mut q, id as u64, step);
            let banks = q.iter().fold(0u64, |m, (_, e)| m | 1 << e.access.bank);
            prop_assert_eq!(q.banks(), banks);
            prop_assert_eq!(q.priority(), brute_set(&q, |e| e.class == ReadClass::Priority));
            for m in masks.iter().copied().chain([0, u64::MAX, 1, 1 << (BANKS - 1)]) {
                let set = q.in_banks(m);
                prop_assert_eq!(set, brute_set(&q, |e| on(m, e.access.bank)));
                let walked: Vec<u64> = q.iter_in(set).map(|(_, e)| e.id).collect();
                let filtered: Vec<u64> = q
                    .iter()
                    .filter(|(_, e)| on(m, e.access.bank))
                    .map(|(_, e)| e.id)
                    .collect();
                prop_assert_eq!(walked, filtered);
            }
        }
    }

    /// BLISS and FR-FCFS pick the same entry from the indexed candidates
    /// (free banks, optionally PRs only) as from `iter().filter(..)`, and
    /// BLISS agrees with its rules applied one by one — with random rows,
    /// open rows, ages (ties included), blacklists and free banks.
    #[test]
    fn indexed_picks_equal_filtered_picks(
        cap in 0usize..3,
        ops in steps(),
        open in prop::collection::vec(0u32..5, 16..17),
        hogs in prop::collection::vec(0u8..4, 0..3),
        free in any::<u64>()
    ) {
        let mut q = AccessQueue::new([32, 64, 96][cap]);
        for (id, step) in ops.into_iter().enumerate() {
            apply(&mut q, id as u64, step);
        }
        // Row 4 stands for a closed bank.
        let outcome = |e: &QueueEntry| match open[e.access.bank as usize] {
            4 => RowOutcome::Closed,
            r if r == e.access.row => RowOutcome::Hit,
            _ => RowOutcome::Conflict,
        };
        let mut bliss = Bliss::with_params(4, Duration::from_ns(1_000_000));
        for &app in &hogs {
            for _ in 0..4 {
                bliss.on_service(app, SimTime(1));
            }
        }
        let frfcfs = FrFcfs::new();
        for pr_only in [false, true] {
            let mut set = q.in_banks(free);
            if pr_only {
                set &= q.priority();
            }
            let keep = |e: &QueueEntry| {
                on(free, e.access.bank) && (!pr_only || e.class == ReadClass::Priority)
            };
            let filtered: Vec<(usize, &QueueEntry)> = q.iter().filter(|(_, e)| keep(e)).collect();
            let picked = bliss.pick(q.iter_in(set), outcome);
            prop_assert_eq!(picked, bliss.pick(filtered.iter().copied(), outcome));
            prop_assert_eq!(picked, bliss_oracle(&bliss, &filtered, outcome));
            prop_assert_eq!(
                frfcfs.pick(q.iter_in(set), outcome),
                frfcfs.pick(filtered.iter().copied(), outcome)
            );
        }
    }

    /// The queue never exceeds capacity, never loses or duplicates an
    /// entry, and hands back exactly what was pushed, under arbitrary
    /// push/remove interleavings. (Iteration is slot-ordered, not
    /// age-ordered — age lives in the entries themselves.)
    #[test]
    fn queue_capacity_and_conservation(
        ops in prop::collection::vec((any::<bool>(), 0usize..8), 1..200)
    ) {
        let mut q = AccessQueue::new(16);
        let mut live: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut next_id = 0u64;
        for (push, pos) in ops {
            if push {
                let e = entry(next_id, 0, 0, next_id);
                if q.push(e).is_ok() {
                    live.insert(next_id);
                }
                next_id += 1;
            } else if !q.is_empty() {
                let slot = q.iter().nth(pos % q.len()).expect("in range").0;
                let removed = q.remove(slot);
                prop_assert!(live.remove(&removed.id), "removed unknown id");
            }
            prop_assert!(q.len() <= 16);
            prop_assert_eq!(q.len(), live.len());
            let mut ids: Vec<u64> = q.iter().map(|(_, e)| e.id).collect();
            ids.sort_unstable();
            let mut want: Vec<u64> = live.iter().copied().collect();
            want.sort_unstable();
            prop_assert_eq!(ids, want, "queue contents drifted from reference");
        }
    }

    /// BLISS never picks a blacklisted app while a non-blacklisted
    /// candidate exists.
    #[test]
    fn bliss_never_prefers_blacklisted(
        apps in prop::collection::vec(0u8..4, 2..32),
        hog in 0u8..4
    ) {
        let mut bliss = Bliss::new();
        for _ in 0..4 {
            bliss.on_service(hog, SimTime(1));
        }
        let entries: Vec<QueueEntry> = apps
            .iter()
            .enumerate()
            .map(|(i, &a)| entry(i as u64, a, i as u32 % 16, i as u64))
            .collect();
        let picked = bliss
            .pick(entries.iter().enumerate(), |_| RowOutcome::Closed)
            .unwrap();
        let picked_app = entries[picked].app;
        let clean_exists = apps.iter().any(|&a| a != hog);
        if clean_exists {
            prop_assert_ne!(picked_app, hog, "picked the blacklisted hog");
        }
    }

    /// FR-FCFS picks a row hit whenever one exists.
    #[test]
    fn frfcfs_prefers_any_row_hit(
        banks in prop::collection::vec(0u32..16, 2..32),
        hit_bank in 0u32..16
    ) {
        let arb = FrFcfs::new();
        let entries: Vec<QueueEntry> = banks
            .iter()
            .enumerate()
            .map(|(i, &b)| entry(i as u64, 0, b, i as u64))
            .collect();
        let picked = arb
            .pick(entries.iter().enumerate(), |e| {
                if e.access.bank == hit_bank {
                    RowOutcome::Hit
                } else {
                    RowOutcome::Conflict
                }
            })
            .unwrap();
        if banks.contains(&hit_bank) {
            prop_assert_eq!(entries[picked].access.bank, hit_bank);
        }
    }

    /// Hysteresis output only changes when crossing a threshold, and the
    /// active set is consistent with the band.
    #[test]
    fn hysteresis_band_behaviour(occs in prop::collection::vec(0.0f64..1.0, 1..200)) {
        let mut h = Hysteresis::new(0.5, 0.8);
        let mut active = false;
        for occ in occs {
            let got = h.update(occ);
            if occ > 0.8 {
                active = true;
            } else if occ < 0.5 {
                active = false;
            }
            prop_assert_eq!(got, active);
        }
    }

    /// The drain policy never drains an empty-ish queue below the low
    /// mark and always drains above the high mark.
    #[test]
    fn drain_policy_bounds(occs in prop::collection::vec(0.0f64..1.0, 1..200), reads in any::<bool>()) {
        let mut d = DrainPolicy::paper();
        for occ in occs {
            // The calls the controller makes each slot, in its order.
            let forced = d.update_forced(occ);
            let drain = forced || d.opportunistic(occ, reads);
            if occ > 0.85 {
                prop_assert!(drain, "must drain above high mark");
            }
            if occ < 0.50 {
                prop_assert!(!drain || forced, "no drain below low mark unless forced tail");
            }
        }
    }
}
