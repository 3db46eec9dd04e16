//! Property-based tests for the simulation substrate.

use dca_sim_core::{
    BaselineEventQueue, Duration, EventQueue, Histogram, RunningMean, SeedSplitter, SimTime,
};
use proptest::prelude::*;

proptest! {
    /// The calendar queue is observationally identical to the heap
    /// oracle under any workload of dense and sparse arrival phases
    /// (ties piled into one slot, then gaps of several slots). Every pop
    /// delivers the exact same `(time, value)` pair, and `peek_time`
    /// always announces the time `pop` then delivers.
    #[test]
    fn calendar_matches_heap_oracle_under_dense_and_sparse_phases(
        phases in prop::collection::vec((any::<bool>(), 64u64..1500), 2..8),
        seed in any::<u64>(),
    ) {
        let mut q = EventQueue::new();
        let mut oracle = BaselineEventQueue::new();
        let mut rng = seed | 1;
        let mut id = 0u64;
        for &(dense, n) in &phases {
            for _ in 0..n {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let dt = if dense { rng % 8 } else { 3 * 1024 + rng % 4096 };
                let at = SimTime(q.now().ps() + dt);
                q.push(at, id);
                oracle.push(at, id);
                id += 1;
                if rng & 3 == 0 {
                    prop_assert_eq!(q.peek_time(), oracle.peek_time());
                    prop_assert_eq!(q.pop(), oracle.pop());
                }
            }
        }
        while let Some(got) = q.pop() {
            prop_assert_eq!(Some(got), oracle.pop());
        }
        prop_assert!(oracle.pop().is_none());
        prop_assert_eq!(q.counters(), oracle.counters());
    }

    /// The event queue delivers exactly the multiset of pushed events, in
    /// nondecreasing time order, with ties in insertion order.
    #[test]
    fn event_queue_is_a_stable_time_sort(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.ps(), i));
        }
        prop_assert_eq!(got, expected);
        prop_assert_eq!(q.counters().0, q.counters().1);
    }

    /// Interleaved push/pop never violates monotonic delivery.
    #[test]
    fn event_queue_monotonic_under_interleaving(
        ops in prop::collection::vec((0u64..1000, any::<bool>()), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut last = SimTime::ZERO;
        for (dt, do_pop) in ops {
            // Schedule relative to *now* so pushes are always legal.
            let at = SimTime(q.now().ps() + dt);
            q.push(at, ());
            if do_pop {
                if let Some((t, ())) = q.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            }
        }
        while let Some((t, ())) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Welford accumulation matches the direct two-pass computation.
    #[test]
    fn running_mean_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut rm = RunningMean::new();
        for &x in &xs {
            rm.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((rm.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((rm.variance() - var).abs() < 1e-3 * (1.0 + var));
    }

    /// Merging split accumulators equals accumulating the whole.
    #[test]
    fn running_mean_merge_associative(
        xs in prop::collection::vec(-1e3f64..1e3, 2..100),
        split in 1usize..99
    ) {
        let split = split.min(xs.len() - 1);
        let mut whole = RunningMean::new();
        for &x in &xs {
            whole.push(x);
        }
        let (a, b) = xs.split_at(split);
        let mut left = RunningMean::new();
        let mut right = RunningMean::new();
        for &x in a { left.push(x); }
        for &x in b { right.push(x); }
        left.merge(&right);
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
        prop_assert_eq!(left.count(), whole.count());
    }

    /// Histogram quantiles are monotone in q and bracket the data.
    #[test]
    fn histogram_quantiles_monotone(xs in prop::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let q25 = h.quantile(0.25);
        let q50 = h.quantile(0.50);
        let q99 = h.quantile(0.99);
        prop_assert!(q25 <= q50 && q50 <= q99);
        prop_assert_eq!(h.count(), xs.len() as u64);
    }

    /// Seed derivation is injective-ish across labels and indices (no
    /// collisions within a realistic component population).
    #[test]
    fn seed_splitter_no_small_collisions(root in any::<u64>()) {
        let s = SeedSplitter::new(root);
        let mut seen = std::collections::HashSet::new();
        for label in ["cpu", "dram", "l2", "mix", "core"] {
            for idx in 0..8u64 {
                let seed = s.split(label).split_index(idx).seed();
                prop_assert!(seen.insert(seed), "collision at {label}/{idx}");
            }
        }
    }

    /// Duration arithmetic: (a+b)-b == a and scaling distributes.
    #[test]
    fn duration_arithmetic(a in 0u64..1 << 40, b in 0u64..1 << 40, n in 1u64..16) {
        let da = Duration::from_ps(a);
        let db = Duration::from_ps(b);
        prop_assert_eq!(((da + db) - db).ps(), a);
        prop_assert_eq!(da.times(n).ps(), a * n);
        let t = SimTime::ZERO + da + db;
        prop_assert_eq!((t - da - db).ps(), 0);
    }
}
