//! Deterministic discrete-event queue.
//!
//! Two implementations share one contract — events are delivered in
//! `(time, insertion sequence)` order, which makes every simulation
//! bit-reproducible for a given seed:
//!
//! * [`EventQueue`] — the production engine: a two-level
//!   **calendar queue**. A ring of [`NUM_BUCKETS`] per-slot FIFO buckets
//!   (each [`SLOT_WIDTH_PS`] ps wide) covers the near future; events
//!   beyond that horizon sit in a far-future binary heap and migrate into
//!   the ring as the cursor approaches them. In the common case — events
//!   scheduled within ~1 µs of now, arriving in roughly increasing time
//!   order — push and pop are O(1): no sift-up/sift-down, no comparisons
//!   against unrelated events. Buckets stay `(time, seq)`-sorted via
//!   ordered insertion, so the nondecreasing-time fast path is a plain
//!   append and an out-of-order push pays only a small in-bucket insert.
//! * [`BaselineEventQueue`] — the original `BinaryHeap` engine, kept as
//!   the reference the A/B determinism tests compare the calendar queue
//!   against.
//!
//! The sequence tiebreak is what guarantees reproducibility: two events
//! scheduled for the same instant always pop in the order they were
//! pushed, independent of either engine's internals.
//!
//! The slot width is fixed per queue ([`EventQueue::with_slot_shift`];
//! the simulator passes `SystemConfig::event_slot_shift`). It is a pure
//! performance knob: delivery order is identical for every width.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Default log2 of the calendar-slot width in picoseconds (1024 ps ≈
/// 1 ns, i.e. about four CPU cycles — finer than every DRAM timing
/// parameter). Tunable per queue via [`EventQueue::with_slot_shift`]:
/// smaller shifts spread clustered events over more buckets (cheaper
/// in-bucket inserts, longer empty-slot scans), larger shifts shorten
/// the scan but push more ties into one bucket.
pub const SLOT_SHIFT: u32 = 10;

/// Width of one calendar slot in picoseconds at the default shift.
pub const SLOT_WIDTH_PS: u64 = 1 << SLOT_SHIFT;

/// Largest accepted slot shift (a 1-second-wide slot; beyond this the
/// ring degenerates to a single bucket for any realistic horizon).
pub const MAX_SLOT_SHIFT: u32 = 40;

/// Number of slots in the near-future ring (must be a power of two).
/// `NUM_BUCKETS << SLOT_SHIFT` ps ≈ 1.05 µs of horizon — comfortably
/// past every single-hop latency in the model (the longest, a main-memory
/// read under load, is ~hundreds of ns).
pub const NUM_BUCKETS: usize = 1024;

const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One near-future slot: events whose timestamps all fall in the same
/// `SLOT_WIDTH_PS`-wide window, kept ascending in `(time, seq)` at all
/// times. Pushes in nondecreasing time order — the overwhelmingly common
/// case — are a plain O(1) append; a genuinely out-of-order push pays a
/// binary search plus an O(k) insert into the (small) bucket, keeping
/// every pop a straight `pop_front`.
struct Bucket<E> {
    items: VecDeque<(SimTime, u64, E)>,
}

impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket {
            items: VecDeque::new(),
        }
    }
}

impl<E> Bucket<E> {
    /// Insert preserving `(time, seq)` order. Pushes compare on the full
    /// `(time, seq)` key: a freshly pushed event always has the largest
    /// seq, but a *migrated* far-heap event can tie on time with an
    /// already-bucketed later-seq event and must land in front of it.
    #[inline]
    fn insert(&mut self, time: SimTime, seq: u64, event: E) {
        match self.items.back() {
            Some(back) if (back.0, back.1) > (time, seq) => {
                // Out-of-order for this bucket: binary-search the spot.
                // Seq order makes the key strictly increasing, so
                // partition_point on (time, seq) is exact.
                let pos = self.items.partition_point(|e| (e.0, e.1) < (time, seq));
                self.items.insert(pos, (time, seq, event));
            }
            _ => self.items.push_back((time, seq, event)),
        }
    }
}

/// A deterministic event queue ordered by `(time, insertion order)`,
/// backed by a two-level calendar queue.
///
/// `E` is the caller's event payload; the queue itself is payload-agnostic.
pub struct EventQueue<E> {
    /// Near-future ring; bucket `s & BUCKET_MASK` holds slot `s` events.
    buckets: Vec<Bucket<E>>,
    /// Events in the ring.
    near_len: usize,
    /// Cursor: the slot the next delivery scan starts from. Only ever
    /// advances, and never past the earliest pending event's slot.
    base_slot: u64,
    /// Events at or beyond `base_slot + NUM_BUCKETS` at push time.
    far: BinaryHeap<Entry<E>>,
    /// log2 of this queue's slot width in picoseconds.
    slot_shift: u32,
    next_seq: u64,
    now: SimTime,
    pushed: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero and the default
    /// [`SLOT_SHIFT`] bucket width.
    pub fn new() -> Self {
        Self::with_slot_shift(SLOT_SHIFT)
    }

    /// An empty queue whose calendar slots are `1 << slot_shift` ps wide.
    ///
    /// Delivery order is identical for every shift — only the constant
    /// factors move. Two failure modes bracket the choice: too-wide
    /// slots force sorted in-bucket inserts under event clustering,
    /// too-narrow slots lengthen the empty-bucket scan between sparse
    /// events.
    ///
    /// # Panics
    /// Panics if `slot_shift` exceeds [`MAX_SLOT_SHIFT`].
    pub fn with_slot_shift(slot_shift: u32) -> Self {
        assert!(
            slot_shift <= MAX_SLOT_SHIFT,
            "slot_shift {slot_shift} exceeds MAX_SLOT_SHIFT {MAX_SLOT_SHIFT}"
        );
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Bucket::default()).collect(),
            near_len: 0,
            base_slot: 0,
            far: BinaryHeap::new(),
            slot_shift,
            next_seq: 0,
            now: SimTime::ZERO,
            pushed: 0,
            popped: 0,
        }
    }

    #[inline]
    fn slot_of(&self, t: SimTime) -> u64 {
        t.ps() >> self.slot_shift
    }

    /// Current simulated time: the timestamp of the last popped event
    /// (time zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time — scheduling into
    /// the past is always a model bug and must fail loudly.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let slot = self.slot_of(at);
        debug_assert!(slot >= self.base_slot);
        if slot < self.base_slot + NUM_BUCKETS as u64 {
            self.buckets[(slot & BUCKET_MASK) as usize].insert(at, seq, event);
            self.near_len += 1;
        } else {
            self.far.push(Entry {
                time: at,
                seq,
                event,
            });
        }
    }

    /// Move far-future events whose slot now falls inside the ring window
    /// into their buckets. Called with the cursor parked at `base_slot`;
    /// afterwards every far event is strictly beyond the window, so the
    /// earliest pending event is always in the ring.
    fn migrate_far(&mut self) {
        let window_end = self.base_slot + NUM_BUCKETS as u64;
        while let Some(head) = self.far.peek() {
            if self.slot_of(head.time) >= window_end {
                break;
            }
            let Entry { time, seq, event } = self.far.pop().expect("peeked entry");
            // The bucket may already hold later-pushed near events with
            // larger seq but possibly later/earlier times; ordered insert
            // handles both.
            let slot = self.slot_of(time);
            self.buckets[(slot & BUCKET_MASK) as usize].insert(time, seq, event);
            self.near_len += 1;
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.near_len == 0 {
            // Ring empty: jump the cursor straight to the far heap's
            // earliest slot (cursor moves forward only — far events are
            // never earlier than `now`).
            let head_slot = self.slot_of(self.far.peek()?.time);
            debug_assert!(head_slot >= self.base_slot);
            self.base_slot = head_slot;
        }
        self.migrate_far();
        debug_assert!(self.near_len > 0);
        // Scan forward to the next non-empty slot. Each bucket holds
        // exactly one slot's events (window size == ring size), so the
        // first hit is the earliest slot; the cursor's monotonic advance
        // amortises the scan to O(1) per pop.
        loop {
            let bucket = &mut self.buckets[(self.base_slot & BUCKET_MASK) as usize];
            if bucket.items.is_empty() {
                self.base_slot += 1;
                continue;
            }
            let (time, _seq, event) = bucket.items.pop_front().expect("non-empty bucket");
            self.near_len -= 1;
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            self.popped += 1;
            return Some((time, event));
        }
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Pushes since the last pop may have landed on either side of the
        // (stale) window split, so take the min across both levels.
        let far_min = self.far.peek().map(|e| e.time);
        if self.near_len == 0 {
            return far_min;
        }
        let mut slot = self.base_slot;
        let near_min = loop {
            // Buckets stay sorted, so the front is the bucket minimum;
            // the first non-empty bucket holds the earliest slot, so its
            // front is the exact near-level minimum.
            if let Some(front) = self.buckets[(slot & BUCKET_MASK) as usize].items.front() {
                break front.0;
            }
            slot += 1;
        };
        Some(match far_min {
            Some(f) => near_min.min(f),
            None => near_min,
        })
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (pushed, popped) counters, for conservation checks in
    /// integration tests: a finished simulation must have pushed == popped.
    pub fn counters(&self) -> (u64, u64) {
        (self.pushed, self.popped)
    }
}

/// The original `BinaryHeap`-backed engine. Same API and identical
/// `(time, seq)` delivery order as [`EventQueue`]; kept so determinism
/// tests can assert the calendar engine reproduces it bit-for-bit and so
/// the perf harness has a fixed reference point.
pub struct BaselineEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    pushed: u64,
    popped: u64,
}

impl<E> Default for BaselineEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BaselineEventQueue<E> {
    /// An empty queue with the clock at time zero.
    pub fn new() -> Self {
        BaselineEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            pushed: 0,
            popped: 0,
        }
    }

    /// Current simulated time (see [`EventQueue::now`]).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at` (see [`EventQueue::push`]).
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Lifetime (pushed, popped) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.pushed, self.popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop().unwrap(), (SimTime(10), "a"));
        assert_eq!(q.pop().unwrap(), (SimTime(20), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime(30), "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), ());
        q.push(SimTime(5), ());
        q.push(SimTime(9), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), ());
        q.pop();
        q.push(SimTime(5), ());
    }

    #[test]
    fn interleaved_push_pop_is_deterministic() {
        // Regression guard for the (time, seq) tiebreak under interleaving.
        let mut q = EventQueue::new();
        q.push(SimTime(10), 0);
        q.push(SimTime(10), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime(10), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn counters_balance() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(SimTime(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.counters(), (10, 10));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), ());
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    // ------------------------------------------------------------------
    // Calendar-queue specific coverage: the far-future heap, migration
    // into the ring, ring wrap-around, and cross-engine equivalence.
    // ------------------------------------------------------------------

    /// Window span in picoseconds (events past this go to the far heap).
    const WINDOW_PS: u64 = (NUM_BUCKETS as u64) << SLOT_SHIFT;

    #[test]
    fn far_future_events_delivered_in_order() {
        let mut q = EventQueue::new();
        // Straddle the horizon: near, just-inside, just-outside, way out.
        q.push(SimTime(3 * WINDOW_PS), "far2");
        q.push(SimTime(100), "near");
        q.push(SimTime(WINDOW_PS - 1), "edge-in");
        q.push(SimTime(WINDOW_PS + 1), "far1");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "edge-in");
        assert_eq!(q.pop().unwrap().1, "far1");
        assert_eq!(q.pop().unwrap().1, "far2");
        assert!(q.pop().is_none());
        assert_eq!(q.counters(), (4, 4));
    }

    #[test]
    fn far_ties_keep_insertion_order_after_migration() {
        let mut q = EventQueue::new();
        let t = SimTime(2 * WINDOW_PS + 5);
        for i in 0..50 {
            q.push(t, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop().unwrap(), (t, i));
        }
    }

    #[test]
    fn ring_wraps_across_many_windows() {
        let mut q = EventQueue::new();
        // March time across several full ring revolutions with a rolling
        // lookahead that keeps both levels populated.
        let mut expect = 0u64;
        for i in 0..10_000u64 {
            q.push(SimTime(i * 700), i); // ~6.7 windows total
        }
        while let Some((_, i)) = q.pop() {
            assert_eq!(i, expect);
            expect += 1;
            // Occasionally push a same-time event mid-drain; it must come
            // out before later-timed ones (freshly-pushed, so after any
            // not-yet-popped equal-time event — none here).
        }
        assert_eq!(expect, 10_000);
    }

    #[test]
    fn out_of_order_pushes_within_one_bucket_sort_lazily() {
        let mut q = EventQueue::new();
        // Same slot (width 1024 ps), descending times: each push lands by
        // ordered insertion in front of the earlier ones.
        q.push(SimTime(900), "c");
        q.push(SimTime(500), "b");
        q.push(SimTime(100), "a");
        assert_eq!(q.peek_time(), Some(SimTime(100)));
        assert_eq!(q.pop().unwrap(), (SimTime(100), "a"));
        // Push into the same, partially drained bucket.
        q.push(SimTime(300), "a2");
        assert_eq!(q.pop().unwrap(), (SimTime(300), "a2"));
        assert_eq!(q.pop().unwrap(), (SimTime(500), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime(900), "c"));
    }

    #[test]
    fn peek_sees_far_future_minimum() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(SimTime(5 * WINDOW_PS), ());
        assert_eq!(q.peek_time(), Some(SimTime(5 * WINDOW_PS)));
        q.push(SimTime(10), ());
        assert_eq!(q.peek_time(), Some(SimTime(10)));
    }

    #[test]
    fn migrated_far_event_ties_sort_before_later_near_pushes() {
        // Regression: a far-heap event that ties on timestamp with an
        // already-bucketed later-seq event must migrate *in front* of
        // it. Sequence: park a far event beyond the window, advance the
        // cursor until its slot is in-window but still unmigrated, push
        // a near event at the exact same time, then pop through.
        let far_time = SimTime(1030 << SLOT_SHIFT); // slot 1030, outside [0, 1024)
        let mut q = EventQueue::new();
        q.push(far_time, "far-first"); // seq 0 → far heap
        q.push(SimTime(500 << SLOT_SHIFT), "early"); // seq 1 → bucket 500
        assert_eq!(q.pop().unwrap().1, "early"); // cursor → slot 500; window now covers 1030
        q.push(far_time, "near-second"); // seq 2 → straight into bucket 1030
        assert_eq!(
            q.pop().unwrap().1,
            "far-first",
            "seq order must survive migration"
        );
        assert_eq!(q.pop().unwrap().1, "near-second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn slot_shift_does_not_change_delivery_order() {
        // The bucket width is a pure performance knob: any shift must
        // deliver the exact same (time, seq) sequence. Exercise extreme
        // widths (1 ps slots and 1 µs slots) against the default.
        let mut queues = [
            EventQueue::with_slot_shift(0),
            EventQueue::with_slot_shift(SLOT_SHIFT),
            EventQueue::with_slot_shift(20),
        ];
        let mut state = 0xFEED_FACE_CAFE_F00D_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut tag = 0u64;
        for _ in 0..5_000 {
            let r = next();
            if r % 4 != 0 {
                let dt = r % (3 * WINDOW_PS / 2); // spans near ring and far heap
                let at = SimTime(queues[0].now().ps() + dt);
                for q in &mut queues {
                    q.push(at, tag);
                }
                tag += 1;
            } else {
                let expect = queues[0].pop();
                for q in &mut queues[1..] {
                    assert_eq!(q.pop(), expect);
                }
            }
        }
        loop {
            let expect = queues[0].pop();
            for q in &mut queues[1..] {
                assert_eq!(q.pop(), expect);
            }
            if expect.is_none() {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_SLOT_SHIFT")]
    fn oversized_slot_shift_panics() {
        let _q: EventQueue<()> = EventQueue::with_slot_shift(MAX_SLOT_SHIFT + 1);
    }

    #[test]
    fn matches_baseline_engine_on_adversarial_interleaving() {
        // Deterministic pseudo-random push/pop schedule, replayed through
        // both engines; every delivery must match exactly.
        let mut cal = EventQueue::new();
        let mut base = BaselineEventQueue::new();
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut tag = 0u64;
        for _ in 0..20_000 {
            let r = next();
            if r % 3 != 0 {
                // Push: mixture of near (same slot), mid, and far-future.
                let dt = match r % 5 {
                    0 => r % 64,                    // same/adjacent slot
                    1 => r % (WINDOW_PS / 2),       // mid window
                    2 => WINDOW_PS + r % WINDOW_PS, // far heap
                    _ => r % 4096,                  // near
                };
                let at = SimTime(cal.now().ps() + dt);
                cal.push(at, tag);
                base.push(at, tag);
                tag += 1;
            } else {
                assert_eq!(cal.pop(), base.pop());
                assert_eq!(cal.now(), base.now());
            }
            assert_eq!(cal.len(), base.len());
        }
        loop {
            let (a, b) = (cal.pop(), base.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.counters(), base.counters());
    }
}
