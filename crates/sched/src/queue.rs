//! Bounded access queues, indexed by bank.
//!
//! [`AccessQueue`] keeps its entries in fixed slots and, next to them,
//! bit-set indexes that let an arbiter build a candidate set without
//! touching an entry:
//!
//! * one [`SlotSet`] per bank — the slots whose access targets it;
//! * the occupied-bank mask ([`AccessQueue::banks`]): bit `b` is set
//!   while bank `b` has at least one entry;
//! * the priority-read set ([`AccessQueue::priority`]).
//!
//! A controller intersects these with its channel's free-bank mask
//! (`DramChannel::free_banks`): [`AccessQueue::in_banks`] ORs the slot
//! sets of the requested banks that hold entries, so an arbitration slot
//! whose candidate banks are all busy costs a few mask operations and
//! visits no entry. [`AccessQueue::iter_in`] then walks one slot set.
//!
//! The index bounds the queue: a slot set is a `u128` and the bank mask a
//! `u64`, so a queue holds at most [`MAX_CAPACITY`] (128) entries and
//! indexes banks `0..`[`MAX_BANKS`] (64). `SystemConfig::validate`
//! rejects configurations beyond either limit before a queue is built.
//!
//! Iteration is in slot order (lowest slot first): deterministic, but
//! **not** age order. Every consumer is order-independent because
//! arbitration keys carry the entry's age (`enqueued_at`) and a unique
//! tiebreak `id` explicitly. A push takes the lowest free slot; slot ids
//! are stable for the lifetime of their entry and recycled afterwards,
//! so they are meaningful only between one arbitration pass and the
//! following `remove`.

use dca_dram::DramAccess;
use dca_sim_core::SimTime;

/// A set of queue slots, bit `s` standing for slot `s`.
pub type SlotSet = u128;

/// Largest queue capacity the slot index can hold.
pub const MAX_CAPACITY: usize = SlotSet::BITS as usize;

/// Banks the per-bank index covers: a queued access's bank must be below
/// this. Equal to the channel limit, so a channel's free-bank mask and a
/// queue's bank mask line up bit for bit.
pub const MAX_BANKS: usize = dca_dram::MAX_CHANNEL_BANKS as usize;

/// Priority class of a read access in the DCA design (§IV-B).
///
/// Reads from cache *read* requests are [`ReadClass::Priority`] (PR);
/// reads from cache *writeback/refill* requests are
/// [`ReadClass::LowPriority`] (LR). CD and ROD ignore this field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReadClass {
    /// PR: on the critical path of a processor read.
    Priority,
    /// LR: tag reads for writebacks / refills; off the critical path.
    LowPriority,
}

/// One queued DRAM access plus the request metadata arbitration needs.
#[derive(Clone, Copy, Debug)]
pub struct QueueEntry {
    /// Unique id assigned by the controller; ties broken by id so
    /// arbitration is deterministic.
    pub id: u64,
    /// The DRAM access to perform.
    pub access: DramAccess,
    /// Issuing application (core) — BLISS's blacklisting unit.
    pub app: u8,
    /// PR/LR classification (meaningful for reads under DCA).
    pub class: ReadClass,
    /// When the entry entered the queue.
    pub enqueued_at: SimTime,
}

/// A bounded queue of accesses with O(1) push and removal-by-slot, a
/// per-bank slot index, and no allocation after construction.
#[derive(Clone, Debug)]
pub struct AccessQueue {
    /// Entry storage, one per slot; only slots in `occupied` are live.
    slots: Box<[QueueEntry]>,
    /// Live slots.
    occupied: SlotSet,
    /// Live slots of each bank.
    by_bank: [SlotSet; MAX_BANKS],
    /// Banks with at least one live slot.
    banks: u64,
    /// Live slots holding a [`ReadClass::Priority`] entry.
    priority: SlotSet,
    len: usize,
    /// `occupancy_at[n]` is `n / capacity`, computed once so the
    /// per-slot drain and ScheduleAll checks read it instead of dividing.
    occupancy_at: Box<[f64]>,
    /// High-water mark, for reporting.
    peak: usize,
}

impl AccessQueue {
    /// An empty queue holding at most `capacity` entries. All storage is
    /// allocated up front; the queue never touches the allocator again.
    ///
    /// # Panics
    /// Panics unless `1 <= capacity <=` [`MAX_CAPACITY`].
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(
            capacity <= MAX_CAPACITY,
            "queue capacity {capacity} exceeds the slot index's {MAX_CAPACITY}"
        );
        let vacant = QueueEntry {
            id: 0,
            access: DramAccess::read(0, 0),
            app: 0,
            class: ReadClass::LowPriority,
            enqueued_at: SimTime::ZERO,
        };
        AccessQueue {
            slots: vec![vacant; capacity].into_boxed_slice(),
            occupied: 0,
            by_bank: [0; MAX_BANKS],
            banks: 0,
            priority: 0,
            len: 0,
            occupancy_at: (0..=capacity).map(|n| n as f64 / capacity as f64).collect(),
            peak: 0,
        }
    }

    /// Entries currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupancy as a fraction of capacity.
    #[inline]
    pub fn occupancy(&self) -> f64 {
        self.occupancy_at[self.len]
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Banks with at least one queued entry, bit `b` for bank `b`.
    #[inline]
    pub fn banks(&self) -> u64 {
        self.banks
    }

    /// Slots holding [`ReadClass::Priority`] entries.
    #[inline]
    pub fn priority(&self) -> SlotSet {
        self.priority
    }

    /// Slots whose entry targets a bank in `banks` (bit `b` for bank
    /// `b`). Visits only the requested banks that hold entries, never an
    /// entry.
    #[inline]
    pub fn in_banks(&self, banks: u64) -> SlotSet {
        let mut rest = banks & self.banks;
        let mut set = 0;
        while rest != 0 {
            set |= self.by_bank[rest.trailing_zeros() as usize];
            rest &= rest - 1;
        }
        set
    }

    /// Push an entry; returns `Err(entry)` when full so callers can apply
    /// backpressure instead of losing accesses.
    ///
    /// # Panics
    /// Panics if the entry's bank is not below [`MAX_BANKS`].
    pub fn push(&mut self, entry: QueueEntry) -> Result<(), QueueEntry> {
        if self.is_full() {
            return Err(entry);
        }
        let bank = entry.access.bank as usize;
        assert!(
            bank < MAX_BANKS,
            "bank {bank} outside the queue's {MAX_BANKS}-bank index"
        );
        // Not full, so the lowest clear bit is a slot below capacity.
        let slot = (!self.occupied).trailing_zeros() as usize;
        let bit: SlotSet = 1 << slot;
        self.slots[slot] = entry;
        self.occupied |= bit;
        self.by_bank[bank] |= bit;
        self.banks |= 1 << bank;
        if entry.class == ReadClass::Priority {
            self.priority |= bit;
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
        Ok(())
    }

    /// Remove and return the entry in `slot` (slots come from the
    /// arbiters via [`AccessQueue::iter`] / [`AccessQueue::iter_in`]).
    /// O(1); other entries keep their slots.
    ///
    /// # Panics
    /// Panics if `slot` is not currently occupied.
    pub fn remove(&mut self, slot: usize) -> QueueEntry {
        assert!(
            slot < self.slots.len() && (self.occupied >> slot) & 1 == 1,
            "removing an empty queue slot"
        );
        let bit: SlotSet = 1 << slot;
        let entry = self.slots[slot];
        let bank = entry.access.bank as usize;
        self.occupied &= !bit;
        self.priority &= !bit;
        self.by_bank[bank] &= !bit;
        if self.by_bank[bank] == 0 {
            self.banks &= !(1 << bank);
        }
        self.len -= 1;
        entry
    }

    /// Iterator over every `(slot, entry)` pair, in slot order.
    /// Deterministic; age order is *not* implied — consumers needing age
    /// use `entry.enqueued_at` / `entry.id`, as the arbiters do.
    #[inline]
    pub fn iter(&self) -> Slots<'_> {
        self.iter_in(self.occupied)
    }

    /// Iterator over the `(slot, entry)` pairs of the live slots in
    /// `set`, in slot order.
    #[inline]
    pub fn iter_in(&self, set: SlotSet) -> Slots<'_> {
        let set = set & self.occupied;
        Slots {
            slots: &self.slots,
            lo: set as u64,
            hi: (set >> 64) as u64,
        }
    }
}

/// Iterator over the `(slot, entry)` pairs of a [`SlotSet`], lowest slot
/// first ([`AccessQueue::iter`], [`AccessQueue::iter_in`]). Walks the
/// set one 64-bit word at a time.
#[derive(Clone, Debug)]
pub struct Slots<'a> {
    slots: &'a [QueueEntry],
    lo: u64,
    hi: u64,
}

impl<'a> Iterator for Slots<'a> {
    type Item = (usize, &'a QueueEntry);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let slot = if self.lo != 0 {
            let s = self.lo.trailing_zeros() as usize;
            self.lo &= self.lo - 1;
            s
        } else if self.hi != 0 {
            let s = 64 + self.hi.trailing_zeros() as usize;
            self.hi &= self.hi - 1;
            s
        } else {
            return None;
        };
        Some((slot, &self.slots[slot]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_dram::DramAccess;

    fn entry(id: u64) -> QueueEntry {
        QueueEntry {
            id,
            access: DramAccess::read(0, 0),
            app: 0,
            class: ReadClass::Priority,
            enqueued_at: SimTime(id),
        }
    }

    fn ids(q: &AccessQueue) -> Vec<u64> {
        let mut v: Vec<u64> = q.iter().map(|(_, e)| e.id).collect();
        v.sort_unstable();
        v
    }

    /// Slot currently holding the entry with `id`.
    fn slot_of(q: &AccessQueue, id: u64) -> usize {
        q.iter().find(|(_, e)| e.id == id).expect("entry present").0
    }

    #[test]
    fn push_iter_and_stable_slots() {
        let mut q = AccessQueue::new(4);
        for i in 0..4 {
            q.push(entry(i)).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(ids(&q), vec![0, 1, 2, 3]);
        // Removing one leaves everyone else's slot untouched.
        let s3 = slot_of(&q, 3);
        assert_eq!(q.remove(slot_of(&q, 2)).id, 2);
        assert_eq!(ids(&q), vec![0, 1, 3]);
        assert_eq!(slot_of(&q, 3), s3, "entry 3 kept its slot");
        assert_eq!(q.remove(slot_of(&q, 0)).id, 0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn slot_recycling_is_deterministic() {
        let mut a = AccessQueue::new(4);
        let mut b = AccessQueue::new(4);
        for q in [&mut a, &mut b] {
            q.push(entry(0)).unwrap();
            q.push(entry(1)).unwrap();
            q.remove(slot_of(q, 0));
            q.push(entry(2)).unwrap();
        }
        let order_a: Vec<(usize, u64)> = a.iter().map(|(s, e)| (s, e.id)).collect();
        let order_b: Vec<(usize, u64)> = b.iter().map(|(s, e)| (s, e.id)).collect();
        assert_eq!(order_a, order_b, "same ops ⇒ same slots and order");
        // The freed slot is reused immediately (lowest free slot first).
        assert_eq!(slot_of(&a, 2), 0);
    }

    #[test]
    fn full_queue_rejects_and_returns_entry() {
        let mut q = AccessQueue::new(1);
        q.push(entry(0)).unwrap();
        let rejected = q.push(entry(1)).unwrap_err();
        assert_eq!(rejected.id, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn occupancy_and_peak() {
        let mut q = AccessQueue::new(4);
        assert_eq!(q.occupancy(), 0.0);
        q.push(entry(0)).unwrap();
        q.push(entry(1)).unwrap();
        assert_eq!(q.occupancy(), 0.5);
        q.remove(slot_of(&q, 0));
        assert_eq!(q.peak(), 2);
    }

    #[test]
    fn priority_set_tracks_pushes_and_removes() {
        let mut q = AccessQueue::new(8);
        for i in 0..6 {
            let mut e = entry(i);
            if i % 3 == 0 {
                e.class = ReadClass::LowPriority;
            }
            q.push(e).unwrap();
        }
        let pr_ids =
            |q: &AccessQueue| -> Vec<u64> { q.iter_in(q.priority()).map(|(_, e)| e.id).collect() };
        assert_eq!(pr_ids(&q), vec![1, 2, 4, 5]);
        q.remove(slot_of(&q, 1)); // a Priority entry
        assert_eq!(pr_ids(&q), vec![2, 4, 5]);
        q.remove(slot_of(&q, 0)); // a LowPriority entry
        assert_eq!(q.priority().count_ones(), 3);
    }

    #[test]
    fn bank_index_follows_entries() {
        let mut q = AccessQueue::new(8);
        for (id, bank) in [(0, 3), (1, 3), (2, 63), (3, 0)] {
            let mut e = entry(id);
            e.access.bank = bank;
            q.push(e).unwrap();
        }
        assert_eq!(q.banks(), 1 << 0 | 1 << 3 | 1 << 63);
        let in_banks = |q: &AccessQueue, m: u64| -> Vec<u64> {
            q.iter_in(q.in_banks(m)).map(|(_, e)| e.id).collect()
        };
        assert_eq!(in_banks(&q, 1 << 3), vec![0, 1]);
        assert_eq!(in_banks(&q, 1 << 3 | 1 << 63), vec![0, 1, 2]);
        assert_eq!(in_banks(&q, 1 << 5), Vec::<u64>::new());
        // A bank leaves the mask with its last entry.
        q.remove(slot_of(&q, 0));
        assert_eq!(q.banks(), 1 << 0 | 1 << 3 | 1 << 63);
        q.remove(slot_of(&q, 1));
        assert_eq!(q.banks(), 1 << 0 | 1 << 63);
        assert_eq!(in_banks(&q, u64::MAX), vec![2, 3]);
    }

    #[test]
    fn drain_and_refill_many_times() {
        // Exercise slot recycling well past one capacity's worth.
        let mut q = AccessQueue::new(8);
        let mut next = 0u64;
        for round in 0..100u64 {
            while q.push(entry(next)).is_ok() {
                next += 1;
            }
            assert!(q.is_full());
            let victim = next - 1 - (round % 8);
            q.remove(slot_of(&q, victim));
            assert_eq!(q.len(), 7);
            assert!(!ids(&q).contains(&victim));
            while !q.is_empty() {
                let s = q.iter().next().unwrap().0;
                q.remove(s);
            }
        }
        assert_eq!(q.peak(), 8);
        assert_eq!(q.priority(), 0);
        assert_eq!(q.banks(), 0);
    }

    #[test]
    fn full_capacity_queue_uses_every_slot() {
        let mut q = AccessQueue::new(MAX_CAPACITY);
        for i in 0..MAX_CAPACITY as u64 {
            q.push(entry(i)).unwrap();
        }
        assert!(q.push(entry(999)).is_err());
        assert_eq!(q.in_banks(1).count_ones() as usize, MAX_CAPACITY);
        assert_eq!(q.remove(MAX_CAPACITY - 1).id, MAX_CAPACITY as u64 - 1);
    }

    #[test]
    #[should_panic(expected = "empty queue slot")]
    fn removing_free_slot_panics() {
        let mut q = AccessQueue::new(2);
        q.push(entry(0)).unwrap();
        let s = slot_of(&q, 0);
        q.remove(s);
        q.remove(s);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        AccessQueue::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds the slot index")]
    fn oversized_capacity_panics() {
        AccessQueue::new(MAX_CAPACITY + 1);
    }

    #[test]
    #[should_panic(expected = "outside the queue's 64-bank index")]
    fn bank_beyond_the_index_panics() {
        let mut e = entry(0);
        e.access.bank = MAX_BANKS as u32;
        AccessQueue::new(2).push(e).unwrap();
    }
}
