//! Miss-status holding registers (MSHRs) for the shared L2.
//!
//! MSHRs bound the number of outstanding L2 misses, merge duplicate
//! misses to the same block, and remember who is waiting so responses fan
//! back out. When all registers are in use the L2 stalls the requesting
//! core — the backpressure path from a congested DRAM-cache controller
//! all the way to the ROB.

use dca_sim_core::FastHashMap;

/// Result of trying to allocate an MSHR for a missing block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss to this block: a downstream request must be issued.
    New,
    /// An MSHR for the block already exists: the waiter was merged and no
    /// new downstream request is needed.
    Merged,
    /// All MSHRs busy: the requester must retry (stall).
    Full,
}

/// The MSHR file: block → waiting tokens.
#[derive(Clone, Debug)]
pub struct Mshr<T> {
    /// Block → waiters. Fast-hashed: this table is probed on every L2
    /// miss, squarely on the request hot path.
    entries: FastHashMap<u64, Vec<T>>,
    capacity: usize,
    peak: usize,
}

impl<T> Mshr<T> {
    /// An MSHR file with `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Mshr {
            entries: FastHashMap::with_capacity(capacity),
            capacity,
            peak: 0,
        }
    }

    /// Outstanding distinct block misses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Whether a miss on `block` is already outstanding.
    pub fn contains(&self, block: u64) -> bool {
        self.entries.contains_key(&block)
    }

    /// Try to register `waiter` for a miss on `block`.
    pub fn allocate(&mut self, block: u64, waiter: T) -> MshrOutcome {
        if let Some(waiters) = self.entries.get_mut(&block) {
            waiters.push(waiter);
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.insert(block, vec![waiter]);
        self.peak = self.peak.max(self.entries.len());
        MshrOutcome::New
    }

    /// The miss on `block` resolved: release the register and return all
    /// merged waiters (in registration order).
    pub fn complete(&mut self, block: u64) -> Vec<T> {
        self.entries.remove(&block).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_then_merge_then_complete() {
        let mut m: Mshr<u32> = Mshr::new(4);
        assert_eq!(m.allocate(10, 1), MshrOutcome::New);
        assert_eq!(m.allocate(10, 2), MshrOutcome::Merged);
        assert_eq!(m.allocate(11, 3), MshrOutcome::New);
        assert!(m.contains(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.complete(10), vec![1, 2]);
        assert!(!m.contains(10));
        assert_eq!(m.complete(10), Vec::<u32>::new());
    }

    #[test]
    fn capacity_enforced_per_distinct_block() {
        let mut m: Mshr<u32> = Mshr::new(2);
        assert_eq!(m.allocate(1, 0), MshrOutcome::New);
        assert_eq!(m.allocate(2, 0), MshrOutcome::New);
        assert_eq!(m.allocate(3, 0), MshrOutcome::Full);
        // Merging into existing entries still works at capacity.
        assert_eq!(m.allocate(1, 1), MshrOutcome::Merged);
        m.complete(1);
        assert_eq!(m.allocate(3, 0), MshrOutcome::New);
        assert_eq!(m.peak(), 2);
    }
}
