//! FR-FCFS (first-ready, first-come-first-served) arbitration.
//!
//! The classic open-page arbiter: row hits first, then oldest. Used as an
//! ablation point against BLISS (the paper's base arbiter) to show DCA's
//! gains are not an artefact of the underlying arbitration algorithm
//! (§IV-B: "our scheme is not limited to any scheduling algorithm").

use dca_dram::RowOutcome;
use dca_sim_core::SimTime;

use crate::queue::QueueEntry;

/// Stateless FR-FCFS arbiter.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrFcfs;

impl FrFcfs {
    /// New arbiter.
    pub fn new() -> Self {
        FrFcfs
    }

    /// Choose the best entry among `candidates`: row hits first, then by
    /// age, then by id (deterministic tiebreak).
    pub fn pick<'a, I, F>(&self, candidates: I, mut row_outcome: F) -> Option<usize>
    where
        I: IntoIterator<Item = (usize, &'a QueueEntry)>,
        F: FnMut(&QueueEntry) -> RowOutcome,
    {
        // Class 0 is a row hit, 1 anything else; class 2 ranks below every
        // real key, so the first candidate always takes over from it.
        let mut best = (None, (2u8, SimTime::ZERO, 0u64));
        for (pos, e) in candidates {
            let key = (
                (row_outcome(e) != RowOutcome::Hit) as u8,
                e.enqueued_at,
                e.id,
            );
            if key < best.1 {
                best = (Some(pos), key);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ReadClass;
    use dca_dram::DramAccess;

    fn entry(id: u64, bank: u32, at: u64) -> QueueEntry {
        QueueEntry {
            id,
            access: DramAccess::read(bank, 0),
            app: 0,
            class: ReadClass::Priority,
            enqueued_at: SimTime(at),
        }
    }

    #[test]
    fn row_hit_beats_age() {
        let arb = FrFcfs::new();
        let old_conflict = entry(0, 0, 0);
        let young_hit = entry(1, 1, 100);
        let picked = arb
            .pick([(0, &old_conflict), (1, &young_hit)], |e| {
                if e.access.bank == 1 {
                    RowOutcome::Hit
                } else {
                    RowOutcome::Conflict
                }
            })
            .unwrap();
        assert_eq!(picked, 1);
    }

    #[test]
    fn age_breaks_ties() {
        let arb = FrFcfs::new();
        let a = entry(0, 0, 50);
        let b = entry(1, 1, 20);
        let picked = arb
            .pick([(0, &a), (1, &b)], |_| RowOutcome::Closed)
            .unwrap();
        assert_eq!(picked, 1);
    }

    #[test]
    fn id_breaks_age_ties() {
        let arb = FrFcfs::new();
        let a = entry(5, 0, 50);
        let b = entry(2, 1, 50);
        let picked = arb
            .pick([(0, &a), (1, &b)], |_| RowOutcome::Closed)
            .unwrap();
        assert_eq!(picked, 1);
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(
            FrFcfs::new().pick(std::iter::empty(), |_| RowOutcome::Hit),
            None
        );
    }
}
