//! MAP-I: the instruction-based DRAM-cache hit/miss predictor of Qureshi
//! & Loh \[7\], used by all controller designs in the paper's evaluation to
//! overlap the main-memory fetch with the tag check on predicted misses.
//!
//! A table of 3-bit saturating counters is indexed by a hash of the
//! triggering instruction's address (Memory Access Pattern, per
//! Instruction). Counter ≥ half-range predicts *hit*; hits increment,
//! misses decrement. The insight carried over from the paper: miss/hit
//! behaviour is strongly instruction-correlated, so even a 256-entry
//! table predicts well.

use dca_sim_core::ByteWriter;

/// Per-instruction hit/miss predictor.
#[derive(Clone, Debug)]
pub struct MapI {
    table: Vec<u8>,
    predictions: u64,
    correct: u64,
}

const COUNTER_MAX: u8 = 7;
/// Initial value biases toward predicting hit (optimistic start, matching
/// the MAP-I description).
const COUNTER_INIT: u8 = 4;

impl MapI {
    /// A predictor with `entries` counters (must be a power of two).
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        MapI {
            table: vec![COUNTER_INIT; entries],
            predictions: 0,
            correct: 0,
        }
    }

    /// The paper-scale default: 256 entries (96 bytes of counters).
    pub fn paper() -> Self {
        Self::new(256)
    }

    #[inline]
    fn index(&self, pc: u32) -> usize {
        // Cheap avalanche then mask; low bits of real PCs are mostly zero.
        let h = pc.wrapping_mul(0x9E37_79B9) >> 8;
        h as usize & (self.table.len() - 1)
    }

    /// Predict whether the access by instruction `pc` will hit.
    pub fn predict_hit(&mut self, pc: u32) -> bool {
        self.predictions += 1;
        self.table[self.index(pc)] > COUNTER_MAX / 2
    }

    /// Train with the actual outcome.
    pub fn update(&mut self, pc: u32, hit: bool) {
        let i = self.index(pc);
        let c = &mut self.table[i];
        if hit {
            if *c < COUNTER_MAX {
                *c += 1;
            }
        } else if *c > 0 {
            *c -= 1;
        }
    }

    /// Record whether a prior prediction turned out correct (accuracy
    /// bookkeeping only; call alongside [`MapI::update`]).
    pub fn record_outcome(&mut self, predicted_hit: bool, actual_hit: bool) {
        if predicted_hit == actual_hit {
            self.correct += 1;
        }
    }

    /// Fraction of predictions that were correct.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }

    /// Total predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Serialise the full state into `w` (part of the warm-state byte
    /// image).
    pub fn encode(&self, w: &mut ByteWriter) {
        let Self {
            table,
            predictions,
            correct,
        } = self;
        w.put_u32(table.len() as u32);
        w.put_bytes(table);
        w.put_u64(*predictions);
        w.put_u64(*correct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_predicting_hit() {
        let mut p = MapI::paper();
        assert!(p.predict_hit(0x400), "optimistic initialisation");
    }

    #[test]
    fn learns_a_missing_instruction() {
        let mut p = MapI::paper();
        let pc = 0x1234;
        for _ in 0..4 {
            p.update(pc, false);
        }
        assert!(!p.predict_hit(pc), "after consistent misses, predicts miss");
        for _ in 0..4 {
            p.update(pc, true);
        }
        assert!(p.predict_hit(pc), "re-learns hits");
    }

    #[test]
    fn counters_saturate() {
        let mut p = MapI::new(64);
        let pc = 0x10;
        for _ in 0..100 {
            p.update(pc, true);
        }
        for _ in 0..4 {
            p.update(pc, false);
        }
        // 7 -> 3 after four misses: exactly at the threshold, predicts miss.
        assert!(!p.predict_hit(pc));
    }

    #[test]
    fn different_pcs_learn_independently() {
        let mut p = MapI::new(1024);
        // Use PCs that map to different table slots.
        let (a, b) = (0x4000, 0x8124);
        assert_ne!(p.index(a), p.index(b), "test PCs must not alias");
        for _ in 0..8 {
            p.update(a, false);
            p.update(b, true);
        }
        assert!(!p.predict_hit(a));
        assert!(p.predict_hit(b));
    }

    #[test]
    fn accuracy_tracking() {
        let mut p = MapI::paper();
        let pred = p.predict_hit(0x77);
        p.record_outcome(pred, true);
        let pred2 = p.predict_hit(0x77);
        p.record_outcome(pred2, false);
        assert_eq!(p.predictions(), 2);
        assert!((p.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        MapI::new(100);
    }
}
