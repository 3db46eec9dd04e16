//! Deterministic seed derivation.
//!
//! Every stochastic component (one per benchmark stream, per core, per
//! mix) gets its own RNG stream derived from a single experiment seed, so
//! that (a) runs are reproducible and (b) changing one component's
//! consumption pattern cannot perturb another's stream — a classic source
//! of accidental non-determinism in simulators.
//!
//! Derivation uses SplitMix64, the standard generator for seeding
//! (Steele et al., "Fast splittable pseudorandom number generators").

/// Derives independent 64-bit seeds from a root seed and a label path.
#[derive(Clone, Copy, Debug)]
pub struct SeedSplitter {
    state: u64,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedSplitter {
    /// A splitter rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedSplitter { state: seed }
    }

    /// Child splitter for a labelled subcomponent. The label is hashed
    /// into the stream, so `split("coreA")` and `split("coreB")` diverge
    /// even from identical roots.
    ///
    /// Each byte is folded through a full splitmix avalanche and the
    /// *output* chains into the next step — a linear accumulate would let
    /// adversarial (label, root) pairs collide.
    pub fn split(&self, label: &str) -> SeedSplitter {
        let mut state = self.state;
        for b in label.as_bytes() {
            let mut s = state ^ (*b as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            state = splitmix64(&mut s);
        }
        // One extra scramble so empty labels still diverge from the parent.
        let mut s = state ^ 0xD6E8_FEB8_6659_FD93;
        SeedSplitter {
            state: splitmix64(&mut s),
        }
    }

    /// Child splitter indexed numerically (e.g. per-core).
    pub fn split_index(&self, index: u64) -> SeedSplitter {
        let mut s = self.state ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        SeedSplitter {
            state: splitmix64(&mut s),
        }
    }

    /// Materialise a 64-bit seed for handing to a concrete RNG.
    pub fn seed(&self) -> u64 {
        let mut state = self.state;
        splitmix64(&mut state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_paths_give_identical_seeds() {
        let a = SeedSplitter::new(42).split("cpu").split_index(3).seed();
        let b = SeedSplitter::new(42).split("cpu").split_index(3).seed();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_diverge() {
        let root = SeedSplitter::new(42);
        assert_ne!(root.split("cpu").seed(), root.split("dram").seed());
        assert_ne!(root.split("a").seed(), root.split("b").seed());
    }

    #[test]
    fn different_indices_diverge() {
        let root = SeedSplitter::new(7).split("cores");
        let seeds: Vec<u64> = (0..16).map(|i| root.split_index(i).seed()).collect();
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "cores {i} and {j} collided");
            }
        }
    }

    #[test]
    fn different_roots_diverge() {
        assert_ne!(
            SeedSplitter::new(1).split("x").seed(),
            SeedSplitter::new(2).split("x").seed()
        );
    }

    #[test]
    fn empty_label_differs_from_parent_seed() {
        let root = SeedSplitter::new(99);
        assert_ne!(root.seed(), root.split("").seed());
    }
}

/// A small, fast, deterministic PRNG (xoshiro256++), the workspace's
/// stand-in for `rand::rngs::SmallRng` (this build environment is
/// offline, so external crates cannot be fetched).
///
/// Implements exactly the sampling surface the workload generators use:
/// [`Prng::gen_range`] over `Range<u64>` / `Range<usize>` /
/// `RangeInclusive<u32>`, and [`Prng::gen_bool`].
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Seed via SplitMix64, as the xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut state);
        }
        // All-zero state is the one forbidden state; splitmix64 cannot
        // produce four zeros from any seed, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Prng { s }
    }

    /// The raw xoshiro256++ state (part of the warm-state byte image).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform sample from `range` (see [`SampleRange`] for the supported
    /// range shapes).
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // 53-bit mantissa draw in [0, 1).
        let x = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        x < p
    }

    /// Uniform u64 below `bound` (> 0), via Lemire's multiply-shift with
    /// rejection to remove modulo bias. The rejection threshold
    /// `2^64 mod bound` is below `bound`, so it is computed (one 64-bit
    /// division) only when the low word falls below `bound`.
    #[inline]
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut m = (self.next_u64() as u128).wrapping_mul(bound as u128);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128).wrapping_mul(bound as u128);
            }
        }
        (m >> 64) as u64
    }
}

/// Range shapes [`Prng::gen_range`] accepts.
pub trait SampleRange {
    /// Element type produced.
    type Output;
    /// Draw one uniform sample.
    fn sample(self, rng: &mut Prng) -> Self::Output;
}

impl SampleRange for core::ops::Range<u64> {
    type Output = u64;
    #[inline]
    fn sample(self, rng: &mut Prng) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.bounded(self.end - self.start)
    }
}

impl SampleRange for core::ops::Range<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut Prng) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + rng.bounded((self.end - self.start) as u64) as usize
    }
}

impl SampleRange for core::ops::RangeInclusive<u32> {
    type Output = u32;
    #[inline]
    fn sample(self, rng: &mut Prng) -> u32 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range");
        start + rng.bounded(end as u64 - start as u64 + 1) as u32
    }
}

#[cfg(test)]
mod prng_tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Prng::seed_from_u64(8);
        assert_ne!(Prng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Prng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = r.gen_range(0usize..3);
            assert!(y < 3);
            let z = r.gen_range(5u32..=5);
            assert_eq!(z, 5);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Prng::seed_from_u64(2);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
        assert!(!Prng::seed_from_u64(3).gen_bool(0.0));
        assert!(Prng::seed_from_u64(3).gen_bool(1.0));
    }

    /// The division-per-draw form `bounded` replaced.
    fn bounded_with_division(rng: &mut Prng, bound: u64) -> u64 {
        loop {
            let m = (rng.next_u64() as u128).wrapping_mul(bound as u128);
            if m as u64 >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn bounded_matches_the_division_per_draw_form() {
        // 2^63 + 1 rejects about half its draws.
        for bound in [1, 3, 7, (1 << 32) + 1, (1 << 63) + 1, u64::MAX] {
            let mut new = Prng::seed_from_u64(bound);
            let mut old = new.clone();
            for i in 0..100_000 {
                assert_eq!(
                    new.bounded(bound),
                    bounded_with_division(&mut old, bound),
                    "bound {bound}, draw {i}"
                );
            }
            assert_eq!(
                new.state(),
                old.state(),
                "bound {bound}: same draws consumed"
            );
        }
    }

    #[test]
    fn bounded_is_unbiased_across_buckets() {
        let mut r = Prng::seed_from_u64(5);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.gen_range(0u64..7) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }
}
