//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the real proptest
//! cannot be vendored. This shim implements the subset the workspace's
//! property tests use:
//!
//! * the [`proptest!`] macro (with optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header),
//! * [`Strategy`] with [`Strategy::prop_map`],
//! * range strategies (`0u64..100`, `-1e6f64..1e6`, …), [`any`], tuple
//!   strategies, and [`prop::collection::vec`],
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`].
//!
//! Sampling is deterministic: each test derives its RNG stream from the
//! test's name, so failures reproduce across runs. No shrinking — a
//! failing case reports its inputs via the assertion message and case
//! index instead.

/// Number of cases to run per property by default.
const DEFAULT_CASES: u32 = 64;

/// Execution parameters for one property (shim: only `cases`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of sampled cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: DEFAULT_CASES,
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic per-test RNG (SplitMix64 over a name-derived seed).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// An RNG whose stream is a pure function of `name`.
    pub fn deterministic(name: &str) -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for b in name.as_bytes() {
            state = state.wrapping_add(*b as u64);
            state = Self::mix(state);
        }
        TestRng { state }
    }

    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Self::mix(self.state)
    }

    /// Uniform draw below `bound` (> 0), bias removed by rejection.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            if (m as u64) >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform draw in [0, 1).
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A source of sampled values (shim: no shrinking).
pub trait Strategy {
    /// Type of values produced.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform sampled values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Clone, Copy, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// Always produces a clone of its value (proptest's `Just`).
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy for "any value of `T`" — see [`Arbitrary`] for supported `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(core::marker::PhantomData)
}

/// Output of [`any`].
#[derive(Clone, Copy, Debug)]
pub struct AnyStrategy<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types [`any`] can produce.
pub trait Arbitrary {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric, wide dynamic range.
        let mag = rng.unit_f64() * 1e12;
        if rng.next_u64() & 1 == 1 {
            -mag
        } else {
            mag
        }
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0);
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
    (A.0, B.1, C.2, D.3, E.4, F.5);
}

/// `prop::collection` namespace, as re-exported by the prelude.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};

        /// Strategy producing `Vec`s of `element` with length drawn from
        /// `size`.
        pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        /// Output of [`vec()`].
        #[derive(Clone, Debug)]
        pub struct VecStrategy<S> {
            element: S,
            size: core::ops::Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = self.size.clone().sample(rng);
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestRng,
    };
}

/// Define property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let result: ::core::result::Result<(), ::std::string::String> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(msg) = result {
                    panic!("property failed at case {case}: {msg}");
                }
            }
        }
    )*};
}

/// Assert inside a property; failure aborts the case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(*lhs == *rhs) {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`",
                lhs, rhs
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(*lhs == *rhs) {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if *lhs == *rhs {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` == `{:?}`",
                lhs, rhs
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if *lhs == *rhs {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn strategies_sample_in_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        for _ in 0..1000 {
            let x = (3u64..17).sample(&mut rng);
            assert!((3..17).contains(&x));
            let f = (-2.0f64..2.0).sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
            let v = prop::collection::vec(0u32..4, 1..9).sample(&mut rng);
            assert!(!v.is_empty() && v.len() < 9);
            assert!(v.iter().all(|&e| e < 4));
            let (a, b) = (0u8..2, any::<bool>()).sample(&mut rng);
            assert!(a < 2);
            let _: bool = b;
        }
    }

    #[test]
    fn prop_map_transforms() {
        let mut rng = TestRng::deterministic("map");
        let s = (0usize..3).prop_map(|i| ["a", "b", "c"][i]);
        for _ in 0..50 {
            assert!(["a", "b", "c"].contains(&s.sample(&mut rng)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_end_to_end(xs in prop::collection::vec(0u64..100, 1..20), flip in any::<bool>()) {
            prop_assert!(xs.len() < 20);
            let doubled: Vec<u64> = xs.iter().map(|x| x * 2).collect();
            prop_assert_eq!(doubled.len(), xs.len());
            if flip {
                prop_assert_ne!(xs[0] * 2 + 1, doubled[0]);
            }
        }
    }
}
