//! Offline stand-in for the parts of `proptest 1` this workspace uses:
//! the `proptest!` macro with an optional `#![proptest_config(..)]`
//! attribute, `prop_assert!`/`prop_assert_eq!`, the [`Strategy`] trait
//! with `prop_map`, numeric-range strategies, tuple strategies,
//! `prop::sample::select` and `prop::collection::vec`.
//!
//! Differences from the real crate: inputs are sampled from a
//! deterministic per-test generator (seeded from the test name) and
//! failures panic immediately — there is no shrinking and no failure
//! persistence. Because the generator is deterministic, rerunning the
//! test replays the identical case sequence, so any failure reproduces
//! exactly.

use std::ops::Range;

/// Runner configuration (subset of `proptest::test_runner::Config`).
///
/// Only `cases` is consulted; the remaining fields exist so call sites
/// using struct-update syntax (`..ProptestConfig::default()`) compile
/// against the same shape as the real crate.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the property to pass.
    pub cases: u32,
    /// Maximum global rejects (unused: the shim has no filters).
    pub max_global_rejects: u32,
    /// Maximum shrink iterations (unused: the shim does not shrink).
    pub max_shrink_iters: u32,
    /// Verbosity (unused).
    pub verbose: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256, max_global_rejects: 1024, max_shrink_iters: 0, verbose: 0 }
    }
}

/// Deterministic input generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from an arbitrary seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed ^ 0x5DEE_CE66_D1CE_B00B }
    }

    /// Next 64 random bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// FNV-1a hash of a string — stable seed derivation from test names.
#[must_use]
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A generator of test inputs (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The type of value generated.
    type Value;

    /// Samples one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (as `Strategy::prop_map`).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of the same value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range {self:?}");
        let v = self.start + rng.next_f64() * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range {self:?}");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case, reason = "the type parameters double as the bindings")]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Sampling strategies (subset of `proptest::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniformly selects one of the given values.
    ///
    /// # Panics
    ///
    /// Panics (on generation) if `items` is empty.
    pub fn select<T: Clone + std::fmt::Debug>(items: Vec<T>) -> Select<T> {
        Select { items }
    }

    /// Strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.items.is_empty(), "select from empty set");
            self.items[rng.usize_in(0, self.items.len())].clone()
        }
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A size specification: exact or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            Self { lo: r.start, hi: r.end }
        }
    }

    /// Generates `Vec`s whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, ProptestConfig, Strategy};
}

/// Asserts a property holds (panics immediately; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts two expressions are equal (panics immediately; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts two expressions differ (panics immediately; no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Declares property tests (subset of `proptest::proptest!`).
///
/// Supports the form used throughout this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
///     #[test]
///     fn my_property(x in 0u64..10, v in prop::collection::vec(0.0f64..1.0, 1..8)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat_param in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let seed = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::new(seed ^ (u64::from(case) << 32));
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Color {
        Red,
        Green,
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn ranges_and_tuples(x in 1u64..100, (a, b) in (0.0f64..1.0, 0usize..4)) {
            prop_assert!((1..100).contains(&x));
            prop_assert!((0.0..1.0).contains(&a));
            prop_assert!(b < 4);
        }

        #[test]
        fn vec_and_select(
            v in prop::collection::vec(0.0f64..10.0, 2..9),
            c in prop::sample::select(vec![Color::Red, Color::Green]),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            prop_assert!(v.iter().all(|&x| (0.0..10.0).contains(&x)));
            prop_assert!(c == Color::Red || c == Color::Green);
        }

        #[test]
        fn mapped_strategy(p in (0.0f64..5.0, 0.0f64..5.0).prop_map(|(x, y)| x + y)) {
            prop_assert!((0.0..10.0).contains(&p), "{p}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = crate::TestRng::new(1);
        let mut b = crate::TestRng::new(1);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
