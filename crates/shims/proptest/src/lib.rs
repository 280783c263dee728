//! Offline stand-in for the subset of `proptest` used by the workspace's
//! property-test suites.
//!
//! The hermetic build environment has no access to crates.io, so this crate
//! reimplements the strategy combinators the suites consume — range
//! strategies, tuples, `prop_map`, `prop_oneof!`, `prop::collection::vec`,
//! `any`, `prop::sample::Index` — plus the `proptest!` macro itself. Two
//! deliberate simplifications relative to the real crate:
//!
//! * **No shrinking.** A failing case reports the values via the panic
//!   message of the underlying `assert!`, but is not minimised.
//! * **Derived determinism.** Each generated test seeds its RNG from the
//!   test's name, so runs are reproducible without a persisted regression
//!   file.
//!
//! The API mirrors `proptest` closely enough that swapping the path
//! dependency for the real crate requires no source changes in the suites.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::Range;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator backing the strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator seeded from an arbitrary label (the test name).
    pub fn from_label(label: &str) -> Self {
        let mut state = 0xcbf29ce484222325u64;
        for b in label.bytes() {
            state ^= b as u64;
            state = state.wrapping_mul(0x100000001b3);
        }
        TestRng { state }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform double in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in [0, bound).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        // Multiply-shift; the bias is irrelevant for test-case generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A generator of test-case values (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy so alternatives can be stored together.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe internal form of [`Strategy`].
trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A boxed, type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between boxed alternatives (`prop_oneof!` backing type).
pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one branch");
        let idx = rng.below(self.0.len() as u64) as usize;
        self.0[idx].generate(rng)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_strategy!(usize, u64, u32, i64, i32, i16, i8, u16, u8, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.next_f64() * (self.end - self.start);
        // Rounding can land exactly on the excluded upper bound.
        if v >= self.end {
            self.end.next_down().max(self.start)
        } else {
            v
        }
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        (self.start as f64..self.end as f64).generate(rng) as f32
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A: 0);
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
    (A: 0, B: 1, C: 2, D: 3, E: 4);
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
}

/// Always yields a clone of the given value (mirrors `proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------------
// any / Arbitrary
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy (subset of
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u32
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as i64
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite doubles over a wide symmetric range; NaN/inf would make
        // the geometric property tests vacuous rather than stronger.
        (rng.next_f64() - 0.5) * 2e12
    }
}

impl Arbitrary for crate::prop::sample::Index {
    fn arbitrary(rng: &mut TestRng) -> Self {
        crate::prop::sample::Index::new(rng.next_u64())
    }
}

/// The canonical strategy for `T` (mirrors `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

// ---------------------------------------------------------------------------
// prop:: module tree
// ---------------------------------------------------------------------------

/// Mirrors the `proptest::prop` module tree (`prop::collection`,
/// `prop::sample`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use std::ops::Range;

        /// A `Vec` whose length is drawn from `len` and whose elements are
        /// drawn from `element`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        /// Strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.clone().generate(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling helpers.
    pub mod sample {
        /// An index into a collection of as-yet-unknown size (mirrors
        /// `proptest::sample::Index`).
        #[derive(Debug, Clone, Copy)]
        pub struct Index(u64);

        impl Index {
            pub(crate) fn new(raw: u64) -> Self {
                Index(raw)
            }

            /// Resolves the index against a collection of length `len`.
            /// Panics on `len == 0`, like the real crate.
            pub fn index(&self, len: usize) -> usize {
                assert!(len > 0, "Index::index on an empty collection");
                (self.0 % len as u64) as usize
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Config + macros
// ---------------------------------------------------------------------------

/// Per-`proptest!` configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real default is 256; 64 keeps the hermetic suites fast while
        // still exercising a spread of layouts per property.
        ProptestConfig { cases: 64 }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that draws `cases` inputs and runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*
    ) => {
        $(
            // The `#[test]` attribute is written by the caller (inside the
            // macro invocation, as in the real proptest) and passes through
            // with the other metas.
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_label(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Asserts a property holds for the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts two values are equal for the current case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts two values are not equal for the current case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
/// Expands to `continue`, so it is only valid directly inside a `proptest!`
/// body (which is a loop body) — the same constraint the real macro has.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// The glob-importable prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Any, BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_label() {
        let s = (0.0f64..1.0, 0usize..10).prop_map(|(x, n)| (x, n));
        let mut a = TestRng::from_label("t");
        let mut b = TestRng::from_label("t");
        for _ in 0..50 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(0i32..100, 1..17)) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.len() < 17);
            prop_assert!(v.iter().all(|x| (0..100).contains(x)));
        }

        #[test]
        fn oneof_draws_from_both_branches(x in prop_oneof![0i32..10, 100i32..110]) {
            prop_assert!((0..10).contains(&x) || (100..110).contains(&x));
        }

        #[test]
        fn assume_skips_cases(x in 0i32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn index_resolves_in_bounds(idx in any::<prop::sample::Index>(), len in 1usize..50) {
            prop_assert!(idx.index(len) < len);
        }
    }
}
