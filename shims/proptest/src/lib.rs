//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! The container has no crates.io access, so the property tests run on a
//! vendored mini-framework: strategies are deterministic samplers (seeded
//! from the test's module path and name), `proptest!` expands each test
//! into a loop over `ProptestConfig::cases` sampled cases, and
//! `prop_assert*` failures report the case number. There is no shrinking —
//! a failing case prints its seed context and panics — but generation
//! covers the same API shapes: ranges, tuples, `prop_map`, `prop_oneof!`,
//! `collection::vec`, and `any::<T>()`.

use std::fmt;
use std::ops::{Range, RangeInclusive};

pub use rand::rngs::StdRng as TestRngCore;
use rand::{Rng as _, SeedableRng as _};

/// Random source handed to strategies.
pub struct TestRng {
    inner: TestRngCore,
}

impl TestRng {
    /// Deterministic RNG for `name` (usually `module::test_name`).
    pub fn for_test(name: &str) -> TestRng {
        // FNV-1a over the name gives a stable per-test seed
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { inner: TestRngCore::seed_from_u64(h) }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }
}

use rand::RngCore as _;

/// Test-level configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of sampled cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A failed `prop_assert*`. Returned (not panicked) so the runner can
/// attach case context.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Drives one test's cases; owns the RNG.
pub struct TestRunner {
    rng: TestRng,
}

impl TestRunner {
    /// Runner for the named test.
    pub fn new(_config: ProptestConfig, name: &str) -> Self {
        TestRunner { rng: TestRng::for_test(name) }
    }

    /// The case RNG.
    pub fn rng(&mut self) -> &mut TestRng {
        &mut self.rng
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A value generator. Unlike real proptest there is no shrink tree; a
/// strategy is just a deterministic sampler.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Filter generated values (resamples until `f` accepts, up to a
    /// bounded number of attempts).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _whence: &'static str,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f }
    }

    /// Type-erase into a boxed sampler.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.sample(rng)))
    }
}

/// `Strategy::prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// `Strategy::prop_filter` adapter.
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 consecutive samples");
    }
}

/// Boxed, type-erased strategy (what `prop_oneof!` arms become).
pub struct BoxedStrategy<V>(Box<dyn Fn(&mut TestRng) -> V>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// Uniform choice among boxed alternatives (`prop_oneof!`).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Union over `arms` (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[i].sample(rng)
    }
}

/// Always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<V: Clone>(pub V);

impl<V: Clone> Strategy for Just<V> {
    type Value = V;
    fn sample(&self, _rng: &mut TestRng) -> V {
        self.0.clone()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = ((rng.next_u64() as u128) % span) as i128;
                (self.start as i128 + v) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + v) as $t
            }
        }
    )*};
}
impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (rng.next_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (rng.next_f64() as $t) * (hi - lo)
            }
        }
    )*};
}
impl_float_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
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

pub mod arbitrary {
    //! `any::<T>()` — whole-domain strategies.

    use super::{Strategy, TestRng};
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        /// Draw one value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // finite, sign-symmetric, wide dynamic range
            let mag = rng.next_f64() * 1e12;
            if rng.next_u64() & 1 == 1 {
                -mag
            } else {
                mag
            }
        }
    }
    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            f64::arbitrary(rng) as f32
        }
    }

    /// Strategy form of [`Arbitrary`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The `any::<T>()` entry point.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! `vec(element, size)` collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy yielding `Vec`s of `element` samples.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `prop::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod prelude {
    //! The glob-imported surface, mirroring `proptest::prelude::*`.

    pub use crate::arbitrary::any;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };

    /// The `prop::` module alias used as `prop::collection::vec(...)`.
    pub mod prop {
        pub use crate::collection;
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Assert inside a proptest body; failure aborts the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} at {}:{}: {}",
                stringify!($cond), file!(), line!(), format!($($fmt)*)
            )));
        }
    };
}

/// Equality assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} ({:?} vs {:?}) at {}:{}",
                stringify!($a), stringify!($b), a, b, file!(), line!()
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} ({:?} vs {:?}) at {}:{}: {}",
                stringify!($a), stringify!($b), a, b, file!(), line!(), format!($($fmt)*)
            )));
        }
    }};
}

/// Inequality assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} != {} (both {:?}) at {}:{}",
                stringify!($a),
                stringify!($b),
                a,
                file!(),
                line!()
            )));
        }
    }};
}

/// Uniform choice among strategies with a common `Value`.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Bind proptest parameters: `x in strategy` or `x: Type` forms.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($runner:ident;) => {};
    ($runner:ident; $pat:pat_param in $strat:expr) => {
        let $pat = $crate::Strategy::sample(&($strat), $runner.rng());
    };
    ($runner:ident; $pat:pat_param in $strat:expr, $($rest:tt)*) => {
        let $pat = $crate::Strategy::sample(&($strat), $runner.rng());
        $crate::__proptest_bind!($runner; $($rest)*);
    };
    ($runner:ident; $name:ident : $ty:ty) => {
        let $name = $crate::Strategy::sample(
            &$crate::arbitrary::any::<$ty>(), $runner.rng());
    };
    ($runner:ident; $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name = $crate::Strategy::sample(
            &$crate::arbitrary::any::<$ty>(), $runner.rng());
        $crate::__proptest_bind!($runner; $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (config = $cfg:expr; $( $(#[$meta:meta])* fn $name:ident( $($params:tt)* ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut runner = $crate::TestRunner::new(
                    config.clone(),
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for case in 0..config.cases {
                    let result = (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                        $crate::__proptest_bind!(runner; $($params)*);
                        { $body }
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    if let Err(e) = result {
                        panic!(
                            "[proptest] {} failed at case {}/{}: {}",
                            stringify!($name), case + 1, config.cases, e
                        );
                    }
                }
            }
        )*
    };
}

/// The `proptest! { ... }` test-suite macro.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn even() -> impl Strategy<Value = u64> {
        (0u64..1000).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 5u64..10, y in -2.0f64..2.0, z: u32) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            let _ = z;
        }

        #[test]
        fn tuples_and_vecs(v in prop::collection::vec((0u32..4, 0.0f64..1.0), 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (a, b) in v {
                prop_assert!(a < 4);
                prop_assert!((0.0..1.0).contains(&b));
            }
        }

        #[test]
        fn mapped_strategy(e in even()) {
            prop_assert_eq!(e % 2, 0);
        }

        #[test]
        fn oneof_mixes(w in prop_oneof![(0u32..1).prop_map(|_| 1u32), (0u32..1).prop_map(|_| 2u32)]) {
            prop_assert!(w == 1 || w == 2);
        }
    }

    #[test]
    fn exact_size_vec() {
        let strat = crate::collection::vec(0u8..10, 7usize);
        let mut rng = crate::TestRng::for_test("exact");
        assert_eq!(strat.sample(&mut rng).len(), 7);
    }

    #[test]
    fn deterministic_per_name() {
        let s = 0u64..1_000_000;
        let mut a = crate::TestRng::for_test("x");
        let mut b = crate::TestRng::for_test("x");
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }
}
