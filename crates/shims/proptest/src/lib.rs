//! Minimal in-repo stand-in for the parts of `proptest` 1 this workspace
//! uses: the `proptest!` macro, range / `any` / tuple / `collection::vec`
//! strategies, `prop_assert*`, and `ProptestConfig` with `with_cases`
//! plus the `PROPTEST_CASES` environment override.
//!
//! Differences from upstream worth knowing:
//!
//! * **No shrinking.** A failing case panics with a message naming the
//!   test path, the case index `i` and the case count, followed by the
//!   original assert message. Inputs are a pure function of (test path,
//!   case index), so rerunning the test replays the same cases;
//!   `PROPTEST_CASES=<i + 1>` stops the run right after the failing case.
//! * Generation is a SplitMix64 stream keyed by the test's module path
//!   and name, so adding cases to one test does not perturb another.

#![forbid(unsafe_code)]

/// Number of cases each property runs.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Cases per property; the `PROPTEST_CASES` environment variable
    /// overrides it at run time (matching upstream behavior).
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }

    /// The case count to actually run: `PROPTEST_CASES` if set and
    /// parseable, the configured count otherwise.
    pub fn resolved_cases(&self) -> u32 {
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => v.parse().unwrap_or(self.cases),
            Err(_) => self.cases,
        }
    }
}

/// The deterministic generator driving each test case.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Generator for case `case` of the test identified by `name`
    /// (module path + function name).
    pub fn deterministic(name: &str, case: u64) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Self {
            state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next 64 random bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Types with a default "anything" strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Uniform in [0, 1): plenty for the properties in this tree.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Arbitrary for String {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Short printable-ASCII strings: enough to exercise hashing and
        // codec properties without a full regex strategy.
        let len = (rng.next_u64() % 33) as usize;
        (0..len)
            .map(|_| char::from(b' ' + (rng.next_u64() % 95) as u8))
            .collect()
    }
}

/// Strategy generating any value of `T` (via [`Arbitrary`]).
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// The `any::<T>()` strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = (rng.next_u64() as u128) % span;
                (self.start as i128 + r as i128) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let r = (rng.next_u64() as u128) % span;
                (lo as i128 + r as i128) as $t
            }
        }
    )*};
}

impl_strategy_for_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! impl_strategy_for_tuple {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_strategy_for_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Sub-modules mirroring upstream's `prop::` paths.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// Inclusive length range for collection strategies. Mirrors
        /// upstream's `SizeRange`: accepting only `usize`-typed ranges is
        /// what lets `vec(elem, 1..50)` infer `usize` for the literals.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi_inclusive: usize,
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty length range");
                Self {
                    lo: r.start,
                    hi_inclusive: r.end - 1,
                }
            }
        }

        impl From<std::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: std::ops::RangeInclusive<usize>) -> Self {
                Self {
                    lo: *r.start(),
                    hi_inclusive: *r.end(),
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self {
                    lo: n,
                    hi_inclusive: n,
                }
            }
        }

        /// Strategy for `Vec`s with element strategy `E`.
        pub struct VecStrategy<E> {
            element: E,
            len: SizeRange,
        }

        /// `vec(element, 0..100)`: a vector whose length is drawn from
        /// `len` and whose elements are drawn from `element`.
        pub fn vec<E: Strategy>(element: E, len: impl Into<SizeRange>) -> VecStrategy<E> {
            VecStrategy {
                element,
                len: len.into(),
            }
        }

        impl<E: Strategy> Strategy for VecStrategy<E> {
            type Value = Vec<E::Value>;

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let span = (self.len.hi_inclusive - self.len.lo) as u64 + 1;
                let n = self.len.lo + (rng.next_u64() % span) as usize;
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Everything a test file needs.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };
}

/// Property assertion; same interface as `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Property assertion; same interface as `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Property assertion; same interface as `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Binds one parameter list entry per step: either `pat in strategy` or
/// `name: Type` (shorthand for `any::<Type>()`).
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $var:ident : $ty:ty) => {
        let $var = <$ty as $crate::Arbitrary>::arbitrary(&mut $rng);
    };
    ($rng:ident; $var:ident : $ty:ty, $($rest:tt)*) => {
        let $var = <$ty as $crate::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $pat:pat in $strat:expr) => {
        let $pat = $crate::Strategy::sample(&($strat), &mut $rng);
    };
    ($rng:ident; $pat:pat in $strat:expr, $($rest:tt)*) => {
        let $pat = $crate::Strategy::sample(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
}

/// Expands the function list inside `proptest! { ... }`.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr) $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __cases = __config.resolved_cases();
            let __path = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..u64::from(__cases) {
                let __outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    let mut __rng = $crate::TestRng::deterministic(__path, __case);
                    $crate::__proptest_bind!(__rng; $($params)*);
                    $body
                }));
                if let Err(__payload) = __outcome {
                    $crate::fail_case(__path, __case, __cases, __payload);
                }
            }
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

/// Re-panics for a failed case with a message that names the test, the
/// case index and the case count, followed by the case's own message.
#[doc(hidden)]
pub fn fail_case(
    path: &str,
    case: u64,
    cases: u32,
    payload: Box<dyn std::any::Any + Send>,
) -> ! {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string panic payload)");
    panic!("proptest {path}: case {case} of {cases} failed: {message}");
}

/// The property-test macro: each `#[test] fn name(params) { body }` runs
/// `body` for `cases` deterministic random instantiations of `params`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn config_resolves_env_override() {
        // Not setting the env var here (tests run in parallel); just the
        // plain path.
        assert_eq!(ProptestConfig::with_cases(7).cases, 7);
    }

    #[test]
    fn deterministic_rng_reproduces() {
        let mut a = crate::TestRng::deterministic("x::y", 3);
        let mut b = crate::TestRng::deterministic("x::y", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::deterministic("x::y", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = crate::TestRng::deterministic("t", 0);
        for _ in 0..1000 {
            let v = (3usize..10).sample(&mut rng);
            assert!((3..10).contains(&v));
            let w = (-5i64..5).sample(&mut rng);
            assert!((-5..5).contains(&w));
            let z = (0.5f64..2.0).sample(&mut rng);
            assert!((0.5..2.0).contains(&z));
            let i = (1u32..=6).sample(&mut rng);
            assert!((1..=6).contains(&i));
        }
    }

    #[test]
    fn vec_strategy_length_and_elements() {
        let mut rng = crate::TestRng::deterministic("t", 1);
        let strat = prop::collection::vec(0u64..50, 2..8);
        for _ in 0..200 {
            let v = strat.sample(&mut rng);
            assert!(v.len() >= 2 && v.len() < 8);
            assert!(v.iter().all(|&x| x < 50));
        }
    }

    #[test]
    fn tuple_strategy_samples_both() {
        let mut rng = crate::TestRng::deterministic("t", 2);
        let (a, b) = (0u64..10, -5i64..0).sample(&mut rng);
        assert!(a < 10);
        assert!((-5..0).contains(&b));
    }

    #[test]
    fn prop_map_applies() {
        let mut rng = crate::TestRng::deterministic("t", 3);
        let doubled = (1usize..10).prop_map(|x| x * 2);
        for _ in 0..100 {
            let v = doubled.sample(&mut rng);
            assert!(v % 2 == 0 && (2..20).contains(&v));
        }
    }

    // The macro itself, end to end: typed params, `in` params, mut
    // patterns, trailing commas, multiple fns, and a config block.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_cases(seed: u64, xs in prop::collection::vec(0u64..9, 0..20)) {
            let _ = seed;
            prop_assert!(xs.iter().all(|&x| x < 9));
        }

        #[test]
        fn macro_supports_mut_patterns(
            mut v in prop::collection::vec(any::<i64>(), 1..30),
        ) {
            v.sort_unstable();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }

        #[test]
        #[should_panic(expected = "case 0")]
        fn failing_property_names_its_case(x in 0u64..10) {
            prop_assert!(x >= 10, "x = {} is below 10", x);
        }
    }

    #[test]
    fn failure_message_names_test_case_count_and_cause() {
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("boom"));
        let fail = std::panic::AssertUnwindSafe(|| crate::fail_case("m::t", 3, 8, payload));
        let err = std::panic::catch_unwind(fail).expect_err("fail_case always panics");
        let message = err.downcast_ref::<String>().expect("formatted message");
        assert_eq!(message, "proptest m::t: case 3 of 8 failed: boom");
    }
}
