#![warn(missing_docs)]

//! Offline shim for the `proptest` crate.
//!
//! No cargo registry is reachable in this build environment, so the
//! workspace carries the subset of proptest it uses as a local crate:
//! the [`Strategy`](strategy::Strategy) trait with
//! `prop_map`/`prop_flat_map`, integer-range and tuple strategies,
//! [`Just`](strategy::Just), [`collection::vec`], [`any`](arbitrary::any)
//! over the common scalars plus [`sample::Index`], simple
//! `[charset]{lo,hi}` string patterns, and the
//! [`proptest!`]/[`prop_assert!`] macros.
//!
//! Differences from upstream, deliberately accepted:
//!
//! - **No shrinking.** A failing case reports its case number and the
//!   per-test deterministic seed; reproducing is re-running the test.
//! - **Deterministic seeding.** Each test derives its RNG seed from its
//!   module path and name, so failures are reproducible across runs and
//!   machines (upstream defaults to OS randomness).
//! - Value generation is uniform rather than size-biased.
//!
//! The test-facing API is source-compatible for everything under
//! `crates/*/tests` and `tests/`.

/// Deterministic generator driving value production (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from an arbitrary label (test name).
    pub fn for_test(label: &str) -> Self {
        // FNV-1a over the label gives a stable per-test seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, width)`; `width` must be non-zero.
    pub fn below(&mut self, width: u128) -> u128 {
        debug_assert!(width > 0);
        ((self.next_u64() as u128) * width) >> 64
    }
}

/// Run configuration (`cases` = values generated per property).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property is exercised with.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::TestRng;

    /// A recipe for generating values of an associated type.
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Produces one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// out of it (dependent generation).
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
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

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + rng.below(width) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let width = (end as i128 - start as i128) as u128 + 1;
                    (start as i128 + rng.below(width) as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// String patterns of the form `[charset]{lo,hi}` (e.g.
    /// `"[a-z0-9 ,.]{0,30}"`): a random-length string over the charset.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (charset, lo, hi) = parse_pattern(self);
            let len = lo + rng.below((hi - lo + 1) as u128) as usize;
            (0..len)
                .map(|_| charset[rng.below(charset.len() as u128) as usize])
                .collect()
        }
    }

    /// Parses `[charset]{lo,hi}` / `[charset]{n}` patterns, expanding
    /// `a-z`-style ranges. Panics (with the pattern) on anything else:
    /// this shim supports exactly the pattern language the workspace uses.
    fn parse_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
        fn bad(pattern: &str) -> ! {
            panic!("unsupported string pattern {pattern:?}: expected \"[charset]{{lo,hi}}\"")
        }
        let Some(rest) = pattern.strip_prefix('[') else {
            bad(pattern)
        };
        let Some((class, counts)) = rest.split_once(']') else {
            bad(pattern)
        };
        let Some(counts) = counts.strip_prefix('{').and_then(|c| c.strip_suffix('}')) else {
            bad(pattern)
        };
        let (lo, hi) = match counts.split_once(',') {
            Some((l, h)) => (l.trim().parse().ok(), h.trim().parse().ok()),
            None => {
                let n = counts.trim().parse().ok();
                (n, n)
            }
        };
        let (Some(lo), Some(hi)) = (lo, hi) else {
            bad(pattern)
        };
        if lo > hi {
            bad(pattern);
        }
        let mut charset = Vec::new();
        let chars: Vec<char> = class.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            if i + 2 < chars.len() && chars[i + 1] == '-' {
                let (a, b) = (chars[i] as u32, chars[i + 2] as u32);
                assert!(a <= b, "inverted range in string pattern {pattern:?}");
                charset.extend((a..=b).filter_map(char::from_u32));
                i += 3;
            } else {
                charset.push(chars[i]);
                i += 1;
            }
        }
        assert!(!charset.is_empty(), "empty charset in pattern {pattern:?}");
        (charset, lo, hi)
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn pattern_strings_respect_charset_and_length() {
            let mut rng = TestRng::for_test("pattern");
            let strat = "[a-c0-1 .]{2,5}";
            for _ in 0..500 {
                let s = Strategy::generate(&strat, &mut rng);
                assert!((2..=5).contains(&s.chars().count()), "{s:?}");
                assert!(s.chars().all(|c| "abc01 .".contains(c)), "{s:?}");
            }
        }

        #[test]
        fn exact_count_pattern() {
            let mut rng = TestRng::for_test("exact");
            let s = Strategy::generate(&"[x]{4}", &mut rng);
            assert_eq!(s, "xxxx");
        }

        #[test]
        fn flat_map_feeds_dependent_strategy() {
            let mut rng = TestRng::for_test("flat");
            let strat =
                (1usize..=4).prop_flat_map(|n| (Just(n), crate::collection::vec(0u8..10, n)));
            for _ in 0..200 {
                let (n, v) = strat.generate(&mut rng);
                assert_eq!(v.len(), n);
            }
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` over the scalars the workspace generates.

    use super::strategy::Strategy;
    use super::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        /// Produces one arbitrary value.
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
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for super::sample::Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            super::sample::Index(rng.next_u64())
        }
    }

    /// Strategy produced by [`any`].
    #[derive(Debug, Clone)]
    pub struct Any<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// The canonical strategy for `A`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }
}

pub mod sample {
    //! Positional sampling helpers.

    /// An abstract index: resolved against a concrete collection length
    /// with [`Index::index`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(pub(crate) u64);

    impl Index {
        /// Maps this abstract index into `[0, size)`. Panics if `size`
        /// is zero (match upstream).
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "Index::index(0)");
            (self.0 % size as u64) as usize
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of values from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo + 1) as u128;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` strategy with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! One-stop import for tests: `use proptest::prelude::*;`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};

    pub mod prop {
        //! Namespaced access mirroring upstream's `prelude::prop`.
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Asserts a condition inside a [`proptest!`] body; on failure the current
/// case is reported and the test panics.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err(::std::format!(
                "prop_assert!({}) failed at {}:{}",
                stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(::std::format!(
                "prop_assert! failed at {}:{}: {}",
                file!(), line!(), ::std::format!($($fmt)+)
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __left = $left;
        let __right = $right;
        if !(__left == __right) {
            return ::core::result::Result::Err(::std::format!(
                "prop_assert_eq!({}, {}) failed at {}:{}",
                stringify!($left), stringify!($right), file!(), line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __left = $left;
        let __right = $right;
        if !(__left == __right) {
            return ::core::result::Result::Err(::std::format!(
                "prop_assert_eq! failed at {}:{}: {}",
                file!(), line!(), ::std::format!($($fmt)+)
            ));
        }
    }};
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` (the attribute is written by the caller, as with
/// upstream) running `body` against `config.cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let __strategies = ($($strat,)+);
            let mut __rng =
                $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let ($($pat,)+) =
                    $crate::strategy::Strategy::generate(&__strategies, &mut __rng);
                let __outcome: ::core::result::Result<(), ::std::string::String> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(__msg) = __outcome {
                    panic!(
                        "property `{}` failed on case {}/{} (deterministic seed; rerun reproduces): {}",
                        stringify!($name), __case + 1, __config.cases, __msg
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, y in 0usize..=3) {
            prop_assert!((10..20).contains(&x));
            prop_assert!(y <= 3);
        }

        #[test]
        fn vec_lengths_respect_size((n, v) in (2usize..6).prop_flat_map(|n| (Just(n), prop::collection::vec(0u8..5, n)))) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn index_resolves_in_range(idx in any::<prop::sample::Index>(), len in 1usize..100) {
            prop_assert!(idx.index(len) < len);
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failures_panic_with_case_info() {
        proptest! {
            fn always_fails(x in 0u8..10) {
                prop_assert!(x == 200, "impossible: {}", x);
            }
        }
        always_fails();
    }

    proptest! {
        /// Determinism: the same test name generates the same sequence.
        #[test]
        fn deterministic_rng(a in any::<u64>()) {
            let mut r1 = crate::TestRng::for_test("same");
            let mut r2 = crate::TestRng::for_test("same");
            prop_assert_eq!(r1.next_u64(), r2.next_u64());
            let _ = a;
        }
    }
}
