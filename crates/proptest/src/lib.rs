//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate vendors
//! the subset of proptest the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`, [`any`],
//! [`Just`](strategy::Just), `prop_oneof!`, `prop::collection::vec`, the
//! `proptest!` test macro with `ProptestConfig::with_cases`, and the
//! `prop_assert*` macros.
//!
//! Differences from real proptest, chosen for a hermetic offline build:
//!
//! * **No shrinking.** A failing case reports the generated inputs verbatim
//!   (every generator is seeded deterministically from the test name and
//!   case index, so failures replay exactly).
//! * **No persistence files** and no environment-variable configuration.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// A boxed generator function — the type-erased form of a strategy.
    pub type GenFn<V> = Box<dyn Fn(&mut StdRng) -> V>;

    /// A deterministic value generator.
    pub trait Strategy: Sized {
        type Value: Debug;

        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type (used by `prop_oneof!`).
        fn into_fn(self) -> GenFn<Self::Value>
        where
            Self: 'static,
        {
            Box::new(move |rng| self.generate(rng))
        }

        /// Type-erased strategy, for heterogeneous returns.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: 'static,
        {
            BoxedStrategy(self.into_fn())
        }
    }

    /// See [`Strategy::boxed`].
    pub struct BoxedStrategy<T>(Box<dyn Fn(&mut StdRng) -> T>);

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        options: Vec<GenFn<V>>,
    }

    impl<V> Union<V> {
        pub fn new(options: Vec<GenFn<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<V: Debug> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut StdRng) -> V {
            let i = rng.random_range(0..self.options.len());
            (self.options[i])(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.random_range(self.clone())
        }
    }

    /// String literals act as regex-ish string strategies, as in real
    /// proptest. Supported subset: literal chars, `.` (printable ASCII),
    /// `[...]` classes with ranges, `\x` escapes, and the quantifiers
    /// `{n}`, `{m,n}`, `*`, `+`, `?` (unbounded ones capped at 8).
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut StdRng) -> String {
            generate_regexish(self, rng)
        }
    }

    enum Atom {
        Any,
        Class(Vec<(char, char)>),
        Lit(char),
    }

    fn generate_regexish(pattern: &str, rng: &mut StdRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut atoms: Vec<(Atom, u32, u32)> = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '.' => {
                    i += 1;
                    Atom::Any
                }
                '[' => {
                    i += 1;
                    let mut ranges = Vec::new();
                    while i < chars.len() && chars[i] != ']' {
                        if chars[i] == '\\' {
                            i += 1;
                        }
                        let lo = chars[i];
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            ranges.push((lo, chars[i + 2]));
                            i += 3;
                        } else {
                            ranges.push((lo, lo));
                            i += 1;
                        }
                    }
                    i += 1; // closing ']'
                    Atom::Class(ranges)
                }
                '\\' => {
                    i += 1;
                    let c = chars[i];
                    i += 1;
                    Atom::Lit(c)
                }
                c => {
                    i += 1;
                    Atom::Lit(c)
                }
            };
            let (lo, hi) = match chars.get(i) {
                Some('{') => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .expect("unclosed {} quantifier")
                        + i;
                    let spec: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match spec.split_once(',') {
                        Some((a, b)) => (
                            a.trim().parse().expect("bad quantifier"),
                            b.trim().parse().expect("bad quantifier"),
                        ),
                        None => {
                            let n = spec.trim().parse().expect("bad quantifier");
                            (n, n)
                        }
                    }
                }
                Some('*') => {
                    i += 1;
                    (0, 8)
                }
                Some('+') => {
                    i += 1;
                    (1, 8)
                }
                Some('?') => {
                    i += 1;
                    (0, 1)
                }
                _ => (1, 1),
            };
            atoms.push((atom, lo, hi));
        }
        let mut out = String::new();
        for (atom, lo, hi) in &atoms {
            let n = rng.random_range(*lo..=*hi);
            for _ in 0..n {
                let c = match atom {
                    Atom::Any => rng.random_range(0x20u8..0x7f) as char,
                    Atom::Class(ranges) => {
                        let (a, b) = ranges[rng.random_range(0..ranges.len())];
                        char::from_u32(rng.random_range(a as u32..=b as u32))
                            .expect("class range spans invalid chars")
                    }
                    Atom::Lit(c) => *c,
                };
                out.push(c);
            }
        }
        out
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[expect(
                    non_snake_case,
                    reason = "binds tuple elements to their type-parameter names"
                )]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
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

    /// Internal helper so generated tests can seed their generator.
    pub fn rng_for_case(test_name: &str, case: u64) -> StdRng {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Debug + Sized {
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.random::<$t>()
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

    /// Strategy for the full domain of `T` (`any::<T>()`).
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;
    use std::ops::Range;

    /// Strategy for vectors with lengths drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.start >= self.size.end {
                self.size.start
            } else {
                rng.random_range(self.size.clone())
            };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    /// Strategy for ordered sets with *up to* `size.end - 1` elements
    /// (duplicates generated by the element strategy collapse).
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let target = if self.size.start >= self.size.end {
                self.size.start
            } else {
                rng.random_range(self.size.clone())
            };
            let mut set = std::collections::BTreeSet::new();
            // Bounded attempts: a narrow element domain may not be able to
            // produce `target` distinct values.
            for _ in 0..target.saturating_mul(4) {
                if set.len() >= target {
                    break;
                }
                set.insert(self.elem.generate(rng));
            }
            set
        }
    }

    pub fn btree_set<S: Strategy>(elem: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { elem, size }
    }
}

pub mod test_runner {
    use std::fmt;

    /// Runner configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed property invocation (from a `prop_assert*` macro).
    #[derive(Debug)]
    pub struct TestCaseError {
        pub reason: String,
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError {
                reason: reason.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.reason)
        }
    }
}

/// Path alias so `prop::collection::vec(..)` works as it does with the
/// real crate's prelude.
pub use crate as prop;

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::into_fn($strat)),+
        ])
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Define property tests: each `#[test] fn name(binding in strategy, …)`
/// runs `cases` times with deterministically seeded inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns!({ $config } $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(
            { $crate::test_runner::ProptestConfig::default() }
            $($rest)*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ({ $config:expr }) => {};
    (
        { $config:expr }
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            for case in 0..config.cases as u64 {
                let mut rng = $crate::strategy::rng_for_case(stringify!($name), case);
                let mut inputs = String::new();
                $(
                    let value = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    inputs.push_str(&format!(
                        "  {} = {:?}\n",
                        stringify!($arg),
                        &value
                    ));
                    let $arg = value;
                )+
                #[allow(
                    clippy::redundant_closure_call,
                    reason = "the closure gives `prop_assert*` a `?`-compatible scope per case"
                )]
                let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} of `{}` failed: {}\ninputs:\n{}",
                        case + 1,
                        config.cases,
                        stringify!($name),
                        e,
                        inputs
                    );
                }
            }
        }
        $crate::__proptest_fns!({ $config } $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = i64> {
        (0..50i64).prop_map(|v| v * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn mapped_values_hold(v in small_even()) {
            prop_assert_eq!(v % 2, 0);
            prop_assert!(v < 100, "v was {}", v);
        }

        #[test]
        fn oneof_and_vec(xs in prop::collection::vec(
            prop_oneof![Just(1i64), 5..10i64, (20..30i64, 0..2i64).prop_map(|(a, b)| a + b)],
            0..16,
        )) {
            for x in xs {
                prop_assert!(x == 1 || (5..10).contains(&x) || (20..32).contains(&x));
            }
        }

        #[test]
        fn any_values(a in any::<i64>(), flag in any::<bool>()) {
            let _ = (a, flag);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::strategy::rng_for_case("x", 3);
        let mut b = crate::strategy::rng_for_case("x", 3);
        let s = 0..1000i64;
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_property_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(v in 0..10i64) {
                prop_assert!(v < 0, "v={} is not negative", v);
            }
        }
        always_fails();
    }
}
