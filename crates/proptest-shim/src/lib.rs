//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no access to a crate registry, so this shim
//! provides exactly the subset of the proptest API the workspace's
//! property tests use: `Strategy` with `prop_map`, numeric range and
//! tuple strategies, `Just`, `any`, `prop_oneof!`, collection/option/
//! string-pattern strategies, and the `proptest!` / `prop_assert!`
//! macros. Generation is deterministic (seeded per test name and case
//! index) and there is **no shrinking** — a failing case panics with the
//! generated inputs available via the assertion message.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic split-mix RNG used for value generation.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates an RNG seeded from a test name and case index.
    pub fn for_case(name: &str, case: u64) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng(h ^ case.wrapping_mul(0x9e3779b97f4a7c15))
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Test-runner configuration (the only field the workspace uses).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
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
        ProptestConfig { cases: 256 }
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// Strategy producing a single cloned value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range strategy");
                let span = (e as i128 - s as i128 + 1) as u64;
                (s as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn new_value(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

/// String-pattern strategy: supports the `[class]{min,max}` subset of
/// proptest's regex string strategies (character classes with literal
/// characters and `a-z` ranges).
impl Strategy for &str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        let (class, min, max) = parse_pattern(self).unwrap_or_else(|| {
            panic!("unsupported string pattern `{self}` (shim supports `[class]{{min,max}}`)")
        });
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| class[rng.below(class.len() as u64) as usize])
            .collect()
    }
}

fn parse_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let (class_src, rest) = rest.split_at(close);
    let rest = rest.strip_prefix(']')?;
    let rest = rest.strip_prefix('{')?;
    let rest = rest.strip_suffix('}')?;
    let (lo, hi) = rest.split_once(',')?;
    let (min, max) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
    let chars: Vec<char> = class_src.chars().collect();
    let mut class = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (a, b) = (chars[i] as u32, chars[i + 2] as u32);
            for c in a..=b {
                class.push(char::from_u32(c)?);
            }
            i += 3;
        } else {
            class.push(chars[i]);
            i += 1;
        }
    }
    if class.is_empty() || min > max {
        return None;
    }
    Some((class, min, max))
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy for any value of `T` (see [`Arbitrary`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` entry point.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// A boxed generator closure — one arm of a [`Union`].
pub type UnionArm<T> = Box<dyn Fn(&mut TestRng) -> T>;

/// Uniform choice between boxed sub-strategies (`prop_oneof!` backend).
pub struct Union<T> {
    arms: Vec<UnionArm<T>>,
}

impl<T> Union<T> {
    /// Builds a union from generator closures.
    pub fn new(arms: Vec<UnionArm<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        (self.arms[i])(rng)
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: a range or an exact length.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// Strategy producing vectors of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy producing `None` about a quarter of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Output of [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.new_value(rng))
            }
        }
    }
}

/// Uniformly picks one of several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        $crate::Union::new(vec![
            $({
                let arm = $arm;
                Box::new(move |rng: &mut $crate::TestRng| $crate::Strategy::new_value(&arm, rng)) as Box<dyn Fn(&mut $crate::TestRng) -> _>
            }),+
        ])
    }};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Error type returned by proptest bodies (`return Ok(())` early exits).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_body {
    (@cfg($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                for case in 0..cfg.cases as u64 {
                    let mut __rng = $crate::TestRng::for_case(stringify!($name), case);
                    $(let $arg = $crate::Strategy::new_value(&($strat), &mut __rng);)+
                    // Bodies may `return Ok(())` to finish a case early, as
                    // with real proptest's `Result`-valued test closures.
                    #[allow(clippy::unused_unit, clippy::redundant_closure_call, unreachable_code)]
                    let __res: ::std::result::Result<(), $crate::TestCaseError> = (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = __res {
                        panic!("proptest case {} failed: {:?}", case, e);
                    }
                }
            }
        )*
    };
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Mirrors `proptest::prelude::prop` (module aliases).
    pub mod prop {
        pub use crate::{collection, option};
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let v = Strategy::new_value(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::new_value(&(1usize..=4), &mut rng);
            assert!((1..=4).contains(&w));
            let f = Strategy::new_value(&(-4.0f32..4.0), &mut rng);
            assert!((-4.0..4.0).contains(&f));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = |seed| {
            let mut rng = TestRng::for_case("det", seed);
            Strategy::new_value(&prop::collection::vec(0u64..100, 1..20), &mut rng)
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn string_patterns_generate_from_class() {
        let mut rng = TestRng::for_case("pat", 1);
        for _ in 0..200 {
            let s = Strategy::new_value(&"[a-c ]{2,5}", &mut rng);
            assert!(s.len() >= 2 && s.len() <= 5);
            assert!(s.chars().all(|c| c == ' ' || ('a'..='c').contains(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_roundtrip(v in prop::collection::vec((0u8..4, any::<bool>()), 0..8), x in 1u32..9) {
            prop_assert!(v.len() < 8);
            prop_assert!((1..9).contains(&x), "x = {}", x);
            for (a, _) in v {
                prop_assert!(a < 4);
            }
        }
    }
}
