//! # ntc-check
//!
//! Deterministic property tests for the workspace: the part of
//! `proptest`'s surface that its property suites use, with every case
//! drawn from [`RngStream`].
//!
//! Case `i` of property `name` is drawn from
//! `RngStream::root(0).derive("name").derive(i)`, so every run
//! checks the same cases on every machine. There is no seed, case-count
//! or replay option and no environment variable to set. There is no
//! shrinking either: a failing case is reported as drawn, with the
//! property's name, the case index and the `Debug` value of every named
//! input, and running the test again reproduces it.
//!
//! ```
//! use ntc_check::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(32))]
//!
//!     /// A `#[test]` attribute goes here in a test file.
//!     fn sum_is_order_free(xs in prop::collection::vec(0u64..1_000, 0..20), x in 0u64..10) {
//!         let forward: u64 = xs.iter().chain([&x]).sum();
//!         let backward: u64 = [&x].into_iter().chain(xs.iter().rev()).sum();
//!         prop_assert_eq!(forward, backward, "xs={:?}", xs);
//!     }
//! }
//!
//! sum_is_order_free();
//! ```

#![forbid(unsafe_code)]

use std::any::Any as Payload;
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

use ntc_simcore::rng::RngStream;

/// Everything a property file needs: `use ntc_check::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };

    /// The strategy modules, addressed as `prop::collection::vec` and
    /// `prop::sample::select`.
    pub mod prop {
        pub use crate::{collection, sample};
    }
}

/// How many cases a property must pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Passing cases required; cases `prop_assume!` rejects do not count.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config requiring `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 256 cases, proptest's default.
    fn default() -> Self {
        Self::with_cases(256)
    }
}

/// Rejected cases a property may draw in all before it fails: proptest's
/// default global reject limit.
pub const MAX_REJECTS: u32 = 1024;

/// Why a case did not pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TestCaseError {
    /// An assertion failed: the property does not hold.
    Fail(String),
    /// An assumption failed: the inputs are out of the property's scope.
    Reject(String),
}

/// A source of input values: draws one from a case's stream.
pub trait Strategy {
    /// The values drawn.
    type Value;

    /// Draws one value, reading only `rng`.
    fn draw(&self, rng: &mut RngStream) -> Self::Value;
}

// Uniform over the range. The span is computed in the type and widened to
// `u64`, which is exact for the unsigned types and, by two's complement,
// for `i64`; a narrower signed type would sign-extend it.
macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn draw(&self, rng: &mut RngStream) -> $t {
                assert!(self.start < self.end, "empty range {self:?}");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.uniform_range(0, span) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn draw(&self, rng: &mut RngStream) -> $t {
                assert!(self.start() <= self.end(), "empty range {self:?}");
                let offset = match (self.end().wrapping_sub(*self.start()) as u64).checked_add(1) {
                    Some(span) => rng.uniform_range(0, span),
                    None => rng.next_u64(),
                };
                self.start().wrapping_add(offset as $t)
            }
        }
    )*};
}

int_ranges!(u8, u32, u64, usize, i64);

impl Strategy for Range<f64> {
    type Value = f64;

    /// Uniform over `[start, end)`; a draw that rounds to `end` is redrawn.
    fn draw(&self, rng: &mut RngStream) -> f64 {
        assert!(self.start < self.end, "empty range {self:?}");
        loop {
            let x = self.start + (self.end - self.start) * rng.uniform();
            if x < self.end {
                return x;
            }
        }
    }
}

macro_rules! tuples {
    ($(($($s:ident),+))*) => {$(
        /// Draws each element in order, left to right.
        #[allow(non_snake_case)]
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn draw(&self, rng: &mut RngStream) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.draw(rng),)+)
            }
        }
    )*};
}

tuples!((A)(A, B)(A, B, C)(A, B, C, D)(A, B, C, D, E)(A, B, C, D, E, F)(A, B, C, D, E, F, G)(
    A, B, C, D, E, F, G, H
));

/// Types with a whole-domain strategy, [`any`].
pub trait Arbitrary: Sized {
    /// Draws one value from the whole domain.
    fn arbitrary(rng: &mut RngStream) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut RngStream) -> bool {
        rng.next_u32() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut RngStream) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut RngStream) -> i64 {
        rng.next_u64() as i64
    }
}

impl Arbitrary for String {
    /// Up to 16 characters, none one draw in 17. Each character comes
    /// from one of four equally likely blocks, one per UTF-8 width:
    /// printable ASCII, then two-, three- and four-byte code points
    /// (surrogates excluded).
    fn arbitrary(rng: &mut RngStream) -> String {
        const BLOCKS: [(u64, u64); 4] =
            [(0x20, 0x7f), (0xa0, 0x800), (0x800, 0xd800), (0x1_0000, 0x11_0000)];
        let len = rng.uniform_range(0, 17);
        (0..len)
            .map(|_| {
                let (lo, hi) = BLOCKS[rng.uniform_range(0, 4) as usize];
                char::from_u32(rng.uniform_range(lo, hi) as u32).expect("blocks hold no surrogate")
            })
            .collect()
    }
}

/// The strategy [`any`] returns.
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn draw(&self, rng: &mut RngStream) -> T {
        T::arbitrary(rng)
    }
}

/// Any value of `T`: `any::<bool | u64 | i64 | String>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// A vector whose length is drawn from `size`, then each element from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The strategy [`vec()`] returns.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn draw(&self, rng: &mut RngStream) -> Self::Value {
            let len = self.size.draw(rng);
            (0..len).map(|_| self.element.draw(rng)).collect()
        }
    }

    /// A set whose size is drawn from `size`, then filled with distinct
    /// elements from `element`. Ordered, so its iteration order, unlike a
    /// `HashSet`'s, is the same in every process.
    pub fn btree_set<S: Strategy>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    /// The strategy [`btree_set`] returns.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        /// # Panics
        ///
        /// Panics if 64 draws per wanted element do not find enough
        /// distinct ones.
        fn draw(&self, rng: &mut RngStream) -> Self::Value {
            let len = self.size.draw(rng);
            let mut set = BTreeSet::new();
            for _ in 0..64 * (len + 1) {
                if set.len() == len {
                    return set;
                }
                set.insert(self.element.draw(rng));
            }
            panic!("btree_set: found {} distinct elements of the {len} wanted", set.len());
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::*;

    /// One of `values`, each equally likely.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select needs at least one value");
        Select(values)
    }

    /// The strategy [`select`] returns.
    pub struct Select<T>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn draw(&self, rng: &mut RngStream) -> T {
            rng.choose(&self.0).expect("select is never empty").clone()
        }
    }
}

/// Runs property `name` until `config.cases` cases pass. `describe`
/// renders a case's named inputs; it runs only for a failing case, whose
/// inputs it draws again from the case's stream.
///
/// # Panics
///
/// Panics on the first case that fails or panics, or once more than
/// [`MAX_REJECTS`] cases have been rejected.
pub fn run<S: Strategy>(
    config: &ProptestConfig,
    name: &str,
    strategy: &S,
    mut test: impl FnMut(S::Value) -> Result<(), TestCaseError>,
    describe: impl Fn(S::Value) -> String,
) {
    let root = RngStream::root(0).derive(name);
    let (mut passed, mut rejected) = (0, 0);
    for index in 0_u64.. {
        if passed == config.cases {
            return;
        }
        let value = strategy.draw(&mut root.derive(index));
        let why = match panic::catch_unwind(AssertUnwindSafe(|| test(value))) {
            Ok(Ok(())) => {
                passed += 1;
                continue;
            }
            Ok(Err(TestCaseError::Reject(why))) => {
                rejected += 1;
                assert!(
                    rejected <= MAX_REJECTS,
                    "property `{name}` rejected {rejected} cases, over the limit of \
                     {MAX_REJECTS}; the last: {why}"
                );
                continue;
            }
            Ok(Err(TestCaseError::Fail(why))) => why,
            Err(payload) => format!("panicked: {}", panic_message(&*payload)),
        };
        let inputs = describe(strategy.draw(&mut root.derive(index)));
        panic!("property `{name}` failed at case {index}: {why}\ninputs:{inputs}");
    }
}

fn panic_message(payload: &dyn Payload) -> &str {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s,
        _ => "a non-string payload",
    }
}

/// Declares property tests:
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))] // optional; 256 if absent
///     #[test]
///     fn name(arg in strategy, ...) { body }
///     ...
/// }
/// ```
///
/// Each `fn` becomes a function of no arguments that checks `body` on
/// every case (see [`run`]). The body may use `?` on
/// `Result<_, TestCaseError>` and the `prop_assert*` and `prop_assume!`
/// macros.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($fns:tt)*) => {
        $crate::__properties! { ($config) $($fns)* }
    };
    ($($fns:tt)*) => {
        $crate::__properties! { ($crate::ProptestConfig::default()) $($fns)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __properties {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run(
                &$config,
                stringify!($name),
                &($($strategy,)+),
                |($($arg,)+)| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                },
                |($($arg,)+)| format!(concat!($("\n  ", stringify!($arg), " = {:?}"),+), $($arg),+),
            );
        }
    )*};
}

/// Fails the case unless `cond` holds, with an optional `format!` message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                concat!("assertion failed: ", stringify!($cond), " at ", file!(), ":", line!())
                    .to_owned(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{} at {}:{}",
                format_args!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Fails the case unless `left == right`, showing both, with an optional
/// `format!` message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left == *right,
                "assertion failed: `(left == right)`\n  left: `{:?}`,\n right: `{:?}`",
                left,
                right
            ),
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left == *right,
                "assertion failed: `(left == right)`\n  left: `{:?}`,\n right: `{:?}`: {}",
                left,
                right,
                format_args!($($fmt)+)
            ),
        }
    };
}

/// Rejects the case unless `cond` holds: it is drawn again and does not
/// count, up to [`MAX_REJECTS`] rejections.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_owned(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

    use super::prelude::*;
    use super::*;

    static DRAWN: AtomicU32 = AtomicU32::new(0);
    static PASSED: AtomicU32 = AtomicU32::new(0);

    fn failure_of(f: fn()) -> String {
        let payload = panic::catch_unwind(f).expect_err("the property must fail");
        panic_message(&*payload).to_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        fn stays_below_fifty(x in 0u64..100, word in any::<String>()) {
            prop_assert!(x < 50, "x={x} word={word:?}");
        }

        fn never_two(x in 0u32..1_000) {
            prop_assume!(x == 2);
        }

        fn panics(x in 5u8..=5) {
            assert_eq!(x, 4, "a plain assert");
        }
    }

    proptest! {
        fn nonzero_by_default(x in 0u32..4) {
            DRAWN.fetch_add(1, Relaxed);
            prop_assume!(x != 0);
            PASSED.fetch_add(1, Relaxed);
        }
    }

    #[test]
    fn a_failure_names_the_property_case_and_inputs() {
        let msg = failure_of(stays_below_fifty);
        assert!(msg.starts_with("property `stays_below_fifty` failed at case "), "{msg}");
        assert!(msg.contains("\ninputs:\n  x = ") && msg.contains("\n  word = \""), "{msg}");
        assert_eq!(msg, failure_of(stays_below_fifty), "a failure must repeat exactly");
    }

    #[test]
    fn rejections_do_not_count_until_the_limit() {
        nonzero_by_default();
        assert_eq!(PASSED.load(Relaxed), 256, "the default is 256 passing cases");
        assert!(DRAWN.load(Relaxed) > 256 + 32, "about a quarter of the draws are rejected");
        let msg = failure_of(never_two);
        assert!(msg.contains("rejected 1025 cases, over the limit of 1024"), "{msg}");
    }

    #[test]
    fn a_panic_is_reported_with_its_inputs() {
        let msg = failure_of(panics);
        assert!(msg.contains("at case 0: panicked: ") && msg.contains("a plain assert"), "{msg}");
        assert!(msg.ends_with("inputs:\n  x = 5"), "{msg}");
    }

    #[test]
    fn ranges_stay_inside_their_bounds() {
        let mut rng = RngStream::root(0).derive("ranges");
        for _ in 0..1_000 {
            let (a, b, c) = (-3i64..4, 250u8..=255, -1.5f64..-1.0).draw(&mut rng);
            assert!((-3..4).contains(&a) && b >= 250 && (-1.5..-1.0).contains(&c));
            // Whole-domain inclusive ranges have no `u64` span.
            (0..=u64::MAX, i64::MIN..=i64::MAX).draw(&mut rng);
        }
    }

    #[test]
    fn strings_include_empty_and_non_ascii() {
        let mut rng = RngStream::root(0).derive("strings");
        let words: Vec<String> = (0..200).map(|_| any::<String>().draw(&mut rng)).collect();
        assert!(words.iter().any(String::is_empty));
        assert!(words.iter().any(|w| w.chars().any(|c| c.len_utf8() == 4)));
    }

    #[test]
    fn sets_reach_their_drawn_size() {
        let mut rng = RngStream::root(0).derive("sets");
        for _ in 0..100 {
            let set = prop::collection::btree_set(0u8..40, 30..40).draw(&mut rng);
            assert!((30..40).contains(&set.len()));
        }
    }
}
