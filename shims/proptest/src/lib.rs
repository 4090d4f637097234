//! Minimal `proptest` facade (offline stand-in; see
//! `shims/README.md`).
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map`/`prop_flat_map`, [`Just`], integer ranges, tuples and
//! `Vec<Strategy>`, `collection::{vec, btree_set}`, `sample::select`,
//! `bool::ANY`, regex-string strategies (`&str` as a strategy, covering
//! literals, `.`, `(a|b)` groups, `[a-z0-9#]` classes, and
//! `{m,n}`/`?`/`*`/`+` quantifiers), and the
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!` macros. Inputs are
//! generated from deterministic per-case seeds (the failing case's seed
//! is printed on failure) — there is **no shrinking**, and
//! `.proptest-regressions` files are ignored.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Deterministic generation source (splitmix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator for the given case seed.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x5851_F42D_4C95_7F2D,
        }
    }

    /// The next uniform 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..span` (`span > 0`).
    #[inline]
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the input; the case is skipped, not failed.
    Reject(String),
    /// A `prop_assert*` failed.
    Fail(String),
}

/// Result type of a shimmed property-test body.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Run configuration; only `cases` is honored by the shim.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real default (256) multiplied across this workspace's
        // mining-heavy properties makes `cargo test` minutes-slow; 64
        // keeps the suite seconds-scale with adequate coverage.
        ProptestConfig { cases: 64 }
    }
}

/// Executes the generated cases of one property.
pub fn run_property(
    name: &str,
    config: &ProptestConfig,
    mut case: impl FnMut(&mut TestRng) -> TestCaseResult,
) {
    // Env override mirrors the real crate's PROPTEST_CASES.
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases);
    // PROPTEST_RNG_SEED pins the whole run to one reproducible stream
    // (decimal or 0x-prefixed hex); CI exports it so a failure there
    // replays bit-for-bit on any host. Unset, each property still derives
    // a deterministic stream from its own name.
    let run_seed = std::env::var("PROPTEST_RNG_SEED")
        .ok()
        .and_then(|v| {
            let v = v.trim();
            match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            }
        })
        .unwrap_or(0);
    let mut rejected = 0u32;
    for i in 0..cases {
        // Seed mixes the property name so sibling properties in one file
        // see different streams.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let seed = run_seed ^ h ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::new(seed);
        match case(&mut rng) {
            Ok(()) => {}
            Err(TestCaseError::Reject(_)) => rejected += 1,
            Err(TestCaseError::Fail(msg)) => {
                panic!("property {name} failed at case {i} (seed {seed:#x}): {msg}")
            }
        }
    }
    assert!(
        rejected < cases.max(1),
        "property {name}: every case was rejected by prop_assume!"
    );
}

/// A generation strategy for values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` derives
    /// from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range strategy");
                s + rng.below((e - s) as u64 + 1) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

/// A `&str` is a regex strategy generating matching `String`s, as in the
/// real crate. Supported syntax: literal chars, `.`, escaped literals,
/// `(…|…)` groups, `[a-z0-9#]` classes (ranges and literals), and the
/// quantifiers `{n}`, `{m,n}`, `?`, `*`, `+` (the unbounded pair capped
/// at 8 repetitions). The pattern is re-parsed per generation — test
/// patterns are a few dozen chars, so this is noise next to the test
/// body.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = self.chars().collect();
        let mut pos = 0;
        regex_gen::alternation(&chars, &mut pos, rng, &mut out);
        assert!(
            pos == chars.len(),
            "unsupported regex strategy {self:?} (stopped at byte {pos})"
        );
        out
    }
}

mod regex_gen {
    //! Recursive-descent generator for the regex subset above. Each
    //! function both parses and emits, advancing `pos`; alternation picks
    //! one branch to emit and parses the rest silently (`emit = false`).

    use super::TestRng;

    /// `alt ::= seq ('|' seq)*` — emits exactly one uniformly-chosen branch.
    pub fn alternation(p: &[char], pos: &mut usize, rng: &mut TestRng, out: &mut String) {
        // Locate the branch starts first so the pick is uniform.
        let start = *pos;
        let mut branches = vec![start];
        let mut probe = start;
        skip_sequence(p, &mut probe);
        while probe < p.len() && p[probe] == '|' {
            probe += 1;
            branches.push(probe);
            skip_sequence(p, &mut probe);
        }
        let chosen = rng.below(branches.len() as u64) as usize;
        for (i, &b) in branches.iter().enumerate() {
            *pos = b;
            sequence(p, pos, rng, out, i == chosen);
            if i + 1 < branches.len() {
                *pos += 1; // consume '|'
            }
        }
    }

    /// Advances past one sequence without generating.
    fn skip_sequence(p: &[char], pos: &mut usize) {
        let mut rng = TestRng::new(0);
        let mut sink = String::new();
        sequence(p, pos, &mut rng, &mut sink, false);
    }

    /// `seq ::= (atom quant?)*`, ending at `|`, `)`, or end of pattern.
    fn sequence(p: &[char], pos: &mut usize, rng: &mut TestRng, out: &mut String, emit: bool) {
        while *pos < p.len() && p[*pos] != '|' && p[*pos] != ')' {
            atom_with_quant(p, pos, rng, out, emit);
        }
    }

    fn atom_with_quant(p: &[char], pos: &mut usize, rng: &mut TestRng, out: &mut String, emit: bool) {
        let atom_start = *pos;
        // Parse the atom once to find its extent; re-run it per repetition.
        let mut probe = atom_start;
        {
            let mut sink = String::new();
            let mut throwaway = TestRng::new(0);
            atom(p, &mut probe, &mut throwaway, &mut sink, false);
        }
        let (reps, after_quant) = quantifier(p, probe, rng);
        for i in 0..reps.max(1) {
            *pos = atom_start;
            atom(p, pos, rng, out, emit && i < reps);
        }
        *pos = after_quant;
    }

    /// Parses an optional quantifier at `pos`; returns (repetitions to
    /// emit, position after the quantifier).
    fn quantifier(p: &[char], pos: usize, rng: &mut TestRng) -> (usize, usize) {
        let pick = |lo: usize, hi: usize, rng: &mut TestRng| {
            lo + rng.below((hi - lo) as u64 + 1) as usize
        };
        match p.get(pos) {
            Some('?') => (pick(0, 1, rng), pos + 1),
            Some('*') => (pick(0, 8, rng), pos + 1),
            Some('+') => (pick(1, 8, rng), pos + 1),
            Some('{') => {
                let close = p[pos..].iter().position(|&c| c == '}').expect("unclosed {") + pos;
                let body: String = p[pos + 1..close].iter().collect();
                let (lo, hi) = match body.split_once(',') {
                    Some((a, b)) => (
                        a.parse().expect("bad {m,n} lower bound"),
                        b.parse().expect("bad {m,n} upper bound"),
                    ),
                    None => {
                        let n = body.parse().expect("bad {n} count");
                        (n, n)
                    }
                };
                (pick(lo, hi, rng), close + 1)
            }
            _ => (1, pos),
        }
    }

    /// `atom ::= '(' alt ')' | '[' class ']' | '.' | '\' char | char`
    fn atom(p: &[char], pos: &mut usize, rng: &mut TestRng, out: &mut String, emit: bool) {
        match p[*pos] {
            '(' => {
                *pos += 1;
                if emit {
                    alternation(p, pos, rng, out);
                } else {
                    let mut sink = String::new();
                    alternation(p, pos, rng, &mut sink);
                }
                assert!(p.get(*pos) == Some(&')'), "unclosed group");
                *pos += 1;
            }
            '[' => {
                let close = p[*pos..].iter().position(|&c| c == ']').expect("unclosed [") + *pos;
                if emit {
                    let members: Vec<char> = class_members(&p[*pos + 1..close]);
                    out.push(members[rng.below(members.len() as u64) as usize]);
                }
                *pos = close + 1;
            }
            '.' => {
                if emit {
                    out.push(any_char(rng));
                }
                *pos += 1;
            }
            '\\' => {
                if emit {
                    out.push(p[*pos + 1]);
                }
                *pos += 2;
            }
            c => {
                if emit {
                    out.push(c);
                }
                *pos += 1;
            }
        }
    }

    /// Expands `a-z0-9#`-style class bodies into their member chars.
    fn class_members(body: &[char]) -> Vec<char> {
        let mut members = Vec::new();
        let mut i = 0;
        while i < body.len() {
            if i + 2 < body.len() && body[i + 1] == '-' {
                let (lo, hi) = (body[i] as u32, body[i + 2] as u32);
                members.extend((lo..=hi).filter_map(char::from_u32));
                i += 3;
            } else {
                members.push(body[i]);
                i += 1;
            }
        }
        assert!(!members.is_empty(), "empty character class");
        members
    }

    /// `.`: mostly printable ASCII, with whitespace and multibyte chars
    /// mixed in so parser fuzzing sees the awkward inputs too.
    fn any_char(rng: &mut TestRng) -> char {
        match rng.below(16) {
            0 => '\n',
            1 => '\t',
            2 => ['é', 'λ', '→', '𝄞', '\u{7f}'][rng.below(5) as usize],
            _ => char::from_u32(0x20 + rng.below(0x5f) as u32).expect("printable ASCII"),
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+)
;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
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
impl_tuple_strategy!(A, B, C, D, E, G);

/// Element-wise generation: a `Vec` of strategies yields a `Vec` of values.
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

/// Size specifications accepted by the collection strategies.
#[derive(Clone, Debug)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange {
            min: r.start,
            max: r.end.saturating_sub(1).max(r.start),
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max: (*r.end()).max(*r.start()),
        }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.min + rng.below((self.max - self.min) as u64 + 1) as usize
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;

    /// A `Vec` of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `BTreeSet` of values from `element`; sizes are best-effort (the
    /// set may be smaller than drawn when duplicates collide, matching
    /// the real crate's behavior of treating the size as an upper bound).
    pub fn btree_set<S: Strategy>(
        element: S,
        size: impl Into<SizeRange>,
    ) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies.

    use super::{Strategy, TestRng};

    /// Picks uniformly from the given values.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select over no options");
        Select { options }
    }

    /// See [`select`].
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use super::{Strategy, TestRng};

    /// Fair coin.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The fair-coin strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    //! The glob-imported API surface.

    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };

    pub mod prop {
        //! The `prop::` strategy namespace.
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)*),
                l,
                r
            )));
        }
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `ProptestConfig` many generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::run_property(stringify!($name), &config, |rng| {
                    $(let $pat = $crate::Strategy::generate(&($strategy), rng);)+
                    $body
                    ::std::result::Result::Ok(())
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($pat in $strategy),+) $body
            )*
        }
    };
}

/// Debug-printable wrapper used in failure messages (kept public for the
/// macros).
pub struct Shown<'a, T: fmt::Debug>(pub &'a T);

impl<T: fmt::Debug> fmt::Display for Shown<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

// Keep BTreeSet referenced so the collection module's import shows up in
// rustdoc cleanly.
#[doc(hidden)]
pub type _BTreeSetAlias = BTreeSet<u8>;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_maps_generate_in_bounds() {
        let mut rng = super::TestRng::new(1);
        let s = (0usize..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let mut rng = super::TestRng::new(2);
        let s = (2usize..6).prop_flat_map(|n| prop::collection::vec(0..n, n));
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_wires_strategies((a, b) in (0u32..50, 0u32..50), extra in prop::sample::select(vec![1u32, 2, 3])) {
            prop_assert!(a < 50 && b < 50);
            prop_assert_eq!(extra, extra);
            prop_assume!(a != 99);
        }

        #[test]
        fn vec_of_strategies_generates_elementwise(n in 1usize..5) {
            let strategies: Vec<_> = (0..n).map(Just).collect();
            let mut rng = crate::TestRng::new(9);
            let got = crate::Strategy::generate(&strategies, &mut rng);
            prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn regex_strategies_generate_matching_strings() {
        let mut rng = super::TestRng::new(7);
        for _ in 0..200 {
            let s = ".{0,20}".generate(&mut rng);
            assert!(s.chars().count() <= 20);

            let s = "(c|p|q)( -?[0-9a-z#]{1,5}){0,3}".generate(&mut rng);
            let mut chars = s.chars();
            let head = chars.next().unwrap();
            assert!(matches!(head, 'c' | 'p' | 'q'), "bad head in {s:?}");
            for group in s[head.len_utf8()..].split(' ').skip(1) {
                let body = group.strip_prefix('-').unwrap_or(group);
                assert!(
                    (1..=5).contains(&body.len())
                        && body
                            .chars()
                            .all(|c| c.is_ascii_digit() || c.is_ascii_lowercase() || c == '#'),
                    "bad group {group:?} in {s:?}"
                );
            }

            let s = "ab+c?".generate(&mut rng);
            assert!(s.starts_with('a'));
            assert!(s.trim_start_matches('a').trim_end_matches('c').chars().all(|c| c == 'b'));
        }
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failures_panic_with_seed() {
        super::run_property(
            "always_fails",
            &ProptestConfig::with_cases(3),
            |_rng| Err(super::TestCaseError::Fail("nope".into())),
        );
    }
}
