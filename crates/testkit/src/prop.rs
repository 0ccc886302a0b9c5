//! A minimal property-testing harness: deterministic case generation,
//! greedy shrinking, and failing-seed reporting — the in-tree replacement
//! for `proptest` on this workspace's tier-1 path.
//!
//! # Model
//!
//! A property is a function from generated values to `()` that panics on
//! violation (the [`prop_assert!`](crate::prop_assert)-family macros are thin wrappers over
//! `assert!`). The [`props!`](crate::props) macro wires one or more properties to the
//! runner:
//!
//! ```
//! // In a test module you would also write `#[test]` above the fn,
//! // exactly as with `proptest!`.
//! ulp_testkit::props! {
//!     fn addition_commutes(a in ulp_testkit::any_u8(), b in ulp_testkit::any_u8()) {
//!         ulp_testkit::prop_assert_eq!(a as u16 + b as u16, b as u16 + a as u16);
//!     }
//! }
//! addition_commutes();
//! ```
//!
//! # Determinism and replay
//!
//! Case seeds derive from a fixed base seed mixed with the property name,
//! so every run of the suite exercises the same inputs (hermetic and
//! bit-reproducible). On failure the runner panics with the **case seed**
//! and the greedily shrunken minimal input; re-run just that test with
//!
//! ```sh
//! ULP_PROPTEST_SEED=<printed seed> ULP_PROPTEST_CASES=1 cargo test -q <name>
//! ```
//!
//! to replay the failing case first. `ULP_PROPTEST_CASES` scales the case
//! count globally (default 64); crank it up for soak runs.

use crate::rng::{Rng, SplitMix64};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Environment variable overriding the per-property case count.
pub const CASES_ENV: &str = "ULP_PROPTEST_CASES";
/// Environment variable replaying a reported failing seed.
pub const SEED_ENV: &str = "ULP_PROPTEST_SEED";
/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 64;
/// Base seed mixed with the property name to derive case seeds.
const BASE_SEED: u64 = 0x0001_55CA_2005_u64; // "ISCA 2005"
/// Cap on shrink executions per failure, so pathological properties
/// terminate promptly.
const MAX_SHRINK_ATTEMPTS: u32 = 2048;

/// A generator of test values with optional greedy shrinking.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Propose strictly "smaller" candidates for a failing `value`.
    /// Candidates should be ordered most-aggressive first; the runner
    /// greedily accepts the first candidate that still fails.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// A generator applying `f` to this generator's output (no
    /// shrinking through the mapping). Named `prop_map` to stay clear of
    /// `Iterator::map`, which ranges also implement.
    fn prop_map<U, F>(self, f: F) -> MapGen<Self, F>
    where
        Self: Sized,
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        MapGen { inner: self, f }
    }
}

// ---------------------------------------------------------------------
// Integer generators: ranges are generators.
// ---------------------------------------------------------------------

/// Integers that know how to shrink toward the low end of their range.
pub trait IntValue: Copy + Clone + Debug + PartialEq {
    /// Map into the unsigned 64-bit shrink domain.
    fn to_shrink_u64(self) -> u64;
    /// Map back from the shrink domain.
    fn from_shrink_u64(v: u64) -> Self;
}

macro_rules! impl_int_value {
    ($($t:ty => $u:ty),*) => {$(
        impl IntValue for $t {
            fn to_shrink_u64(self) -> u64 {
                // Offset so the domain is ordered and non-negative.
                (self as $u).wrapping_sub(<$t>::MIN as $u) as u64
            }
            fn from_shrink_u64(v: u64) -> Self {
                (v as $u).wrapping_add(<$t>::MIN as $u) as $t
            }
        }
    )*};
}

impl_int_value!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
                i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// Greedy integer shrink: distance `d` from the range's low end proposes
/// `0`, `d/2`, `d-1` (in that order).
fn shrink_int<T: IntValue>(lo: T, value: T) -> Vec<T> {
    let lo_u = lo.to_shrink_u64();
    let d = value.to_shrink_u64().wrapping_sub(lo_u);
    let mut out = Vec::new();
    for cand in [0u64, d / 2, d.wrapping_sub(1)] {
        if cand < d && !out.contains(&cand) {
            out.push(cand);
        }
    }
    out.into_iter()
        .map(|c| T::from_shrink_u64(lo_u.wrapping_add(c)))
        .collect()
}

macro_rules! impl_gen_for_range {
    ($($t:ty),*) => {$(
        impl Gen for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(self.start, *value)
            }
        }
        impl Gen for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(*self.start(), *value)
            }
        }
    )*};
}

impl_gen_for_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The full `u8` domain.
pub fn any_u8() -> std::ops::RangeInclusive<u8> {
    u8::MIN..=u8::MAX
}
/// The full `u16` domain.
pub fn any_u16() -> std::ops::RangeInclusive<u16> {
    u16::MIN..=u16::MAX
}
/// The full `u32` domain.
pub fn any_u32() -> std::ops::RangeInclusive<u32> {
    u32::MIN..=u32::MAX
}
/// The full `u64` domain.
pub fn any_u64() -> std::ops::RangeInclusive<u64> {
    u64::MIN..=u64::MAX
}

/// Generator for `bool` (shrinks `true` → `false`).
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Gen for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// The `bool` generator.
pub fn any_bool() -> AnyBool {
    AnyBool
}

// ---------------------------------------------------------------------
// Combinators.
// ---------------------------------------------------------------------

/// See [`Gen::prop_map`].
#[derive(Debug, Clone)]
pub struct MapGen<G, F> {
    inner: G,
    f: F,
}

impl<G, U, F> Gen for MapGen<G, F>
where
    G: Gen,
    U: Clone + Debug,
    F: Fn(G::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A generator that always yields `value`.
#[derive(Debug, Clone)]
pub struct JustGen<T>(pub T);

impl<T: Clone + Debug> Gen for JustGen<T> {
    type Value = T;
    fn generate(&self, _rng: &mut Rng) -> T {
        self.0.clone()
    }
}

/// A generator that always yields `value`.
pub fn just<T: Clone + Debug>(value: T) -> JustGen<T> {
    JustGen(value)
}

/// A generator defined by a closure over the RNG (no shrinking). The
/// escape hatch for structured values like instruction encodings.
pub struct FnGen<F>(F);

impl<T, F> Gen for FnGen<F>
where
    T: Clone + Debug,
    F: Fn(&mut Rng) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        (self.0)(rng)
    }
}

/// A generator defined by a closure over the RNG (no shrinking).
pub fn from_fn<T, F>(f: F) -> FnGen<F>
where
    T: Clone + Debug,
    F: Fn(&mut Rng) -> T,
{
    FnGen(f)
}

// ---------------------------------------------------------------------
// Vectors.
// ---------------------------------------------------------------------

/// An inclusive length range for [`vec_of`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Minimum length (inclusive).
    pub min: usize,
    /// Maximum length (inclusive).
    pub max: usize,
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { min: n, max: n }
    }
}

/// See [`vec_of`].
#[derive(Debug, Clone)]
pub struct VecGen<G> {
    elem: G,
    size: SizeRange,
}

/// A `Vec` generator: lengths drawn uniformly from `size`, elements from
/// `elem`. Shrinks by truncating toward the minimum length, dropping
/// single elements, and shrinking individual elements.
pub fn vec_of<G: Gen>(elem: G, size: impl Into<SizeRange>) -> VecGen<G> {
    VecGen {
        elem,
        size: size.into(),
    }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        let len = rng.gen_range(self.size.min..=self.size.max);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out: Vec<Vec<G::Value>> = Vec::new();
        let len = value.len();
        // 1. Aggressive truncation toward the minimum length.
        if len > self.size.min {
            out.push(value[..self.size.min].to_vec());
            let half = self.size.min.max(len / 2);
            if half < len {
                out.push(value[..half].to_vec());
            }
        }
        // 2. Drop one element at a time (bounded).
        if len > self.size.min {
            for i in (0..len).rev().take(16) {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // 3. Shrink individual elements in place (first candidate each).
        for i in 0..len.min(16) {
            for cand in self.elem.shrink(&value[i]).into_iter().take(1) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Tuples: componentwise generation and shrinking.
// ---------------------------------------------------------------------

macro_rules! impl_gen_for_tuple {
    ($($g:ident / $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}

impl_gen_for_tuple!(G0 / 0);
impl_gen_for_tuple!(G0 / 0, G1 / 1);
impl_gen_for_tuple!(G0 / 0, G1 / 1, G2 / 2);
impl_gen_for_tuple!(G0 / 0, G1 / 1, G2 / 2, G3 / 3);
impl_gen_for_tuple!(G0 / 0, G1 / 1, G2 / 2, G3 / 3, G4 / 4);
impl_gen_for_tuple!(G0 / 0, G1 / 1, G2 / 2, G3 / 3, G4 / 4, G5 / 5);
impl_gen_for_tuple!(G0 / 0, G1 / 1, G2 / 2, G3 / 3, G4 / 4, G5 / 5, G6 / 6);
impl_gen_for_tuple!(
    G0 / 0,
    G1 / 1,
    G2 / 2,
    G3 / 3,
    G4 / 4,
    G5 / 5,
    G6 / 6,
    G7 / 7
);

// ---------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------

/// Per-property runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of cases to run.
    pub cases: u32,
}

impl Config {
    /// Configuration from the environment: `ULP_PROPTEST_CASES` if set,
    /// else `default_cases`.
    pub fn from_env_or(default_cases: u32) -> Config {
        let cases = std::env::var(CASES_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
            .unwrap_or(default_cases)
            .max(1);
        Config { cases }
    }
}

fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse::<u64>().ok()
    }
}

/// FNV-1a over the property name, to decorrelate sibling properties that
/// share the base seed.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn run_case<G, F>(gen_value: &G::Value, body: &F) -> Result<(), String>
where
    G: Gen,
    F: Fn(G::Value),
{
    let v = gen_value.clone();
    match catch_unwind(AssertUnwindSafe(|| body(v))) {
        Ok(()) => Ok(()),
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            Err(msg)
        }
    }
}

/// Execute `body` against `cfg.cases` generated inputs; on failure,
/// greedily shrink and panic with the minimal input and the case seed.
///
/// Normally invoked through the [`props!`](crate::props) macro rather than directly.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) when any case fails.
pub fn run<G, F>(name: &str, cfg: Config, gen: G, body: F)
where
    G: Gen,
    F: Fn(G::Value),
{
    let env_seed = std::env::var(SEED_ENV).ok().and_then(|v| parse_seed(&v));
    let base = env_seed.unwrap_or(BASE_SEED ^ fnv1a(name));
    let mut seeder = SplitMix64::new(base);
    for case in 0..cfg.cases {
        // Case 0 uses the base seed directly so a reported seed replays
        // as the very first case under ULP_PROPTEST_SEED.
        let case_seed = if case == 0 { base } else { seeder.next_u64() };
        let mut rng = Rng::from_seed(case_seed);
        let value = gen.generate(&mut rng);
        if run_case::<G, F>(&value, &body).is_err() {
            let (minimal, message, shrinks) = shrink_failure(&gen, value, &body);
            panic!(
                "property '{name}' failed at case {case}/{cases} \
                 (seed 0x{case_seed:016x}, {shrinks} shrink steps)\n\
                 minimal failing input: {minimal:#?}\n\
                 assertion: {message}\n\
                 replay: {seed_env}=0x{case_seed:016x} {cases_env}=1 \
                 cargo test -q {name}",
                cases = cfg.cases,
                seed_env = SEED_ENV,
                cases_env = CASES_ENV,
            );
        }
    }
}

/// Greedy shrink: repeatedly take the first still-failing candidate until
/// no candidate fails or the attempt budget is exhausted. Returns the
/// minimal value, the panic message it produced, and the number of
/// accepted shrink steps.
fn shrink_failure<G, F>(gen: &G, initial: G::Value, body: &F) -> (G::Value, String, u32)
where
    G: Gen,
    F: Fn(G::Value),
{
    let mut current = initial;
    let mut attempts = 0u32;
    let mut steps = 0u32;
    'outer: loop {
        for cand in gen.shrink(&current) {
            if attempts >= MAX_SHRINK_ATTEMPTS {
                break 'outer;
            }
            attempts += 1;
            if run_case::<G, F>(&cand, body).is_err() {
                current = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    let message = run_case::<G, F>(&current, body)
        .err()
        .unwrap_or_else(|| "shrunken input stopped failing (flaky property?)".to_string());
    (current, message, steps)
}

/// Declare property tests. Each `fn` becomes a `#[test]` (write the
/// attribute yourself, as with `proptest!`); arguments use
/// `name in generator` syntax. An optional leading `#![cases(N)]` sets
/// the default case count for the whole block (still overridden by
/// `ULP_PROPTEST_CASES`).
#[macro_export]
macro_rules! props {
    (
        #![cases($default_cases:expr)]
        $($rest:tt)*
    ) => {
        $crate::__props_internal! { ($default_cases) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__props_internal! { ($crate::prop::DEFAULT_CASES) $($rest)* }
    };
}

/// Implementation detail of [`props!`](crate::props).
#[doc(hidden)]
#[macro_export]
macro_rules! __props_internal {
    ( ($default_cases:expr) ) => {};
    (
        ($default_cases:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $gen:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __gens = ($($gen,)+);
            let __cfg = $crate::prop::Config::from_env_or($default_cases);
            $crate::prop::run(
                stringify!($name),
                __cfg,
                __gens,
                |($($arg,)+)| { $body; },
            );
        }
        $crate::__props_internal! { ($default_cases) $($rest)* }
    };
}

/// Property-scoped assertion (wrapper over `assert!`; the runner catches
/// the panic, shrinks, and reports the seed).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Property-scoped equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Property-scoped inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_range_generates_in_bounds() {
        let g = 10u16..20;
        let mut rng = Rng::from_seed(1);
        for _ in 0..100 {
            let v = g.generate(&mut rng);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn int_shrink_moves_toward_low_end() {
        let g = 10u16..1000;
        let cands = g.shrink(&500);
        assert!(cands.contains(&10), "{cands:?}");
        assert!(cands.iter().all(|&c| (10..500).contains(&c)), "{cands:?}");
        assert!(g.shrink(&10).is_empty(), "low end is already minimal");
    }

    #[test]
    fn signed_shrink_respects_bounds() {
        let g = -5i32..=5;
        for v in [-5i32, -1, 0, 3, 5] {
            for c in g.shrink(&v) {
                assert!((-5..=5).contains(&c));
                assert!(c < v, "{c} !< {v}");
            }
        }
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let g = vec_of(any_u8(), 2..=8);
        let mut rng = Rng::from_seed(2);
        let v = g.generate(&mut rng);
        assert!((2..=8).contains(&v.len()));
        for cand in g.shrink(&v) {
            assert!(cand.len() >= 2, "shrunk below min: {cand:?}");
        }
    }

    #[test]
    fn tuple_shrink_is_componentwise() {
        let g = (0u8..10, 0u8..10);
        let cands = g.shrink(&(4, 7));
        assert!(cands.iter().any(|&(a, b)| a < 4 && b == 7));
        assert!(cands.iter().any(|&(a, b)| a == 4 && b < 7));
    }

    #[test]
    fn runner_passes_a_true_property() {
        run(
            "true_property",
            Config { cases: 32 },
            (any_u8(), any_u8()),
            |(a, b)| assert_eq!(a as u16 + b as u16, b as u16 + a as u16),
        );
    }

    #[test]
    fn runner_reports_seed_and_shrinks() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run("find_big", Config { cases: 256 }, 0u32..100_000, |v| {
                assert!(v < 500, "too big")
            })
        }));
        let msg = match result {
            Err(p) => *p.downcast::<String>().expect("string payload"),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("seed 0x"), "{msg}");
        assert!(msg.contains("ULP_PROPTEST_SEED"), "{msg}");
        // Greedy shrinking must land exactly on the boundary.
        assert!(
            msg.contains("minimal failing input: 500"),
            "not minimal: {msg}"
        );
    }

    #[test]
    fn vec_failures_shrink_small() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(
                "vec_sum",
                Config { cases: 256 },
                vec_of(any_u8(), 0..=32),
                |v| {
                    let sum: u32 = v.iter().map(|&b| b as u32).sum();
                    assert!(sum < 200, "sum {sum}");
                },
            )
        }));
        let msg = match result {
            Err(p) => *p.downcast::<String>().expect("string payload"),
            Ok(()) => panic!("property should have failed"),
        };
        // A minimal counterexample needs only one or two elements.
        let list = msg
            .split("minimal failing input:")
            .nth(1)
            .unwrap()
            .split("assertion:")
            .next()
            .unwrap();
        let elems = list.matches(',').count() + 1;
        assert!(elems <= 3, "shrink too weak: {list}");
    }

    #[test]
    fn same_name_same_cases_every_run() {
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            run("determinism_probe", Config { cases: 16 }, any_u64(), |v| {
                seen.borrow_mut().push(v)
            });
            seen.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn cases_env_parsing_defaults() {
        // Do not mutate the process environment (tests run in parallel);
        // just exercise the fallback path.
        let c = Config::from_env_or(7);
        assert!(c.cases >= 1);
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("nope"), None);
    }

    props! {
        #![cases(32)]

        /// The macro itself: multiple args, trailing comma, doc attrs.
        #[test]
        fn macro_smoke(a in 0u8..=255, flag in any_bool(), v in vec_of(0u16..100, 0..4),) {
            prop_assert!(v.len() < 4);
            prop_assert_eq!(a as u16 * 2, a as u16 + a as u16);
            prop_assert_ne!(flag as u8, 2);
        }
    }
}
