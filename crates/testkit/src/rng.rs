//! Seedable, dependency-free pseudo-random number generation.
//!
//! The generator is **xoshiro256\*\*** (Blackman & Vigna), seeded through
//! **SplitMix64** exactly as the reference implementation recommends, so a
//! single `u64` seed expands into a well-mixed 256-bit state. Both
//! algorithms are public-domain and tiny, which is the point: every random
//! stimulus in this workspace — lossy channels, random walks,
//! property-test case generation — flows through this module, and a
//! printed 64-bit seed is sufficient to replay any simulation bit-exactly
//! on any platform. No external crate, no platform entropy, no global
//! state.
//!
//! ```
//! use ulp_testkit::Rng;
//! let mut a = Rng::from_seed(42);
//! let mut b = Rng::from_seed(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.gen_range(10u32..20) >= 10);
//! ```

/// SplitMix64: a tiny, fast, well-mixed 64-bit generator.
///
/// Used directly for seed expansion and stream derivation; every output is
/// a bijective mix of its counter, so even seeds 0, 1, 2, … produce
/// unrelated values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace PRNG: xoshiro256\*\* seeded via SplitMix64.
///
/// Deterministic given the seed; `Clone` snapshots the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose 256-bit state is expanded from `seed` with
    /// SplitMix64 (the construction the xoshiro authors recommend).
    pub fn from_seed(seed: u64) -> Rng {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The next 64 uniformly distributed bits (the xoshiro256\*\* step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly distributed bits (upper half of a 64-bit
    /// output, which has the better statistical quality).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Derive an independent child stream. The child's seed is drawn from
    /// this generator, so sibling forks are decorrelated and the parent
    /// advances by exactly one output.
    pub fn fork(&mut self) -> Rng {
        Rng::from_seed(self.next_u64())
    }

    /// A uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// `gen_bool(0.0)` is always `false` and `gen_bool(1.0)` always `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        self.f64() < p
    }

    /// A uniform sample from `range` (half-open or inclusive; every
    /// primitive integer type plus `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Fill `dest` with uniform bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// A vector of `n` uniform bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill_bytes(&mut v);
        v
    }

    /// A vector of `n` uniform 16-bit words.
    pub fn words(&mut self, n: usize) -> Vec<u16> {
        (0..n).map(|_| self.next_u64() as u16).collect()
    }

    /// A uniformly chosen element of `slice`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.gen_range(0..slice.len());
            Some(&slice[i])
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

/// Ranges a [`Rng`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample(self, rng: &mut Rng) -> T;
}

/// Sample a `u64` from `[lo, hi)` using the widening-multiply method
/// (Lemire); bias is at most `span / 2^64`, far below anything a
/// simulation or property test can observe, and it consumes exactly one
/// generator output, which keeps replay reasoning simple.
fn sample_u64(rng: &mut Rng, lo: u64, hi: u64) -> u64 {
    assert!(lo < hi, "empty range {lo}..{hi}");
    let span = hi - lo;
    if span == 0 {
        // hi - lo wrapped to 0 only when the range covers all of u64.
        return rng.next_u64();
    }
    lo + (((rng.next_u64() as u128) * (span as u128)) >> 64) as u64
}

/// `[lo, hi]` inclusive over the full u64 domain.
fn sample_u64_inclusive(rng: &mut Rng, lo: u64, hi: u64) -> u64 {
    assert!(lo <= hi, "empty range {lo}..={hi}");
    if lo == 0 && hi == u64::MAX {
        rng.next_u64()
    } else {
        sample_u64(rng, lo, hi + 1)
    }
}

macro_rules! impl_unsigned_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                sample_u64(rng, self.start as u64, self.end as u64) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                sample_u64_inclusive(rng, *self.start() as u64, *self.end() as u64) as $t
            }
        }
    )*};
}

impl_unsigned_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                // Shift into the unsigned domain to dodge overflow.
                let lo = (self.start as $u).wrapping_sub(<$t>::MIN as $u);
                let hi = (self.end as $u).wrapping_sub(<$t>::MIN as $u);
                let v = sample_u64(rng, lo as u64, hi as u64) as $u;
                v.wrapping_add(<$t>::MIN as $u) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let lo = (*self.start() as $u).wrapping_sub(<$t>::MIN as $u);
                let hi = (*self.end() as $u).wrapping_sub(<$t>::MIN as $u);
                let v = sample_u64_inclusive(rng, lo as u64, hi as u64) as $u;
                v.wrapping_add(<$t>::MIN as $u) as $t
            }
        }
    )*};
}

impl_signed_range!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(
            self.start < self.end && self.start.is_finite() && self.end.is_finite(),
            "bad f64 range {:?}",
            self
        );
        let v = self.start + rng.f64() * (self.end - self.start);
        // Guard the pathological rounding case v == end.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain C
        // implementation (Vigna).
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
    }

    #[test]
    fn xoshiro_is_seed_deterministic() {
        let mut a = Rng::from_seed(0xDEADBEEF);
        let mut b = Rng::from_seed(0xDEADBEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::from_seed(0xDEADBEF0);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn clone_snapshots_the_stream() {
        let mut a = Rng::from_seed(7);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::from_seed(3);
        for _ in 0..1000 {
            let v = rng.gen_range(10u8..20);
            assert!((10..20).contains(&v));
            let v = rng.gen_range(-5i16..=5);
            assert!((-5..=5).contains(&v));
            let v = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&v));
            let v = rng.gen_range(u64::MIN..=u64::MAX);
            let _ = v;
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = Rng::from_seed(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn gen_bool_extremes_are_exact() {
        let mut rng = Rng::from_seed(5);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = Rng::from_seed(6);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&heads), "{heads}");
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = Rng::from_seed(8);
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Rng::from_seed(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        assert_eq!(rng.bytes(5).len(), 5);
        assert_eq!(rng.words(3).len(), 3);
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut rng = Rng::from_seed(12);
        let mut a = rng.fork();
        let mut b = rng.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn shuffle_and_choose() {
        let mut rng = Rng::from_seed(13);
        let mut v: Vec<u32> = (0..32).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert!(rng.choose(&v).is_some());
        assert!(rng.choose::<u32>(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng::from_seed(1);
        let _ = rng.gen_range(5u32..5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_panics() {
        let mut rng = Rng::from_seed(1);
        let _ = rng.gen_bool(1.5);
    }
}
