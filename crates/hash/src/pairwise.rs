//! The pairwise-independent polynomial family `h(x) = ((a·x + b) mod p) mod r`.
//!
//! With `a` uniform in `[1, p)` and `b` uniform in `[0, p)`, the map
//! `x ↦ (a·x + b) mod p` is pairwise independent on `[0, p)`; composing
//! with `mod r` keeps pairwise independence up to an `O(r/p)` additive
//! distortion (negligible here: `r ≤ 2^32`, `p = 2^61 - 1`). This is the
//! textbook construction the paper's `h_i` functions assume.

use crate::fastdiv::FastDivisor;
use crate::prime;
use crate::seed::SeedSequence;
use crate::traits::BucketHasher;

/// A single function drawn from the pairwise-independent family.
///
/// The range reduction uses a precomputed exact reciprocal
/// ([`FastDivisor`]) instead of a hardware divide: the divisor is fixed
/// at draw time, and an unpipelined `div` per row per update would
/// dominate the sketch's ingestion cost. The mapping is bit-identical to
/// `field_eval(key) % range`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
    range: FastDivisor,
}

impl PairwiseHash {
    /// Draws a fresh function with the given bucket range from `seeds`.
    ///
    /// # Panics
    /// Panics if `range == 0` or `range >= P`.
    pub fn draw(seeds: &mut SeedSequence, range: usize) -> Self {
        let range = range as u64;
        assert!(range > 0, "range must be positive");
        assert!(range < prime::P, "range must be smaller than the field");
        Self {
            a: seeds.next_nonzero_below(prime::P),
            b: seeds.next_below(prime::P),
            range: FastDivisor::new(range),
        }
    }

    /// Builds a function from explicit coefficients (folded into the field).
    /// Useful for tests that need a known function.
    pub fn from_coefficients(a: u64, b: u64, range: usize) -> Self {
        let a = prime::fold(a);
        assert!(a != 0, "leading coefficient must be nonzero");
        assert!(range > 0 && (range as u64) < prime::P);
        Self {
            a,
            b: prime::fold(b),
            range: FastDivisor::new(range as u64),
        }
    }

    /// Evaluates the underlying field map `(a·x + b) mod p` without the
    /// final range reduction.
    #[inline]
    pub fn field_eval(&self, key: u64) -> u64 {
        self.field_eval_canon(prime::fold(key))
    }

    /// [`Self::field_eval`] for a key already in canonical form
    /// (`key < P`, i.e. a [`prime::fold`] output). Batch read kernels
    /// fold each key once and evaluate all `2t` row functions on the
    /// canonical value; `fold` is idempotent, so the results are
    /// bit-identical to the folding entry points.
    #[inline]
    pub(crate) fn field_eval_canon(&self, key: u64) -> u64 {
        debug_assert!(key < prime::P);
        prime::add(prime::mul(self.a, key), self.b)
    }
}

impl BucketHasher for PairwiseHash {
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        self.range.rem(self.field_eval(key)) as usize
    }

    #[inline]
    fn canon(&self, key: u64) -> u64 {
        prime::fold(key)
    }

    #[inline]
    fn bucket_canon(&self, key: u64) -> usize {
        self.range.rem(self.field_eval_canon(key)) as usize
    }

    fn num_buckets(&self) -> usize {
        self.range.divisor() as usize
    }

    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_are_in_range() {
        let mut seeds = SeedSequence::new(1);
        for range in [1usize, 2, 3, 64, 1000, 1 << 20] {
            let h = PairwiseHash::draw(&mut seeds, range);
            for key in 0..1000u64 {
                assert!(h.bucket(key) < range);
            }
            assert_eq!(h.num_buckets(), range);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let h1 = PairwiseHash::draw(&mut SeedSequence::new(9), 128);
        let h2 = PairwiseHash::draw(&mut SeedSequence::new(9), 128);
        for key in 0..500u64 {
            assert_eq!(h1.bucket(key), h2.bucket(key));
        }
    }

    #[test]
    fn from_coefficients_matches_manual_formula() {
        let h = PairwiseHash::from_coefficients(3, 5, 7);
        for key in 0..100u64 {
            let want = ((3 * key + 5) % prime::P % 7) as usize;
            assert_eq!(h.bucket(key), want);
        }
    }

    #[test]
    #[should_panic(expected = "leading coefficient must be nonzero")]
    fn zero_leading_coefficient_rejected() {
        PairwiseHash::from_coefficients(0, 5, 7);
    }

    #[test]
    fn uniformity_chi_square() {
        // chi-square goodness of fit over 64 buckets with 64k sequential
        // keys; df = 63, mean 63, sd ~ 11.2. Threshold at ~6 sd.
        let h = PairwiseHash::draw(&mut SeedSequence::new(42), 64);
        let n = 65_536u64;
        let mut counts = [0u64; 64];
        for key in 0..n {
            counts[h.bucket(key)] += 1;
        }
        let expected = n as f64 / 64.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 130.0, "chi2 = {chi2}, suggests non-uniformity");
    }

    #[test]
    fn pairwise_collision_rate_near_one_over_r() {
        // For pairwise-independent h into r buckets, Pr[h(x)=h(y)] ≈ 1/r.
        // Average over several functions to keep variance small.
        let r = 32usize;
        let pairs = 2000usize;
        let funcs = 16usize;
        let mut seeds = SeedSequence::new(7);
        let mut collisions = 0usize;
        for _ in 0..funcs {
            let h = PairwiseHash::draw(&mut seeds, r);
            for i in 0..pairs as u64 {
                if h.bucket(2 * i) == h.bucket(2 * i + 1) {
                    collisions += 1;
                }
            }
        }
        let rate = collisions as f64 / (pairs * funcs) as f64;
        let want = 1.0 / r as f64;
        assert!(
            (rate - want).abs() < 0.01,
            "collision rate {rate}, expected ~{want}"
        );
    }

    proptest! {
        #[test]
        fn prop_bucket_in_range(seed: u64, key: u64, range in 1usize..100_000) {
            let h = PairwiseHash::draw(&mut SeedSequence::new(seed), range);
            prop_assert!(h.bucket(key) < range);
        }

        #[test]
        fn prop_bucket_is_field_eval_mod_range(seed: u64, key: u64, range in 1usize..1_000_000) {
            // The reciprocal reduction must be bit-identical to `%`.
            let h = PairwiseHash::draw(&mut SeedSequence::new(seed), range);
            prop_assert_eq!(h.bucket(key), (h.field_eval(key) % range as u64) as usize);
        }

        #[test]
        fn prop_pure_function(seed: u64, key: u64) {
            let h = PairwiseHash::draw(&mut SeedSequence::new(seed), 1024);
            prop_assert_eq!(h.bucket(key), h.bucket(key));
        }

        #[test]
        fn prop_redraw_from_same_seed_is_identical(seed: u64, key: u64) {
            // Snapshots rebuild hashers from (rows, buckets, seed) rather
            // than serializing them, so the draw must be a pure function
            // of the seed sequence.
            let h = PairwiseHash::draw(&mut SeedSequence::new(seed), 512);
            let back = PairwiseHash::draw(&mut SeedSequence::new(seed), 512);
            prop_assert_eq!(h.bucket(key), back.bucket(key));
        }
    }
}
