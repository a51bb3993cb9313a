//! Slice-at-a-time ingestion for the Count-Sketch.
//!
//! [`GenericCountSketch::update_batch`] and
//! [`GenericCountSketch::update_batch_weighted`] are loops over the
//! paper's `ADD(C, q)` ([`GenericCountSketch::update`]): the scalar
//! update is the only write kernel, so a batch leaves exactly the
//! counters and saturation flags that per-key updates leave. The
//! property tests at the bottom pin this down, including at weights
//! within a few units of `i64::MAX`.

use crate::sketch::GenericCountSketch;
use cs_hash::{BucketHasher, ItemKey, SignHasher};

/// Keys per block for the slice-at-a-time passes built on the sketch:
/// the max-change and relative-change candidate passes hoist each
/// block's probes into one batch-estimate call, and the read path's
/// [`crate::sketch::EstimateBatchScratch`] lanes are two blocks wide.
pub const BLOCK: usize = 32;

impl<H: BucketHasher, S: SignHasher> GenericCountSketch<H, S> {
    /// Adds one occurrence of every key in `keys`, equivalent to calling
    /// [`Self::add`] per key in order.
    pub fn update_batch(&mut self, keys: &[ItemKey]) {
        self.update_batch_weighted(keys, 1);
    }

    /// Adds `weight` occurrences of every key in `keys`, equivalent to
    /// calling [`Self::update`] per key in order — same counters, same
    /// saturation flags.
    pub fn update_batch_weighted(&mut self, keys: &[ItemKey], weight: i64) {
        for &key in keys {
            self.update(key, weight);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SketchParams;
    use crate::sketch::CountSketch;
    use cs_stream::{Zipf, ZipfStreamKind};
    use proptest::prelude::*;

    fn sketch() -> CountSketch {
        CountSketch::new(SketchParams::new(5, 64), 42)
    }

    fn assert_identical(a: &CountSketch, b: &CountSketch) {
        assert_eq!(a.counters(), b.counters(), "counters diverge");
        assert_eq!(
            a.saturated_words(),
            b.saturated_words(),
            "saturation flags diverge"
        );
    }

    #[test]
    fn batch_matches_sequential_on_zipf() {
        let stream = Zipf::new(500, 1.0).stream(10_000, 3, ZipfStreamKind::Sampled);
        let mut seq = sketch();
        for key in stream.iter() {
            seq.update(key, 1);
        }
        let mut bat = sketch();
        bat.absorb(&stream, 1);
        assert_identical(&seq, &bat);
    }

    #[test]
    fn absorb_routes_through_batch_and_matches_scalar() {
        let stream = Zipf::new(200, 1.2).stream(5_000, 7, ZipfStreamKind::Sampled);
        let mut seq = sketch();
        for key in stream.iter() {
            seq.update(key, -3);
        }
        let mut bat = sketch();
        bat.absorb(&stream, -3);
        assert_identical(&seq, &bat);
    }

    #[test]
    fn partial_blocks_handled() {
        // Lengths straddling the block size, including empty.
        for len in [0usize, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
            let keys: Vec<ItemKey> = (0..len as u64).map(ItemKey).collect();
            let mut seq = sketch();
            for &k in &keys {
                seq.add(k);
            }
            let mut bat = sketch();
            bat.update_batch(&keys);
            assert_identical(&seq, &bat);
        }
    }

    #[test]
    fn huge_weights_fall_back_to_exact_tier_identically() {
        // Each update carries nearly i64::MAX: the first exhausts the
        // headroom and the repeats of key 1 drive its cells past the
        // limit, clamping exactly where the scalar path clamps.
        let w = i64::MAX - 3;
        let keys: Vec<ItemKey> = (0..10u64).map(|k| ItemKey(k.min(1))).collect();
        let mut seq = sketch();
        for &k in &keys {
            seq.update(k, w);
        }
        let mut bat = sketch();
        bat.update_batch_weighted(&keys, w);
        assert_identical(&seq, &bat);
        assert!(
            !bat.health().is_healthy(),
            "expected clamping to be flagged"
        );
    }

    #[test]
    fn i64_min_weight_takes_exact_tier() {
        // |i64::MIN| exceeds i64::MAX, so no headroom check can admit it;
        // the exact tier must negate it in i128 without wrapping.
        let keys: Vec<ItemKey> = (0..5u64).map(ItemKey).collect();
        let mut seq = sketch();
        for &k in &keys {
            seq.update(k, i64::MIN);
        }
        let mut bat = sketch();
        bat.update_batch_weighted(&keys, i64::MIN);
        assert_identical(&seq, &bat);
    }

    #[test]
    fn interleaving_batch_and_scalar_is_consistent() {
        let stream = Zipf::new(100, 1.0).stream(2_000, 5, ZipfStreamKind::Sampled);
        let keys = stream.as_slice();
        let mut seq = sketch();
        for &k in keys {
            seq.update(k, 2);
        }
        let mut mixed = sketch();
        mixed.update_batch_weighted(&keys[..500], 2);
        for &k in &keys[500..700] {
            mixed.update(k, 2);
        }
        mixed.update_batch_weighted(&keys[700..], 2);
        assert_identical(&seq, &mixed);
    }

    proptest! {
        #[test]
        fn prop_batch_equals_sequential(
            seed: u64,
            weight_idx in 0usize..8,
            raw_keys in prop::collection::vec(any::<u64>(), 0..200),
        ) {
            const WEIGHTS: [i64; 8] =
                [1, -1, 3, 1 << 40, i64::MAX - 1, i64::MAX, i64::MIN + 1, i64::MIN];
            let weight = WEIGHTS[weight_idx];
            let keys: Vec<ItemKey> = raw_keys.into_iter().map(ItemKey).collect();
            let params = SketchParams::new(3, 16);
            let mut seq = CountSketch::new(params, seed);
            for &k in &keys {
                seq.update(k, weight);
            }
            let mut bat = CountSketch::new(params, seed);
            bat.update_batch_weighted(&keys, weight);
            prop_assert_eq!(seq.counters(), bat.counters());
            prop_assert_eq!(seq.saturated_words(), bat.saturated_words());
        }

        #[test]
        fn prop_mixed_weights_batchwise(
            seed: u64,
            weights in prop::collection::vec(-1000i64..1000, 1..8),
            raw_keys in prop::collection::vec(any::<u64>(), 1..100),
        ) {
            // Several weighted passes over the same keys, batch vs scalar.
            let keys: Vec<ItemKey> = raw_keys.into_iter().map(ItemKey).collect();
            let params = SketchParams::new(3, 16);
            let mut seq = CountSketch::new(params, seed);
            let mut bat = CountSketch::new(params, seed);
            for &w in &weights {
                for &k in &keys {
                    seq.update(k, w);
                }
                bat.update_batch_weighted(&keys, w);
            }
            prop_assert_eq!(seq.counters(), bat.counters());
            prop_assert_eq!(seq.saturated_words(), bat.saturated_words());
        }
    }
}
