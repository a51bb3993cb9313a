//! Batched, branch-free ingestion for the Count-Sketch.
//!
//! The scalar [`GenericCountSketch::update`] pays per item: a hash/sign
//! virtual-ish call pair per row, an overflow check, and (on the exact
//! tier) an `i128` widening plus a saturation-bitset store. For the
//! throughput experiments — millions of unit-weight arrivals — almost
//! none of that is needed almost all of the time. This module amortizes
//! it over blocks:
//!
//! 1. Keys are processed in blocks of [`BLOCK`]; the block is hashed
//!    into stack-allocated row-major lanes (buckets and signs for every
//!    row), and only then scattered into the counter array row by row.
//!    Separating the hash pass from the scatter pass keeps the hash
//!    coefficients pinned in registers — interleaved with counter
//!    stores, the compiler must conservatively reload them, because it
//!    cannot prove the stores don't alias the hasher storage. The hash
//!    pass walks keys in the outer loop and rows inside, which keeps all
//!    `2t` independent evaluation chains of one key in flight at once —
//!    measured ~2× faster on the polynomial family than hashing one row
//!    across the whole block at a time ([`BucketHasher::bucket_block`]
//!    remains the per-row interface for callers that want it, and the
//!    `micro` benchmark compares both shapes).
//! 2. The overflow check runs once per block, not once per cell: the
//!    sketch's `abs_mass` watermark bounds every `|counter|`, so
//!    `abs_mass + n·|w| ≤ i64::MAX` proves the whole block cannot clamp
//!    and the adds run in pure `i64` — no `i128`, no branches, no bitset
//!    stores. Only when headroom is exhausted (after ~2^63 absolute mass,
//!    i.e. essentially never for realistic streams) does the block fall
//!    back to the exact per-item clamp-and-flag tier.
//!
//! Both tiers produce **bit-identical** counters and saturation flags to
//! a sequence of scalar `update` calls — the fast tier is only entered
//! when clamping is provably impossible, and the exact tier *is* the
//! scalar path. The property tests at the bottom pin this equivalence
//! down, including at weights within a few units of `i64::MAX`.

use crate::sketch::GenericCountSketch;
use cs_hash::{BucketHasher, ItemKey, SignHasher};

/// Keys hashed per block. 32 keeps the bucket and sign lanes for a
/// 16-row sketch in 8 KiB of stack — comfortably inside L1 — while
/// giving the out-of-order core far more independent work than it can
/// retire.
pub const BLOCK: usize = 32;

/// Widest sketch the stack lanes cover. Taller sketches (rare: the
/// paper's `t` is `O(log n/δ)`, and the repo's experiments top out at
/// `t = 11`) take the scalar-per-key fallback inside the same headroom
/// scheme. Shared with the read path's batch-estimate lanes
/// ([`crate::sketch::EstimateBatchScratch`]).
pub(crate) const LANE_ROWS: usize = 16;

impl<H: BucketHasher, S: SignHasher> GenericCountSketch<H, S> {
    /// Adds one occurrence of every key in `keys`, equivalent to (and
    /// bit-identical with) calling [`Self::add`] per key in order.
    pub fn update_batch(&mut self, keys: &[ItemKey]) {
        self.update_batch_weighted(keys, 1);
    }

    /// Adds `weight` occurrences of every key in `keys`, equivalent to
    /// (and bit-identical with) calling [`Self::update`] per key in
    /// order — same counters, same saturation flags.
    pub fn update_batch_weighted(&mut self, keys: &[ItemKey], weight: i64) {
        // Row-major stack lanes: lane `i*BLOCK + j` holds row i's cell for
        // the j-th key of the current block.
        let mut buckets = [0usize; BLOCK * LANE_ROWS];
        let mut signs = [0i64; BLOCK * LANE_ROWS];
        let lanes_fit = self.rows <= LANE_ROWS;
        for chunk in keys.chunks(BLOCK) {
            let n = chunk.len();
            match self.headroom_after(n, weight) {
                Some(mass) => {
                    self.abs_mass = mass;
                    if lanes_fit {
                        // Hash pass: all 2t chains of one key in flight
                        // together, no counter stores in between.
                        for (j, key) in chunk.iter().enumerate() {
                            let k = key.raw();
                            let hs = self.hashers.iter().zip(&self.signs);
                            for (i, (h, sg)) in hs.enumerate() {
                                buckets[i * BLOCK + j] = h.bucket(k);
                                signs[i * BLOCK + j] = sg.sign(k);
                            }
                        }
                        // Scatter pass: plain i64 adds, row by row.
                        for (i, row) in self.counters.chunks_exact_mut(self.buckets).enumerate() {
                            let bl = &buckets[i * BLOCK..i * BLOCK + n];
                            let sl = &signs[i * BLOCK..i * BLOCK + n];
                            for (&b, &s) in bl.iter().zip(sl) {
                                // In-range by BucketHasher's contract;
                                // the check folds into the row slice.
                                row[b] += s * weight;
                            }
                        }
                    } else {
                        for key in chunk {
                            let k = key.raw();
                            for i in 0..self.rows {
                                let bucket = self.hashers[i].bucket(k);
                                let sign = self.signs[i].sign(k);
                                self.counters[i * self.buckets + bucket] += sign * weight;
                            }
                        }
                    }
                }
                // Headroom exhausted: the exact tier checks (and clamps)
                // every cell individually, exactly like scalar ingestion.
                None => {
                    for &key in chunk {
                        self.update_exact(key, weight);
                    }
                }
            }
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
        #[cfg(feature = "saturation-tracking")]
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
