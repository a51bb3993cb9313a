//! End-to-end equivalence of batched ingestion (`absorb`,
//! `update_batch`) with scalar updates, across the public API surface:
//! plain sketches, parallel sketching, the APPROXTOP processor, and
//! mid-batch snapshots.

use frequent_items::prelude::*;
use proptest::prelude::*;

fn zipf_stream(n: usize, seed: u64) -> Stream {
    Zipf::new(500, 1.0).stream(n, seed, ZipfStreamKind::Sampled)
}

fn scalar_sketch(stream: &Stream, params: SketchParams, seed: u64) -> CountSketch {
    let mut s = CountSketch::new(params, seed);
    for key in stream.iter() {
        s.update(key, 1);
    }
    s
}

#[test]
fn absorb_is_bit_identical_to_scalar_updates() {
    let stream = zipf_stream(20_000, 3);
    let params = SketchParams::new(5, 256);
    let seq = scalar_sketch(&stream, params, 9);
    let mut bat = CountSketch::new(params, 9);
    bat.absorb(&stream, 1);
    assert_eq!(seq.counters(), bat.counters());
    for id in 0..500u64 {
        assert_eq!(seq.estimate(ItemKey(id)), bat.estimate(ItemKey(id)));
    }
}

#[test]
fn parallel_batched_workers_equal_sequential_scalar() {
    // sketch_stream_pooled's workers ingest through update_batch_weighted;
    // the merged result must still match a scalar one-thread pass.
    let stream = zipf_stream(30_000, 5);
    let params = SketchParams::new(5, 512);
    let want = scalar_sketch(&stream, params, 13);
    for threads in [1usize, 2, 4, 7] {
        let got = sketch_stream_pooled(&stream, params, 13, threads);
        assert_eq!(want.counters(), got.counters(), "threads = {threads}");
    }
}

#[test]
fn snapshot_mid_batch_resumes_identically() {
    // Absorb half the stream batched, snapshot, restore, and finish on
    // the restored sketch — counters must equal one uninterrupted run
    // (scalar AND batched, which are themselves identical).
    let stream = zipf_stream(10_000, 8);
    let keys = stream.as_slice();
    let params = SketchParams::new(5, 256);

    let mut first_half = CountSketch::new(params, 21);
    first_half.update_batch(&keys[..5_000]);
    let bytes = first_half.to_snapshot_bytes();
    let mut restored = CountSketch::from_snapshot_bytes(&bytes).expect("snapshot roundtrip");
    restored.update_batch(&keys[5_000..]);

    let uninterrupted = scalar_sketch(&stream, params, 21);
    assert_eq!(uninterrupted.counters(), restored.counters());
    for id in 0..500u64 {
        assert_eq!(
            uninterrupted.estimate(ItemKey(id)),
            restored.estimate(ItemKey(id))
        );
    }
}

#[test]
fn approx_top_batched_stream_finds_same_heavy_hitters() {
    let stream = zipf_stream(40_000, 2);
    let exact = ExactCounter::from_stream(&stream);
    let params = SketchParams::new(7, 1024);

    let mut per_item = ApproxTopProcessor::new(params, 10, 4);
    for key in stream.iter() {
        per_item.observe(key);
    }
    let mut batched = ApproxTopProcessor::new(params, 10, 4);
    batched.observe_stream(&stream);

    // The sketches must agree exactly; the reported sets must both cover
    // the unambiguous heavy hitters.
    assert_eq!(per_item.sketch().counters(), batched.sketch().counters());
    let truth: Vec<ItemKey> = exact.top_k(5).into_iter().map(|(k, _)| k).collect();
    for keys in [per_item.result().keys(), batched.result().keys()] {
        for t in &truth {
            assert!(keys.contains(t), "missing heavy hitter {t:?}");
        }
    }
}

proptest! {
    /// Batched ingestion with arbitrary slice boundaries equals scalar
    /// ingestion, including signed weights.
    #[test]
    fn prop_chunked_batches_equal_scalar(
        seed: u64,
        weight in -100i64..100,
        raw in prop::collection::vec(0u64..64, 1..300),
        cut in 0usize..300,
    ) {
        let keys: Vec<ItemKey> = raw.into_iter().map(ItemKey).collect();
        let cut = cut.min(keys.len());
        let params = SketchParams::new(3, 32);
        let mut seq = CountSketch::new(params, seed);
        for &k in &keys {
            seq.update(k, weight);
        }
        let mut bat = CountSketch::new(params, seed);
        bat.update_batch_weighted(&keys[..cut], weight);
        bat.update_batch_weighted(&keys[cut..], weight);
        prop_assert_eq!(seq.counters(), bat.counters());
    }
}
