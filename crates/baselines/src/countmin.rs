//! Count-Min sketch (Cormode & Muthukrishnan '05) — the sign-hash
//! ablation.
//!
//! Structurally a Count-Sketch with the `±1` sign hashes removed:
//! `t × b` *non-negative* counters, `ADD` increments one counter per row,
//! `ESTIMATE` takes the **min** over rows (every row overcounts, so the
//! minimum is the tightest). Point-query error is one-sided:
//! `n_q ≤ est ≤ n_q + ε·F₁^{res}` w.h.p. with `b = ⌈e/ε⌉`, versus
//! Count-Sketch's two-sided `±ε·sqrt(F₂^{res})`. Comparing the two on the
//! same `(t, b)` grid isolates exactly what the paper's sign hashes buy —
//! the `harness ablation` experiment does this.

use crate::traits::{sort_candidates, StreamSummary};
use cs_hash::{BucketHasher, ItemKey, PairwiseHash, SeedSequence};
use std::collections::HashMap;

/// The Count-Min sketch plus a candidate heap (so it can answer
/// CANDIDATETOP-style queries like the others).
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    rows: usize,
    buckets: usize,
    counters: Vec<u64>,
    hashers: Vec<PairwiseHash>,
    /// Top candidates tracked alongside (item → last estimate).
    heap_capacity: usize,
    heap: HashMap<ItemKey, u64>,
}

impl CountMinSketch {
    /// Creates a `rows × buckets` Count-Min sketch tracking up to
    /// `heap_capacity` candidate items.
    pub fn new(rows: usize, buckets: usize, heap_capacity: usize, seed: u64) -> Self {
        assert!(rows > 0 && buckets > 0, "dimensions must be positive");
        assert!(heap_capacity > 0, "heap capacity must be positive");
        let mut seeds = SeedSequence::new(seed);
        let hashers = (0..rows)
            .map(|_| PairwiseHash::draw(&mut seeds, buckets))
            .collect();
        Self {
            rows,
            buckets,
            counters: vec![0; rows * buckets],
            hashers,
            heap_capacity,
            heap: HashMap::new(),
        }
    }

    /// Dimensions from the standard `(ε, δ)` guarantee:
    /// `b = ⌈e/ε⌉`, `t = ⌈ln(1/δ)⌉`.
    pub fn with_guarantee(eps: f64, delta: f64, heap_capacity: usize, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let buckets = (std::f64::consts::E / eps).ceil() as usize;
        let rows = ((1.0 / delta).ln().ceil() as usize).max(1);
        Self::new(rows, buckets, heap_capacity, seed)
    }

    /// Number of rows `t`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Buckets per row `b`.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The raw point-query estimate (min over rows), without heap
    /// bookkeeping.
    pub fn point_query(&self, key: ItemKey) -> u64 {
        let k = key.raw();
        (0..self.rows)
            .map(|i| self.counters[i * self.buckets + self.hashers[i].bucket(k)])
            .min()
            .expect("rows > 0")
    }
}

impl StreamSummary for CountMinSketch {
    fn name(&self) -> &'static str {
        "count-min"
    }

    fn process(&mut self, key: ItemKey) {
        let k = key.raw();
        for i in 0..self.rows {
            let bucket = self.hashers[i].bucket(k);
            self.counters[i * self.buckets + bucket] += 1;
        }
        // Candidate heap: same discipline as the Count-Sketch algorithm.
        let est = self.point_query(key);
        if self.heap.contains_key(&key) || self.heap.len() < self.heap_capacity {
            self.heap.insert(key, est);
        } else {
            let (&min_key, &min_est) = self
                .heap
                .iter()
                .min_by_key(|&(&k2, &v)| (v, k2))
                .expect("heap non-empty at capacity");
            if est > min_est {
                self.heap.remove(&min_key);
                self.heap.insert(key, est);
            }
        }
    }

    fn estimate(&self, key: ItemKey) -> Option<u64> {
        Some(self.point_query(key))
    }

    fn candidates(&self) -> Vec<(ItemKey, u64)> {
        let mut v: Vec<(ItemKey, u64)> = self.heap.iter().map(|(&k, &c)| (k, c)).collect();
        sort_candidates(&mut v);
        v
    }

    fn space_bytes(&self) -> usize {
        self.counters.capacity() * std::mem::size_of::<u64>()
            + self.hashers.iter().map(|h| h.space_bytes()).sum::<usize>()
            + self.heap_capacity * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_stream::{ExactCounter, Stream, Zipf, ZipfStreamKind};

    #[test]
    fn never_undercounts() {
        let zipf = Zipf::new(300, 1.0);
        let stream = zipf.stream(20_000, 1, ZipfStreamKind::DeterministicRounded);
        let exact = ExactCounter::from_stream(&stream);
        let mut cm = CountMinSketch::new(5, 256, 20, 3);
        cm.process_stream(&stream);
        for id in 0..300u64 {
            let est = cm.point_query(ItemKey(id));
            assert!(
                est >= exact.count(ItemKey(id)),
                "Count-Min undercounted item {id}"
            );
        }
    }

    #[test]
    fn single_item_is_exact() {
        let mut cm = CountMinSketch::new(3, 64, 5, 0);
        for _ in 0..100 {
            cm.process(ItemKey(42));
        }
        assert_eq!(cm.point_query(ItemKey(42)), 100);
    }

    #[test]
    fn overcount_bounded_by_eps_f1() {
        let zipf = Zipf::new(1000, 1.0);
        let stream = zipf.stream(50_000, 6, ZipfStreamKind::DeterministicRounded);
        let exact = ExactCounter::from_stream(&stream);
        let eps = 0.005;
        let mut cm = CountMinSketch::with_guarantee(eps, 0.01, 20, 7);
        cm.process_stream(&stream);
        let bound = (eps * stream.len() as f64).ceil() as u64;
        let mut violations = 0usize;
        for id in 0..1000u64 {
            let over = cm.point_query(ItemKey(id)) - exact.count(ItemKey(id));
            if over > bound {
                violations += 1;
            }
        }
        // δ = 0.01 per query: allow a few of 1000.
        assert!(violations <= 30, "{violations} overcount violations");
    }

    #[test]
    fn finds_top_items_on_zipf() {
        let zipf = Zipf::new(1000, 1.2);
        let stream = zipf.stream(50_000, 4, ZipfStreamKind::DeterministicRounded);
        let mut cm = CountMinSketch::new(5, 1024, 10, 9);
        cm.process_stream(&stream);
        let keys = cm.top_k_keys(10);
        assert!(keys.contains(&ItemKey(0)), "missed the dominant item");
        assert!(keys.contains(&ItemKey(1)));
    }

    #[test]
    fn heap_respects_capacity() {
        let mut cm = CountMinSketch::new(3, 64, 5, 1);
        cm.process_stream(&Stream::from_ids(0..1000));
        assert!(cm.candidates().len() <= 5);
    }

    #[test]
    fn with_guarantee_dimensions() {
        let cm = CountMinSketch::with_guarantee(0.01, 0.01, 5, 0);
        assert_eq!(cm.buckets(), (std::f64::consts::E / 0.01).ceil() as usize);
        assert_eq!(cm.rows(), 5); // ln(100) ≈ 4.6 → 5
    }

    #[test]
    fn deterministic_given_seed() {
        let stream = Stream::from_ids((0..5000u64).map(|i| i % 100));
        let mut a = CountMinSketch::new(5, 128, 10, 2);
        let mut b = CountMinSketch::new(5, 128, 10, 2);
        a.process_stream(&stream);
        b.process_stream(&stream);
        assert_eq!(a.candidates(), b.candidates());
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimensions_rejected() {
        CountMinSketch::new(0, 10, 5, 0);
    }
}
