//! Seeded input generation and the exact-count oracle.
//!
//! Inputs are whitespace-separated tokens. Background keys are ranks of
//! a key universe, relabelled through a seeded bijection on 20 bits and
//! written as four base-36 characters; planted heavy keys are `hot00`,
//! `hot01`, ... The generator keeps the exact count of every key, so the
//! oracle never has to trust the program under test.

use frequent_items::hash::ItemKey;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// SplitMix64: a small, fast, seedable generator (the benchmark must not
/// depend on the repository's own generators, which later changes may
/// alter).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

const ID_BITS: u32 = 20;
const ID_MASK: u64 = (1 << ID_BITS) - 1;

/// A seeded bijection on `[0, 2^20)`: odd multiplications and xor-shifts
/// are each invertible modulo `2^20`.
fn permute(rank: u64, seed: u64) -> u64 {
    let mut mix = Rng::new(seed);
    let (a, b, c) = (mix.next_u64() | 1, mix.next_u64() | 1, mix.next_u64());
    let mut x = rank.wrapping_add(c) & ID_MASK;
    x = x.wrapping_mul(a) & ID_MASK;
    x ^= x >> 11;
    x = x.wrapping_mul(b) & ID_MASK;
    x ^= x >> 9;
    x
}

/// Four base-36 characters (`36^4 > 2^20`).
fn label_of(id: u64) -> String {
    const DIGITS: &[u8; 36] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    let mut out = [0u8; 4];
    let mut v = id;
    for slot in out.iter_mut().rev() {
        *slot = DIGITS[(v % 36) as usize];
        v /= 36;
    }
    String::from_utf8(out.to_vec()).expect("base-36 digits are ASCII")
}

/// The kinds of input the benchmark workloads run on.
pub enum Kind {
    /// `tokens` draws from Zipf(`z`) over a `universe` of keys.
    Zipf { z: f64 },
    /// A flat background over `universe` keys plus `heavy` planted keys,
    /// each `share` of the stream.
    Planted { heavy: usize, share: f64 },
}

pub struct Spec {
    pub kind: Kind,
    pub tokens: usize,
    pub universe: usize,
    pub seed: u64,
}

/// Generates the input into `dir/input.txt` and the exact counts into
/// `dir/counts.tsv` (`label<TAB>key<TAB>count`, by count descending).
/// Returns `(tokens, distinct)`.
pub fn generate(spec: &Spec, dir: &Path) -> std::io::Result<(usize, usize)> {
    let mut rng = Rng::new(spec.seed ^ 0xC0FF_EE00_D15C_0B1E);
    let labels: Vec<String> = (0..spec.universe as u64)
        .map(|r| label_of(permute(r, spec.seed)))
        .collect();
    let heavy_labels: Vec<String> = match spec.kind {
        Kind::Planted { heavy, .. } => (0..heavy).map(|i| format!("hot{i:02}")).collect(),
        Kind::Zipf { .. } => Vec::new(),
    };
    let mut counts = vec![0u64; spec.universe];
    let mut heavy_counts = vec![0u64; heavy_labels.len()];
    let cdf: Vec<f64> = match spec.kind {
        Kind::Zipf { z } => {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (1..=spec.universe)
                .map(|r| {
                    acc += (r as f64).powf(-z);
                    acc
                })
                .collect();
            let total = acc;
            cdf.iter_mut().for_each(|c| *c /= total);
            cdf
        }
        Kind::Planted { .. } => Vec::new(),
    };
    let mut out = BufWriter::with_capacity(1 << 20, std::fs::File::create(dir.join("input.txt"))?);
    for i in 0..spec.tokens {
        let label: &str = match spec.kind {
            Kind::Zipf { .. } => {
                let u = rng.unit();
                let r = cdf.partition_point(|&c| c < u).min(spec.universe - 1);
                counts[r] += 1;
                &labels[r]
            }
            Kind::Planted { heavy, share } => {
                if rng.unit() < share * heavy as f64 {
                    let h = rng.below(heavy as u64) as usize;
                    heavy_counts[h] += 1;
                    &heavy_labels[h]
                } else {
                    let r = rng.below(spec.universe as u64) as usize;
                    counts[r] += 1;
                    &labels[r]
                }
            }
        };
        out.write_all(label.as_bytes())?;
        out.write_all(if i % 16 == 15 { b"\n" } else { b" " })?;
    }
    out.flush()?;
    let mut exact: Vec<(&str, u64)> = labels
        .iter()
        .map(String::as_str)
        .zip(counts.iter().copied())
        .chain(
            heavy_labels
                .iter()
                .map(String::as_str)
                .zip(heavy_counts.iter().copied()),
        )
        .filter(|&(_, c)| c > 0)
        .collect();
    exact.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut tsv = BufWriter::new(std::fs::File::create(dir.join("counts.tsv"))?);
    for (label, count) in &exact {
        writeln!(tsv, "{label}\t{:#018x}\t{count}", ItemKey::of(*label).0)?;
    }
    tsv.flush()?;
    Ok((spec.tokens, exact.len()))
}

/// The exact counts of one generated input.
pub struct Oracle {
    /// `(label, key, count)` by count descending.
    exact: Vec<(String, u64, u64)>,
    by_label: HashMap<String, u64>,
    by_key: HashMap<u64, u64>,
}

impl Oracle {
    pub fn load(dir: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::open(dir.join("counts.tsv"))?;
        let mut exact = Vec::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            let mut f = line.split('\t');
            let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad counts.tsv");
            let label = f.next().ok_or_else(bad)?.to_string();
            let key = u64::from_str_radix(f.next().ok_or_else(bad)?.trim_start_matches("0x"), 16)
                .map_err(|_| bad())?;
            let count = f.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            exact.push((label, key, count));
        }
        let by_label = exact.iter().map(|(l, _, c)| (l.clone(), *c)).collect();
        let by_key = exact.iter().map(|(_, k, c)| (*k, *c)).collect();
        Ok(Oracle {
            exact,
            by_label,
            by_key,
        })
    }

    pub fn tokens(&self) -> u64 {
        self.exact.iter().map(|e| e.2).sum()
    }

    /// `F₂^res(k)`: the second moment with the `k` largest counts removed.
    pub fn f2_res(&self, k: usize) -> f64 {
        self.exact
            .iter()
            .skip(k)
            .map(|e| (e.2 as f64).powi(2))
            .sum()
    }

    /// The count of the `k`-th most frequent key (ties included above).
    fn kth_count(&self, k: usize) -> u64 {
        self.exact.get(k.saturating_sub(1)).map_or(0, |e| e.2)
    }
}

/// Checks one `fi` report against the oracle. Reports are either `top`
/// reports (token labels) or `serve`/`coordinate` reports (`key 0x..`).
/// Returns a JSON object: `ok`, `errors`, `recall`, `max_err_gamma`.
pub fn check_report(oracle: &Oracle, report: &str, k: usize, buckets: usize) -> String {
    let mut errors: Vec<String> = Vec::new();
    let gamma = (oracle.f2_res(k) / buckets as f64).sqrt();
    let mut lines = report.lines();
    let header = lines.next().unwrap_or("");
    let words: Vec<&str> = header.split_whitespace().collect();
    // "# top-K of N occurrences (D distinct seen, ...)" or
    // "# top-K of N occurrences across S site(s)".
    if words.len() < 5 || words[0] != "#" || words[1] != format!("top-{k}") {
        errors.push(format!("bad header {header:?}"));
    } else {
        if words[3].parse::<u64>().ok() != Some(oracle.tokens()) {
            errors.push(format!("header tokens {} != {}", words[3], oracle.tokens()));
        }
        if let Some(distinct) = words.get(5).and_then(|w| w.strip_prefix('(')) {
            if distinct.parse::<usize>().ok() != Some(oracle.exact.len()) {
                errors.push(format!(
                    "header distinct {distinct} != {}",
                    oracle.exact.len()
                ));
            }
        }
    }
    let kth = oracle.kth_count(k);
    let (mut hits, mut rows, mut max_err) = (0usize, 0usize, 0.0f64);
    for line in lines.filter(|l| !l.starts_with('#')) {
        let mut f = line.split_whitespace();
        let est: Option<i64> = f.next().and_then(|e| e.parse().ok());
        let truth = match (f.next(), f.next()) {
            (Some("key"), Some(hex)) => u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                .ok()
                .map(|key| oracle.by_key.get(&key).copied().unwrap_or(0)),
            (Some(label), None) => Some(oracle.by_label.get(label).copied().unwrap_or(0)),
            _ => None,
        };
        let (Some(est), Some(truth)) = (est, truth) else {
            errors.push(format!("bad report line {line:?}"));
            continue;
        };
        rows += 1;
        if truth >= kth {
            hits += 1;
        }
        let err = (est - truth as i64).unsigned_abs() as f64 / gamma;
        max_err = max_err.max(err);
        if err > 8.0 {
            errors.push(format!(
                "{line:?}: true count {truth}, error {err:.2} gamma > 8"
            ));
        }
    }
    if rows != k.min(oracle.exact.len()) {
        errors.push(format!("{rows} report rows, expected {k}"));
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"ok\": {}, \"recall\": {}, \"max_err_gamma\": {}, \"gamma\": {}, \"errors\": [",
        errors.is_empty(),
        hits as f64 / k as f64,
        max_err,
        gamma
    );
    for (i, e) in errors.iter().enumerate() {
        let _ = write!(json, "{}{}", if i > 0 { ", " } else { "" }, json_str(e));
    }
    json.push_str("]}");
    json
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
