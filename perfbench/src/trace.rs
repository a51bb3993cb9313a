//! The traced run: the layers `fi` composes, called in-process in the
//! order `src/cli.rs` calls them, with a span around each call.
//!
//! A span records its name, start, end, parent span and job id. Spans
//! flagged *reference* time an extra call that repeats work already
//! inside another span (for example the row hashes the sketch update
//! also computes); they give in-run ratios and are left out of the
//! coverage sum and of the traced job time.

use frequent_items::cli::{self, Options};
use frequent_items::hash::{
    BucketHasher, ItemKey, PairwiseHash, PairwiseSign, SeedSequence, SignHasher,
};
use frequent_items::net::{decode_frame, encode_frame, Frame};
use frequent_items::prelude::*;
use frequent_items::sketch::ingest::BLOCK;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    reference: bool,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span and count recorder for one traced job.
pub struct Tracer {
    origin: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
    ship_s: Vec<f64>,
}

impl Tracer {
    pub fn new(job: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            job,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            ship_s: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str, reference: bool) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            reference,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in order");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos();
    }

    /// Times `f` as one call into layer `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, false);
        let r = f();
        self.exit(id);
        r
    }

    /// Times `f` as a reference call (see the module docs).
    pub fn time_ref<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, true);
        let r = f();
        self.exit(id);
        r
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    fn self_ns(&self, id: usize) -> u128 {
        let s = &self.spans[id];
        let children: u128 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Appends the spans as JSON lines to `path`.
    fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"job\": {}, \"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"ref\": {}}}",
                self.job, s.name, s.start_ns, s.end_ns, s.reference
            );
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(out.as_bytes())
    }

    /// The job summary as one JSON object: per-layer self seconds,
    /// counts, the traced job time (reference spans excluded) and the
    /// self time the non-reference layer spans cover.
    fn summary(&self, root: usize) -> String {
        let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
        let (mut covered, mut reference) = (0u128, 0u128);
        for (id, s) in self.spans.iter().enumerate() {
            if id == root {
                continue;
            }
            let own = self.self_ns(id);
            *layers.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
            if s.reference {
                reference += s.end_ns - s.start_ns;
            } else {
                covered += own;
            }
        }
        let r = &self.spans[root];
        let composite = (r.end_ns - r.start_ns).saturating_sub(reference);
        let mut json = format!(
            "{{\"job\": {}, \"composite_s\": {}, \"covered_s\": {}, \"layers\": {{",
            self.job,
            composite as f64 / 1e9,
            covered as f64 / 1e9
        );
        push_map(&mut json, layers.iter().map(|(k, v)| (*k, *v)));
        json.push_str("}, \"counts\": {");
        push_map(&mut json, self.counts.iter().map(|(k, v)| (*k, *v)));
        json.push_str("}, \"ship_s\": [");
        for (i, s) in self.ship_s.iter().enumerate() {
            let _ = write!(json, "{}{s}", if i > 0 { ", " } else { "" });
        }
        json.push_str("]}");
        json
    }
}

fn push_map<'a>(json: &mut String, entries: impl Iterator<Item = (&'a str, f64)>) {
    for (i, (k, v)) in entries.enumerate() {
        let _ = write!(json, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
    }
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn params(opts: &Options) -> SketchParams {
    SketchParams::new(opts.rows, opts.buckets)
}

/// Runs one traced job of the `fi` invocations in `argvs`, each given
/// without the program name and parsed by `cli::parse_args`, so the job
/// runs with exactly the options `fi` gets. A job is one `top`
/// invocation, or one `serve` followed by its `ship` invocations; every
/// ship goes to the coordinator the `serve` options bind in-process, and
/// its `--to` is not used. Writes the report to `work/traced-report.txt`,
/// appends the spans to `work/spans.jsonl` and returns the job summary.
pub fn run_job(argvs: &[Vec<String>], work: &Path, job: u64) -> Result<String, String> {
    let opts = argvs
        .iter()
        .map(|argv| cli::parse_args(argv))
        .collect::<Result<Vec<Options>, String>>()?;
    let (first, ships) = opts.split_first().ok_or("no fi invocation to trace")?;
    let mut tr = Tracer::new(job);
    // The coordinator is bound and listening before the job starts, as
    // `fi serve` is in the untraced run.
    let server = if first.command == "serve" {
        let listen = first
            .listen
            .as_deref()
            .expect("parse_args requires --listen");
        let server = CoordinatorServer::bind(listen, serve_config(first)).map_err(io_err)?;
        let addr = server.local_addr().map_err(io_err)?.to_string();
        Some((addr, std::thread::spawn(move || server.run())))
    } else {
        None
    };
    let root = tr.enter("job", false);
    let report = match (first.command.as_str(), server) {
        ("top", _)
            if first.algorithm != "count-sketch"
                || first.resume.is_some()
                || first.snapshot_every > 0 =>
        {
            return Err(
                "the traced run covers count-sketch `fi top` without --resume or --snapshot-every"
                    .into(),
            );
        }
        ("top", _) if first.threads > 1 => top_parallel(&mut tr, first)?,
        ("top", _) => top_sequential(&mut tr, first)?,
        ("serve", Some((addr, handle))) => dist(&mut tr, first, ships, &addr, handle)?,
        (other, _) => return Err(format!("cannot trace `fi {other}`")),
    };
    tr.exit(root);
    std::fs::write(work.join("traced-report.txt"), &report).map_err(io_err)?;
    tr.write_spans(&work.join("spans.jsonl")).map_err(io_err)?;
    Ok(tr.summary(root))
}

/// The coordinator configuration `fi serve` builds from its options.
fn serve_config(opts: &Options) -> ServeConfig {
    let quorum = if opts.quorum == 0 {
        opts.sites
    } else {
        opts.quorum
    };
    let mut config = ServeConfig::new(opts.sites, quorum, params(opts), opts.seed);
    config.tick_ms = opts.tick_ms.max(1);
    config.deadline_ticks = (opts.deadline_ms / config.tick_ms).max(1);
    config.timeout_ms = opts.timeout_ms;
    config
}

fn input_path(opts: &Options) -> Result<&Path, String> {
    opts.files
        .first()
        .map(Path::new)
        .ok_or_else(|| "the traced run reads a file, not stdin".to_string())
}

fn read(tr: &mut Tracer, path: &Path) -> Result<String, String> {
    let text = tr
        .time("cli.read", || std::fs::read_to_string(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    tr.count("cli.read.bytes", text.len() as f64);
    Ok(text)
}

fn tokenize(tr: &mut Tracer, text: &str) -> (Stream, HashMap<ItemKey, String>) {
    let (stream, labels) = tr.time("cli.tokenize", || cli::tokenize(text));
    tr.count("cli.tokenize.tokens", stream.len() as f64);
    tr.count("cli.tokenize.labels", labels.len() as f64);
    (stream, labels)
}

/// Reference calls over one stream: key derivation alone, row hashing
/// alone, and the sketch update alone.
fn references(tr: &mut Tracer, opts: &Options, text: &str, stream: &Stream) {
    tr.time_ref("stream.item_key", || {
        let mut acc = 0u64;
        for tok in text.split_whitespace() {
            acc = acc.wrapping_add(ItemKey::of(tok).0);
        }
        black_box(acc)
    });
    // The same hash functions `CountSketch::new` draws from the seed.
    let mut seeds = SeedSequence::new(opts.seed);
    let hashers: Vec<PairwiseHash> = (0..opts.rows)
        .map(|_| PairwiseHash::draw(&mut seeds, opts.buckets))
        .collect();
    let signs: Vec<PairwiseSign> = (0..opts.rows)
        .map(|_| PairwiseSign::draw(&mut seeds))
        .collect();
    tr.time_ref("hash.row_hash", || {
        let mut acc = 0i64;
        for key in stream.iter() {
            for (h, s) in hashers.iter().zip(&signs) {
                acc = acc.wrapping_add(h.bucket(key.0) as i64 * s.sign(key.0));
            }
        }
        black_box(acc)
    });
    tr.count("hash.row_hash.ops", (stream.len() * opts.rows) as f64);
    tr.time_ref("core.sketch.update", || {
        let mut sketch = CountSketch::new(params(opts), opts.seed);
        for key in stream.iter() {
            sketch.add(key);
        }
        black_box(sketch.counters()[0])
    });
    tr.count("core.sketch.update.ops", stream.len() as f64);
}

/// The estimates the per-item APPROXTOP rule (`observe`) makes, timed
/// alone. A replay of `observe` (a reference span of its own, reported
/// by no metric) sorts every arrival into a hit
/// (already tracked: the tracker increments it) or a miss (the sketch
/// estimates it and the tracker is offered the estimate). The reference
/// span then estimates every missed key once more, in arrival order,
/// against the replay's final sketch: the same kernel over the same
/// keys, though not over the same counter values.
fn estimate_reference(tr: &mut Tracer, opts: &Options, k: usize, stream: &Stream) {
    let (p, missed) = tr.time_ref("core.approx_top.replay", || {
        let mut p = ApproxTopProcessor::new(params(opts), k, opts.seed);
        let mut missed = Vec::new();
        for key in stream.iter() {
            if !p.tracker().contains(key) {
                missed.push(key);
            }
            p.observe(key);
        }
        (p, missed)
    });
    tr.count("core.topk.hits", (stream.len() - missed.len()) as f64);
    tr.count("core.topk.offers", missed.len() as f64);
    let sketch = p.sketch();
    let mut scratch = EstimateScratch::new();
    tr.time_ref("core.sketch.estimate", || {
        let mut acc = 0i64;
        for &key in &missed {
            acc = acc.wrapping_add(sketch.estimate_with_scratch(key, &mut scratch));
        }
        black_box(acc)
    });
}

/// The report `fi top` prints.
fn render_top(
    items: &[(ItemKey, i64)],
    opts: &Options,
    n: usize,
    labels: &HashMap<ItemKey, String>,
) -> String {
    let mut out = format!(
        "# top-{} of {} occurrences ({} distinct seen, algorithm: {})\n",
        opts.k,
        n,
        labels.len(),
        opts.algorithm
    );
    for (key, est) in items {
        let label = labels.get(key).map(String::as_str).unwrap_or("<?>");
        let _ = writeln!(out, "{est:>10}  {label}");
    }
    out
}

/// `fi top --snapshot PATH`: the processor's state written through the
/// crash-safe tmp, fsync, rename path once ingestion is done.
fn snapshot(tr: &mut Tracer, opts: &Options, p: &ApproxTopProcessor) {
    let Some(path) = &opts.snapshot else { return };
    let bytes = tr.time("core.snapshot.encode", || p.to_snapshot_bytes());
    tr.count("core.snapshot.bytes", bytes.len() as f64);
    tr.count("core.snapshot.writes", 1.0);
    if tr
        .time("core.snapshot.write", || {
            write_snapshot_file(Path::new(path), &bytes)
        })
        .is_err()
    {
        tr.count("core.snapshot.write_errors", 1.0);
    }
}

/// `fi top` (sequential): per-item APPROXTOP, `observe_stream`.
fn top_sequential(tr: &mut Tracer, opts: &Options) -> Result<String, String> {
    let text = read(tr, input_path(opts)?)?;
    let (stream, labels) = tokenize(tr, &text);
    references(tr, opts, &text, &stream);
    estimate_reference(tr, opts, opts.k, &stream);
    let p = tr.time("core.approx_top.observe", || {
        let mut p = ApproxTopProcessor::new(params(opts), opts.k, opts.seed);
        p.observe_stream(&stream);
        p
    });
    snapshot(tr, opts, &p);
    Ok(tr.time("cli.render", || {
        render_top(&p.result().items, opts, stream.len(), &labels)
    }))
}

/// `fi top --threads N`: the sharded pool, then every distinct key
/// re-estimated through the batch kernel.
fn top_parallel(tr: &mut Tracer, opts: &Options) -> Result<String, String> {
    let text = read(tr, input_path(opts)?)?;
    let (stream, labels) = tokenize(tr, &text);
    references(tr, opts, &text, &stream);
    // The block-ingest kernel each pool worker runs on its shard, timed
    // on one thread over the whole stream.
    tr.time_ref("core.ingest.update_batch", || {
        let mut sketch = CountSketch::new(params(opts), opts.seed);
        sketch.update_batch(stream.as_slice());
        black_box(sketch.counters()[0])
    });
    tr.count("core.ingest.blocks", stream.len().div_ceil(BLOCK) as f64);
    let merged = tr.time("core.parallel.pool", || {
        let mut pool = SketchPool::new(params(opts), opts.seed, opts.threads);
        pool.ingest_stream(&stream);
        pool.finish()
    });
    tr.count("core.parallel.threads", opts.threads as f64);
    let candidates = tr.time("cli.candidates", || {
        let mut c: Vec<ItemKey> = labels.keys().copied().collect();
        c.sort_unstable();
        c.dedup();
        c
    });
    let estimates = tr.time("core.query.estimate_batch", || {
        merged.estimate_batch(&candidates)
    });
    tr.count("core.query.estimate_batch.keys", candidates.len() as f64);
    let tracker = tr.time("core.topk", || {
        let mut t = TopKTracker::new(opts.k);
        for (&key, &est) in candidates.iter().zip(&estimates) {
            t.offer(key, est);
        }
        t
    });
    tr.count("core.topk.offers", candidates.len() as f64);
    let p = ApproxTopProcessor::from_parts(merged, tracker, HeapPolicy::default());
    snapshot(tr, opts, &p);
    Ok(tr.time("cli.render", || {
        render_top(&p.result().items, opts, stream.len(), &labels)
    }))
}

/// `fi ship` per site to a listening coordinator, then the coordinator's
/// merged report. Sites run one after another.
fn dist(
    tr: &mut Tracer,
    serve: &Options,
    ships: &[Options],
    addr: &str,
    server: std::thread::JoinHandle<Result<QuorumOutcome, NetError>>,
) -> Result<String, String> {
    let mut reports = Vec::with_capacity(ships.len());
    for ship in ships {
        if ship.command != "ship" {
            return Err(format!(
                "expected `fi ship` after `fi serve`, got `fi {}`",
                ship.command
            ));
        }
        let text = read(tr, input_path(ship)?)?;
        let (stream, _) = tokenize(tr, &text);
        references(tr, ship, &text, &stream);
        let report = tr.time("core.distributed.site_report", || {
            site_report(&stream, ship.k, params(ship), ship.seed)
        });
        estimate_reference(tr, ship, ship.k.max(1), &stream);
        // The wire layers `ship` and the coordinator run internally,
        // called once more on their own.
        let bytes = tr.time_ref("core.snapshot.encode", || report.sketch.to_snapshot_bytes());
        tr.count("core.snapshot.bytes", bytes.len() as f64);
        let frame = tr.time_ref("net.frame.encode", || {
            encode_frame(&Frame::Snapshot(bytes.clone()))
        });
        tr.count("net.frame.bytes", frame.len() as f64);
        tr.time_ref("net.frame.decode", || {
            black_box(decode_frame(&frame).is_ok())
        });
        tr.time_ref("core.snapshot.decode", || {
            black_box(CountSketch::from_snapshot_bytes(&bytes).is_ok())
        });
        let site_id = ship.site_id.expect("parse_args requires --site-id");
        let mut agent = SiteAgent::new(site_id, ship.sites);
        agent.tick_ms = ship.tick_ms.max(1);
        agent.timeout_ms = ship.timeout_ms;
        let started = Instant::now();
        let shipped = tr.time("net.agent.ship", || agent.ship(addr, &report));
        tr.ship_s.push(started.elapsed().as_secs_f64());
        if shipped.is_err() {
            tr.count("net.agent.failed", 1.0);
        }
        reports.push((site_id, report));
    }
    tr.count("core.distributed.sites", ships.len() as f64);
    tr.time_ref("core.distributed.merge", || {
        let mut quorum = QuorumCoordinator::new(
            serve.sites,
            serve_config(serve).quorum,
            params(serve),
            serve.seed,
            RetryPolicy::default(),
        )
        .expect("valid quorum");
        for (site, report) in reports {
            quorum.deliver_report(site, report).expect("site in range");
        }
        black_box(quorum.finalize().is_ok())
    });
    let outcome = tr
        .time("net.server.wait", || server.join())
        .map_err(|_| "coordinator thread panicked".to_string())?
        .map_err(io_err)?;
    tr.count(
        "net.server.sessions_failed",
        outcome.report.excluded.len() as f64,
    );
    Ok(tr.time("cli.render", || {
        render_report(&outcome.sketch, serve.k, &outcome.report.excluded)
    }))
}
