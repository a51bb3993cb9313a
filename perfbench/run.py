#!/usr/bin/env python3
"""End-to-end benchmark of the `fi` binary.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds `fi` and the `perfbench` helper from source, generates the
workload's inputs from the seed (cached per seed under perfbench/.work),
runs closed-loop `fi` jobs for S seconds and checks every report against
the generator's exact counts. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` untraced `fi` jobs alternate with traced in-process
jobs (`perfbench trace`) and the metrics are the per-layer ones.

Each result set is also written, with its provenance (nproc, git
revision, source and binary hashes, input hashes), to
perfbench/.work/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"

K = 20
SITES, MAX_SHIPS = 8, 2
LISTEN = "127.0.0.1:0"
SETUP_LAUNCHES_PER_JOB = 8
MIN_JOBS = 3
JOB_TIMEOUT_S = 120

# name -> (generator kind, tokens, key universe)
INPUTS = {
    "zipf": ("zipf", 5_000_000, 1_000_000),
    "wide": ("planted", 5_000_000, 1_000_000),
    "dist": ("zipf", 2_000_000, 1_000_000),
}

# name -> input, buckets, extra `fi top` flags
WORKLOADS = {
    "top-zipf": dict(input="zipf", buckets=4096, flags=[]),
    "top-wide-t2": dict(input="wide", buckets=4096,
                        flags=["--threads", "2", "--snapshot", "{work}/job.csnp"]),
    "dist-zipf": dict(input="dist", buckets=65536, flags=[]),
}

# Per-layer metrics: layers whose self time is reported as `.s` and `.share`.
LAYERS = [
    "cli.read", "cli.tokenize", "cli.tokenize.label_map", "stream.item_key",
    "hash.row_hash", "core.sketch.update", "core.sketch.estimate", "core.approx_top.observe",
    "core.topk",
    "core.ingest.update_batch", "core.parallel.pool", "cli.candidates",
    "core.query.estimate_batch", "core.snapshot.encode", "core.snapshot.write",
    "core.distributed.site_report", "net.frame.encode", "net.frame.decode",
    "core.snapshot.decode", "net.agent.ship", "core.distributed.merge",
    "net.server.wait", "cli.render",
]
# Counts recorded at the same boundaries: name, unit, better.
COUNTS = [
    ("cli.read.bytes", "bytes", "lower"),
    ("cli.tokenize.tokens", "count", "higher"),
    ("cli.tokenize.labels", "count", "lower"),
    ("hash.row_hash.ops", "count", "lower"),
    ("core.sketch.update.ops", "count", "lower"),
    ("core.topk.offers", "count", "lower"),
    ("core.ingest.blocks", "count", "lower"),
    ("core.parallel.threads", "count", "higher"),
    ("core.query.estimate_batch.keys", "count", "lower"),
    ("core.snapshot.bytes", "bytes", "lower"),
    ("core.snapshot.writes", "count", "lower"),
    ("core.snapshot.write_errors", "count", "lower"),
    ("core.distributed.sites", "count", "higher"),
    ("net.frame.bytes", "bytes", "lower"),
    ("net.agent.failed", "count", "lower"),
    ("net.server.sessions_failed", "count", "lower"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def source_hash(repo):
    """Hash of the sources `fi` is built from (manifests, lock, .rs)."""
    h = hashlib.sha256()
    files = [repo / "Cargo.toml", repo / "Cargo.lock"]
    for top in ("src", "crates"):
        files += sorted(p for p in (repo / top).rglob("*") if p.is_file()
                        and (p.suffix == ".rs" or p.name == "Cargo.toml"))
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(repo)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def git_rev(repo):
    """HEAD of `repo` if `repo` is itself a git checkout, else None."""
    try:
        out = subprocess.run(["git", "-C", str(repo), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != repo.resolve():
        return None
    return lines[1]


def target_dir(repo):
    env = os.environ.get("CARGO_TARGET_DIR")
    if env and repo == BENCH.parent:
        return Path(env) if Path(env).is_absolute() else repo / env
    return repo / ".bench_build"


def build(repo):
    """Builds `fi` in `repo` and the helper; returns their paths."""
    tdir = target_dir(repo)
    env = dict(os.environ, CARGO_TARGET_DIR=str(tdir))
    steps = [
        (["cargo", "build", "--release", "--offline", "--bin", "fi"], repo),
        (["cargo", "build", "--release", "--offline", "--manifest-path",
          str(BENCH / "Cargo.toml")], BENCH.parent),
    ]
    for argv, cwd in steps:
        env["CARGO_TARGET_DIR"] = str(tdir if cwd == repo else target_dir(BENCH.parent))
        done = subprocess.run(argv, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(argv)}")
    return tdir / "release" / "fi", target_dir(BENCH.parent) / "release" / "perfbench"


class Proc:
    """A child process with the kernel's accounting of it once reaped."""

    def __init__(self, argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
        self.start = time.perf_counter()
        self.p = subprocess.Popen(argv, stdout=stdout, stderr=stderr)
        self.timer = threading.Timer(JOB_TIMEOUT_S, self.p.kill)
        self.timer.start()
        self.code = None
        self.cpu_s = self.rss_mb = 0.0

    def finish(self, status, ru):
        self.timer.cancel()
        self.code = os.waitstatus_to_exitcode(status)
        self.p.returncode = self.code
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0  # Linux reports KiB

    def wait(self):
        _, status, ru = os.wait4(self.p.pid, 0)
        self.finish(status, ru)
        return self


def run_proc(argv):
    """Runs to completion; returns (proc, stdout bytes, stderr bytes, end time)."""
    proc = Proc(argv)
    out = proc.p.stdout.read()
    end = time.perf_counter()
    err = proc.p.stderr.read()
    proc.wait()
    return proc, out, err, end


# --- inputs -----------------------------------------------------------------

def seed_dir(seed):
    return WORK / "inputs" / f"seed-{seed}"


def evict_old_seeds(keep):
    root = WORK / "inputs"
    if not root.exists():
        return
    dirs = sorted((d for d in root.iterdir() if d.is_dir() and d.name != keep.name),
                  key=lambda d: d.stat().st_mtime)
    for d in dirs[:-1]:  # keep this seed and the most recent other one
        shutil.rmtree(d, ignore_errors=True)


def ensure_input(tool, fi, seed, name):
    """Generates (once per seed) the input, its exact counts and stats."""
    sd = seed_dir(seed)
    d = sd / name
    stats_path = d / "stats.json"
    if stats_path.exists():
        return d, json.loads(stats_path.read_text())
    kind, tokens, universe = INPUTS[name]
    tmp = sd / (name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # Distinct generator seed per input, derived from the workload seed.
    gen_seed = seed * 1000 + sorted(INPUTS).index(name)
    out = subprocess.run([str(tool), "gen", "--kind", kind, "--tokens", str(tokens),
                          "--universe", str(universe), "--seed", str(gen_seed),
                          "--out", str(tmp)], capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"input generation failed: {out.stderr}")
    stats = json.loads(out.stdout)
    counts = [int(line.rsplit("\t", 1)[1]) for line in
              (tmp / "counts.tsv").read_text().splitlines()]
    stats["f2_res_k"] = float(sum(c * c for c in counts[K:]))
    stats["sha256"] = sha256_file(tmp / "input.txt")
    if name == "dist":
        # The eight shard files, once per seed, for the reference merge.
        proc, _, err, _ = run_proc([str(fi), "shard", "--sites", str(SITES),
                                    "--out-prefix", str(tmp / "site"), str(tmp / "input.txt")])
        if proc.code != 0:
            raise SystemExit(f"fi shard failed: {err.decode()}")
    (tmp / "stats.json").write_text(json.dumps(stats))
    shutil.rmtree(d, ignore_errors=True)
    tmp.rename(d)
    return d, stats


def reference_report(fi, d, workload):
    """The default-flag report flag_invariance compares against, and the
    reference merge `serve` must match byte for byte. Cached per seed."""
    if workload.startswith("dist"):
        path = d / "coordinate.txt"
        argv = [str(fi), "coordinate", "-k", str(K), "-b", str(WORKLOADS[workload]["buckets"])]
        argv += [str(d / f"site.{i}.txt") for i in range(SITES)]
    else:
        path = d / "default-top.txt"
        argv = [str(fi), "top", "-k", str(K), str(d / "input.txt")]
    if not path.exists():
        proc, out, err, _ = run_proc(argv)
        if proc.code != 0:
            raise SystemExit(f"reference run failed: {err.decode()}")
        path.write_bytes(out)
    return path.read_bytes()


# --- jobs -------------------------------------------------------------------

def top_argv(fi, workload, work, path):
    w = WORKLOADS[workload]
    flags = [f.format(work=work) for f in w["flags"]]
    return [str(fi), "top", "-k", str(K), "-b", str(w["buckets"]), *flags, str(path)]


def setup_top(fi, workload, work, launches):
    """Wall times of the job's `fi top` command on empty input."""
    empty = work / "empty.txt"
    empty.write_bytes(b"")
    times = []
    for _ in range(launches):
        proc, _, err, end = run_proc(top_argv(fi, workload, work, empty))
        if proc.code != 0:
            raise SystemExit(f"setup launch failed: {err.decode()}")
        times.append(end - proc.start)
    return times


def job_top(fi, workload, work, d, tokens):
    proc, out, err, end = run_proc(top_argv(fi, workload, work, d / "input.txt"))
    wall = end - proc.start
    return dict(ok=proc.code == 0, wall_s=wall, cpu_s=proc.cpu_s, rss_mb=proc.rss_mb,
                report=out, error=err.decode(errors="replace") if proc.code else "",
                tokens=tokens)


def serve_argv(fi, buckets):
    return [str(fi), "serve", "--listen", LISTEN, "--sites", str(SITES),
            "-k", str(K), "-b", str(buckets)]


def ship_argv(fi, to, site, buckets, prefix):
    return [str(fi), "ship", "--to", to, "--site-id", str(site), "--sites", str(SITES),
            "-k", str(K), "-b", str(buckets), f"{prefix}.{site}.txt"]


def dist_setup(fi, d, work, buckets):
    """`fi shard` plus `fi serve` up to its listening line."""
    start = time.perf_counter()
    proc, _, err, _ = run_proc([str(fi), "shard", "--sites", str(SITES), "--out-prefix",
                                str(work / "site"), str(d / "input.txt")])
    if proc.code != 0:
        raise SystemExit(f"fi shard failed: {err.decode()}")
    serve = Proc(serve_argv(fi, buckets))
    line = serve.p.stderr.readline().decode()
    setup = time.perf_counter() - start
    m = re.search(r"listening on ([0-9.]+:\d+)", line)
    return serve, (m.group(1) if m else None), setup


def job_dist(fi, work, serve, addr, buckets, tokens):
    """Eight `fi ship`, at most two at a time, then `serve`'s report."""
    start = time.perf_counter()
    procs, running, pending = [serve], {}, list(range(SITES))
    errors = []
    while (pending or running) and addr:
        while pending and len(running) < MAX_SHIPS:
            i = pending.pop(0)
            ship = Proc(ship_argv(fi, addr, i, buckets, work / "site"),
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            running[ship.p.pid] = ship
            procs.append(ship)
        pid, status, ru = os.wait4(-1, 0)
        if pid == serve.p.pid:
            serve.finish(status, ru)
            errors.append("serve exited before every site shipped")
            break
        if pid in running:
            running.pop(pid).finish(status, ru)
    for ship in running.values():
        ship.wait()
    report = serve.p.stdout.read()
    end = time.perf_counter()
    err = serve.p.stderr.read().decode(errors="replace")
    if serve.code is None:
        serve.wait()
    ok = all(p.code == 0 for p in procs) and addr is not None and not errors
    if not ok:
        errors.append(f"exit codes {[p.code for p in procs]}: {err}")
    return dict(ok=ok, wall_s=end - start, cpu_s=sum(p.cpu_s for p in procs),
                rss_mb=max(p.rss_mb for p in procs), report=report,
                error="; ".join(errors), tokens=tokens)


def flag_invariance(report, reference):
    a, b = report.decode().splitlines(), reference.decode().splitlines()
    same = sum(1 for x, y in zip(a, b) if x == y)
    return same / max(len(a), len(b), 1)


def check_reports(tool, d, buckets, jobs, work):
    """Runs the oracle over every job report; marks failing jobs."""
    paths = []
    for i, job in enumerate(jobs):
        p = work / f"report-{i}.txt"
        p.write_bytes(job["report"])
        paths.append(str(p))
    out = subprocess.run([str(tool), "check", "--data", str(d), "--k", str(K),
                          "--buckets", str(buckets), *paths], capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"oracle failed: {out.stderr}")
    for job, line in zip(jobs, out.stdout.splitlines()):
        verdict = json.loads(line)
        job["recall"], job["max_err_gamma"] = verdict["recall"], verdict["max_err_gamma"]
        job["gamma"] = verdict["gamma"]
        if not verdict["ok"]:
            job["ok"] = False
            job["error"] += "; ".join(verdict["errors"])


# --- runs -------------------------------------------------------------------

class Bench:
    """One workload on one seed: inputs, references and jobs."""

    def __init__(self, args, fi, tool):
        self.args, self.fi, self.tool = args, fi, tool
        self.workload = args.workload
        self.dist = args.workload.startswith("dist")
        self.w = WORKLOADS[args.workload]
        self.buckets = self.w["buckets"]
        self.work = WORK / "run" / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        sd = seed_dir(args.seed)
        sd.mkdir(parents=True, exist_ok=True)
        os.utime(sd)
        evict_old_seeds(sd)
        self.d, self.stats = ensure_input(tool, fi, args.seed, self.w["input"])
        # top-zipf runs the reference's own command, so it has none.
        self.reference = (reference_report(fi, self.d, self.workload)
                          if self.dist or self.w["flags"] else None)
        with open(self.d / "input.txt", "rb") as f:  # warm the page cache
            while f.read(1 << 23):
                pass
        self.tokens = self.stats["tokens"]

    def job(self):
        """One closed-loop job. For dist-zipf its set-up (shard, serve)
        comes first; for top-* set-up launches on empty input follow it,
        so that set-up is sampled across the whole run."""
        if self.dist:
            serve, addr, setup = dist_setup(self.fi, self.d, self.work, self.buckets)
            job = job_dist(self.fi, self.work, serve, addr, self.buckets, self.tokens)
            job["setup_s"] = [setup]
        else:
            job = job_top(self.fi, self.workload, self.work, self.d, self.tokens)
            job["setup_s"] = setup_top(self.fi, self.workload, self.work,
                                       SETUP_LAUNCHES_PER_JOB)
        if self.dist:
            if job["ok"] and job["report"] != self.reference:
                job["ok"] = False
                job["error"] += "serve report differs from fi coordinate"
        elif self.reference is not None:
            job["flag_invariance"] = flag_invariance(job["report"], self.reference)
        return job

    def trace_argv(self, job):
        """`perfbench trace` of the `fi` invocations this workload's job
        runs, passed as `fi` gets them (site files from the cached shard)."""
        if self.dist:
            invocations = [serve_argv(self.fi, self.buckets)] + [
                ship_argv(self.fi, LISTEN, i, self.buckets, self.d / "site") for i in range(SITES)]
        else:
            invocations = [top_argv(self.fi, self.workload, self.work, self.d / "input.txt")]
        argv = [str(self.tool), "trace", "--work", str(self.work), "--job", str(job)]
        for inv in invocations:
            argv += ["--", *inv[1:]]
        return argv


def untraced(bench, seconds):
    if not bench.dist:
        setup_top(bench.fi, bench.workload, bench.work, 1)  # warm the page cache
    jobs = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        jobs.append(bench.job())
    check_reports(bench.tool, bench.d, bench.buckets, jobs, bench.work)
    setup = statistics.median(t for j in jobs for t in j["setup_s"])
    return jobs, setup


def e2e_metrics(jobs, setup, tokens):
    """Throughput and CPU cost over the whole run: every job's tokens
    over every job's wall (or CPU) time. The VM's speed drifts by up to
    1.5x within a minute, and a run-wide total moves smoothly with the
    share of slow jobs, where a median jumps between the slow and the
    fast jobs' times."""
    good = [j for j in jobs if j["ok"]] or jobs
    mtok = tokens / 1e6 * len(good)
    med = lambda f: statistics.median(f(j) for j in good)
    return {
        "setup_s": (setup, "s"),
        "mtok_per_s": (mtok / sum(j["wall_s"] for j in good), "Mtok/s"),
        "cpu_s_per_mtok": (sum(j["cpu_s"] for j in good) / mtok, "s/Mtok"),
        "peak_rss_mb": (med(lambda j: j["rss_mb"]), "MB"),
        "recall_at_k": (med(lambda j: j["recall"]), "ratio"),
    }


def tail(values):
    """The highest percentile with at least ten samples beyond it (the
    median when there are fewer than twenty samples), and its value."""
    ordered = sorted(values)
    pct = max(0.5, 1.0 - 10.0 / len(ordered))
    return pct, ordered[min(len(ordered) - 1, int(pct * len(ordered)))]


def quality(jobs):
    """Figures printed and recorded but not bounded (see README)."""
    walls = [j["wall_s"] for j in jobs]
    pct, slow = tail(walls)
    figures = {
        "error_rate": (sum(not j["ok"] for j in jobs) / len(jobs), "ratio"),
        "max_err_gamma": (max(j.get("max_err_gamma", 0.0) for j in jobs), "ratio"),
        "job_wall_s.p50": (statistics.median(walls), "s"),
        f"job_wall_s.p{pct * 100:g}": (slow, "s"),
        "job_wall_s.samples": (len(walls), "count"),
    }
    if "flag_invariance" in jobs[0]:
        figures["flag_invariance"] = (
            statistics.median(j["flag_invariance"] for j in jobs), "ratio")
    return figures


def traced(bench, seconds):
    """Untraced `fi` jobs alternating with traced in-process jobs."""
    jobs, summaries = [], []
    start = time.perf_counter()
    while len(summaries) < MIN_JOBS or time.perf_counter() - start < seconds:
        job = bench.job()
        jobs.append(job)
        proc, out, err, _ = run_proc(bench.trace_argv(len(summaries)))
        summary = json.loads(out) if proc.code == 0 else None
        traced_report = (bench.work / "traced-report.txt").read_bytes() if summary else b""
        if summary is None or traced_report != job["report"]:
            job["ok"] = False
            job["error"] += f"traced job failed or its report differs from fi's: {err.decode()}"
        summaries.append(summary or {"layers": {}, "counts": {}, "ship_s": [],
                                     "composite_s": 0.0, "covered_s": 0.0})
    check_reports(bench.tool, bench.d, bench.buckets, jobs, bench.work)
    return jobs, summaries


def layer_metrics(jobs, summaries, tokens, dist):
    wall = statistics.median(j["wall_s"] for j in jobs)
    composite = statistics.median(s["composite_s"] for s in summaries)
    # Shares divide by the untraced job's wall time. The dist traced job
    # ships its sites one after another, while the untraced job runs two
    # ships at once, so there they divide by the traced job's own time.
    base = composite if dist else wall
    layers = [s["layers"] for s in summaries]
    per_job = {name: [lay.get(name, 0.0) for lay in layers] for name in LAYERS}
    for i, lay in enumerate(layers):
        # Derived self times: top-k tracking is what observe (or a site
        # report) costs beyond the sketch update and the estimates of the
        # arrivals the tracker misses, unless the path timed it directly;
        # the label map is what tokenize costs beyond splitting and key
        # derivation alone.
        whole = lay.get("core.approx_top.observe", lay.get("core.distributed.site_report"))
        if "core.topk" not in lay and whole is not None:
            per_job["core.topk"][i] = max(0.0, whole - lay.get("core.sketch.update", 0.0)
                                          - lay.get("core.sketch.estimate", 0.0))
        if "cli.tokenize" in lay:
            per_job["cli.tokenize.label_map"][i] = max(
                0.0, lay["cli.tokenize"] - lay.get("stream.item_key", 0.0))
    metrics = {}
    for name in LAYERS:
        s = statistics.median(per_job[name])
        metrics[name + ".s"] = (s, "s")
        metrics[name + ".share"] = (s / base, "ratio")
    counts = next((s["counts"] for s in summaries if s["counts"]), {})
    for name, unit, _ in COUNTS:
        metrics[name] = (counts.get(name, 0.0), unit)
    # Hits are counted only where the per-item rule (`observe`) runs.
    hits = counts.get("core.topk.hits")
    offers = counts.get("core.topk.offers", 0.0)
    metrics["core.topk.hit_ratio"] = (hits / (hits + offers) if hits else 0.0, "ratio")
    ratios = [lay["core.sketch.update"] / lay["hash.row_hash"] for lay in layers
              if lay.get("hash.row_hash")]
    metrics["core.sketch.update_over_hash"] = (
        statistics.median(ratios) if ratios else 0.0, "ratio")
    ships = [x for s in summaries for x in s["ship_s"]]
    pct, slow = tail(ships) if ships else (0.0, 0.0)
    metrics["net.agent.ship.p50_ms"] = (statistics.median(ships) * 1e3 if ships else 0.0, "ms")
    metrics["net.agent.ship.tail_ms"] = (slow * 1e3, "ms")
    metrics["net.agent.ship.tail_pct"] = (pct * 100, "%")
    metrics["net.agent.ship.samples"] = (float(len(ships)), "count")
    metrics["trace.coverage"] = (
        statistics.median(s["covered_s"] for s in summaries) / base, "ratio")
    metrics["trace.overhead"] = (composite / wall - 1.0, "ratio")
    metrics["trace.untraced_mtok_per_s"] = (tokens / 1e6 / wall, "Mtok/s")
    metrics["trace.jobs"] = (float(len(summaries)), "count")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repo", type=Path, default=BENCH.parent,
                    help="source tree to build fi from (default: this checkout)")
    ap.add_argument("--record", type=Path, help="also write the result set here")
    args = ap.parse_args()
    repo = args.repo.resolve()
    if not (repo / "Cargo.toml").exists() or not (repo / "src").is_dir():
        log(f"error: no fi sources at {repo}")
        return 2
    if args.trace and repo != BENCH.parent:
        log("error: the traced run links this checkout's crates; run it without --repo")
        return 2
    fi, tool = build(repo)
    bench = Bench(args, fi, tool)
    if args.trace:
        jobs, summaries = traced(bench, args.seconds)
        metrics = layer_metrics(jobs, summaries, bench.tokens, bench.dist)
    else:
        jobs, setup = untraced(bench, args.seconds)
        metrics = e2e_metrics(jobs, setup, bench.tokens)
    unbounded = quality(jobs)
    failed = sum(not j["ok"] for j in jobs)
    for j in jobs:
        if not j["ok"]:
            log(f"failed job: {j['error']}")
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "repo": str(repo), "git_rev": git_rev(repo), "source_sha256": source_hash(repo),
        "fi_path": str(fi), "fi_sha256": sha256_file(fi),
        "input": {k: bench.stats[k] for k in ("tokens", "distinct", "f2_res_k", "sha256")},
        "gamma": jobs[0].get("gamma"),
    }
    record = dict(provenance=provenance, result=result,
                  unbounded={k: v for k, (v, _) in unbounded.items()},
                  samples=[{k: j.get(k) for k in ("wall_s", "cpu_s", "rss_mb", "ok")}
                           for j in jobs])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    paths = [results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"]
    if args.record:
        paths.append(args.record)
    for p in paths:
        p.write_text(json.dumps(record, indent=1))
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs, nproc {provenance['nproc']}, "
          f"rev {provenance['git_rev']}, fi sha256 {provenance['fi_sha256'][:16]}, "
          f"input sha256 {bench.stats['sha256'][:16]}")
    for name, (value, unit) in {**metrics, **unbounded}.items():
        print(f"# {name:<36} {value:>12.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
