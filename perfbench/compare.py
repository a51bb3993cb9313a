#!/usr/bin/env python3
"""Paired comparison of two `fi` source trees on the end-to-end benchmark.

    python3 perfbench/compare.py --base PARENT_TREE --head CHANGED_TREE \
        [--workloads top-zipf,dist-zipf] [--pairs 10] [--first-seed 1000]

Both trees are measured with this checkout's benchmark code and settings,
each run lasting BENCHMARK.json's `run_seconds`.
Pair i runs both trees on seed `first-seed + i`, alternating which runs
first. For every end-to-end metric of BENCHMARK.json and every workload
it prints one row: each side's median and quartiles, the pairs the head
won, and a verdict:

- `gain`: the head wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the base's interquartile
  range;
- `regression`: the head's median is worse than the base's by more than
  the metric's bound;
- `unresolved`: either side's spread exceeds the bound, unless every head
  run beats every base run;
- `same` otherwise.

Every result set carries the source hash, git revision and `fi` binary
hash it was measured on; a set whose claims do not match the tree and
binary they name is refused (exit 3), so stale numbers never compare.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (the benchmark's own helpers)


def measure(tree, workload, seed, seconds, record):
    argv = [sys.executable, str(BENCH / "run.py"), "--repo", str(tree), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            "--record", str(record)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"benchmark failed on {tree} ({workload}, seed {seed})")
    return json.loads(record.read_text())


def assert_fresh(record, tree):
    """Refuses a result set whose provenance does not match its tree."""
    prov = record["provenance"]
    problems = []
    if Path(prov["repo"]).resolve() != tree:
        problems.append(f"measured {prov['repo']}, expected {tree}")
    if prov["source_sha256"] != run.source_hash(tree):
        problems.append("sources changed since the run")
    if prov["git_rev"] != run.git_rev(tree):
        problems.append(f"revision {prov['git_rev']} is not {run.git_rev(tree)}")
    if not Path(prov["fi_path"]).exists() or run.sha256_file(prov["fi_path"]) != prov["fi_sha256"]:
        problems.append("fi binary differs from the one measured")
    if problems:
        print(f"refusing stale result set for {tree}: " + "; ".join(problems), file=sys.stderr)
        sys.exit(3)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, head, better, bound):
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    if sign * (hm - bm) < -bound * abs(bm):
        return wins, "regression"
    if wins >= 0.9 * len(base) and abs(hm - bm) > (b3 - b1):
        return wins, "gain"
    if ((b3 - b1) > bound * abs(bm) or (h3 - h1) > bound * abs(hm)) and not (
            min(sign * h for h in head) > max(sign * b for b in base)):
        return wins, "unresolved"
    return wins, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--head", type=Path, required=True)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    out_dir = run.WORK / "compare"
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for workload in args.workloads.split(","):
        values = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                record = measure(trees[side], workload, args.first_seed + i, spec["run_seconds"],
                                 out_dir / f"{workload}-{side}-{i}.json")
                assert_fresh(record, trees[side])
                if not record["result"]["correct"]:
                    sys.exit(f"{side} failed its correctness checks on {workload}, pair {i}")
                values[side].append(record["result"]["metrics"])
        for m in spec["end_to_end"]:
            base = [r[m["name"]]["value"] for r in values["base"]]
            head = [r[m["name"]]["value"] for r in values["head"]]
            wins, word = verdict(base, head, m["better"], m["bound"])
            rows.append(dict(workload=workload, metric=m["name"], unit=m["unit"],
                             base=quartiles(base), head=quartiles(head),
                             wins=wins, pairs=len(base), verdict=word))
    print(f"{'workload':18} {'metric':16} {'base q1/med/q3':>30} {'head q1/med/q3':>30} "
          f"{'wins':>6} verdict")
    for r in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{r['workload']:18} {r['metric']:16} {fmt(r['base']):>30} {fmt(r['head']):>30} "
              f"{r['wins']:>3}/{r['pairs']:<2} {r['verdict']}")
    (out_dir / "summary.json").write_text(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
