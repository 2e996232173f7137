#!/usr/bin/env python3
"""Compare two sets of benchmark results, per workload and end-to-end
metric, against the bounds in ``BENCHMARK.json``.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json] [--json]

BASE and NEW are results files written by ``run.py`` (JSON lines, one
record per run) or directories holding such files.  Untraced runs of
each workload are compared; runs pair up by seed where both sides have
it, otherwise in file order.  Each (workload, metric) pair gets a label:

- ``worse``: the new median is worse than the base median by more than
  the metric's bound;
- ``improved``: the new side wins at least 9 of 10 pairs and its median
  is better by more than the base runs' own spread (IQR / median);
- ``unresolved``: either side's spread exceeds the bound, unless every
  new run is better (``improved``) or worse (``worse``) than every base run;
- ``unchanged``: anything else.

The host lines (CPU count, median substrate decode rate) let a reader
tell host drift from a code change.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def load(path: str) -> list[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.jsonl"))) if os.path.isdir(path) else [path]
    out = []
    for f in files:
        with open(f) as fh:
            out.extend(json.loads(line) for line in fh if line.strip())
    return [r for r in out if not r.get("trace")]


def spread(xs: list[float]) -> float:
    if len(xs) < 2:
        return float("inf")
    q = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


def _pairs(base: list[dict], new: list[dict], metric: str) -> list[tuple[float, float]]:
    b = {r["seed"]: r["e2e"][metric] for r in base}
    n = {r["seed"]: r["e2e"][metric] for r in new}
    common = sorted(set(b) & set(n))
    if common:
        return [(b[s], n[s]) for s in common]
    return list(zip([r["e2e"][metric] for r in base], [r["e2e"][metric] for r in new]))


def label(base: list[dict], new: list[dict], metric: str, better: str, bound: float) -> dict:
    a = [r["e2e"][metric] for r in base]
    b = [r["e2e"][metric] for r in new]
    sign = 1.0 if better == "lower" else -1.0  # positive change = worse
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    pairs = _pairs(base, new, metric)
    wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    s_a, s_b = spread(a), spread(b)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if s_a > bound or s_b > bound:
        verdict = "improved" if all_better else "worse" if all_worse else "unresolved"
    elif change > bound:
        verdict = "worse"
    elif wins >= 0.9 and -change > s_a:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {"base_median": med_a, "new_median": med_b, "change": change, "wins": wins,
            "base_spread": s_a, "new_spread": s_b, "n": [len(a), len(b)], "label": verdict}


def host_line(runs: list[dict]) -> str:
    probe = statistics.median(r["host"]["substrate_decode_mb_s"] for r in runs)
    cpus = sorted({r["host"]["nproc"] for r in runs})
    return f"nproc {cpus}, decode probe {probe:.0f} MB/s"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    p.add_argument("--json", action="store_true", help="print one JSON object instead")
    args = p.parse_args(argv)
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(args.base), load(args.new)
    report = {}
    for wl in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        rb = [r for r in base if r["workload"] == wl]
        rn = [r for r in new if r["workload"] == wl]
        report[wl] = {"host": {"base": host_line(rb), "new": host_line(rn)},
                      "metrics": {m["name"]: label(rb, rn, m["name"], m["better"], m["bound"])
                                  for m in metrics}}
    if args.json:
        print(json.dumps(report))
        return 0
    for wl, rep in report.items():
        print(f"{wl}  (base: {rep['host']['base']}; new: {rep['host']['new']})")
        for name, r in rep["metrics"].items():
            print(f"  {name:22s} {r['base_median']:14.4f} -> {r['new_median']:14.4f}"
                  f"  worse by {r['change']:+.3f}  spread {r['base_spread']:.3f}/{r['new_spread']:.3f}"
                  f"  {r['label']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
