#!/usr/bin/env python3
"""The raystat benchmark, one workload per invocation.

    python3 perfbench/run.py --workload tokens_tumbling --seed 1 --seconds 10 --trace 0

Run it from the repository root (Ray workers import ``raystat`` and
``perfbench`` from there).  It is closed-loop: one process, one driver,
one stream or query at a time, on a local Ray with ``num_cpus=1`` and 4 state partitions.

A run:

1. generates the seeded input (cached per seed and size under
   ``perfbench/_work``; never timed);
2. takes the host record (CPU count, load, versions, decode probe);
3. starts Ray, reads the input once (page cache) and runs one warm-up
   repetition of the first driver on the tiny input of the same
   workload and seed (worker processes started, modules imported); Ray
   start-up, the warm-up and the per-repetition driver set-up make
   ``setup_s``;
4. repeats the workload until ``--seconds`` have passed, each time with
   fresh drivers and state actors, checking that every repetition's
   committed output has the same digest as the first one's (streaming)
   or matches DuckDB (batch);
5. stops Ray, checks the first repetition's output against the oracle
   and its digest against earlier runs of the seed on the same
   ``raystat`` sources (a checked digest is stored), appends the full
   record (host, samples, spans of traced repetitions) to the results
   file, and prints one JSON line.

``--trace 0`` prints the end-to-end metrics:

- ``rows_per_s``: input rows over the timed wall time of ``run()`` (or
  of the queries), median over repetitions;
- ``result_latency_p50_s``: median over arrival epochs of epoch start to
  commit-and-checkpoint durable (batch: median over repetitions of the
  time to answer both queries);
- ``setup_s``: Ray start + the warm-up repetition + the median over
  repetitions of driver construction and ``prepare()``;
- ``peak_rss_mb``: peak summed RSS of this process and every descendant;
- ``ok_ratio``: epochs (or queries) that completed and passed the output
  check, over those attempted.

``--trace 1`` alternates traced and untraced repetitions and prints the
per-layer metrics (medians over traced repetitions) and
``trace.overhead``, the share of ``rows_per_s`` lost to tracing.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", "_work")
# Ray's session files; short, because its socket paths under it must fit
# in 107 bytes
RAY_TMP = os.path.join(ROOT, ".ray")
OBJECT_STORE_BYTES = 400 * 2**20
# Ray's CPU count is fixed, not taken from the host, so that runs on one
# host always schedule the same way; 1 is what `nproc` reports on the
# reference host (the host record keeps both counts)
RAY_CPUS = 1
END_TO_END = {
    "rows_per_s": "rows/s",
    "result_latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# events_sketch runs on request but is not in BENCHMARK.json: the time
# limit for all runs of the benchmark fits 30 s runs of two workloads only
WORKLOAD_NAMES = ("tokens_tumbling", "events_sketch", "batch_moments")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the smoke test")
    p.add_argument("--results", default=os.path.join(WORK, "results.jsonl"),
                   help="JSON-lines file the full run record is appended to")
    return p.parse_args(argv)


def start_ray() -> None:
    import ray

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # workers import raystat and the traced routers from the checkout
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + old if old else "")
    kwargs = {}
    if len(RAY_TMP) <= 43:  # else Ray's default temp dir
        os.makedirs(RAY_TMP, exist_ok=True)
        kwargs["_temp_dir"] = RAY_TMP
    ray.init(num_cpus=RAY_CPUS, num_gpus=0, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def stop_ray(timeout_s: float = 20.0) -> None:
    """Shut Ray down and wait until every process it started is gone."""
    import ray

    from perfbench.host import descendants

    procs = descendants(os.getpid())
    session = ray._private.worker._global_node.get_session_dir_path()
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while True:
        for p in procs:
            try:  # reap our own children; others are reaped by their parent
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        alive = {p for p in procs if _running(p)}
        if not alive:
            if session.startswith(RAY_TMP):  # this run's Ray logs
                shutil.rmtree(session, ignore_errors=True)
            return
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


def source_hash() -> str:
    """Short sha256 over every ``raystat`` source file: stored output
    digests are compared only between runs of the same engine code."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "raystat", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _median(xs):
    return float(statistics.median(xs)) if xs else float("nan")


def run(args) -> dict:
    from perfbench import host
    from perfbench.workloads import LAYER_UNITS, WORKLOADS

    wl = WORKLOADS[args.workload](os.path.join(WORK, "inputs"), args.seed, args.size)
    warm_wl = WORKLOADS[args.workload](os.path.join(WORK, "inputs"), args.seed, "tiny")
    os.sync()  # write back the generated input before anything is timed
    probe = max(wl.files, key=os.path.getsize)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "n_rows": wl.n_rows,
              "host": host.record(probe)}
    outs = os.path.join(WORK, "out", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    first = os.path.join(outs, "rep-0")  # kept for the oracle check
    shutil.rmtree(outs, ignore_errors=True)
    reps, failed, attempted, messages, crashed = [], 0, 0, [], 0
    with host.RssSampler() as rss:
        t0 = time.perf_counter()
        start_ray()
        ray_init_s = time.perf_counter() - t0
        try:
            for f in wl.files:
                with open(f, "rb") as fh:  # page cache
                    fh.read()
            warm = warm_wl.rep(os.path.join(outs, "warmup"), warmup=True)
            setups = []
            ticks0 = host.cpu_ticks()
            t_loop = time.perf_counter()
            while True:
                i = len(reps) + crashed
                traced = bool(args.trace) and i % 2 == 0
                out = os.path.join(outs, f"rep-{i}")
                try:
                    rep = wl.rep(out, traced)
                except Exception as e:  # a raising repetition counts as failed, not fatal
                    if not reps:
                        raise
                    n = reps[0][1].attempted
                    attempted, failed = attempted + n, failed + n
                    messages.append(f"repetition raised: {e!r}")
                    crashed += 1
                    if crashed > 3:
                        raise
                else:
                    n_fail, msgs = wl.rep_failures(rep, reps[0][1] if reps else rep)
                    reps.append((traced, rep))
                    setups.append(rep.setup_s)
                    attempted += rep.attempted
                    failed += n_fail
                    messages += msgs
                if i:
                    shutil.rmtree(out, ignore_errors=True)
                kinds = {t for t, _ in reps}  # a traced run needs both kinds
                if time.perf_counter() - t_loop >= args.seconds and len(kinds) >= 1 + args.trace:
                    break
            ticks = [b - a for a, b in zip(ticks0, host.cpu_ticks())]
        finally:
            stop_ray()
    record["host"]["loadavg_after"] = list(os.getloadavg())
    record["host"]["steal_share"] = ticks[1] / max(ticks[0], 1)

    # oracle check of the first repetition, and its digest against earlier
    # runs of the same seed on the same engine sources
    oracle_fails = wl.check(first)
    digest = reps[0][1].digest
    dpath = os.path.join(WORK, "digests",
                         f"{args.workload}-s{args.seed}-{args.size}-{source_hash()}.json")
    if digest:
        if os.path.exists(dpath):
            with open(dpath) as f:
                if json.load(f) != digest:
                    oracle_fails.append("output digest differs from an earlier run of this seed")
        elif not oracle_fails:  # only a checked output becomes the reference
            os.makedirs(os.path.dirname(dpath), exist_ok=True)
            with open(dpath, "w") as f:
                json.dump(digest, f)
    shutil.rmtree(outs, ignore_errors=True)
    if oracle_fails:
        failed = attempted
        messages = oracle_fails + messages

    plain = [r for t, r in reps if not t]
    traced = [r for t, r in reps if t]
    rate = _median([r.rows / r.run_s for r in plain])
    lat = [s for r in plain for s in r.latencies]
    e2e = {
        "rows_per_s": rate,
        "result_latency_p50_s": _median(lat),
        "setup_s": ray_init_s + warm.setup_s + warm.run_s + _median(setups),
        "peak_rss_mb": rss.peak / 2**20,
        "ok_ratio": 1.0 - failed / max(attempted, 1),
    }
    record.update(
        e2e=e2e, latency_samples=len(lat), ray_init_s=ray_init_s,
        warmup_s=warm.setup_s + warm.run_s,
        setup_samples=setups, failures=messages[:20],
        reps=[{"traced": t, "rows": r.rows, "run_s": r.run_s,
               "setup_s": r.setup_s, "latencies": r.latencies} for t, r in reps],
    )
    if args.trace:
        layers = {k: _median([r.layers.get(k, 0) for r in traced]) for k in LAYER_UNITS}
        layers["trace.overhead"] = 1.0 - _median([r.rows / r.run_s for r in traced]) / rate
        record.update(layers=layers, spans=[s for r in traced for s in r.spans])
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a") as f:
        f.write(json.dumps(record) + "\n")
    for m in messages[:5]:
        print(f"check failed: {m}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "raystat", "__init__.py")):
        print("perfbench: no raystat package beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray prints worker-pool warnings on stdout; keep stdout for the result
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        result = run(args)
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
