"""The three workloads.  Each one generates its seeded input, builds and
runs the engine once per repetition, digests its committed output and
checks it against an independent oracle.

A repetition returns a ``Rep``: input rows, the timed wall time of the
engine calls, one latency sample per arrival epoch (streaming) or per
repetition (batch), the output digest and, in a traced repetition, the
per-layer metrics.
"""

from __future__ import annotations

import glob
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow.parquet as pq

from perfbench import checks, inputs
from perfbench.tracing import Tracer, trace_stream_driver, traced_routers

N_PARTITIONS = 4  # state actors; more than the host's cores would measure the scheduler
LATENESS_TOKENS_S = 7 * 86400 // inputs.N_EPOCHS  # one arrival epoch of the token stream
SKETCH_LATENESS_S = 6 * 3600  # one arrival epoch of the events stream
SESSION_GAP_S = 1800
MG_CAPACITY, MG_TOP = 8192, 10

# input rows per workload; "tiny" sizes serve the smoke test
SIZES = {
    "tokens_tumbling": {"full": 480_000, "tiny": 4_000},
    "events_sketch": {"full": 1_000_000, "tiny": 8_000},
    "batch_moments": {"full": 60_000, "tiny": 2_000},
}

# every per-layer metric with its unit; layers a workload does not run report 0
LAYER_UNITS = {
    "read.sec": "s", "read.bytes": "B",
    "partial.sec": "s", "partial.rows_in": "rows", "partial.rows_out": "rows",
    "route.sec": "s", "route.calls": "count", "route.wire_bytes": "B",
    "state.close_sec": "s", "state.rows_max": "rows", "state.rows_mean": "rows",
    "state.ingest_skew": "ratio",
    "barrier.wait_sec": "s",
    "emit.sec": "s", "emit.rows": "rows",
    "sink.sec": "s", "sink.bytes": "B", "sink.rows": "rows",
    "checkpoint.sec": "s", "checkpoint.bytes": "B",
    "batch_partial.sec": "s", "shuffle.sec": "s", "shuffle.rows_in": "rows",
    "batch_finalize.sec": "s",
    "late.dropped": "rows",
    "trace.overhead": "ratio",
}


@dataclass
class Rep:
    rows: int
    run_s: float
    setup_s: float
    latencies: list[float]
    digest: dict
    attempted: int
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


def _dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root) for f in fs)


def _manifest_rows(root: str) -> int:
    rows = 0
    for mf in glob.glob(os.path.join(root, "_manifest", "epoch-*.json")):
        with open(mf) as f:
            rows += json.load(f)["rows"]
    return rows


class _EpochClock:
    """Latency of every arrival epoch: from the start of ``_run_epoch``
    to the end of the ``_checkpoint`` that makes it durable."""

    def __init__(self, drv):
        self.samples: list[float] = []
        run_epoch, checkpoint = drv._run_epoch, drv._checkpoint

        def timed_run_epoch(epoch):
            self._t0 = time.perf_counter()
            return run_epoch(epoch)

        def timed_checkpoint(epoch):
            out = checkpoint(epoch)
            self.samples.append(time.perf_counter() - self._t0)
            return out

        drv._run_epoch, drv._checkpoint = timed_run_epoch, timed_checkpoint


class StreamWorkload:
    """Common repetition logic of the streaming workloads: one or more
    drivers, run one after the other over the same input."""

    name = ""
    sinks: tuple[str, ...] = ()

    def __init__(self, work: str, seed: int, size: str):
        self.seed = seed
        self.n_rows = SIZES[self.name][size]
        self.input = self.make_input(work)
        self.files = inputs.input_files(self.input)
        self.input_bytes = sum(os.path.getsize(f) for f in self.files)

    def make_input(self, work: str) -> str:
        raise NotImplementedError

    def build(self, out: str) -> list:
        raise NotImplementedError

    def rep(self, out: str, traced: bool = False, warmup: bool = False) -> Rep:
        """One repetition; a warm-up runs the first driver only."""
        import ray

        t0 = time.perf_counter()
        drivers = [d.prepare() for d in self.build(out)[: 1 if warmup else None]]
        setup_s = time.perf_counter() - t0
        tracer = Tracer(run=os.path.basename(out))
        books: list = []
        clocks = []
        for d in drivers:
            if traced:
                trace_stream_driver(d, tracer, books)
            clocks.append(_EpochClock(d))
        run_s = 0.0
        try:
            for d in drivers:
                t0 = time.perf_counter()
                if traced:
                    with traced_routers():
                        d.run()
                else:
                    d.run()
                run_s += time.perf_counter() - t0
            layers = {}
            if traced:
                metrics = [ray.get([a.get_metrics.remote() for a in d.actors]) for d in drivers]
                layers = self.layers(out, tracer, books, metrics)
        finally:
            for d in drivers:
                for a in d.actors or ():
                    ray.kill(a)
        digest = {}
        for sink in self.sinks:
            dg, _, fails = checks.read_sink(os.path.join(out, sink))
            digest[sink] = {str(k): v for k, v in dg.items()}
            if fails:
                digest[sink]["failures"] = fails
        lat = [s for c in clocks for s in c.samples]
        return Rep(
            rows=self.n_rows * len(drivers), run_s=run_s, setup_s=setup_s,
            latencies=lat,
            digest=digest, attempted=len(lat), layers=layers,
            spans=[s.__dict__ for s in tracer.spans],
        )

    def rep_failures(self, rep: Rep, first: Rep) -> tuple[int, list[str]]:
        """Every epoch of a repetition fails when its committed output
        differs from the first repetition's."""
        if rep.digest != first.digest:
            return rep.attempted, ["output digest differs from the first repetition's"]
        return 0, []

    def layers(self, out: str, tracer: Tracer, books: list, metrics: list) -> dict:
        import pandas as pd

        b = pd.concat(books, ignore_index=True)
        router = float((b["tr_end"] - b["tr_start"]).sum())
        push = float(b["tr_push_sec"].sum())
        engine_split = "sec_fn" in b  # StreamDriver times its own partial / route halves
        selft = tracer.self_times()
        # max/mean partial rows per actor, within each driver's actor pool
        skew = max(max(r) / max(np.mean(r), 1e-12)
                   for r in ([m["partial_rows_in"] for m in ms] for ms in metrics))
        ck = glob.glob(os.path.join(out, "**", "_checkpoints", "epoch-*", "*.parquet"),
                       recursive=True)
        state_rows = [pq.read_metadata(f).num_rows for f in ck
                      if not f.endswith(".def.parquet")] or [0]
        sink_roots = [os.path.join(out, s) for s in self.sinks]
        stream_driver = "state.close" in selft
        return {
            "read.sec": tracer.total("pipeline") - router,
            "read.bytes": self.input_bytes * len(metrics),
            "partial.sec": float(b["sec_fn"].sum()) if engine_split else router - push,
            "partial.rows_in": int(b["rows_in"].sum()),
            "partial.rows_out": int(b["tr_push_rows"].sum()),
            "route.sec": float(b["sec_route"].sum()) if engine_split else push,
            "route.calls": int(b["tr_push_calls"].sum()),
            "route.wire_bytes": int(b["tr_push_bytes"].sum()),
            "state.close_sec": selft.get("state.close" if stream_driver else "emit", 0.0),
            "state.rows_max": int(max(state_rows)),
            "state.rows_mean": float(np.mean(state_rows)),
            "state.ingest_skew": float(skew),
            "barrier.wait_sec": tracer.total("barrier"),
            "emit.sec": (selft.get("emit", 0.0) + tracer.total("finalize")
                         + tracer.total("join")) if stream_driver else 0.0,
            "emit.rows": _manifest_rows(sink_roots[0]) if stream_driver else sum(
                _manifest_rows(r) for r in sink_roots),
            "sink.sec": tracer.total("sink"),
            "sink.bytes": sum(_dir_bytes(r) for r in sink_roots),
            "sink.rows": sum(_manifest_rows(r) for r in sink_roots),
            "checkpoint.sec": tracer.total("checkpoint"),
            "checkpoint.bytes": sum(_dir_bytes(d) for d in glob.glob(
                os.path.join(out, "**", "_checkpoints"), recursive=True)),
            "late.dropped": int(b["late_dropped"].sum()),
        }


class TokensTumbling(StreamWorkload):
    name = "tokens_tumbling"
    sinks = ("agg",)

    def make_input(self, work: str) -> str:
        return inputs.token_stream(work, self.seed, self.n_rows)

    def config(self):
        from raystat.streaming import StreamConfig

        return StreamConfig(
            window_size_s=3600, allowed_lateness_s=LATENESS_TOKENS_S,
            n_partitions=N_PARTITIONS, token_stats=True, comoment_stats=True,
        )

    def metadata(self):
        from raystat.fixtures import metadata_rows

        return metadata_rows(inputs.N_EPOCHS, seed=self.seed)

    def build(self, out: str) -> list:
        from raystat.streaming import StreamDriver

        return [StreamDriver(self.input, out, self.config(), metadata=self.metadata())]

    def check(self, out: str) -> list[str]:
        stream = checks.load_token_stream(self.input)
        keep = checks.kept_rows(stream, LATENESS_TOKENS_S, 3600)
        exp = checks.token_oracle(stream, keep, 3600)
        meta = self.metadata().to_pandas().set_index("source")["quality"].to_dict()
        _, got, fails = checks.read_sink(os.path.join(out, "agg"))
        return fails + checks.check_token_aggregates(got, exp, meta)


class EventsSketch(StreamWorkload):
    name = "events_sketch"
    sinks = ("mg/topk", "hll/distinct")

    def make_input(self, work: str) -> str:
        return inputs.events_stream(work, self.seed, self.n_rows)

    def build(self, out: str) -> list:
        from raystat.streaming.sketch import HllStreamDriver, MgStreamDriver

        common = dict(key="event_type", ts_col="ts_us", allowed_lateness_s=SKETCH_LATENESS_S,
                      n_partitions=N_PARTITIONS)
        return [
            MgStreamDriver(self.input, os.path.join(out, "mg"), item="user_id",
                           window_size_s=6 * 3600, capacity=MG_CAPACITY, top=MG_TOP, **common),
            HllStreamDriver(self.input, os.path.join(out, "hll"), value="user_id",
                            window_size_s=24 * 3600, hop_s=6 * 3600, **common),
        ]

    def check(self, out: str) -> list[str]:
        ev = checks.load_events(self.input)
        _, mg, fails = checks.read_sink(os.path.join(out, "mg", "topk"))
        _, hll, hfails = checks.read_sink(os.path.join(out, "hll", "distinct"))
        fails += hfails
        tumbling = checks.kept_pairs(ev, 6 * 3600, 6 * 3600, SKETCH_LATENESS_S)
        hopping = checks.kept_pairs(ev, 24 * 3600, 6 * 3600, SKETCH_LATENESS_S)
        return fails + checks.check_mg(mg, tumbling, MG_TOP) + checks.check_hll(hll, hopping)


class BatchMoments:
    """``grouped_moments`` (four weighted UDAFs, 1 h tumbling) then
    ``session_moments`` over one seeded events table; each query is
    checked against its DuckDB twin in every repetition."""

    name = "batch_moments"
    specs = {"wavg": "weighted_average", "wstd": "stddev_weighted",
             "wskew": "skewness_weighted", "wkurt": "kurtosis_weighted"}

    def __init__(self, work: str, seed: int, size: str):
        self.n_rows = SIZES[self.name][size]
        self.files = inputs.events_table(work, seed, self.n_rows)
        self.input_bytes = sum(os.path.getsize(f) for f in self.files)
        self._twin = None

    def queries(self):
        import ray.data as rd

        from raystat.aggregate import grouped_moments, session_moments
        from raystat.windows import Tumbling

        kw = dict(value="value", weight="weight", ts="ts")
        return [
            ("tumbling", ["key", "window_start"], lambda: grouped_moments(
                rd.read_parquet(self.files), self.specs, ["key"], window=Tumbling(3600),
                batch_size=65536, **kw)),
            ("session", ["key", "session_start_us", "session_end_us"], lambda: session_moments(
                rd.read_parquet(self.files), self.specs, ["key"], gap_s=SESSION_GAP_S, **kw)),
        ]

    def twin(self):
        if self._twin is None:
            self._twin = dict(zip(("tumbling", "session"),
                                  checks.duckdb_twin(self.files, SESSION_GAP_S)))
        return self._twin

    def rep(self, out: str, traced: bool = False, warmup: bool = False) -> Rep:
        tracer = Tracer(run=os.path.basename(out))
        results, layers = {}, {}
        t0 = time.perf_counter()
        for name, _, query in self.queries():
            ds = query()
            results[name] = tracer.call(f"query.{name}", ds.to_pandas)
            if traced:
                for k, v in ray_data_layers(ds).items():
                    layers[k] = layers.get(k, 0) + v
        run_s = time.perf_counter() - t0
        if traced:
            layers["read.bytes"] = self.input_bytes * len(results)
            layers["partial.rows_in"] = self.n_rows * len(results)
        # the latency sample is the time to the complete answer of both queries
        return Rep(rows=self.n_rows * len(results), run_s=run_s, setup_s=0.0,
                   latencies=[run_s], digest={}, attempted=len(results), layers=layers,
                   spans=[s.__dict__ for s in tracer.spans], outputs=results)

    def rep_failures(self, rep: Rep, first: Rep) -> tuple[int, list[str]]:
        """A query fails when its result differs from the DuckDB twin."""
        fails = []
        for name, on, _ in self.queries():
            fails += [f"{name}: {m}" for m in
                      checks.check_batch(rep.outputs[name], self.twin()[name], on)]
        return len({m.split(":")[0] for m in fails}), fails

    def check(self, out: str) -> list[str]:
        return []


def ray_data_ops(ds) -> list[tuple[str, bool, float, int]]:
    """(operator, is_sub_operator, summed task wall time, output rows)
    for every operator of an executed Dataset, from ``Dataset.stats()``."""
    ops = []

    def walk(summary):
        for p in summary.parents:
            walk(p)
        for op in summary.operators_stats:
            wall = (op.wall_time or {}).get("sum") or 0.0
            rows = (op.output_num_rows or {}).get("sum") or 0
            ops.append((op.operator_name, bool(op.is_sub_operator), float(wall), int(rows)))

    walk(ds._get_stats_summary())
    return ops


def ray_data_layers(ds) -> dict:
    """Ray Data operators mapped to layers.  A fused operator name goes
    to the first layer it matches, in this order: partial, the session
    merge (shuffle), finalize, read; anything else (Aggregate, Sort and
    their sub-operators) is the shuffle."""
    out = {"read.sec": 0.0, "batch_partial.sec": 0.0, "shuffle.sec": 0.0,
           "shuffle.rows_in": 0, "batch_finalize.sec": 0.0}
    for name, _, wall, rows in ray_data_ops(ds):
        if "partial" in name:
            out["batch_partial.sec"] += wall
            out["shuffle.rows_in"] += rows
        elif "merge_sessions" in name:
            out["shuffle.sec"] += wall
        elif "finalize" in name:
            out["batch_finalize.sec"] += wall
        elif "Read" in name:
            out["read.sec"] += wall
        else:
            out["shuffle.sec"] += wall
    return out


WORKLOADS = {w.name: w for w in (TokensTumbling, EventsSketch, BatchMoments)}
