"""Spans recorded from outside the engine.

The benchmark never edits ``raystat``.  A traced repetition wraps the
calls the epoch loop makes into each layer (instance attributes of one
driver object, restored by discarding the object) and swaps the router
classes the drivers look up by module name for subclasses that time
their own call and the actor pushes they make.  Those subclasses run
inside Ray workers, so this module must stay importable there: it
imports only pyarrow and raystat.

Spans are kept in memory as ``(id, name, start, end, parent, run)``
tuples with ``time.perf_counter`` stamps; on Linux that clock is
CLOCK_MONOTONIC, shared by every process on the host, so worker spans
line up with driver spans.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

import pyarrow as pa

from raystat.streaming import driver as _driver
from raystat.streaming import sketch as _sketch
from raystat.streaming.sketch import HllRouter, MgRouter
from raystat.streaming.state import Router


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


@dataclass
class Tracer:
    run: str
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans.append(Span(sid, name, t0, time.perf_counter(), parent, self.run))

    def wrap(self, obj, attr: str, name: str) -> None:
        """Make ``obj.attr(...)`` record a span (instance attribute only)."""
        fn = getattr(obj, attr)
        setattr(obj, attr, functools.partial(self.call, name, fn))

    def add(self, name: str, start: float, end: float, parent: int | None) -> None:
        self.spans.append(Span(next(self._ids), name, start, end, parent, self.run))

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the part of each span's
        interval that its children cover."""
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(kids.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out


# -- worker side: routers that time themselves -----------------------------------


class _Pushes:
    """Counts and times the ``actor.ingest.remote`` calls of one router
    call: submission time, Arrow bytes and partial rows handed to Ray."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.sec = 0.0
        self.bytes = 0
        self.rows = 0
        self.calls = 0


class _Ingest:
    def __init__(self, actor, pushes: _Pushes):
        self.actor = actor
        self.pushes = pushes

    def remote(self, table: pa.Table):
        t0 = time.perf_counter()
        ref = self.actor.ingest.remote(table)
        p = self.pushes
        p.sec += time.perf_counter() - t0
        p.bytes += table.nbytes
        p.rows += table.num_rows
        p.calls += 1
        return ref


class _ActorProbe:
    """Stands in for an actor handle inside a router: only ``ingest``
    is called there."""

    def __init__(self, actor, pushes: _Pushes):
        self.ingest = _Ingest(actor, pushes)


class _TimedRouter:
    """Mixin: the first constructor argument of every router is the
    actor list; the bookkeeping table each call returns gains the
    call's timings as extra columns (the drivers read columns by name)."""

    def __init__(self, actors, *args, **kwargs):
        self._pushes = _Pushes()
        super().__init__([_ActorProbe(a, self._pushes) for a in actors], *args, **kwargs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        self._pushes.reset()
        t0 = time.perf_counter()
        book = super().__call__(batch)
        t1 = time.perf_counter()
        p = self._pushes
        extra = {
            "tr_start": t0, "tr_end": t1, "tr_push_sec": p.sec, "tr_push_bytes": p.bytes,
            "tr_push_rows": p.rows, "tr_push_calls": p.calls,
        }
        for k, v in extra.items():
            book = book.append_column(k, pa.array([v] * book.num_rows))
        return book


class TracedRouter(_TimedRouter, Router):
    pass


class TracedMgRouter(_TimedRouter, MgRouter):
    pass


class TracedHllRouter(_TimedRouter, HllRouter):
    pass


_SWAPS = [
    (_driver, "Router", TracedRouter),
    (_sketch, "MgRouter", TracedMgRouter),
    (_sketch, "HllRouter", TracedHllRouter),
]


class traced_routers:
    """Context manager: the drivers build traced routers while inside."""

    def __enter__(self):
        self._saved = [(m, n, getattr(m, n)) for m, n, _ in _SWAPS]
        for m, n, cls in _SWAPS:
            setattr(m, n, cls)
        return self

    def __exit__(self, *exc):
        for m, n, orig in self._saved:
            setattr(m, n, orig)
        return False


# -- driver side: the epoch Dataset ------------------------------------------------


class TracedDataset:
    """Wraps the Dataset a driver builds for one epoch.  The epoch's
    bookkeeping ``to_pandas()`` becomes a ``pipeline`` span (Ray Data
    read + partial + route for the whole epoch), and the router calls
    reported in the bookkeeping rows become its child spans."""

    def __init__(self, ds, tracer: Tracer, books: list):
        self._ds = ds
        self._tracer = tracer
        self._books = books

    def map_batches(self, *args, **kwargs):
        return TracedDataset(self._ds.map_batches(*args, **kwargs), self._tracer, self._books)

    def to_pandas(self, *args, **kwargs):
        tr = self._tracer
        df = tr.call("pipeline", self._ds.to_pandas, *args, **kwargs)
        parent = tr.spans[-1].id  # a span is appended after its children
        if "tr_start" in df:
            for s, e in zip(df["tr_start"], df["tr_end"]):
                tr.add("router", float(s), float(e), parent)
        self._books.append(df)
        return df

    def __getattr__(self, name):
        return getattr(self._ds, name)


def trace_stream_driver(drv, tracer: Tracer, books: list) -> None:
    """Wrap one streaming driver's layer calls (``StreamDriver`` or an
    ``EpochDriverBase`` sketch driver)."""
    epoch_ds = drv._epoch_dataset

    def traced_epoch_dataset(epoch):
        ds = epoch_ds(epoch)
        return None if ds is None else TracedDataset(ds, tracer, books)

    drv._epoch_dataset = traced_epoch_dataset
    tracer.wrap(drv, "run", "run")
    tracer.wrap(drv, "_run_epoch", "epoch")
    tracer.wrap(drv, "_ingest_barrier", "barrier")
    tracer.wrap(drv, "_emit", "emit")
    tracer.wrap(drv, "_checkpoint", "checkpoint")
    tracer.wrap(drv.sink, "commit", "sink")
    if hasattr(drv, "_close_and_finalize"):  # StreamDriver
        tracer.wrap(drv, "_close_and_finalize", "state.close")
        tracer.wrap(drv, "_finalize_tables", "finalize")
        tracer.wrap(drv.join, "process", "join")
