"""STREAMING windowed sketches: approximate distinct counts (HyperLogLog),
quantiles (KLL), heavy hitters (Misra-Gries), frequency estimates
(Count-Min) and deterministic samples (bottom-k) per key, over
tumbling, hopping or session windows, through the engine's
epoch/watermark/checkpoint conventions.

Dataflow per epoch: one stage of read tasks computes per-batch
partial sketches per (key, window) or per session fragment — the
kind's router, a ``_WindowRouter`` or ``_SessionRouter`` — and
returns them as data; the driver then routes the epoch's
partials to their owning state actors by key hash, one ingest per
actor (rows never shuffle).  Every driver is a ``_SketchDriver`` on the
shared ``EpochDriverBase`` loop.

State: ONE actor class for every kind, :class:`SketchPartition`.  It
keeps its partition's open groups as one Arrow table — the group
columns (``key, window_start_s`` or ``key, session_start_us,
session_end_us``) plus the kind's payload columns — and owns the
lifecycle of the reference's UDAF (initialize, aggregate, merge, map;
PAPER.md §0): ingest buffers partials; the lazy consolidation gives each
row its group id (for sessions, one gap-rule sweep over old and new
fragments) and calls the kind's vectorized ``merge``; ``close_windows``
retires the groups the watermark passed and maps them to output rows
with the kind's ``finish``; ``snapshot``/``restore`` write and read the
table as one parquet file.  So a sketch kind (:class:`_Kind`) is only
its payload columns, a merge and a finish:

- HLL: 4 KiB registers, element-wise max (idempotent: replayed or
  reordered partials can never over-count, and the streamed estimate
  equals the batch estimate over the same rows);
- KLL: deterministic compactor sketches, merged in a canonical order;
- MG: exact (item, n) counts cut to ``capacity - 1`` per group, the
  subtracted mass kept as the group's deficit;
- CMS: dense counter arrays (sum) plus exact probe-item counts;
- bottom-k: each group's k smallest distinct (splitmix64(item), item).

State per partition is O(open groups x sketch size) — row-count
independent, the property that makes these the scale path over
unbounded streams.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from raystat.aggregate import encode_key
from raystat.dataops.kll import KLL
from raystat.dataops.pairs import splitmix64
from raystat.dataops.sketches import (
    _M,
    _cms_flat_idx,
    _rho_and_idx,
    CMS_DEPTH,
    CMS_WIDTH,
    hll_estimate,
)
from raystat.streaming.epochs import END, NEG, EpochDriverBase
from raystat.streaming.sink import ExactlyOnceParquetSink
from raystat.streaming.state import (
    PendingIngest,
    _require_columns,
    gap_sweep,
    key_partition,
    partial_row,
    write_parquet_atomic,
)

__all__ = [
    "HllStreamDriver", "MgStreamDriver", "KllStreamDriver",
    "CmsStreamDriver", "BottomKStreamDriver", "SketchPartition",
    "events_stream_fixture",
]

WINDOW_GROUPS = ("key", "window_start_s")
SESSION_GROUPS = ("key", "session_start_us", "session_end_us")
_CMS_CELLS = CMS_DEPTH * CMS_WIDTH


# -- columnar helpers --------------------------------------------------------------


def _blob_values(col, dtype) -> np.ndarray:
    """The bytes of every non-null value of binary column ``col``,
    concatenated and viewed as ``dtype``: views of the Arrow data
    buffers (one copy when ``col`` has several chunks).  Null values
    hold no bytes."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    parts = []
    for ch in chunks:
        if len(ch) == ch.null_count:
            continue
        off = np.frombuffer(ch.buffers()[1], np.int32, len(ch) + 1, ch.offset * 4)
        parts.append(np.frombuffer(ch.buffers()[2], np.uint8, int(off[-1] - off[0]),
                                   int(off[0])))
    flat = parts[0] if len(parts) == 1 else np.concatenate(parts or [np.zeros(0, np.uint8)])
    return flat.view(dtype)


def _blob_column(mat: np.ndarray, n_null: int = 0) -> pa.ChunkedArray:
    """One binary value per row of the 2-D array ``mat`` (the inverse of
    :func:`_blob_values`), then ``n_null`` nulls."""
    w = mat.shape[1] * mat.itemsize
    raw = np.ascontiguousarray(mat).view(np.uint8).reshape(len(mat), w)
    step = max(1, (2**31 - 1) // max(w, 1))  # int32 offsets
    chunks = [
        pa.Array.from_buffers(
            pa.binary(), len(part),
            [None, pa.py_buffer(np.arange(len(part) + 1, dtype=np.int32) * w),
             pa.py_buffer(part)],
        )
        for part in (raw[i:i + step] for i in range(0, len(raw), step))
    ]
    return pa.chunked_array(chunks + [pa.nulls(n_null, pa.binary())], pa.binary())


def _runs(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable order that sorts the group ids ``g`` (>= 0) and the
    sorted position where each group's run starts."""
    order = np.argsort(g, kind="stable")
    return order, np.flatnonzero(np.diff(g[order], prepend=-1))


def _rank(g: np.ndarray) -> np.ndarray:
    """The 0-based position of each row within its run of the sorted
    group ids ``g`` (>= 0)."""
    first = np.flatnonzero(np.diff(g, prepend=-1))
    return np.arange(g.size) - np.repeat(first, np.diff(np.append(first, g.size)))


def _sum_by(g: np.ndarray, item: np.ndarray, n: np.ndarray):
    """Sum ``n`` per distinct (group, item): (group, item, sum) arrays
    sorted by group, then item."""
    order = np.lexsort((item, g))
    g, item, n = g[order], item[order], n[order]
    brk = np.ones(g.size, dtype=bool)
    brk[1:] = (g[1:] != g[:-1]) | (item[1:] != item[:-1])
    first = np.flatnonzero(brk)
    return g[first], item[first], np.add.reduceat(n, first) if first.size else n


def _group_ids(t: pa.Table, cols) -> tuple[np.ndarray, np.ndarray]:
    """The dense id of each row's ``cols`` tuple, and the first row of
    each id."""
    gid = np.zeros(t.num_rows, dtype=np.int64)
    for c in cols:
        if pa.types.is_string(t[c].type):
            codes = encode_key(t[c], c)[0]
        else:
            codes = np.unique(t[c].to_numpy(), return_inverse=True)[1]
        gid = np.unique(gid * (codes.max(initial=0) + 1) + codes, return_inverse=True)[1]
    return gid, np.unique(gid, return_index=True)[1]


# -- sketch kinds ------------------------------------------------------------------


class _Kind:
    """A sketch kind, as :class:`SketchPartition` runs it.

    - ``payload``: the state columns after the group columns;
      ``wire``: the partial columns its routers send (the payload
      unless set);
    - ``merge(state, new, gid) -> (g, columns)``: merge the consolidated
      ``state`` table and the ``new`` partials; ``gid`` is the group id
      of every row of ``state`` then ``new``.  Returns each output row's
      group id and the payload columns; the actor puts the group columns
      in front;
    - ``finish(closed, gid) -> pa.Table``: the emitted rows of the
      closed groups (``gid``: each closed row's group id), group columns
      first.
    """

    payload: dict = {}

    def __init__(self, session: bool):
        self.session = session
        self.groups = list(SESSION_GROUPS if session else WINDOW_GROUPS)
        self.wire = list(self.payload)
        self.metrics: dict = {}

    def _group_columns(self, t: pa.Table) -> dict:
        return {c: t[c] for c in self.groups}


class _Hll(_Kind):
    """HyperLogLog registers (one M-byte row per group): merge is ONE
    stable sort + ``np.maximum.reduceat`` over the stacked register
    matrix; finish is the estimate."""

    payload = {"regs": pa.binary()}

    def merge(self, state, new, gid):
        regs = np.concatenate([_blob_values(t["regs"], np.uint8) for t in (state, new)])
        order, first = _runs(gid)
        merged = np.maximum.reduceat(regs.reshape(-1, _M)[order], first, axis=0)
        return gid[order][first], {"regs": _blob_column(merged)}

    def finish(self, closed, gid):
        regs = _blob_values(closed["regs"], np.uint8).reshape(-1, _M)
        est = [hll_estimate(r) for r in regs]
        return pa.table({**self._group_columns(closed),
                         "approx_distinct": pa.array(est, pa.float64())})


class _Kll(_Kind):
    """KLL quantile sketches, one blob per group; finish emits ``n`` and
    the quantiles ``names`` at ``qs``.  KLL merge is mass-conserving
    but NOT order-commutative (the compaction schedule depends on merge
    order), so merges run in a CANONICAL order and the streamed sketch
    is a deterministic function of the input stream (crash/resume
    replays reproduce identical estimates):

    - windows: the state sketch first, then the epoch's new blobs by
      bytes.  Window state also keeps each sketch's compactor parity
      (``KLL.parity``, which the blob leaves out), so a sketch goes on
      compacting exactly as one held in memory would;
    - sessions: all fragments of a session, old and new alike, by
      (start, end, bytes), each starting from its blob.  Session
      fragments are disjoint event subsets, so the gap-rule merge is
      sound."""

    def __init__(self, session: bool, k: int, qs: tuple, names: tuple):
        self.payload = {"sk": pa.binary()}
        if not session:
            self.payload["parity"] = pa.int64()
        super().__init__(session)
        self.wire = ["sk"]
        self.k, self.qs, self.names = int(k), tuple(qs), tuple(names)

    def merge(self, state, new, gid):
        ns = state.num_rows
        blobs = state["sk"].to_pylist() + new["sk"].to_pylist()
        if self.session:
            s, e = (np.concatenate([state[c].to_numpy(), new[c].to_numpy()])
                    for c in ("session_start_us", "session_end_us"))
            order = sorted(range(len(blobs)), key=lambda i: (gid[i], s[i], e[i], blobs[i]))
            parity = np.zeros(ns, dtype=np.int64)
        else:
            order = sorted(range(len(blobs)), key=lambda i: (gid[i], i >= ns, blobs[i]))
            parity = state["parity"].to_numpy()
        g, sks = [], []
        for i in order:
            sk = KLL.from_bytes(blobs[i], int(parity[i]) if i < ns else 0)
            if g and g[-1] == gid[i]:
                sks[-1].merge(sk)
            else:
                g.append(gid[i])
                sks.append(sk)
        cols = {"sk": pa.array([s.to_bytes() for s in sks], pa.binary())}
        if not self.session:
            cols["parity"] = pa.array([s.parity for s in sks], pa.int64())
        return np.asarray(g, dtype=np.int64), cols

    def finish(self, closed, gid):
        sks = [KLL.from_bytes(b) for b in closed["sk"].to_pylist()]
        return pa.table({
            **self._group_columns(closed),
            "n": pa.array([s.n for s in sks], pa.int64()),
            **{nm: pa.array([s.quantile(q) for s in sks], pa.float64())
               for q, nm in zip(self.qs, self.names)},
        })


class _Mg(_Kind):
    """Misra-Gries heavy-hitter summaries as (item, n) rows, bounded to
    ``capacity - 1`` items per group regardless of the item domain.  A
    row with a NULL item carries the group's deficit: the mass the MG
    reductions subtracted, so lossless operation (no such row -> counts
    EXACT) is observable, never assumed.  Merge sums counts by item,
    then reduces each group holding more than ``capacity - 1`` items:
    subtract its capacity-th largest count and drop the non-positive
    ones (``dataops.sketches.mg_merge``), adding what went to the
    deficit.  Sums commute and the reduction sees only the summed
    multiset, so merges are order-insensitive.  A window reduced to no
    items keeps its deficit row and emits nothing; a session reduced to
    no items is dropped, deficit and bounds with it.  Finish: the top
    ``top`` items (count desc, item asc) with the group's deficit on
    every row."""

    payload = {"item": pa.int64(), "n": pa.int64()}

    def __init__(self, session: bool, capacity: int, top: int):
        super().__init__(session)
        self.capacity, self.top = int(capacity), int(top)
        self.metrics = {"prunes": 0}

    @staticmethod
    def _split(t: pa.Table, gid: np.ndarray):
        """The item rows' indices, their (group, item, n), and each
        group's deficit."""
        is_def = pc.is_null(t["item"]).to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy()
        deficit = np.zeros(int(gid.max(initial=-1)) + 1, dtype=np.int64)
        np.add.at(deficit, gid[is_def], n[is_def])
        rows = np.flatnonzero(~is_def)
        return rows, gid[rows], t["item"].fill_null(0).to_numpy()[rows], n[rows], deficit

    def merge(self, state, new, gid):
        _, g, item, n, deficit = self._split(pa.concat_tables([state, new]), gid)
        g, item, n = _sum_by(g, item, n)
        size = np.bincount(g, minlength=deficit.size)
        if (size > self.capacity - 1).any():
            order = np.lexsort((-n, g))  # by group, count descending
            kth_row = order[_rank(g[order]) == self.capacity - 1]
            kth = np.zeros(deficit.size, dtype=np.int64)
            kth[g[kth_row]] = n[kth_row]  # 0 for groups within capacity
            cut = n - kth[g]
            np.add.at(deficit, g, np.where(cut > 0, kth[g], n))
            keep = cut > 0
            g, item, n = g[keep], item[keep], cut[keep]
            self.metrics["prunes"] += int(kth_row.size)
        dg = np.flatnonzero(deficit)
        if self.session:  # a session reduced to no items is dropped
            dg = np.intersect1d(dg, g)
        item_col = pa.array(np.concatenate([item, np.zeros(dg.size, np.int64)]),
                            mask=np.arange(item.size + dg.size) >= item.size)
        return np.concatenate([g, dg]), {"item": item_col,
                                         "n": np.concatenate([n, deficit[dg]])}

    def finish(self, closed, gid):
        rows, g, item, n, deficit = self._split(closed, gid)
        order = np.lexsort((item, -n, g))
        rank = _rank(g[order]) + 1
        top = order[rank <= self.top]
        return pa.table({
            **self._group_columns(closed.take(pa.array(rows[top]))),
            "item": item[top], "n": n[top], "rank": rank[rank <= self.top],
            "mg_deficit": deficit[g[top]],
        })


class _Cms(_Kind):
    """Count-Min frequency state: per group one dense DEPTH x WIDTH int64
    counter blob (``n``: the rows it absorbed; ``item`` 0) plus EXACT
    counts for the deterministic probe items ``item % probe_mod == 0``
    (null ``cms``), the two row kinds the router sends in one table.
    Both merge by SUM, so any ingest order yields the same state and
    the streamed estimates equal the batch sketch over the same rows;
    no per-item state beyond the probe set ever reaches the actor.
    Finish emits each closed group's probe items: exact n, the point
    estimate and the (e/WIDTH)*N over-count gate (2x margin).  CMS never
    under-counts, so est >= n always; the gate makes the error
    observable per emitted row (the MG deficit's honesty contract)."""

    payload = {"item": pa.int64(), "n": pa.int64(), "cms": pa.binary()}

    def merge(self, state, new, gid):
        t = pa.concat_tables([state, new])
        blob = pc.is_valid(t["cms"]).to_numpy(zero_copy_only=False)
        n, item = t["n"].to_numpy(), t["item"].to_numpy()
        order, first = _runs(gid[blob])
        counts = _blob_values(t["cms"], np.int64).reshape(-1, _CMS_CELLS)
        counts = np.add.reduceat(counts[order], first, axis=0)
        totals = np.add.reduceat(n[blob][order], first)
        pg, pitem, pn = _sum_by(gid[~blob], item[~blob], n[~blob])
        return np.concatenate([gid[blob][order][first], pg]), {
            "item": np.concatenate([np.zeros(first.size, np.int64), pitem]),
            "n": np.concatenate([totals, pn]),
            "cms": _blob_column(counts, pg.size),
        }

    def finish(self, closed, gid):
        blob = pc.is_valid(closed["cms"]).to_numpy(zero_copy_only=False)
        counts = _blob_values(closed["cms"], np.int64).reshape(-1, _CMS_CELLS)
        n, item = closed["n"].to_numpy(), closed["item"].to_numpy()
        row_of = np.zeros(int(gid.max(initial=-1)) + 1, dtype=np.int64)
        row_of[gid[blob]] = np.arange(counts.shape[0])
        probe = np.flatnonzero(~blob)
        r = row_of[gid[probe]]
        est = counts[r[None, :], _cms_flat_idx(item[probe])].min(axis=0)
        bound = np.maximum(1, np.ceil(2 * np.e * n[blob][r] / CMS_WIDTH).astype(np.int64))
        pn = n[probe]
        return pa.table({
            **self._group_columns(closed.take(pa.array(probe))),
            "item": item[probe], "n": pn, "cms_est": est.astype(np.int64),
            "within_bound": (est >= pn) & (est <= pn + bound),
        })


class _BottomK(_Kind):
    """Deterministic bottom-k samples: per group the k DISTINCT items
    with the smallest ``splitmix64(item)`` (ties by item), as
    (item, hv) rows — the coordination-free reservoir.  Merge is a
    k-truncated min-union with (hv, item) dedup (one lexsort, a dedup
    and a take of the first k per group): ASSOCIATIVE, COMMUTATIVE and
    IDEMPOTENT like the HLL max, so replayed, reordered or overlapping
    partials can never change the sample, and the streamed sample is
    exactly the batch bottom-k over the same rows.  Session fragments
    arrive packed, one ``bk`` blob per fragment (``_bk_pack``).  Finish
    ranks each closed group's sample."""

    payload = {"item": pa.int64(), "hv": pa.uint64()}

    def __init__(self, session: bool, k: int):
        super().__init__(session)
        self.k = int(k)
        if session:
            self.wire = ["bk"]

    def merge(self, state, new, gid):
        ns = state.num_rows
        if self.session:
            m, new_hv, new_it = _bk_unpack(new["bk"])
            new_g = np.repeat(gid[ns:], m)
        else:
            new_g, new_hv, new_it = gid[ns:], new["hv"].to_numpy(), new["item"].to_numpy()
        g = np.concatenate([gid[:ns], new_g])
        hv = np.concatenate([state["hv"].to_numpy(), new_hv])
        item = np.concatenate([state["item"].to_numpy(), new_it])
        order = np.lexsort((item, hv, g))
        g, hv, item = g[order], hv[order], item[order]
        keep = np.ones(g.size, dtype=bool)
        keep[1:] = (g[1:] != g[:-1]) | (hv[1:] != hv[:-1]) | (item[1:] != item[:-1])
        g, hv, item = g[keep], hv[keep], item[keep]
        top = _rank(g) < self.k
        return g[top], {"item": item[top], "hv": hv[top]}

    def finish(self, closed, gid):
        item = closed["item"].to_numpy()
        order = np.lexsort((item, closed["hv"].to_numpy(), gid))
        return pa.table({**self._group_columns(closed.take(pa.array(order))),
                         "item": item[order], "rank": _rank(gid[order]) + 1})


_KINDS = {"hll": _Hll, "kll": _Kll, "mg": _Mg, "cms": _Cms, "bottomk": _BottomK}


@ray.remote(num_cpus=0)
class SketchPartition(PendingIngest):
    """Sketch state for one key-hash partition, for every sketch kind:
    the open groups as ONE Arrow table (group columns + the kind's
    payload).  ``span_s`` is the window size, or the session gap when
    ``session``; ``kind_args`` go to the kind (``_KINDS``).

    ``ingest`` checks and buffers a partial table; the merge happens
    lazily (close, snapshot, metrics) as ONE consolidation over
    everything pending.  Windows group rows by (key, window_start_s).
    Sessions run the gap-rule sweep over the open sessions and the new
    fragments (``state.gap_sweep``): each cluster becomes one session
    whose bounds span its members.  ksqlDB's SESSION contract is why
    merge exists: overlapping partials must merge.  A window closes
    when ``window_start + size <= watermark``; a session when ``end +
    gap <= watermark`` (any admissible future event has ts >
    watermark, so it cannot extend it)."""

    def __init__(self, pid: int, kind: str, span_s: int, session: bool, *kind_args):
        self.pid = pid
        self.session = bool(session)
        self.kind = _KINDS[kind](self.session, *kind_args)
        self.groups = self.kind.groups
        # window size in s (window starts are in s), session gap in us
        self.span = int(span_s) * (1_000_000 if self.session else 1)
        self.wire = self.groups + self.kind.wire
        group_types = [pa.string()] + [pa.int64()] * (len(self.groups) - 1)
        self.schema = pa.schema(list(zip(self.groups, group_types))
                                + list(self.kind.payload.items()))
        self.state = self.schema.empty_table()
        self.pending: list[pa.Table] = []
        self.closed_metric = "sessions_closed" if self.session else "windows_closed"
        self.metrics = {"partial_rows_in": 0, "ingests": 0, self.closed_metric: 0}

    def ingest(self, table: pa.Table) -> int:
        """Buffer one partial table; a missing column raises to the
        driver's barrier."""
        _require_columns(f"sketch partition {self.pid}", table, self.wire)
        return super().ingest(table.select(self.wire))

    def _session_groups(self, t: pa.Table):
        codes = encode_key(t["key"], "key")[0]
        start = t["session_start_us"].to_numpy()
        order, first, end = gap_sweep(codes, start, t["session_end_us"].to_numpy(), self.span)
        gid = np.empty(t.num_rows, dtype=np.int64)
        gid[order] = np.repeat(np.arange(first.size), np.diff(np.append(first, order.size)))
        bounds = pa.table({"key": t["key"].take(pa.array(order[first])),
                           "session_start_us": start[order][first],
                           "session_end_us": end.astype(np.int64)})
        return gid, bounds

    def _consolidate(self) -> None:
        if not self.pending:
            return
        new = pa.concat_tables(self.pending)
        self.pending = []
        both = pa.concat_tables([self.state.select(self.groups), new.select(self.groups)])
        if self.session:
            gid, bounds = self._session_groups(both)
        else:
            gid, first = _group_ids(both, self.groups)
            bounds = both.take(pa.array(first))
        g, cols = self.kind.merge(self.state, new, gid)
        keys = bounds.take(pa.array(g))
        self.state = pa.table({**{c: keys[c] for c in self.groups}, **cols})

    def close_windows(self, watermark_s) -> pa.Table:
        """Retire every group the watermark passed; returns the kind's
        output rows for them."""
        self._consolidate()
        if self.session:
            wm = max(min(watermark_s * 1_000_000, END), NEG)
            bound = self.state["session_end_us"].to_numpy() + self.span
        else:
            wm = watermark_s
            bound = self.state["window_start_s"].to_numpy() + self.span
        done = bound <= wm
        closed = self.state.filter(pa.array(done))
        self.state = self.state.filter(pa.array(~done))
        gid, first = _group_ids(closed, self.groups)
        self.metrics[self.closed_metric] += int(first.size)
        return self.kind.finish(closed, gid)

    def get_metrics(self) -> dict:
        self._consolidate()
        return {"partition": self.pid, **self.metrics, **self.kind.metrics,
                "state_rows": self.state.num_rows}

    def _path(self, ckpt_dir: str) -> str:
        return os.path.join(ckpt_dir, f"sketch-p{self.pid:04d}.parquet")

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        self._consolidate()
        os.makedirs(ckpt_dir, exist_ok=True)
        path = self._path(ckpt_dir)
        write_parquet_atomic(self.state, path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        """Rebuild the state from the snapshot (metrics start fresh).  A
        checkpoint without this actor's snapshot raises: resuming on
        empty state would silently lose it."""
        self.pending = []
        self.state = pq.read_table(self._path(ckpt_dir)).cast(self.schema)
        return self.state.num_rows


def _covering_windows(ts_s: np.ndarray, size_s: int, hop_s: int, wm: int):
    """Expand each row into its ``size/hop`` covering windows (tumbling
    when hop == size) and drop (row, window) combos whose window has
    already closed.  Returns (row_of, window_start, n_fully_late):
    a row counts late only when EVERY covering window is closed —
    matching the aggregate driver's hopping row_keep rule."""
    m = size_s // hop_s
    n = ts_s.size
    base = (ts_s // hop_s) * hop_s
    win = np.repeat(base, m) - np.tile(np.arange(m, dtype=np.int64) * hop_s, n)
    live = win + size_s > wm
    late = int(n - live.reshape(n, m).any(axis=1).sum()) if n else 0
    row_of = np.repeat(np.arange(n), m)
    return row_of[live], win[live], late


class _KeyedRouter:
    """Frame shared by the sketch routers: reads event time from
    ``ts_col``, builds the subclass's per-batch partial
    (``_partial(batch, ts_us) -> (table keyed by "key" or None, late
    rows)``) and returns it as data (:func:`partial_row`), each row
    owned by its key's hash partition, with the smallest event ts as
    batch key.  Routers make no actor calls: the driver routes the
    epoch's partials after the stage, so Ray may retry the stage's
    tasks.  ``actors`` stays the first constructor
    argument that every streaming router shares."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ts_us = batch[self.ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        tbl, late = self._partial(batch, ts_us)
        part = None if tbl is None else key_partition(tbl["key"], self.P)
        n = batch.num_rows
        return partial_row(
            tbl, part, int(ts_us.min()) if n else -1,
            max_ts_us=int(ts_us.max()) if n else -1, late_dropped=late, rows_in=n,
        )


class _WindowRouter(_KeyedRouter):
    """Tumbling/hopping frame: expands each row to its covering windows
    minus the closed ones (late drop) and hands the subclass's
    ``_groups`` one group id per (row, window) — key-dictionary code x
    window code, all in C (Arrow dictionary_encode + np.unique; the
    pandas MultiIndex factorize this replaces costs ~1.8 s/M rows) —
    the rows' values, and ``key_win`` mapping group ids back to
    (key, window_start_s)."""

    def __init__(self, actors: list, n_partitions: int, key: str, value: str,
                 ts_col: str, window_size_s: int, hop_s: int, watermark_s: int):
        self.P = n_partitions
        self.key, self.value, self.ts_col = key, value, ts_col
        self.size_s, self.hop_s = int(window_size_s), int(hop_s)
        self.wm = int(watermark_s)

    def _partial(self, batch: pa.Table, ts_us: np.ndarray):
        row_of, win, late = _covering_windows(
            ts_us // 1_000_000, self.size_s, self.hop_s, self.wm
        )
        if not row_of.size:
            return None, late
        kcode, kvocab = encode_key(batch[self.key].take(pa.array(row_of)), self.key)
        kdict = kvocab.to_numpy(zero_copy_only=False)
        wu, wcode = np.unique(win, return_inverse=True)
        vals = batch[self.value].to_numpy(zero_copy_only=False)[row_of]

        def key_win(g: np.ndarray):
            return kdict[g // len(wu)], wu[g % len(wu)].astype(np.int64)

        return self._groups(kcode * len(wu) + wcode, vals, key_win), late


class _SessionRouter(_KeyedRouter):
    """Session frame: drops late rows (microsecond-granular, ts_us >
    wm_us: an admissible event could only extend a session that is
    still open), sorts by (key, ts) and splits each key's run where the
    gap exceeds ``gap_s`` into session FRAGMENTS.  The subclass's
    ``_fragments`` gets each sorted row's fragment id, the fragment
    starts, the sorted values and the fragments' key/start/end
    columns."""

    def __init__(self, actors: list, n_partitions: int, key: str, value: str,
                 ts_col: str, gap_s: int, watermark_s: int):
        self.P = n_partitions
        self.key, self.value, self.ts_col = key, value, ts_col
        self.gap_us = int(gap_s) * 1_000_000
        self.wm_us = int(max(min(watermark_s * 1_000_000, END), NEG))

    def _partial(self, batch: pa.Table, ts_us: np.ndarray):
        idx = np.flatnonzero(ts_us > self.wm_us)
        late = int(batch.num_rows - idx.size)
        if not idx.size:
            return None, late
        codes, kvocab = encode_key(batch[self.key].take(pa.array(idx)), self.key)
        tv = ts_us[idx]
        order = np.lexsort((tv, codes))
        c_s, t_s = codes[order], tv[order]
        brk = np.ones(c_s.size, dtype=bool)
        brk[1:] = (c_s[1:] != c_s[:-1]) | ((t_s[1:] - t_s[:-1]) > self.gap_us)
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], c_s.size) - 1
        frags = {
            "key": kvocab.to_numpy(zero_copy_only=False)[c_s[starts]],
            "session_start_us": t_s[starts],
            "session_end_us": t_s[ends],
        }
        vals = batch[self.value].to_numpy(zero_copy_only=False)[idx][order]
        return self._fragments(np.cumsum(brk) - 1, starts, vals, frags), late


def _frag_columns(frags: dict, sel=slice(None)) -> dict:
    """The fragments' (key, session_start_us, session_end_us) columns,
    gathered by ``sel``."""
    return {
        "key": pa.array(frags["key"][sel].tolist(), pa.string()),
        "session_start_us": pa.array(frags["session_start_us"][sel], pa.int64()),
        "session_end_us": pa.array(frags["session_end_us"][sel], pa.int64()),
    }


class _SketchDriver(EpochDriverBase):
    """Constructor and epoch shared by the keyed sketch drivers: read
    arrival=N → per-batch partials (the kind's router) → route +
    barrier → advance the watermark → close ripe windows →
    exactly-once commit → checkpoint.  Common keyword arguments:
    ``key="event_type"``, ``ts_col="ts_us"``, ``window_size_s=86400``,
    ``hop_s`` (None: tumbling), ``session_gap_s`` (SESSION windows;
    exclusive with ``hop_s``), ``allowed_lateness_s=3600``,
    ``n_partitions=8``, ``batch_size``.

    A driver names its ``SketchPartition`` kind and its (window,
    session) routers — looked up in this module each time a router is
    built, so callers may swap them — plus the extra arguments its
    actors (``kind_args``: state and close arguments) and routers
    take."""

    kind = ""  # the SketchPartition kind (a _KINDS key)
    routers: tuple = ()  # (window router name, session router name)
    sort_extra: tuple = ()  # output sort columns after key and start
    kind_args: tuple = ()
    router_args: tuple = ()

    def __init__(self, input_dir: str, out_dir: str, sink_name: str, *,
                 value: str, key: str = "event_type", ts_col: str = "ts_us",
                 window_size_s: int = 86400, hop_s: int | None = None,
                 session_gap_s: int | None = None,
                 allowed_lateness_s: int = 3600, n_partitions: int = 8,
                 batch_size: int | None = None):
        super().__init__(input_dir, out_dir, n_partitions, batch_size)
        self.key, self.value, self.ts_col = key, value, ts_col
        self.session_gap_s = (
            int(session_gap_s) if session_gap_s is not None else None
        )
        if self.session_gap_s is not None and hop_s is not None:
            raise ValueError("session_gap_s and hop_s are mutually exclusive")
        self.size_s = int(window_size_s)
        self.hop_s = int(hop_s) if hop_s is not None else self.size_s
        if self.size_s % self.hop_s:
            raise ValueError("window_size_s must be a multiple of hop_s")
        self.lateness_s = int(allowed_lateness_s)
        self.sink = ExactlyOnceParquetSink(out_dir, sink_name)
        self.watermark_s = NEG

    def _span(self) -> tuple:
        """The window arguments of this driver's actors and routers."""
        if self.session_gap_s is not None:
            return (self.session_gap_s,)
        return (self.size_s, self.hop_s)

    def _ensure_actors(self):
        if self.actors is None:
            session = self.session_gap_s is not None
            self.actors = [
                SketchPartition.remote(p, self.kind, self._span()[0], session,
                                       *self.kind_args)
                for p in range(self.n_partitions)
            ]

    def _driver_state(self) -> dict:
        return {"watermark_s": self.watermark_s,
                "committed": self.sink.committed_epochs()}

    def _load_driver_state(self, state: dict) -> None:
        self.watermark_s = int(state["watermark_s"])

    def _router(self):
        return globals()[self.routers[self.session_gap_s is not None]](
            self.actors, self.n_partitions, self.key, self.value, self.ts_col,
            *self._span(), self.watermark_s, *self.router_args,
        )

    def _advance(self, em: dict, book) -> None:
        if em["max_ts_us"] >= 0:
            self.watermark_s = max(
                self.watermark_s, em["max_ts_us"] // 1_000_000 - self.lateness_s
            )

    def _emit(self, epoch: int, watermark_s: int):
        start = "window_start_s" if self.session_gap_s is None else "session_start_us"
        self._commit_closed(
            epoch, "close_windows", watermark_s, sort_by=["key", start, *self.sort_extra],
        )


class HllRouter(_WindowRouter):
    """Per-batch per-(key, window) HLL register partials via ONE flat
    scatter-max across all groups (4 KiB per (key, window, batch))."""

    def _groups(self, gid, vals, key_win) -> pa.Table:
        ucomp, codes = np.unique(gid, return_inverse=True)
        regs = np.zeros(len(ucomp) * _M, dtype=np.uint8)
        idx, rho = _rho_and_idx(vals)
        np.maximum.at(regs, codes.astype(np.int64) * _M + idx, rho)
        gk, gw = key_win(ucomp)
        return pa.table(
            {
                "key": pa.array(gk.tolist(), pa.string()),
                "window_start_s": pa.array(gw, pa.int64()),
                "regs": pa.array(
                    [regs[i * _M : (i + 1) * _M].tobytes() for i in range(len(ucomp))],
                    pa.binary(),
                ),
            }
        )


# -- HLL session windows -------------------------------------------------------


class HllSessionRouter(_SessionRouter):
    """Session-window register partials: one flat scatter-max register
    partial per within-batch session fragment."""

    def _fragments(self, seg, starts, vals, frags) -> pa.Table:
        regs = np.zeros(starts.size * _M, dtype=np.uint8)
        ridx, rho = _rho_and_idx(vals)
        np.maximum.at(regs, seg * _M + ridx, rho)
        blobs = [regs[i * _M : (i + 1) * _M].tobytes() for i in range(starts.size)]
        return pa.table({**_frag_columns(frags), "regs": pa.array(blobs, pa.binary())})


class HllStreamDriver(_SketchDriver):
    """Epoch loop for streaming windowed approximate distinct counts of
    ``value`` per ``key``: register partials → max-merge state →
    estimates when the watermark closes a window (tumbling, hopping or
    session)."""

    kind = "hll"
    routers = ("HllRouter", "HllSessionRouter")

    def __init__(self, input_dir: str, out_dir: str, *, value: str = "user_id", **kw):
        super().__init__(input_dir, out_dir, "distinct", value=value, **kw)


# -- fixture ------------------------------------------------------------------


def events_stream_fixture(
    sf_dir: str,
    n_epochs: int = 4,
    root: str = "/tmp/raystat_fixtures",
) -> str:
    """Materialize the events table as an arrival-partitioned stream
    ``(event_type, ts_us, user_id)`` for the sketch driver: arrival
    epoch = event-time quantile, with the deterministic 5% late subset
    (event_id % 20 == 0) arriving one epoch behind.  Cached per
    sf_dir; returns the fixture dir."""
    tag = sf_dir.strip("/").replace("/", "_")
    out = os.path.join(root, f"events_str_{tag}_e{n_epochs}")
    done = os.path.join(out, "_fixture.json")
    params = {"sf_dir": sf_dir, "n_epochs": n_epochs, "v": 2}
    if os.path.exists(done):
        try:
            with open(done) as f:
                if json.load(f) == params:
                    return out
        except Exception:
            pass
    import shutil

    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(tmp)
    t = pq.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    eid = t["event_id"].to_numpy(zero_copy_only=False)
    ts_us = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
    n = len(eid)
    order = np.argsort(ts_us, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    epoch = np.minimum((rank * n_epochs) // max(n, 1), n_epochs - 1)
    epoch = np.minimum(epoch + ((eid % 20) == 0), n_epochs - 1)
    tbl = pa.table(
        {
            "event_type": t["event_type"],
            "ts_us": pa.array(ts_us, pa.int64()),
            "user_id": t["user_id"],
            "value": t["value"].cast(pa.float64()),
        }
    )
    for e in range(n_epochs):
        d = os.path.join(tmp, f"arrival={e}")
        os.makedirs(d)
        pq.write_table(
            tbl.filter(pa.array(epoch == e)), os.path.join(d, "part-0.parquet")
        )
    with open(os.path.join(tmp, "_fixture.json"), "w") as f:
        json.dump(params, f)
    os.replace(tmp, out)
    return out


# -- KLL windowed quantiles ----------------------------------------------------


class KllRouter(_WindowRouter):
    """Per-batch per-(key, window) KLL partial sketches (one blob per
    group — O(k log(rows/k)) bytes on the wire regardless of batch
    size).  Group RENUMBERING only — each group still sees the same
    values in the same stable order, so blobs are bit-identical."""

    def __init__(self, actors: list, n_partitions: int, key: str, value: str,
                 ts_col: str, window_size_s: int, hop_s: int, watermark_s: int,
                 k: int):
        super().__init__(actors, n_partitions, key, value, ts_col, window_size_s,
                         hop_s, watermark_s)
        self.k = int(k)

    def _groups(self, gid, vals, key_win) -> pa.Table:
        ucomp, codes = np.unique(gid, return_inverse=True)
        order = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
        ends = np.append(starts[1:], order.size)
        sv = vals.astype(np.float64)[order]
        gk, gw = key_win(ucomp)
        return pa.table(
            {
                "key": pa.array(gk.tolist(), pa.string()),
                "window_start_s": pa.array(gw, pa.int64()),
                "sk": pa.array(
                    [KLL(self.k).add(sv[s:e]).to_bytes() for s, e in zip(starts, ends)],
                    pa.binary(),
                ),
            }
        )


# -- KLL session windows --------------------------------------------------------


class KllSessionRouter(_SessionRouter):
    """Session-window quantile partials: one KLL sketch per within-batch
    session fragment."""

    def __init__(self, actors: list, n_partitions: int, key: str, value: str,
                 ts_col: str, gap_s: int, watermark_s: int, k: int):
        super().__init__(actors, n_partitions, key, value, ts_col, gap_s, watermark_s)
        self.k = int(k)

    def _fragments(self, seg, starts, vals, frags) -> pa.Table:
        v = vals.astype(np.float64)
        ends = np.append(starts[1:], v.size)
        blobs = [KLL(self.k).add(v[s:e]).to_bytes() for s, e in zip(starts, ends)]
        return pa.table({**_frag_columns(frags), "sk": pa.array(blobs, pa.binary())})


class KllStreamDriver(_SketchDriver):
    """Epoch loop for streaming windowed approximate quantiles of a
    CONTINUOUS column — the sixth stateful stream kind.  Per-(key,
    window) KLL sketches hold O(k log(n/k)) state regardless of row
    count (the property an exact windowed histogram loses on unbounded
    value domains); windows close when the watermark passes their end
    and their quantile estimates ``names`` (at ``qs``) commit
    exactly-once."""

    kind = "kll"
    routers = ("KllRouter", "KllSessionRouter")

    def __init__(self, input_dir: str, out_dir: str, *, value: str = "value",
                 qs: tuple = (0.5, 0.9), names: tuple = ("p50", "p90"),
                 k: int = 200, **kw):
        super().__init__(input_dir, out_dir, "quantiles", value=value, **kw)
        self.kind_args = (int(k), tuple(qs), tuple(names))
        self.router_args = (int(k),)


# -- Misra-Gries heavy hitters -------------------------------------------------


class MgRouter(_WindowRouter):
    """Per-batch exact (key, window, item) counts via ONE composite
    np.unique + bincount (the combiner — wire volume is distinct tuples
    per batch, not rows); overflow-safe since the group id < keys x
    windows and the item code < batch rows."""

    def _groups(self, gid, vals, key_win) -> pa.Table:
        uit, icode = np.unique(vals, return_inverse=True)
        ucomp, codes = np.unique(gid * len(uit) + icode, return_inverse=True)
        gk, gw = key_win(ucomp // len(uit))
        return pa.table(
            {
                "key": pa.array(gk.tolist(), pa.string()),
                "window_start_s": pa.array(gw, pa.int64()),
                "item": pa.array(uit[ucomp % len(uit)].astype(np.int64), pa.int64()),
                "n": pa.array(np.bincount(codes).astype(np.int64), pa.int64()),
            }
        )


# -- Misra-Gries session windows -------------------------------------------


class MgSessionRouter(_SessionRouter):
    """Session-window heavy-hitter partials: exact per-(fragment, item)
    counts via one factorize + bincount."""

    def _fragments(self, seg, starts, vals, frags) -> pa.Table:
        fcodes, funiq = pd.factorize(pd.MultiIndex.from_arrays([seg, vals]))
        fseg = funiq.get_level_values(0).to_numpy().astype(np.int64)
        return pa.table(
            {
                **_frag_columns(frags, fseg),
                "item": pa.array(
                    funiq.get_level_values(1).to_numpy().astype(np.int64), pa.int64()
                ),
                "n": pa.array(np.bincount(fcodes).astype(np.int64), pa.int64()),
            }
        )


class MgStreamDriver(_SketchDriver):
    """Epoch loop for streaming windowed heavy hitters: exact per-batch
    count partials of ``item`` -> MG-bounded actor state (``capacity``)
    -> top-``top`` emission when the watermark closes a window,
    exactly-once per epoch."""

    kind = "mg"
    routers = ("MgRouter", "MgSessionRouter")
    sort_extra = ("rank",)

    def __init__(self, input_dir: str, out_dir: str, *, item: str = "user_id",
                 capacity: int = 4096, top: int = 10, **kw):
        super().__init__(input_dir, out_dir, "topk", value=item, **kw)
        self.kind_args = (int(capacity), int(top))


# -- Count-Min windowed frequency estimates ---------------------------------


class CmsRouter(_WindowRouter):
    """Per-batch partials with a FIXED-SIZE wire: ONE dense 256 KiB
    Count-Min partial per (key, covering window) — a single flat
    bincount across all groups — plus exact count rows for the tiny
    probe set, in one table.  Wire volume is keys x windows x batches x
    256 KiB + probe rows, INDEPENDENT of item cardinality — the
    property the sparse (key, window, item, n) partial shape (MgRouter)
    loses when items are near-distinct per batch (measured: 20M rows /
    100k-item domain routed 10.3M sparse rows through the actors; the
    dense wire ships ~2.5k blobs for the same stream)."""

    def __init__(self, actors: list, n_partitions: int, key: str, item: str,
                 ts_col: str, window_size_s: int, hop_s: int,
                 watermark_s: int, probe_mod: int):
        super().__init__(actors, n_partitions, key, item, ts_col, window_size_s,
                         hop_s, watermark_s)
        self.probe_mod = int(probe_mod)

    def _groups(self, gid, vals, key_win) -> pa.Table:
        ucomp, codes = np.unique(gid, return_inverse=True)
        G = len(ucomp)
        DW = CMS_DEPTH * CMS_WIDTH
        items = vals.astype(np.int64)
        # hash each DISTINCT item once (items repeat heavily in a
        # batch; the dictionary trick tokenize uses)
        uit, inv = np.unique(items, return_inverse=True)
        idx = _cms_flat_idx(uit)[:, inv]  # (DEPTH, n)
        flat = (codes[None, :].astype(np.int64) * DW + idx).ravel()
        counts = np.bincount(flat, minlength=G * DW).astype(np.int64)
        gk, gw = key_win(ucomp)
        tbl = pa.table(
            {
                "key": pa.array(gk.tolist(), pa.string()),
                "window_start_s": pa.array(gw, pa.int64()),
                "item": pa.array(np.zeros(G, dtype=np.int64)),
                "n": pa.array(np.bincount(codes, minlength=G).astype(np.int64)),
                "cms": pa.array(
                    [counts[g * DW:(g + 1) * DW].tobytes() for g in range(G)],
                    pa.binary(),
                ),
            }
        )
        pm = items % self.probe_mod == 0
        if not pm.any():
            return tbl
        # distinct (group, item) probe counts: one lexsort + segment
        # boundaries (no pandas factorize)
        pcode, pit = codes[pm], items[pm]
        order = np.lexsort((pit, pcode))
        pc_, pi_ = pcode[order], pit[order]
        brk = np.ones(pc_.size, dtype=bool)
        brk[1:] = (pc_[1:] != pc_[:-1]) | (pi_[1:] != pi_[:-1])
        starts = np.flatnonzero(brk)
        pn = np.diff(np.append(starts, pc_.size)).astype(np.int64)
        pk, pw = key_win(ucomp[pc_[starts]])
        probe = pa.table(
            {
                "key": pa.array(pk.tolist(), pa.string()),
                "window_start_s": pa.array(pw, pa.int64()),
                "item": pa.array(pi_[starts]),
                "n": pa.array(pn),
                "cms": pa.array([None] * len(pn), pa.binary()),
            }
        )
        return pa.concat_tables([tbl, probe])


class CmsStreamDriver(_SketchDriver):
    """Epoch loop for streaming windowed frequency estimates of
    ``item``: dense per-batch Count-Min partials -> fixed-size counter
    state per (key, window) -> gated probe-item estimates (items with
    ``item % probe_mod == 0``) when the watermark closes a window,
    exactly-once per epoch.  Tumbling + hopping; sessions are
    deliberately NOT offered for CMS — a dense 256 KiB array per open
    session FRAGMENT would make gap-merges pathological, and
    Misra-Gries (which has session support) is the bounded counter
    whose state merges by sparse integer sum."""

    kind = "cms"
    routers = ("CmsRouter",)
    sort_extra = ("item",)

    def __init__(self, input_dir: str, out_dir: str, *, item: str = "user_id",
                 probe_mod: int = 3, **kw):
        if kw.get("session_gap_s") is not None:
            raise ValueError("CmsStreamDriver has no session windows (use MG)")
        super().__init__(input_dir, out_dir, "cms", value=item, **kw)
        self.router_args = (int(probe_mod),)


# -- Bottom-k windowed sample (coordination-free reservoir) ------------------


def _bottom_k(g_of: np.ndarray, it_of: np.ndarray, k: int):
    """Each group's k smallest (splitmix64(item), item) among distinct
    (group, item) pairs: returns the kept indices, grouped by ascending
    group id, and every pair's hash."""
    hv = splitmix64(it_of.astype(np.uint64))
    order = np.lexsort((it_of, hv, g_of))
    return order[_rank(g_of[order]) < k], hv


class BottomKRouter(_WindowRouter):
    """Per-batch distinct (key, window, item) via the composite
    grouping, hash each DISTINCT item once, then keep only each group's
    k smallest (hv, item) — the wire is at most k x groups per batch."""

    def __init__(self, actors: list, n_partitions: int, key: str, item: str,
                 ts_col: str, window_size_s: int, hop_s: int,
                 watermark_s: int, k: int):
        super().__init__(actors, n_partitions, key, item, ts_col, window_size_s,
                         hop_s, watermark_s)
        self.k = int(k)

    def _groups(self, gid, vals, key_win) -> pa.Table:
        uit, icode = np.unique(vals, return_inverse=True)
        ucomp = np.unique(gid * len(uit) + icode)  # distinct (group, item)
        g_of = ucomp // len(uit)
        it_of = uit[ucomp % len(uit)].astype(np.int64)
        keep, hv = _bottom_k(g_of, it_of, self.k)
        gk, gw = key_win(g_of[keep])
        return pa.table(
            {
                "key": pa.array(gk.tolist(), pa.string()),
                "window_start_s": pa.array(gw, pa.int64()),
                "item": pa.array(it_of[keep]),
                "hv": pa.array(hv[keep], pa.uint64()),
            }
        )


# -- Bottom-k session windows -------------------------------------------------


def _bk_unpack(col) -> tuple:
    """Unpack a column of :func:`_bk_pack` blobs (m hashes, then the m
    items): the pairs per blob, then every pair's hash and item."""
    flat = _blob_values(col, np.uint64)
    m = pc.binary_length(col).to_numpy() // 16
    at = np.repeat(np.cumsum(2 * m) - 2 * m, m) + _rank(np.repeat(np.arange(m.size), m))
    return m, flat[at], flat[at + np.repeat(m, m)].view(np.int64)


def _bk_pack(hv, items) -> bytes:
    return np.concatenate(
        [np.asarray(hv, dtype=np.uint64),
         np.asarray(items, dtype=np.int64).view(np.uint64)]
    ).tobytes()


class BottomKSessionRouter(_SessionRouter):
    """Session-fragment partials: each within-batch fragment carries the
    bottom-k of its DISTINCT items, packed as one blob."""

    def __init__(self, actors: list, n_partitions: int, key: str, item: str,
                 ts_col: str, gap_s: int, watermark_s: int, k: int):
        super().__init__(actors, n_partitions, key, item, ts_col, gap_s, watermark_s)
        self.k = int(k)

    def _fragments(self, seg, starts, vals, frags) -> pa.Table:
        uit, icode = np.unique(vals.astype(np.int64), return_inverse=True)
        ucomp = np.unique(seg * len(uit) + icode)  # distinct (fragment, item)
        g_of = ucomp // len(uit)
        it_of = uit[ucomp % len(uit)].astype(np.int64)
        keep, hv = _bottom_k(g_of, it_of, self.k)
        # every fragment keeps >= 1 pair, as one run of ``keep``
        cuts = np.append(np.flatnonzero(np.diff(g_of[keep], prepend=-1)), keep.size)
        hk, ik = hv[keep], it_of[keep]
        blobs = [_bk_pack(hk[a:b], ik[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        return pa.table({**_frag_columns(frags), "bk": pa.array(blobs, pa.binary())})


class BottomKStreamDriver(_SketchDriver):
    """Epoch loop for streaming windowed deterministic samples of
    ``item``: k x groups-per-batch bottom-k partials -> O(k)-per-window
    min-union state (idempotent) -> exact bottom-k emission when the
    watermark closes a window, exactly-once per epoch.  Tumbling,
    hopping and session windows."""

    kind = "bottomk"
    routers = ("BottomKRouter", "BottomKSessionRouter")
    sort_extra = ("rank",)

    def __init__(self, input_dir: str, out_dir: str, *, item: str = "user_id",
                 k: int = 5, **kw):
        super().__init__(input_dir, out_dir, "bottomk", value=item, **kw)
        self.kind_args = self.router_args = (int(k),)
