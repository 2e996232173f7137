"""STREAMING windowed sketches: approximate distinct counts (HyperLogLog),
quantiles (KLL), heavy hitters (Misra-Gries), frequency estimates
(Count-Min) and deterministic samples (bottom-k) per key, over
tumbling, hopping or session windows, through the engine's
epoch/watermark/checkpoint conventions.

Dataflow per epoch: one stage of read tasks computes per-batch
partial sketches per (key, window) or per session fragment — the
kind's router — and returns them as data; the driver then routes the
epoch's partials to their owning partitions by key hash, one ingest
per state host (rows never shuffle).  Every driver is a
``_SketchDriver`` on the shared ``EpochDriverBase`` loop.

Routers: a kind writes one ``_groups(gid, vals, cols)``, the sketch of
each group's values, and runs it in two window frames,
``_WindowRouter`` (tumbling and hopping) and ``_SessionRouter`` (a
session router is the session frame over the kind's window router),
both kernels under the one router frame, ``state.Router``.  The window
frames are the moment stage's (``driver._moment_stage``) and the
passthrough's: one late rule (``state.late_rows``), one covering-window
expansion (``state.covering_windows``) and one session split
(``state.session_split``).  The epoch loop, the watermark, the close
and the commit are ``EpochDriverBase``'s: a sketch driver names its
kind, its routers and its sink.

State: every kind runs in ``state.KeyedPartition``, the one keyed
partition class (shared with every other stream kind), inside the
shared ``state.PartitionHost`` actors.  A sketch kind is a
``state.GroupKind``: its partition's open groups are one Arrow table —
the group columns (``key, window_start_s`` or ``key,
session_start_us, session_end_us``) plus the kind's payload columns —
run through the lifecycle of the reference's UDAF (initialize,
aggregate, merge, map; PAPER.md §0): ingest buffers partials; the lazy
merge gives each row its group id (for sessions, one gap-rule sweep
over old and new fragments) and calls the kind's vectorized
``merge_groups``; ``close`` retires the groups the watermark passed
and maps them to output rows with the kind's ``finish``;
``snapshot``/``restore`` write and read the table as one parquet file.
So a sketch kind is only its payload columns, a group merge and a
finish:

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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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
from raystat.streaming.epochs import EpochDriverBase, events_fixture
from raystat.streaming.state import (
    GroupKind, Router, covering_windows, event_book, key_partition, late_rows,
    session_split,
)

__all__ = [
    "HllStreamDriver", "MgStreamDriver", "KllStreamDriver",
    "CmsStreamDriver", "BottomKStreamDriver", "events_stream_fixture",
]

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


# -- sketch kinds ------------------------------------------------------------------


class _Hll(GroupKind):
    """HyperLogLog registers (one M-byte row per group): merge is ONE
    stable sort + ``np.maximum.reduceat`` over the stacked register
    matrix; finish is the estimate."""

    payload = {"regs": pa.binary()}

    def merge_groups(self, state, new, gid):
        regs = np.concatenate([_blob_values(t["regs"], np.uint8) for t in (state, new)])
        order, first = _runs(gid)
        merged = np.maximum.reduceat(regs.reshape(-1, _M)[order], first, axis=0)
        return gid[order][first], {"regs": _blob_column(merged)}

    def finish(self, closed, gid):
        regs = _blob_values(closed["regs"], np.uint8).reshape(-1, _M)
        est = [hll_estimate(r) for r in regs]
        return pa.table({**self._group_columns(closed),
                         "approx_distinct": pa.array(est, pa.float64())})


class _Kll(GroupKind):
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

    def __init__(self, span_s: int, session: bool, k: int, qs: tuple, names: tuple):
        self.payload = {"sk": pa.binary()}
        if not session:
            self.payload["parity"] = pa.int64()
        super().__init__(span_s, session, ["sk"])
        self.k, self.qs, self.names = int(k), tuple(qs), tuple(names)

    def merge_groups(self, state, new, gid):
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


class _Mg(GroupKind):
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

    def __init__(self, span_s: int, session: bool, capacity: int, top: int):
        super().__init__(span_s, session)
        self.capacity, self.top = int(capacity), int(top)
        self.metrics["prunes"] = 0

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

    def merge_groups(self, state, new, gid):
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


class _Cms(GroupKind):
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

    def merge_groups(self, state, new, gid):
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


class _BottomK(GroupKind):
    """Deterministic bottom-k samples: per group the k DISTINCT items
    with the smallest ``splitmix64(item)`` (ties by item), as
    (item, hv) rows — the coordination-free reservoir.  Merge is a
    k-truncated min-union with (hv, item) dedup (one lexsort, a dedup
    and a take of the first k per group): ASSOCIATIVE, COMMUTATIVE and
    IDEMPOTENT like the HLL max, so replayed, reordered or overlapping
    partials can never change the sample, and the streamed sample is
    exactly the batch bottom-k over the same rows.  Session fragments
    arrive packed, one ``bk`` blob per fragment (``BottomKSessionRouter``).  Finish
    ranks each closed group's sample."""

    payload = {"item": pa.int64(), "hv": pa.uint64()}

    def __init__(self, span_s: int, session: bool, k: int):
        super().__init__(span_s, session, ["bk"] if session else None)
        self.k = int(k)

    def merge_groups(self, state, new, gid):
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


class _KeyedRouter(Router):
    """The kernel of every sketch router, in the ``state.Router``
    frame: reads event time from ``ts_col``, pairs the batch's rows
    with their groups (``_pairs``: :class:`_WindowRouter` or
    :class:`_SessionRouter`, late rows dropped and counted by
    ``state.late_rows``), and hands the kind's ``_groups`` each pair's
    group id, the pairs' values (row order within a group) and
    ``cols``, which maps group ids to the group columns.  Each partial
    row is owned by its key's hash partition; the batch key is the
    smallest event ts.  A kind's own arguments come last, by keyword:
    ``k`` (KLL, bottom-k) and ``probe_mod`` (CMS), each ignored by the
    other kinds."""

    def _setup(self, actors: list, n_partitions: int, key: str, value: str, ts_col: str,
               watermark_s: int, k: int, probe_mod: int) -> None:
        super().__init__(actors, n_partitions)
        self.key, self.value, self.ts_col = key, value, ts_col
        self.wm = int(watermark_s)
        self.k, self.probe_mod = int(k), int(probe_mod)

    def partial_fn(self, batch: pa.Table):
        ts_us = batch[self.ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        row_of, gid, cols, late = self._pairs(batch, ts_us)
        tbl = None
        if row_of.size:
            vals = batch[self.value].to_numpy(zero_copy_only=False)[row_of]
            tbl = self._groups(gid, vals, cols)
        return tbl, event_book(ts_us, late_dropped=int(late.sum()))

    def partition(self, partial: pa.Table) -> np.ndarray:
        return key_partition(partial["key"], self.P)


class _WindowRouter(_KeyedRouter):
    """Tumbling/hopping frame: each row's open covering windows
    (``state.covering_windows``); a group is a (key, window) pair, its
    id key-dictionary code x window code, all in C (Arrow
    dictionary_encode + np.unique; the pandas MultiIndex factorize this
    replaces costs ~1.8 s/M rows); ``cols`` gives ``key,
    window_start_s``."""

    def __init__(self, actors: list, n_partitions: int, key: str, value: str,
                 ts_col: str, window_size_s: int, hop_s: int, watermark_s: int, *,
                 k: int = 0, probe_mod: int = 1):
        self._setup(actors, n_partitions, key, value, ts_col, watermark_s, k, probe_mod)
        self.size_s, self.hop_s = int(window_size_s), int(hop_s)

    def _pairs(self, batch: pa.Table, ts_us: np.ndarray):
        row_of, win, late = covering_windows(ts_us, self.wm, self.size_s, self.hop_s)
        kcode, kvocab = encode_key(batch[self.key].take(pa.array(row_of)), self.key)
        kdict = kvocab.to_numpy(zero_copy_only=False)
        wu, wcode = np.unique(win, return_inverse=True)

        def cols(g: np.ndarray) -> dict:
            return {"key": pa.array(kdict[g // len(wu)].tolist(), pa.string()),
                    "window_start_s": pa.array(wu[g % len(wu)], pa.int64())}

        return row_of, kcode * len(wu) + wcode, cols, late


class _SessionRouter(_KeyedRouter):
    """Session frame: the kept rows split into session FRAGMENTS per key
    where the gap exceeds ``gap_s`` (``state.session_split``); a group
    is a fragment, its id the fragment's sorted position; ``cols``
    gives ``key, session_start_us, session_end_us``.  A kind's session
    router is this frame over its window router's ``_groups``."""

    def __init__(self, actors: list, n_partitions: int, key: str, value: str,
                 ts_col: str, gap_s: int, watermark_s: int, *,
                 k: int = 0, probe_mod: int = 1):
        self._setup(actors, n_partitions, key, value, ts_col, watermark_s, k, probe_mod)
        self.gap_us = int(gap_s) * 1_000_000

    def _pairs(self, batch: pa.Table, ts_us: np.ndarray):
        late = late_rows(ts_us, self.wm)
        idx = np.flatnonzero(~late)
        if not idx.size:
            return idx, idx, None, late
        codes, kvocab = encode_key(batch[self.key].take(pa.array(idx)), self.key)
        order, seg, starts = session_split(codes, ts_us[idx], self.gap_us)
        row_of = idx[order]
        key_of = kvocab.to_numpy(zero_copy_only=False)[codes[order][starts]]
        start_of = ts_us[row_of[starts]]
        end_of = ts_us[row_of[np.append(starts[1:], row_of.size) - 1]]

        def cols(g: np.ndarray) -> dict:
            return {"key": pa.array(key_of[g].tolist(), pa.string()),
                    "session_start_us": pa.array(start_of[g], pa.int64()),
                    "session_end_us": pa.array(end_of[g], pa.int64())}

        return row_of, seg, cols, late


class _SketchDriver(EpochDriverBase):
    """Constructor shared by the keyed sketch drivers, on the
    ``EpochDriverBase`` contract: read arrival=N → per-batch partials
    (the kind's router) → route + barrier → advance the watermark →
    close ripe windows → exactly-once commit (sorted by key, group
    start, then ``sort_extra``) → checkpoint.  Common keyword arguments:
    ``key="event_type"``, ``ts_col="ts_us"``, ``window_size_s=86400``,
    ``hop_s`` (None: tumbling), ``session_gap_s`` (SESSION windows;
    exclusive with ``hop_s``), ``allowed_lateness_s=3600``,
    ``n_partitions=8``, ``batch_size``.

    A driver names its ``state.KeyedPartition`` kind and its (window,
    session) routers — looked up in this module each time a router is
    built, so callers may swap them — plus the extra arguments its
    partitions (``kind_args``: state and close arguments) and routers
    (``router_kw``) take."""

    kind: type  # the state.GroupKind subclass its partitions run
    routers: tuple = ()  # (window router name, session router name)
    sort_extra: tuple = ()  # output sort columns after key and start
    kind_args: tuple = ()
    router_kw: dict = {}

    def __init__(self, input_dir: str, out_dir: str, *, value: str,
                 key: str = "event_type", ts_col: str = "ts_us",
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
        self.lateness_us = int(allowed_lateness_s) * 1_000_000
        start = "window_start_s" if self.session_gap_s is None else "session_start_us"
        self.sort_by = ["key", start, *self.sort_extra]

    def _partition(self) -> tuple:
        session = self.session_gap_s is not None
        return (self.kind, self.session_gap_s if session else self.size_s, session,
                *self.kind_args)

    def _router(self):
        session = self.session_gap_s is not None
        span = ({"gap_s": self.session_gap_s} if session
                else {"window_size_s": self.size_s, "hop_s": self.hop_s})
        return globals()[self.routers[session]](
            self.actors, self.n_partitions, self.key, self.value, self.ts_col,
            **span, watermark_s=self._watermark(), **self.router_kw,
        )


class HllRouter(_WindowRouter):
    """Per-batch per-(key, window) HLL register partials via ONE flat
    scatter-max across all groups (4 KiB per (key, window, batch))."""

    def _groups(self, gid, vals, cols) -> pa.Table:
        ucomp, codes = np.unique(gid, return_inverse=True)
        regs = np.zeros(len(ucomp) * _M, dtype=np.uint8)
        idx, rho = _rho_and_idx(vals)
        np.maximum.at(regs, codes.astype(np.int64) * _M + idx, rho)
        blobs = [regs[i * _M : (i + 1) * _M].tobytes() for i in range(len(ucomp))]
        return pa.table({**cols(ucomp), "regs": pa.array(blobs, pa.binary())})


class HllSessionRouter(_SessionRouter, HllRouter):
    """Session-window register partials, one per within-batch session
    fragment."""


class HllStreamDriver(_SketchDriver):
    """Epoch loop for streaming windowed approximate distinct counts of
    ``value`` per ``key``: register partials → max-merge state →
    estimates when the watermark closes a window (tumbling, hopping or
    session)."""

    sink_name = "distinct"
    kind = _Hll
    routers = ("HllRouter", "HllSessionRouter")

    def __init__(self, input_dir: str, out_dir: str, *, value: str = "user_id", **kw):
        super().__init__(input_dir, out_dir, value=value, **kw)


# -- fixture ------------------------------------------------------------------


def events_stream_fixture(
    sf_dir: str,
    n_epochs: int = 4,
    root: str = "/tmp/raystat_fixtures",
) -> str:
    """Materialize the events table as an arrival-partitioned stream
    ``(event_type, ts_us, user_id, value)`` for the sketch drivers:
    arrival epoch = event-time quantile, with the deterministic 5% late
    subset (event_id % 20 == 0) arriving one epoch behind
    (``epochs.events_fixture``).  Cached per sf_dir; returns the
    fixture dir."""

    def rows(t: pa.Table, ts_us: np.ndarray):
        return pa.table({
            "event_type": t["event_type"],
            "ts_us": pa.array(ts_us, pa.int64()),
            "user_id": t["user_id"],
            "value": t["value"].cast(pa.float64()),
        }), slice(None)

    return events_fixture(sf_dir, n_epochs, root, "events_str", 2,
                          ["event_id", "ts", "user_id", "event_type", "value"], rows)


# -- KLL windowed quantiles ----------------------------------------------------


class KllRouter(_WindowRouter):
    """Per-batch per-(key, window) KLL partial sketches (one blob per
    group — O(k log(rows/k)) bytes on the wire regardless of batch
    size), each adding its group's values in row order."""

    def _groups(self, gid, vals, cols) -> pa.Table:
        ucomp, codes = np.unique(gid, return_inverse=True)
        order = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
        ends = np.append(starts[1:], order.size)
        sv = vals.astype(np.float64)[order]
        blobs = [KLL(self.k).add(sv[s:e]).to_bytes() for s, e in zip(starts, ends)]
        return pa.table({**cols(ucomp), "sk": pa.array(blobs, pa.binary())})


class KllSessionRouter(_SessionRouter, KllRouter):
    """Session-window quantile partials: one KLL sketch per within-batch
    session fragment."""


class KllStreamDriver(_SketchDriver):
    """Epoch loop for streaming windowed approximate quantiles of a
    CONTINUOUS column — the sixth stateful stream kind.  Per-(key,
    window) KLL sketches hold O(k log(n/k)) state regardless of row
    count (the property an exact windowed histogram loses on unbounded
    value domains); windows close when the watermark passes their end
    and their quantile estimates ``names`` (at ``qs``) commit
    exactly-once."""

    sink_name = "quantiles"
    kind = _Kll
    routers = ("KllRouter", "KllSessionRouter")

    def __init__(self, input_dir: str, out_dir: str, *, value: str = "value",
                 qs: tuple = (0.5, 0.9), names: tuple = ("p50", "p90"),
                 k: int = 200, **kw):
        super().__init__(input_dir, out_dir, value=value, **kw)
        self.kind_args = (int(k), tuple(qs), tuple(names))
        self.router_kw = {"k": int(k)}


# -- Misra-Gries heavy hitters -------------------------------------------------


class MgRouter(_WindowRouter):
    """Per-batch exact (key, window, item) counts via ONE composite
    np.unique + bincount (the combiner — wire volume is distinct tuples
    per batch, not rows); overflow-safe since the group id < keys x
    windows and the item code < batch rows."""

    def _groups(self, gid, vals, cols) -> pa.Table:
        uit, icode = np.unique(vals, return_inverse=True)
        ucomp, codes = np.unique(gid * len(uit) + icode, return_inverse=True)
        return pa.table({
            **cols(ucomp // len(uit)),
            "item": pa.array(uit[ucomp % len(uit)].astype(np.int64), pa.int64()),
            "n": pa.array(np.bincount(codes).astype(np.int64), pa.int64()),
        })


class MgSessionRouter(_SessionRouter, MgRouter):
    """Session-window heavy-hitter partials: exact per-(fragment, item)
    counts."""


class MgStreamDriver(_SketchDriver):
    """Epoch loop for streaming windowed heavy hitters: exact per-batch
    count partials of ``item`` -> MG-bounded actor state (``capacity``)
    -> top-``top`` emission when the watermark closes a window,
    exactly-once per epoch."""

    sink_name = "topk"
    kind = _Mg
    routers = ("MgRouter", "MgSessionRouter")
    sort_extra = ("rank",)

    def __init__(self, input_dir: str, out_dir: str, *, item: str = "user_id",
                 capacity: int = 4096, top: int = 10, **kw):
        super().__init__(input_dir, out_dir, value=item, **kw)
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

    def _groups(self, gid, vals, cols) -> pa.Table:
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
        tbl = pa.table(
            {
                **cols(ucomp),
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
        probe = pa.table(
            {
                **cols(ucomp[pc_[starts]]),
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

    sink_name = "cms"
    kind = _Cms
    routers = ("CmsRouter",)
    sort_extra = ("item",)

    def __init__(self, input_dir: str, out_dir: str, *, item: str = "user_id",
                 probe_mod: int = 3, **kw):
        if kw.get("session_gap_s") is not None:
            raise ValueError("CmsStreamDriver has no session windows (use MG)")
        super().__init__(input_dir, out_dir, value=item, **kw)
        self.router_kw = {"probe_mod": int(probe_mod)}


# -- Bottom-k windowed sample (coordination-free reservoir) ------------------


class BottomKRouter(_WindowRouter):
    """Per-batch distinct (key, window, item) via the composite
    grouping, hash each DISTINCT item once, then keep only each group's
    k smallest (hv, item) — the wire is at most k x groups per batch."""

    def _sample(self, gid, vals):
        """Each group's k smallest (splitmix64(item), item) among its
        distinct items: (group, item, hash) arrays, by ascending group."""
        uit, icode = np.unique(vals, return_inverse=True)
        ucomp = np.unique(gid * len(uit) + icode)  # distinct (group, item)
        g_of = ucomp // len(uit)
        it_of = uit[ucomp % len(uit)].astype(np.int64)
        hv = splitmix64(it_of.astype(np.uint64))
        order = np.lexsort((it_of, hv, g_of))
        keep = order[_rank(g_of[order]) < self.k]
        return g_of[keep], it_of[keep], hv[keep]

    def _groups(self, gid, vals, cols) -> pa.Table:
        g, item, hv = self._sample(gid, vals)
        return pa.table({**cols(g), "item": pa.array(item), "hv": pa.array(hv, pa.uint64())})


def _bk_unpack(col) -> tuple:
    """Unpack a column of :class:`BottomKSessionRouter` blobs (m hashes,
    then the m items): the pairs per blob, then every pair's hash and
    item."""
    flat = _blob_values(col, np.uint64)
    m = pc.binary_length(col).to_numpy() // 16
    at = np.repeat(np.cumsum(2 * m) - 2 * m, m) + _rank(np.repeat(np.arange(m.size), m))
    return m, flat[at], flat[at + np.repeat(m, m)].view(np.int64)


class BottomKSessionRouter(_SessionRouter, BottomKRouter):
    """Session-fragment partials: each within-batch fragment carries the
    bottom-k of its DISTINCT items, packed as one ``bk`` blob (the
    hashes, then the items)."""

    def _groups(self, gid, vals, cols) -> pa.Table:
        g, item, hv = self._sample(gid, vals.astype(np.int64))
        # every fragment keeps >= 1 pair, as one run of ``g``
        cuts = np.append(np.flatnonzero(np.diff(g, prepend=-1)), g.size)
        blobs = [np.concatenate([hv[a:b], item[a:b].view(np.uint64)]).tobytes()
                 for a, b in zip(cuts[:-1], cuts[1:])]
        return pa.table({**cols(g[cuts[:-1]]), "bk": pa.array(blobs, pa.binary())})


class BottomKStreamDriver(_SketchDriver):
    """Epoch loop for streaming windowed deterministic samples of
    ``item``: k x groups-per-batch bottom-k partials -> O(k)-per-window
    min-union state (idempotent) -> exact bottom-k emission when the
    watermark closes a window, exactly-once per epoch.  Tumbling,
    hopping and session windows."""

    sink_name = "bottomk"
    kind = _BottomK
    routers = ("BottomKRouter", "BottomKSessionRouter")
    sort_extra = ("rank",)

    def __init__(self, input_dir: str, out_dir: str, *, item: str = "user_id",
                 k: int = 5, **kw):
        super().__init__(input_dir, out_dir, value=item, **kw)
        self.kind_args = (int(k),)
        self.router_kw = {"k": int(k)}
