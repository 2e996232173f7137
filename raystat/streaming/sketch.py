"""STREAMING windowed approximate COUNT DISTINCT — HyperLogLog
register state through the engine's epoch/watermark/checkpoint
conventions.  The third state kind in the streaming layer, after the
sum-mergeable moment state (``state.py``) and the interval-join row
buffers (``interval.py``): HLL registers merge by ELEMENT-WISE MAX,
which is associative, commutative and idempotent — so replayed or
reordered partials can never over-count, and the streamed estimate
for a window is exactly the batch estimate over the same rows
(identical registers), regardless of arrival order.

Dataflow per epoch: one map_batches stage, fused with the read,
computes per-batch (key, window, registers) partials — a single flat
``np.maximum.at`` scatter across all groups in the batch — and returns
them as data; the driver then routes the epoch's partials to their
owning state actors by key hash, one ingest per actor (4 KiB per
(key, window, batch): the only cross-machine traffic; rows never
shuffle).  Actors max-merge lazily at epoch end with one lexsort +
``np.maximum.reduceat`` over the stacked register matrix; windows
close when the watermark passes ``window_start + size`` and their
estimates commit exactly-once.

State per partition is O(open windows x keys) fixed-size registers —
row-count independent, the property that makes this the scale path
for distinct counts over unbounded streams where the exact
local-dedup combiner (dataops/sketches.grouped_exact_distinct) would
hold the whole distinct set.

The KLL quantile, Misra-Gries heavy-hitter, Count-Min and bottom-k
sample kinds below run the same way: every router is a
``_WindowRouter`` or ``_SessionRouter`` and every driver a
``_SketchDriver`` on the shared ``EpochDriverBase`` loop.
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
    cms_estimate,
    hll_estimate,
    mg_merge,
)
from raystat.streaming.epochs import END, NEG, EpochDriverBase
from raystat.streaming.sink import ExactlyOnceParquetSink
from raystat.streaming.state import (
    PendingIngest,
    key_partition,
    partial_row,
    write_parquet_atomic,
)

__all__ = [
    "HllStreamDriver", "MgStreamDriver", "KllStreamDriver",
    "CmsStreamDriver", "BottomKStreamDriver", "events_stream_fixture",
]


@ray.remote(num_cpus=0)
class HllStatePartition(PendingIngest):
    """Register state for one key-hash partition: (key, window_start_s)
    -> one M-byte register row.  ``ingest`` appends; the max-merge
    happens lazily at epoch end as ONE lexsort + reduceat over the
    stacked (pending + live) register matrix."""

    def __init__(self, pid: int, window_size_s: int):
        self.pid = pid
        self.size_s = int(window_size_s)
        self.pending: list[pa.Table] = []
        self.keys: pd.DataFrame | None = None  # (key, window_start_s)
        self.regs: np.ndarray | None = None  # (n_groups, M) uint8
        self.metrics = {"partial_rows_in": 0, "ingests": 0, "windows_closed": 0}

    def _consolidate(self) -> None:
        if not self.pending:
            return
        new = pa.concat_tables(self.pending)
        self.pending = []
        nk = new["key"].to_numpy(zero_copy_only=False)
        nw = new["window_start_s"].to_numpy(zero_copy_only=False).astype(np.int64)
        nr = np.frombuffer(
            b"".join(new["regs"].to_pylist()), dtype=np.uint8
        ).reshape(-1, _M)
        if self.keys is not None and len(self.keys):
            nk = np.concatenate([self.keys["key"].to_numpy(), nk])
            nw = np.concatenate([self.keys["window_start_s"].to_numpy(), nw])
            nr = np.vstack([self.regs, nr])
        codes, uniq = pd.factorize(
            pd.MultiIndex.from_arrays([nk, nw]), sort=False
        )
        order = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
        merged = np.maximum.reduceat(nr[order], starts, axis=0)
        self.keys = pd.DataFrame(
            {"key": uniq.get_level_values(0), "window_start_s": uniq.get_level_values(1).astype(np.int64)}
        )
        self.regs = merged

    def close_windows(self, watermark_s) -> pa.Table:
        """Estimate + retire every window with start + size <= wm."""
        self._consolidate()
        if self.keys is None or not len(self.keys):
            return pa.table(
                {"key": pa.array([], pa.string()),
                 "window_start_s": pa.array([], pa.int64()),
                 "approx_distinct": pa.array([], pa.float64())}
            )
        ws = self.keys["window_start_s"].to_numpy()
        close = ws + self.size_s <= watermark_s
        out_keys = self.keys[close]
        est = [hll_estimate(r) for r in self.regs[close]]
        self.metrics["windows_closed"] += int(close.sum())
        self.keys = self.keys[~close].reset_index(drop=True)
        self.regs = self.regs[~close]
        return pa.table(
            {
                "key": pa.array(out_keys["key"].tolist(), pa.string()),
                "window_start_s": pa.array(
                    out_keys["window_start_s"].to_numpy(), pa.int64()
                ),
                "approx_distinct": pa.array(est, pa.float64()),
            }
        )

    def get_metrics(self) -> dict:
        return {"partition": self.pid, **self.metrics}

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"hll-p{self.pid:04d}.parquet")
        if self.keys is None or not len(self.keys):
            t = pa.table(
                {"key": pa.array([], pa.string()),
                 "window_start_s": pa.array([], pa.int64()),
                 "regs": pa.array([], pa.binary())}
            )
        else:
            t = pa.table(
                {
                    "key": pa.array(self.keys["key"].tolist(), pa.string()),
                    "window_start_s": pa.array(
                        self.keys["window_start_s"].to_numpy(), pa.int64()
                    ),
                    "regs": pa.array(
                        [r.tobytes() for r in self.regs], pa.binary()
                    ),
                }
            )
        write_parquet_atomic(t, path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        path = os.path.join(ckpt_dir, f"hll-p{self.pid:04d}.parquet")
        self.pending = []
        self.keys = None
        self.regs = None
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            self.keys = pd.DataFrame(
                {
                    "key": t["key"].to_pylist(),
                    "window_start_s": t["window_start_s"].to_numpy().astype(np.int64),
                }
            )
            self.regs = np.frombuffer(
                b"".join(t["regs"].to_pylist()), dtype=np.uint8
            ).reshape(-1, _M).copy()
        return t.num_rows


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
    epoch's partials after the stage, so Ray may retry the stage and
    fuse it with the read.  ``actors`` stays the first constructor
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

    A kind names its (window, session) routers — looked up in this
    module each time a router is built, so callers may swap them — and
    actor classes, plus the extra arguments its actors, routers and
    ``close_windows`` take."""

    routers: tuple = ()  # (window router name, session router name)
    partitions: tuple = ()  # (window actor class, session actor class)
    sort_extra: tuple = ()  # output sort columns after key and start
    # extra trailing arguments of the actors, routers and close_windows
    state_args: tuple = ()
    router_args: tuple = ()
    close_args: tuple = ()

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
            cls = self.partitions[self.session_gap_s is not None]
            self.actors = [
                cls.remote(p, self._span()[0], *self.state_args)
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
            epoch, "close_windows", watermark_s, *self.close_args,
            sort_by=["key", start, *self.sort_extra],
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


@ray.remote(num_cpus=0)
class HllSessionStatePartition(PendingIngest):
    """SESSION-window HLL register state for one key-hash partition:
    open session fragments ``(key, session_start_us, session_end_us)``
    -> one M-byte register row.  ksqlDB's SESSION contract is why
    ``merge()`` exists (overlapping partials must merge); HLL is the
    IDEMPOTENT case of that contract — registers max-merge, so the
    gap-rule interval merge is the moment path's
    SessionStatePartition sweep (factorize keys, lexsort by
    (key, start), grouped end-cummax, cluster breaks where
    ``start - cummax(end) > gap``) with ``np.maximum.reduceat`` over
    the stacked register matrix instead of ``add``."""

    def __init__(self, pid: int, gap_s: int):
        self.pid = pid
        self.gap_us = int(gap_s) * 1_000_000
        self.pending: list[pa.Table] = []
        self.keys: pd.DataFrame | None = None  # key, start_us, end_us
        self.regs: np.ndarray | None = None  # (n_sessions, M) uint8
        self.metrics = {"partial_rows_in": 0, "ingests": 0, "sessions_closed": 0}

    def _consolidate(self) -> None:
        if not self.pending:
            return
        new = pa.concat_tables(self.pending)
        self.pending = []
        nk = new["key"].to_numpy(zero_copy_only=False)
        ns = new["session_start_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        ne = new["session_end_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        nr = np.frombuffer(
            b"".join(new["regs"].to_pylist()), dtype=np.uint8
        ).reshape(-1, _M)
        if self.keys is not None and len(self.keys):
            nk = np.concatenate([self.keys["key"].to_numpy(), nk])
            ns = np.concatenate([self.keys["session_start_us"].to_numpy(), ns])
            ne = np.concatenate([self.keys["session_end_us"].to_numpy(), ne])
            nr = np.vstack([self.regs, nr])
        codes, _ = pd.factorize(nk, sort=False)
        order = np.lexsort((ns, codes))
        c_s, s_s, e_s = codes[order], ns[order], ne[order]
        cm = pd.Series(e_s).groupby(c_s).cummax().to_numpy()
        n = c_s.size
        brk = np.ones(n, dtype=bool)
        brk[1:] = (c_s[1:] != c_s[:-1]) | (s_s[1:] - cm[:-1] > self.gap_us)
        starts = np.flatnonzero(brk)
        last = np.append(starts[1:], n) - 1
        self.keys = pd.DataFrame(
            {
                "key": nk[order][starts],
                "session_start_us": s_s[starts],
                "session_end_us": cm[last].astype(np.int64),
            }
        )
        self.regs = np.maximum.reduceat(nr[order], starts, axis=0)

    def close_windows(self, watermark_s) -> pa.Table:
        """Estimate + retire sessions that can no longer be extended:
        end + gap <= watermark (any admissible future event has
        ts > watermark, so it cannot merge into them)."""
        self._consolidate()
        if self.keys is None or not len(self.keys):
            return pa.table(
                {"key": pa.array([], pa.string()),
                 "session_start_us": pa.array([], pa.int64()),
                 "session_end_us": pa.array([], pa.int64()),
                 "approx_distinct": pa.array([], pa.float64())}
            )
        wm_us = int(max(min(watermark_s * 1_000_000, 2**62), -(2**62)))
        ends = self.keys["session_end_us"].to_numpy()
        close = ends + self.gap_us <= wm_us
        out_keys = self.keys[close]
        est = [hll_estimate(r) for r in self.regs[close]]
        self.metrics["sessions_closed"] += int(close.sum())
        self.keys = self.keys[~close].reset_index(drop=True)
        self.regs = self.regs[~close]
        return pa.table(
            {
                "key": pa.array(out_keys["key"].tolist(), pa.string()),
                "session_start_us": pa.array(
                    out_keys["session_start_us"].to_numpy(), pa.int64()
                ),
                "session_end_us": pa.array(
                    out_keys["session_end_us"].to_numpy(), pa.int64()
                ),
                "approx_distinct": pa.array(est, pa.float64()),
            }
        )

    def get_metrics(self) -> dict:
        self._consolidate()
        return {
            "partition": self.pid,
            "open_sessions": 0 if self.keys is None else int(len(self.keys)),
            **self.metrics,
        }

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"hllsess-p{self.pid:04d}.parquet")
        if self.keys is None or not len(self.keys):
            t = pa.table(
                {"key": pa.array([], pa.string()),
                 "session_start_us": pa.array([], pa.int64()),
                 "session_end_us": pa.array([], pa.int64()),
                 "regs": pa.array([], pa.binary())}
            )
        else:
            t = pa.table(
                {
                    "key": pa.array(self.keys["key"].tolist(), pa.string()),
                    "session_start_us": pa.array(
                        self.keys["session_start_us"].to_numpy(), pa.int64()
                    ),
                    "session_end_us": pa.array(
                        self.keys["session_end_us"].to_numpy(), pa.int64()
                    ),
                    "regs": pa.array(
                        [r.tobytes() for r in self.regs], pa.binary()
                    ),
                }
            )
        write_parquet_atomic(t, path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        """Rebuild state from the snapshot (metrics start fresh)."""
        path = os.path.join(ckpt_dir, f"hllsess-p{self.pid:04d}.parquet")
        self.pending = []
        self.keys = None
        self.regs = None
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            self.keys = pd.DataFrame(
                {
                    "key": t["key"].to_pylist(),
                    "session_start_us": t["session_start_us"].to_numpy().astype(np.int64),
                    "session_end_us": t["session_end_us"].to_numpy().astype(np.int64),
                }
            )
            self.regs = np.frombuffer(
                b"".join(t["regs"].to_pylist()), dtype=np.uint8
            ).reshape(-1, _M).copy()
        return t.num_rows


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

    routers = ("HllRouter", "HllSessionRouter")
    partitions = (HllStatePartition, HllSessionStatePartition)

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


@ray.remote(num_cpus=0)
class KllStatePartition(PendingIngest):
    """Quantile-sketch state for one key-hash partition: per
    (key, window_start_s) one deterministic KLL sketch.  KLL merge is
    mass-conserving but NOT order-commutative (the compaction schedule
    depends on merge order), so consolidation sorts each epoch's
    pending partial blobs CANONICALLY — by (key, window, blob bytes) —
    before merging; with epochs processed in order this makes the
    streamed sketch a deterministic function of the input stream, so
    crash/resume replays reproduce identical estimates and the gated
    booleans are stable for the oracle compare."""

    def __init__(self, pid: int, window_size_s: int, k: int):
        self.pid = pid
        self.size_s = int(window_size_s)
        self.k = int(k)
        self.pending: list[pa.Table] = []
        self.state: dict[tuple, KLL] = {}
        self.metrics = {"partial_rows_in": 0, "ingests": 0, "windows_closed": 0}

    def _consolidate(self) -> None:
        if not self.pending:
            return
        new = pa.concat_tables(self.pending)
        self.pending = []
        rows = sorted(
            zip(
                new["key"].to_pylist(),
                new["window_start_s"].to_pylist(),
                new["sk"].to_pylist(),
            )
        )  # canonical merge order (see class docstring)
        for k, w, blob in rows:
            g = (k, int(w))
            if g in self.state:
                self.state[g].merge(KLL.from_bytes(blob))
            else:
                self.state[g] = KLL.from_bytes(blob)

    def close_windows(self, watermark_s, qs: tuple, names: tuple) -> pa.Table:
        self._consolidate()
        cols: dict[str, list] = {"key": [], "window_start_s": [], "n": []}
        for nm in names:
            cols[nm] = []
        for (k, w) in sorted(self.state):
            if w + self.size_s <= watermark_s:
                sk = self.state.pop((k, w))
                cols["key"].append(k)
                cols["window_start_s"].append(w)
                cols["n"].append(sk.n)
                for q, nm in zip(qs, names):
                    cols[nm].append(sk.quantile(q))
                self.metrics["windows_closed"] += 1
        return pa.table(
            {
                "key": pa.array(cols["key"], pa.string()),
                "window_start_s": pa.array(cols["window_start_s"], pa.int64()),
                "n": pa.array(cols["n"], pa.int64()),
                **{nm: pa.array(cols[nm], pa.float64()) for nm in names},
            }
        )

    def get_metrics(self) -> dict:
        return {"partition": self.pid, **self.metrics,
                "open_windows": len(self.state)}

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"kll-p{self.pid:04d}.parquet")
        keys = sorted(self.state)
        t = pa.table(
            {
                "key": pa.array([k for k, _ in keys], pa.string()),
                "window_start_s": pa.array([w for _, w in keys], pa.int64()),
                "sk": pa.array(
                    [self.state[g].to_bytes() for g in keys], pa.binary()
                ),
            }
        )
        write_parquet_atomic(t, path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        path = os.path.join(ckpt_dir, f"kll-p{self.pid:04d}.parquet")
        self.pending = []
        self.state = {}
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        for k, w, blob in zip(
            t["key"].to_pylist(),
            t["window_start_s"].to_pylist(),
            t["sk"].to_pylist(),
        ):
            self.state[(k, int(w))] = KLL.from_bytes(blob)
        return t.num_rows


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


@ray.remote(num_cpus=0)
class KllSessionStatePartition(PendingIngest):
    """SESSION-window KLL quantile state for one key-hash partition:
    open session fragments (key, session_start_us, session_end_us) ->
    one KLL sketch.  Unlike HLL (idempotent max-merge), KLL merges are
    mass-conserving over DISJOINT fragments — session fragments are
    disjoint event subsets by construction, so the gap-rule interval
    merge is sound; determinism comes from the CANONICAL fragment
    order (key, start, end, blob bytes) before merging, the same
    contract KllStatePartition._consolidate uses, so crash/resume
    replays reproduce identical estimates."""

    def __init__(self, pid: int, gap_s: int, k: int):
        self.pid = pid
        self.gap_us = int(gap_s) * 1_000_000
        self.k = int(k)
        self.pending: list[pa.Table] = []
        # aligned open-session state: row i of keys <-> sks[i]
        self.keys: pd.DataFrame | None = None
        self.sks: list[KLL] = []
        self.metrics = {"partial_rows_in": 0, "ingests": 0, "sessions_closed": 0}

    def _consolidate(self) -> None:
        if not self.pending:
            return
        new = pa.concat_tables(self.pending)
        self.pending = []
        frags = list(
            zip(
                new["key"].to_pylist(),
                (int(x) for x in new["session_start_us"].to_pylist()),
                (int(x) for x in new["session_end_us"].to_pylist()),
                new["sk"].to_pylist(),
            )
        )
        if self.keys is not None and len(self.keys):
            frags.extend(
                zip(
                    self.keys["key"].tolist(),
                    (int(x) for x in self.keys["session_start_us"]),
                    (int(x) for x in self.keys["session_end_us"]),
                    (s.to_bytes() for s in self.sks),
                )
            )
        # canonical order -> deterministic merges AND the gap sweep
        frags.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
        out_k: list = []
        out_s: list[int] = []
        out_e: list[int] = []
        out_sk: list[KLL] = []
        for k_, s_, e_, b in frags:
            if out_k and k_ == out_k[-1] and s_ - out_e[-1] <= self.gap_us:
                out_e[-1] = max(out_e[-1], e_)
                out_sk[-1].merge(KLL.from_bytes(b))
            else:
                out_k.append(k_)
                out_s.append(s_)
                out_e.append(e_)
                out_sk.append(KLL.from_bytes(b))
        self.keys = pd.DataFrame(
            {"key": out_k, "session_start_us": out_s, "session_end_us": out_e}
        )
        self.sks = out_sk

    def close_windows(self, watermark_s, qs: tuple, names: tuple) -> pa.Table:
        """Estimate + retire sessions that can no longer be extended:
        end + gap <= watermark."""
        self._consolidate()
        cols: dict[str, list] = {
            "key": [], "session_start_us": [], "session_end_us": [], "n": []
        }
        for nm in names:
            cols[nm] = []
        if self.keys is not None and len(self.keys):
            wm_us = int(max(min(watermark_s * 1_000_000, 2**62), -(2**62)))
            ends = self.keys["session_end_us"].to_numpy()
            close = ends + self.gap_us <= wm_us
            keep_keys = self.keys[~close].reset_index(drop=True)
            keep_sks = [s for s, c in zip(self.sks, close) if not c]
            for i in np.flatnonzero(close):
                sk = self.sks[i]
                cols["key"].append(self.keys["key"].iloc[i])
                cols["session_start_us"].append(
                    int(self.keys["session_start_us"].iloc[i])
                )
                cols["session_end_us"].append(
                    int(self.keys["session_end_us"].iloc[i])
                )
                cols["n"].append(sk.n)
                for q, nm in zip(qs, names):
                    cols[nm].append(sk.quantile(q))
                self.metrics["sessions_closed"] += 1
            self.keys = keep_keys
            self.sks = keep_sks
        return pa.table(
            {
                "key": pa.array(cols["key"], pa.string()),
                "session_start_us": pa.array(cols["session_start_us"], pa.int64()),
                "session_end_us": pa.array(cols["session_end_us"], pa.int64()),
                "n": pa.array(cols["n"], pa.int64()),
                **{nm: pa.array(cols[nm], pa.float64()) for nm in names},
            }
        )

    def get_metrics(self) -> dict:
        self._consolidate()
        return {
            "partition": self.pid,
            "open_sessions": 0 if self.keys is None else int(len(self.keys)),
            **self.metrics,
        }

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"kllsess-p{self.pid:04d}.parquet")
        if self.keys is None or not len(self.keys):
            t = pa.table(
                {"key": pa.array([], pa.string()),
                 "session_start_us": pa.array([], pa.int64()),
                 "session_end_us": pa.array([], pa.int64()),
                 "sk": pa.array([], pa.binary())}
            )
        else:
            t = pa.table(
                {
                    "key": pa.array(self.keys["key"].tolist(), pa.string()),
                    "session_start_us": pa.array(
                        self.keys["session_start_us"].to_numpy(), pa.int64()
                    ),
                    "session_end_us": pa.array(
                        self.keys["session_end_us"].to_numpy(), pa.int64()
                    ),
                    "sk": pa.array([s.to_bytes() for s in self.sks], pa.binary()),
                }
            )
        write_parquet_atomic(t, path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        """Rebuild state from the snapshot (metrics start fresh)."""
        path = os.path.join(ckpt_dir, f"kllsess-p{self.pid:04d}.parquet")
        self.pending = []
        self.keys = None
        self.sks = []
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            self.keys = pd.DataFrame(
                {
                    "key": t["key"].to_pylist(),
                    "session_start_us": t["session_start_us"]
                    .to_numpy()
                    .astype(np.int64),
                    "session_end_us": t["session_end_us"]
                    .to_numpy()
                    .astype(np.int64),
                }
            )
            self.sks = [KLL.from_bytes(b) for b in t["sk"].to_pylist()]
        return t.num_rows


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

    routers = ("KllRouter", "KllSessionRouter")
    partitions = (KllStatePartition, KllSessionStatePartition)

    def __init__(self, input_dir: str, out_dir: str, *, value: str = "value",
                 qs: tuple = (0.5, 0.9), names: tuple = ("p50", "p90"),
                 k: int = 200, **kw):
        super().__init__(input_dir, out_dir, "quantiles", value=value, **kw)
        self.state_args = self.router_args = (int(k),)
        self.close_args = (tuple(qs), tuple(names))


# -- Misra-Gries heavy hitters -------------------------------------------------


@ray.remote(num_cpus=0)
class MgStatePartition(PendingIngest):
    """Heavy-hitter state for one key-hash partition: per
    (key, window_start_s) a Misra-Gries summary of item counts —
    bounded to ``capacity - 1`` counters per group regardless of the
    item domain (the property the exact histogram loses on unbounded
    vocabularies).  Merge = sum counts by item, then the MG reduction
    (subtract the capacity-th largest, drop non-positive) only when a
    group overflows; the subtracted mass is tracked per group in
    ``deficit`` so lossless operation (deficit == 0 -> counts EXACT)
    is observable, never assumed."""

    def __init__(self, pid: int, window_size_s: int, capacity: int):
        self.pid = pid
        self.size_s = int(window_size_s)
        self.capacity = int(capacity)
        self.pending: list[pa.Table] = []
        self.state: pd.DataFrame | None = None  # key, window_start_s, item, n
        self.deficit: dict[tuple, int] = {}
        self.metrics = {"partial_rows_in": 0, "ingests": 0,
                        "windows_closed": 0, "prunes": 0}

    def _consolidate(self) -> None:
        # mg_merge imported at MODULE scope: a lazy in-method import
        # would re-execute on workers and break the strict by-value
        # pickling driver context (round-3 verdict bug class)
        if not self.pending:
            return
        new = pa.concat_tables(self.pending).to_pandas()
        self.pending = []
        if self.state is not None and len(self.state):
            new = pd.concat([self.state, new], ignore_index=True)
        # one vectorized sum over (key, window, item)
        summed = (
            new.groupby(["key", "window_start_s", "item"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        # MG reduction only for over-capacity groups (zero in the
        # lossless regime; per-group Python bounded by #overflow groups)
        sizes = summed.groupby(["key", "window_start_s"], sort=False)["item"].transform("size")
        over = sizes > self.capacity - 1
        if over.any():
            keep = summed[~over]
            pruned = []
            for (k, w), g in summed[over].groupby(["key", "window_start_s"], sort=False):
                c = g.set_index("item")["n"]
                before = int(c.sum())
                c = mg_merge(c, self.capacity)
                self.deficit[(k, int(w))] = (
                    self.deficit.get((k, int(w)), 0) + before - int(c.sum())
                )
                self.metrics["prunes"] += 1
                d = c.reset_index()
                d["key"] = k
                d["window_start_s"] = int(w)
                pruned.append(d[["key", "window_start_s", "item", "n"]])
            summed = pd.concat([keep] + pruned, ignore_index=True)
        summed["window_start_s"] = summed["window_start_s"].astype(np.int64)
        summed["item"] = summed["item"].astype(np.int64)
        summed["n"] = summed["n"].astype(np.int64)
        self.state = summed

    def close_windows(self, watermark_s, top: int) -> pa.Table:
        """Top-``top`` items (count desc, item asc) per closed window,
        with that window's residual MG deficit on every row."""
        self._consolidate()
        empty = pa.table(
            {"key": pa.array([], pa.string()),
             "window_start_s": pa.array([], pa.int64()),
             "item": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64()),
             "rank": pa.array([], pa.int64()),
             "mg_deficit": pa.array([], pa.int64())}
        )
        if self.state is None or not len(self.state):
            return empty
        ws = self.state["window_start_s"].to_numpy()
        close = ws + self.size_s <= watermark_s
        if not close.any():
            return empty
        closed = self.state[close]
        self.state = self.state[~close].reset_index(drop=True)
        out = closed.sort_values(
            ["key", "window_start_s", "n", "item"],
            ascending=[True, True, False, True],
            ignore_index=True,
        )
        grp = out.groupby(["key", "window_start_s"], sort=False)
        out["rank"] = grp.cumcount() + 1
        out = out[out["rank"] <= top].reset_index(drop=True)
        pairs = [(k, int(w)) for k, w in zip(out["key"], out["window_start_s"])]
        out["mg_deficit"] = np.asarray(
            [self.deficit.get(p, 0) for p in pairs], dtype=np.int64
        )
        for p in set(pairs):
            self.deficit.pop(p, None)
        self.metrics["windows_closed"] += int(
            len(closed.groupby(["key", "window_start_s"], sort=False))
        )
        return pa.Table.from_pandas(out, preserve_index=False).cast(empty.schema)

    def get_metrics(self) -> dict:
        return {"partition": self.pid, **self.metrics,
                "deficit_total": int(sum(self.deficit.values()))}

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"mg-p{self.pid:04d}.parquet")
        df = self.state if self.state is not None else pd.DataFrame(
            {"key": pd.Series(dtype=object),
             "window_start_s": pd.Series(dtype=np.int64),
             "item": pd.Series(dtype=np.int64),
             "n": pd.Series(dtype=np.int64)}
        )
        t = pa.Table.from_pandas(df, preserve_index=False)
        dt = pa.table(
            {
                "key": pa.array([k for k, _ in self.deficit], pa.string()),
                "window_start_s": pa.array(
                    [w for _, w in self.deficit], pa.int64()
                ),
                "deficit": pa.array(list(self.deficit.values()), pa.int64()),
            }
        )
        for p, tbl in ((path, t), (path.replace(".parquet", ".def.parquet"), dt)):
            write_parquet_atomic(tbl, p)
        return path

    def restore(self, ckpt_dir: str) -> int:
        path = os.path.join(ckpt_dir, f"mg-p{self.pid:04d}.parquet")
        self.pending = []
        self.state = None
        self.deficit = {}
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            self.state = t.to_pandas()
        dp = path.replace(".parquet", ".def.parquet")
        if os.path.exists(dp):
            d = pq.read_table(dp).to_pandas()
            self.deficit = {
                (k, int(w)): int(v)
                for k, w, v in zip(d["key"], d["window_start_s"], d["deficit"])
            }
        return t.num_rows


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


@ray.remote(num_cpus=0)
class MgSessionStatePartition(PendingIngest):
    """SESSION-window Misra-Gries heavy-hitter state for one key-hash
    partition: open session fragments (key, session_start_us,
    session_end_us) -> one MG summary of item counts.  Fragment counts
    are exact partials over disjoint event subsets, so the gap-rule
    cluster merge is a plain integer sum by item followed by at most
    one MG reduction per over-capacity cluster — order-insensitive
    WITHIN a consolidation (sums commute; the reduction sees only the
    summed multiset), and epoch-sequenced across consolidations, so
    crash/resume replays reproduce identical summaries.  Subtracted
    mass lands in the per-session ``deficit`` (summed when sessions
    merge), keeping lossless operation observable, never assumed."""

    def __init__(self, pid: int, gap_s: int, capacity: int):
        self.pid = pid
        self.gap_us = int(gap_s) * 1_000_000
        self.capacity = int(capacity)
        self.pending: list[pa.Table] = []
        # per-open-session item rows + per-session deficit, aligned on
        # (key, session_start_us, session_end_us)
        self.state: pd.DataFrame | None = None
        self.deficits: pd.DataFrame | None = None
        self.metrics = {"partial_rows_in": 0, "ingests": 0,
                        "sessions_closed": 0, "prunes": 0}

    def _consolidate(self) -> None:
        if not self.pending:
            return
        new = pa.concat_tables(self.pending).to_pandas()
        self.pending = []
        new["deficit"] = np.int64(0)  # fragment partials are exact
        frames = [new]
        if self.state is not None and len(self.state):
            st = self.state.merge(
                self.deficits, on=["key", "session_start_us", "session_end_us"],
                how="left",
            )
            st["deficit"] = st["deficit"].fillna(0).astype(np.int64)
            frames.append(st)
        rows = pd.concat(frames, ignore_index=True)
        # gap-rule cluster sweep over the distinct fragment intervals
        iv = (
            rows[["key", "session_start_us", "session_end_us"]]
            .drop_duplicates(ignore_index=True)
            .sort_values(["key", "session_start_us", "session_end_us"],
                         ignore_index=True)
        )
        codes, _ = pd.factorize(iv["key"], sort=False)
        s = iv["session_start_us"].to_numpy()
        e = iv["session_end_us"].to_numpy()
        cm = pd.Series(e).groupby(codes).cummax().to_numpy()
        brk = np.ones(len(iv), dtype=bool)
        brk[1:] = (codes[1:] != codes[:-1]) | (s[1:] - cm[:-1] > self.gap_us)
        cl = np.cumsum(brk) - 1
        iv["cl"] = cl
        # merged bounds per cluster
        bounds = iv.groupby("cl").agg(
            key=("key", "first"),
            session_start_us=("session_start_us", "min"),
            session_end_us=("session_end_us", "max"),
        )
        rows = rows.merge(
            iv, on=["key", "session_start_us", "session_end_us"], how="left"
        )
        # deficit per row counts ONCE per source session: rows of one
        # state session share its deficit, so collapse to the interval
        # level first (max: a zero-deficit new fragment may share an
        # identical interval with a state session) before summing
        dtab = (
            rows.groupby(
                ["cl", "key", "session_start_us", "session_end_us"], sort=False
            )["deficit"]
            .max()
            .groupby("cl")
            .sum()
        )
        summed = (
            rows.groupby(["cl", "item"], sort=False)["n"].sum().reset_index()
        )
        # MG reduction only for over-capacity clusters
        sizes = summed.groupby("cl", sort=False)["item"].transform("size")
        over = sizes > self.capacity - 1
        extra: dict[int, int] = {}
        if over.any():
            keep = summed[~over]
            pruned = []
            for c, g in summed[over].groupby("cl", sort=False):
                cnt = g.set_index("item")["n"]
                before = int(cnt.sum())
                cnt = mg_merge(cnt, self.capacity)
                extra[int(c)] = before - int(cnt.sum())
                self.metrics["prunes"] += 1
                d = cnt.reset_index()
                d["cl"] = int(c)
                pruned.append(d[["cl", "item", "n"]])
            summed = pd.concat([keep] + pruned, ignore_index=True)
        summed = summed.merge(bounds, left_on="cl", right_index=True)
        self.state = summed[
            ["key", "session_start_us", "session_end_us", "item", "n"]
        ].astype(
            {"session_start_us": np.int64, "session_end_us": np.int64,
             "item": np.int64, "n": np.int64}
        )
        dd = bounds.copy()
        dd["deficit"] = (
            dtab.reindex(bounds.index).fillna(0).astype(np.int64)
            + pd.Series(extra, dtype=np.int64)
            .reindex(bounds.index)
            .fillna(0)
            .astype(np.int64)
        )
        self.deficits = dd.reset_index(drop=True)[
            ["key", "session_start_us", "session_end_us", "deficit"]
        ]

    def close_windows(self, watermark_s, top: int) -> pa.Table:
        """Top-``top`` items (count desc, item asc) per retired session
        (end + gap <= watermark), with the session's residual deficit
        on every row."""
        self._consolidate()
        empty = pa.table(
            {"key": pa.array([], pa.string()),
             "session_start_us": pa.array([], pa.int64()),
             "session_end_us": pa.array([], pa.int64()),
             "item": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64()),
             "rank": pa.array([], pa.int64()),
             "mg_deficit": pa.array([], pa.int64())}
        )
        if self.state is None or not len(self.state):
            return empty
        wm_us = int(max(min(watermark_s * 1_000_000, 2**62), -(2**62)))
        ends = self.state["session_end_us"].to_numpy()
        close = ends + self.gap_us <= wm_us
        if not close.any():
            return empty
        closed = self.state[close]
        self.state = self.state[~close].reset_index(drop=True)
        dkey = ["key", "session_start_us", "session_end_us"]
        dclose = self.deficits.merge(closed[dkey].drop_duplicates(), on=dkey)
        self.deficits = (
            self.deficits.merge(dclose[dkey], on=dkey, how="left", indicator=True)
            .query("_merge == 'left_only'")
            .drop(columns="_merge")
            .reset_index(drop=True)
        )
        out = closed.sort_values(
            dkey + ["n", "item"],
            ascending=[True, True, True, False, True],
            ignore_index=True,
        )
        grp = out.groupby(dkey, sort=False)
        out["rank"] = grp.cumcount() + 1
        out = out[out["rank"] <= top].reset_index(drop=True)
        out = out.merge(dclose.rename(columns={"deficit": "mg_deficit"}), on=dkey)
        self.metrics["sessions_closed"] += int(len(dclose))
        return pa.Table.from_pandas(out, preserve_index=False).cast(empty.schema)

    def get_metrics(self) -> dict:
        self._consolidate()
        return {
            "partition": self.pid,
            "open_sessions": 0 if self.deficits is None else int(len(self.deficits)),
            **self.metrics,
            "deficit_total": (
                0 if self.deficits is None
                else int(self.deficits["deficit"].sum())
            ),
        }

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"mgsess-p{self.pid:04d}.parquet")
        df = self.state if self.state is not None else pd.DataFrame(
            {"key": pd.Series(dtype=object),
             "session_start_us": pd.Series(dtype=np.int64),
             "session_end_us": pd.Series(dtype=np.int64),
             "item": pd.Series(dtype=np.int64),
             "n": pd.Series(dtype=np.int64)}
        )
        dd = self.deficits if self.deficits is not None else pd.DataFrame(
            {"key": pd.Series(dtype=object),
             "session_start_us": pd.Series(dtype=np.int64),
             "session_end_us": pd.Series(dtype=np.int64),
             "deficit": pd.Series(dtype=np.int64)}
        )
        for p, tbl in (
            (path, pa.Table.from_pandas(df, preserve_index=False)),
            (path.replace(".parquet", ".def.parquet"),
             pa.Table.from_pandas(dd, preserve_index=False)),
        ):
            write_parquet_atomic(tbl, p)
        return path

    def restore(self, ckpt_dir: str) -> int:
        path = os.path.join(ckpt_dir, f"mgsess-p{self.pid:04d}.parquet")
        self.pending = []
        self.state = None
        self.deficits = None
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            self.state = t.to_pandas()
        dp = path.replace(".parquet", ".def.parquet")
        if os.path.exists(dp):
            d = pq.read_table(dp).to_pandas()
            if len(d):
                self.deficits = d
        return t.num_rows


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

    routers = ("MgRouter", "MgSessionRouter")
    partitions = (MgStatePartition, MgSessionStatePartition)
    sort_extra = ("rank",)

    def __init__(self, input_dir: str, out_dir: str, *, item: str = "user_id",
                 capacity: int = 4096, top: int = 10, **kw):
        super().__init__(input_dir, out_dir, "topk", value=item, **kw)
        self.state_args = (int(capacity),)
        self.close_args = (int(top),)


# -- Count-Min windowed frequency estimates ---------------------------------


@ray.remote(num_cpus=0)
class CmsStatePartition(PendingIngest):
    """Count-Min frequency state for one key-hash partition: per
    (key, window_start_s) one fixed-size DEPTH x WIDTH int64 counter
    array (sketches.py cms_*) — row-count- and domain-independent
    state, the additive dual of the HLL registers (counters merge by
    SUM, which is linear: any replay-free ingest order yields the
    identical array, so streamed estimates equal the batch sketch over
    the same rows).  Alongside each sketch it keeps EXACT counts for
    the deterministic probe set ``item % probe_mod == 0`` — the gate
    truth that makes the CMS error observable per emitted row, never
    assumed (the same honesty contract as the MG deficit column).
    Probe state is O(probe items per open window); at 100 TB one sets
    ``probe_mod`` high (or disables gating) and keeps only the
    fixed-size sketch."""

    def __init__(self, pid: int, window_size_s: int, probe_mod: int):
        self.pid = pid
        self.size_s = int(window_size_s)
        self.probe_mod = int(probe_mod)
        self.pending: list[pa.Table] = []
        self.sketch: dict[tuple, np.ndarray] = {}  # (key, ws) -> counters
        self.total: dict[tuple, int] = {}          # (key, ws) -> rows ingested
        self.probe: pd.DataFrame | None = None     # key, window_start_s, item, n
        self.metrics = {"partial_rows_in": 0, "ingests": 0,
                        "windows_closed": 0}

    def _consolidate(self) -> None:
        """Merge pending partials.  The wire carries TWO row kinds in
        one table (CmsRouter): blob rows (non-null ``cms`` — one dense
        256 KiB per-batch sketch per (key, window), ``n`` = rows it
        absorbed) merged by pure array SUM, and probe rows (null
        ``cms`` — exact counts for the tiny probe set) merged by a
        groupby sum.  No per-item state ever reaches the actor: the
        consolidation cost is O(blobs + probe rows), independent of
        the item domain — the fixed-size-wire property that is the
        point of CMS (the sparse-partial MG shape degenerates to
        ~rows-in when item cardinality approaches the batch size)."""
        if not self.pending:
            return
        new = pa.concat_tables(self.pending)
        self.pending = []
        cms_col = new["cms"]
        is_blob = pc.is_valid(cms_col).to_numpy(zero_copy_only=False)
        keys = new["key"].to_numpy(zero_copy_only=False)
        ws = new["window_start_s"].to_numpy(zero_copy_only=False)
        ns = new["n"].to_numpy(zero_copy_only=False)
        blobs = cms_col.to_pylist()
        for i in np.flatnonzero(is_blob):
            kk = (keys[i], int(ws[i]))
            arr = np.frombuffer(blobs[i], dtype=np.int64)
            if kk in self.sketch:
                self.sketch[kk] += arr
            else:
                self.sketch[kk] = arr.copy()
            self.total[kk] = self.total.get(kk, 0) + int(ns[i])
        if (~is_blob).any():
            pm = (
                new.filter(pa.array(~is_blob))
                .select(["key", "window_start_s", "item", "n"])
                .to_pandas()
            )
            if self.probe is not None and len(self.probe):
                pm = pd.concat([self.probe, pm], ignore_index=True)
            self.probe = (
                pm.groupby(["key", "window_start_s", "item"], sort=False)["n"]
                .sum()
                .reset_index()
            )

    def close_windows(self, watermark_s) -> pa.Table:
        """Probe-item rows for each closed window: exact n, the CMS
        point estimate, and the (e/WIDTH)*N over-count gate (2x
        margin).  CMS never under-counts, so est >= n always."""
        self._consolidate()
        empty = pa.table(
            {"key": pa.array([], pa.string()),
             "window_start_s": pa.array([], pa.int64()),
             "item": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64()),
             "cms_est": pa.array([], pa.int64()),
             "within_bound": pa.array([], pa.bool_())}
        )
        closed = [
            kk for kk in self.sketch
            if kk[1] + self.size_s <= watermark_s
        ]
        if not closed:
            return empty
        outs = []
        for kk in sorted(closed):
            counts = self.sketch.pop(kk)
            total = self.total.pop(kk)
            bound = max(1, int(np.ceil(2 * np.e * total / CMS_WIDTH)))
            if self.probe is not None and len(self.probe):
                m = (self.probe["key"] == kk[0]) & (
                    self.probe["window_start_s"] == kk[1]
                )
                g = self.probe[m]
                self.probe = self.probe[~m].reset_index(drop=True)
            else:
                g = pd.DataFrame(columns=["key", "window_start_s", "item", "n"])
            if not len(g):
                continue
            items = g["item"].to_numpy().astype(np.int64)
            n = g["n"].to_numpy().astype(np.int64)
            est = cms_estimate(counts, items)
            outs.append(pa.table(
                {"key": pa.array([kk[0]] * len(g), pa.string()),
                 "window_start_s": pa.array(
                     np.full(len(g), kk[1], dtype=np.int64)),
                 "item": pa.array(items),
                 "n": pa.array(n),
                 "cms_est": pa.array(est.astype(np.int64)),
                 "within_bound": pa.array((est >= n) & (est <= n + bound))}
            ))
        self.metrics["windows_closed"] += len(closed)
        return pa.concat_tables(outs) if outs else empty

    def get_metrics(self) -> dict:
        return {"partition": self.pid, **self.metrics,
                "open_windows": len(self.sketch)}

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"cms-p{self.pid:04d}.parquet")
        ks = sorted(self.sketch)
        st = pa.table(
            {"key": pa.array([k for k, _ in ks], pa.string()),
             "window_start_s": pa.array([w for _, w in ks], pa.int64()),
             "total": pa.array([self.total[kk] for kk in ks], pa.int64()),
             "cms": pa.array([self.sketch[kk].tobytes() for kk in ks],
                             pa.binary())}
        )
        pr = self.probe if self.probe is not None else pd.DataFrame(
            {"key": pd.Series(dtype=object),
             "window_start_s": pd.Series(dtype=np.int64),
             "item": pd.Series(dtype=np.int64),
             "n": pd.Series(dtype=np.int64)}
        )
        pt = pa.Table.from_pandas(pr, preserve_index=False)
        for p, tbl in ((path, st), (path.replace(".parquet", ".probe.parquet"), pt)):
            write_parquet_atomic(tbl, p)
        return path

    def restore(self, ckpt_dir: str) -> int:
        path = os.path.join(ckpt_dir, f"cms-p{self.pid:04d}.parquet")
        self.pending = []
        self.sketch = {}
        self.total = {}
        self.probe = None
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        for k, w, tot, blob in zip(
            t["key"].to_pylist(), t["window_start_s"].to_pylist(),
            t["total"].to_pylist(), t["cms"].to_pylist(),
        ):
            self.sketch[(k, int(w))] = np.frombuffer(
                blob, dtype=np.int64
            ).copy()
            self.total[(k, int(w))] = int(tot)
        pp = path.replace(".parquet", ".probe.parquet")
        if os.path.exists(pp):
            d = pq.read_table(pp).to_pandas()
            if len(d):
                self.probe = d
        return t.num_rows


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

    routers = ("CmsRouter",)
    partitions = (CmsStatePartition,)
    sort_extra = ("item",)

    def __init__(self, input_dir: str, out_dir: str, *, item: str = "user_id",
                 probe_mod: int = 3, **kw):
        if kw.get("session_gap_s") is not None:
            raise ValueError("CmsStreamDriver has no session windows (use MG)")
        super().__init__(input_dir, out_dir, "cms", value=item, **kw)
        self.state_args = self.router_args = (int(probe_mod),)


# -- Bottom-k windowed sample (coordination-free reservoir) ------------------


@ray.remote(num_cpus=0)
class BottomKStatePartition(PendingIngest):
    """Deterministic per-(key, window) bottom-k sample state for one
    key-hash partition: the k DISTINCT items with the smallest
    ``splitmix64(item)`` (ties by item) — the coordination-free
    reservoir (bottom-k sketch).  State merge is a k-truncated
    min-union with (hv, item) dedup, which is ASSOCIATIVE, COMMUTATIVE
    and IDEMPOTENT — like the HLL max-merge, replayed or reordered
    partials can never change the sample, and the streamed sample per
    window is exactly the batch bottom-k over the same rows.  State is
    O(k) per open (key, window) regardless of row count or item
    domain; unlike an RNG reservoir the result is a pure function of
    the item set (rerun/cluster-size stable, resumable for free)."""

    def __init__(self, pid: int, window_size_s: int, k: int):
        self.pid = pid
        self.size_s = int(window_size_s)
        self.k = int(k)
        self.pending: list[pa.Table] = []
        self.state: dict[tuple, tuple] = {}  # (key, ws) -> (hv u64[], item i64[])
        self.metrics = {"partial_rows_in": 0, "ingests": 0,
                        "windows_closed": 0}

    def _merge_group(self, kk: tuple, hv: np.ndarray, items: np.ndarray):
        if kk in self.state:
            oh, oi = self.state[kk]
            hv = np.concatenate([oh, hv])
            items = np.concatenate([oi, items])
        order = np.lexsort((items, hv))
        hv, items = hv[order], items[order]
        keep = np.ones(hv.size, dtype=bool)  # dedup identical (hv, item)
        keep[1:] = (hv[1:] != hv[:-1]) | (items[1:] != items[:-1])
        hv, items = hv[keep][: self.k], items[keep][: self.k]
        self.state[kk] = (hv, items)

    def _consolidate(self) -> None:
        if not self.pending:
            return
        new = pa.concat_tables(self.pending)
        self.pending = []
        keys = new["key"].to_numpy(zero_copy_only=False)
        ws = new["window_start_s"].to_numpy(zero_copy_only=False)
        hv = new["hv"].to_numpy(zero_copy_only=False).astype(np.uint64)
        items = new["item"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"key": keys, "ws": ws})
        for (k, w), g in df.groupby(["key", "ws"], sort=False):
            ix = g.index.to_numpy()
            self._merge_group((k, int(w)), hv[ix], items[ix])

    def close_windows(self, watermark_s) -> pa.Table:
        self._consolidate()
        empty = pa.table(
            {"key": pa.array([], pa.string()),
             "window_start_s": pa.array([], pa.int64()),
             "item": pa.array([], pa.int64()),
             "rank": pa.array([], pa.int64())}
        )
        closed = [kk for kk in self.state if kk[1] + self.size_s <= watermark_s]
        if not closed:
            return empty
        outs = []
        for kk in sorted(closed):
            hv, items = self.state.pop(kk)
            outs.append(pa.table(
                {"key": pa.array([kk[0]] * len(items), pa.string()),
                 "window_start_s": pa.array(
                     np.full(len(items), kk[1], dtype=np.int64)),
                 "item": pa.array(items.astype(np.int64)),
                 "rank": pa.array(
                     np.arange(1, len(items) + 1, dtype=np.int64))}
            ))
        self.metrics["windows_closed"] += len(closed)
        return pa.concat_tables(outs) if outs else empty

    def get_metrics(self) -> dict:
        return {"partition": self.pid, **self.metrics,
                "open_windows": len(self.state)}

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"bk-p{self.pid:04d}.parquet")
        ks = sorted(self.state)
        rows = {"key": [], "window_start_s": [], "hv": [], "item": []}
        for kk in ks:
            hv, items = self.state[kk]
            rows["key"].extend([kk[0]] * len(items))
            rows["window_start_s"].extend([kk[1]] * len(items))
            rows["hv"].extend(hv.tolist())
            rows["item"].extend(items.tolist())
        t = pa.table(
            {"key": pa.array(rows["key"], pa.string()),
             "window_start_s": pa.array(rows["window_start_s"], pa.int64()),
             "hv": pa.array(np.asarray(rows["hv"], dtype=np.uint64), pa.uint64()),
             "item": pa.array(np.asarray(rows["item"], dtype=np.int64))}
        )
        write_parquet_atomic(t, path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        path = os.path.join(ckpt_dir, f"bk-p{self.pid:04d}.parquet")
        self.pending = []
        self.state = {}
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            self.pending = [t]
            self._consolidate()
        return t.num_rows


def _bottom_k(g_of: np.ndarray, it_of: np.ndarray, k: int):
    """Each group's k smallest (splitmix64(item), item) among distinct
    (group, item) pairs: returns the kept indices, grouped by ascending
    group id, and every pair's hash."""
    hv = splitmix64(it_of.astype(np.uint64))
    order = np.lexsort((it_of, hv, g_of))
    gs = g_of[order]
    starts = np.flatnonzero(np.diff(gs, prepend=-1))
    rank = np.arange(gs.size) - np.repeat(starts, np.diff(np.append(starts, gs.size)))
    return order[rank < k], hv


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


def _bk_unpack(blob: bytes):
    a = np.frombuffer(blob, dtype=np.uint64)
    half = a.size // 2
    return a[:half], a[half:].astype(np.int64)


def _bk_pack(hv, items) -> bytes:
    return np.concatenate(
        [np.asarray(hv, dtype=np.uint64),
         np.asarray(items, dtype=np.int64).view(np.uint64)]
    ).tobytes()


@ray.remote(num_cpus=0)
class BottomKSessionStatePartition(PendingIngest):
    """SESSION-window bottom-k sample state for one key-hash
    partition: open session fragments (key, start_us, end_us) -> one
    <=k (hv, item) pair list.  The k-truncated min-union is the
    IDEMPOTENT case of ksqlDB's SESSION merge contract (like the HLL
    registers): gap-rule cluster merges concatenate pair lists, dedup
    (hv, item) and re-truncate — overlapping or replayed fragments can
    never change the sample.  Interval clustering is the moment path's
    lexsort/cummax sweep; the per-cluster merge loop is bounded by
    CLUSTER count (fragments per epoch), never rows."""

    def __init__(self, pid: int, gap_s: int, k: int):
        self.pid = pid
        self.gap_us = int(gap_s) * 1_000_000
        self.k = int(k)
        self.pending: list[pa.Table] = []
        self.keys: pd.DataFrame | None = None  # key, start_us, end_us
        self.pairs: list | None = None  # aligned [(hv u64[], item i64[])]
        self.metrics = {"partial_rows_in": 0, "ingests": 0, "sessions_closed": 0}

    def _bk_merge(self, parts: list) -> tuple:
        hv = np.concatenate([p[0] for p in parts])
        items = np.concatenate([p[1] for p in parts])
        order = np.lexsort((items, hv))
        hv, items = hv[order], items[order]
        keep = np.ones(hv.size, dtype=bool)
        keep[1:] = (hv[1:] != hv[:-1]) | (items[1:] != items[:-1])
        return hv[keep][: self.k], items[keep][: self.k]

    def _consolidate(self) -> None:
        if not self.pending:
            return
        new = pa.concat_tables(self.pending)
        self.pending = []
        nk = new["key"].to_numpy(zero_copy_only=False)
        ns = new["session_start_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        ne = new["session_end_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        npairs = [_bk_unpack(b) for b in new["bk"].to_pylist()]
        if self.keys is not None and len(self.keys):
            nk = np.concatenate([self.keys["key"].to_numpy(), nk])
            ns = np.concatenate([self.keys["session_start_us"].to_numpy(), ns])
            ne = np.concatenate([self.keys["session_end_us"].to_numpy(), ne])
            npairs = self.pairs + npairs
        codes, _ = pd.factorize(nk, sort=False)
        order = np.lexsort((ns, codes))
        c_s, s_s, e_s = codes[order], ns[order], ne[order]
        cm = pd.Series(e_s).groupby(c_s).cummax().to_numpy()
        n = c_s.size
        brk = np.ones(n, dtype=bool)
        brk[1:] = (c_s[1:] != c_s[:-1]) | (s_s[1:] - cm[:-1] > self.gap_us)
        starts = np.flatnonzero(brk)
        last = np.append(starts[1:], n) - 1
        self.keys = pd.DataFrame(
            {
                "key": nk[order][starts],
                "session_start_us": s_s[starts],
                "session_end_us": cm[last].astype(np.int64),
            }
        )
        bounds = np.append(starts, n)
        self.pairs = [
            self._bk_merge([npairs[j] for j in order[bounds[i]:bounds[i + 1]]])
            for i in range(starts.size)
        ]

    def close_windows(self, watermark_s) -> pa.Table:
        self._consolidate()
        empty = pa.table(
            {"key": pa.array([], pa.string()),
             "session_start_us": pa.array([], pa.int64()),
             "session_end_us": pa.array([], pa.int64()),
             "item": pa.array([], pa.int64()),
             "rank": pa.array([], pa.int64())}
        )
        if self.keys is None or not len(self.keys):
            return empty
        wm_us = int(max(min(watermark_s * 1_000_000, 2**62), -(2**62)))
        ends = self.keys["session_end_us"].to_numpy()
        close = ends + self.gap_us <= wm_us
        if not close.any():
            return empty
        rows = {"key": [], "session_start_us": [], "session_end_us": [],
                "item": [], "rank": []}
        for i in np.flatnonzero(close):
            r = self.keys.iloc[i]
            hv, items = self.pairs[i]
            rows["key"].extend([r["key"]] * len(items))
            rows["session_start_us"].extend([int(r["session_start_us"])] * len(items))
            rows["session_end_us"].extend([int(r["session_end_us"])] * len(items))
            rows["item"].extend(items.tolist())
            rows["rank"].extend(range(1, len(items) + 1))
        self.metrics["sessions_closed"] += int(close.sum())
        self.pairs = [p for i, p in enumerate(self.pairs) if not close[i]]
        self.keys = self.keys[~close].reset_index(drop=True)
        return pa.table(
            {"key": pa.array(rows["key"], pa.string()),
             "session_start_us": pa.array(rows["session_start_us"], pa.int64()),
             "session_end_us": pa.array(rows["session_end_us"], pa.int64()),
             "item": pa.array(rows["item"], pa.int64()),
             "rank": pa.array(rows["rank"], pa.int64())}
        )

    def get_metrics(self) -> dict:
        self._consolidate()
        return {"partition": self.pid,
                "open_sessions": 0 if self.keys is None else int(len(self.keys)),
                **self.metrics}

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"bksess-p{self.pid:04d}.parquet")
        if self.keys is None or not len(self.keys):
            t = pa.table(
                {"key": pa.array([], pa.string()),
                 "session_start_us": pa.array([], pa.int64()),
                 "session_end_us": pa.array([], pa.int64()),
                 "bk": pa.array([], pa.binary())}
            )
        else:
            t = pa.table(
                {"key": pa.array(self.keys["key"].tolist(), pa.string()),
                 "session_start_us": pa.array(
                     self.keys["session_start_us"].to_numpy(), pa.int64()),
                 "session_end_us": pa.array(
                     self.keys["session_end_us"].to_numpy(), pa.int64()),
                 "bk": pa.array(
                     [_bk_pack(h, it) for h, it in self.pairs], pa.binary())}
            )
        write_parquet_atomic(t, path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        path = os.path.join(ckpt_dir, f"bksess-p{self.pid:04d}.parquet")
        self.pending = []
        self.keys = None
        self.pairs = None
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            self.pending = [t]
            self._consolidate()
        return t.num_rows


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

    routers = ("BottomKRouter", "BottomKSessionRouter")
    partitions = (BottomKStatePartition, BottomKSessionStatePartition)
    sort_extra = ("rank",)

    def __init__(self, input_dir: str, out_dir: str, *, item: str = "user_id",
                 k: int = 5, **kw):
        super().__init__(input_dir, out_dir, "bottomk", value=item, **kw)
        self.state_args = self.router_args = (int(k),)
