"""Keyed state-store actors + the side-effect-free partial stage.

The reference's state lives in ksqlDB's RocksDB stores partitioned by
the GROUP BY key, with ``merge()`` combining partials across partitions
(SURVEY.md §4.1).  Here: ``P`` ``StatePartition`` actors each own a
hash range of ``(source, salt)``.  The epoch's stage router
(:class:`Router`) only computes *partial moment structs* (never raw
rows) and returns them as data; the driver then routes the whole
epoch's partials with :func:`route_partials` — one ``ingest`` per
partition — the explicit, tiny shuffle mandated by
BASELINE.json:north_star.  With no actor calls inside the stage's read
tasks the stage is replayable, so Ray's task retries are safe.  Every
other streaming kind's router returns its partial through the same
:func:`partial_row` and is routed by the same :func:`route_partials`;
their actors share :class:`PendingIngest`.

Skew: partials are pre-aggregated per ``(source, salt, window)`` with
``salt = numeric_doc_id % S``, so a hot source's state spreads over up
to S actors; the cross-salt merge happens once per window close on
O(closed windows) rows.

Fault tolerance: Ray does not recover actor state — each partition
checkpoints its accumulator dict per epoch (tiny: O(groups × windows ×
sums)) and the driver records the epoch frontier; resume restores the
snapshot and replays from the next epoch (SURVEY.md §4.2).
"""

from __future__ import annotations

import os
import time
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from raystat.aggregate import encode_key
from raystat.dataops.asof import _key_u64

__all__ = [
    "StatePartition", "SessionStatePartition", "Router", "route_partition",
    "key_partition", "partial_row", "route_partials", "PendingIngest",
    "write_parquet_atomic", "gap_sweep",
]


PART_COL = "_partition"  # owning partition of each partial row on the wire


def route_partition(source, salt, n_partitions: int) -> np.ndarray:
    """Owning partition of each row: ``crc32(source) * 31 + salt mod P``
    (``source`` an Arrow string column; ``salt`` an int array or 0)."""
    codes, vocab = encode_key(source, "source")
    h = np.array([zlib.crc32(v.encode()) for v in vocab.to_pylist()], dtype=np.int64)
    return (h[codes] * 31 + salt) % n_partitions


def key_partition(keys, n_partitions: int, name: str = "key") -> np.ndarray:
    """Owning partition of each row by key hash: ``splitmix64`` of the
    key value mod P, hashed once per distinct key (``keys`` an Arrow
    int or string column; a null key raises)."""
    codes, vocab = encode_key(keys, name)
    h = _key_u64(vocab.to_numpy(zero_copy_only=False)) % np.uint64(n_partitions)
    return h.astype(np.int64)[codes]


def partial_row(partial: pa.Table | None, part, batch_key: int, **book) -> pa.Table:
    """The one row a router returns per batch: the bookkeeping scalars
    ``book``, ``batch_key`` (orders the epoch's payloads, see
    :func:`route_partials`), ``partial_rows``, ``sec_route`` (the
    encode time) and ``partial``: the partial table as an Arrow IPC
    stream whose ``PART_COL`` column holds ``part``, each row's owning
    partition (empty bytes for an empty partial)."""
    t0 = time.monotonic()
    n = 0 if partial is None else partial.num_rows
    payload = b""
    if n:
        partial = partial.append_column(PART_COL, pa.array(part, pa.int64()))
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, partial.schema) as w:
            w.write_table(partial)
        payload = sink.getvalue().to_pybytes()
    book.update(batch_key=batch_key, partial_rows=n, sec_route=time.monotonic() - t0)
    cols = {k: [v] for k, v in book.items()}
    return pa.table({**cols, "partial": pa.array([payload], pa.binary())})


def route_partials(book: pd.DataFrame, actors: list) -> list:
    """Submit one epoch's partials to their owning actors and return the
    ``ingest`` refs, at most one per actor.  ``book`` holds the
    routers' rows (:func:`partial_row`); the non-empty payloads are
    concatenated in batch-key order (payload bytes break ties), then
    stably sorted by owning partition, so every actor sees the same
    rows in the same order on every run, whatever order the read tasks
    finished in (float sums and sketch merges depend on it)."""
    if not len(book):  # an epoch of empty files has no router rows
        return []
    live = book[book["partial_rows"] > 0].sort_values(["batch_key", "partial"])
    if not len(live):
        return []
    tbl = pa.concat_tables(
        [pa.ipc.open_stream(b).read_all() for b in live["partial"]],
        promote_options="default",
    )
    part = tbl[PART_COL].to_numpy()
    order = np.argsort(part, kind="stable")
    tbl, part = tbl.drop_columns([PART_COL]).take(order), part[order]
    cuts = [0, *(np.flatnonzero(np.diff(part)) + 1), len(part)]
    return [
        actors[int(part[lo])].ingest.remote(tbl.slice(lo, hi - lo))
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def write_parquet_atomic(table: pa.Table, path: str) -> None:
    """Write ``table`` to ``path`` through a temp file and a rename, so
    a crash never leaves a torn snapshot."""
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


class PendingIngest:
    """``ingest`` shared by the state actors: buffer the partial table
    for the next consolidation and count it.  A failure raises to the
    driver's barrier, which waits on the ingest refs."""

    rows_metric = "partial_rows_in"

    def ingest(self, table: pa.Table) -> int:
        n = table.num_rows
        if n:
            self.pending.append(table)
        self.metrics[self.rows_metric] += n
        self.metrics["ingests"] += 1
        return n

    def ready(self, table: pa.Table) -> bool:
        """A no-op taking an Arrow table, which the driver's
        ``prepare()`` sends once per actor: the first Arrow column a
        worker deserializes imports Ray's Arrow tensor extensions, and
        with them ``ray.data`` (0.1-0.3 s per actor process on one
        vCPU), which the first epoch's barrier would otherwise wait
        on."""
        return True


def gap_sweep(codes: np.ndarray, start: np.ndarray, end: np.ndarray, gap_us: int):
    """The gap-rule session sweep of the session state actors: sort by
    (key code, start), take each key's running max of the ends, and
    open a new session where the key changes or ``start - running max
    > gap``.  Returns the sort order, the sorted position of each
    session's first row and each session's end.  (The grouped running
    max suffices: a row starting beyond it is provably a new session,
    and every row of a new session has ``end >= start > previous
    max``, so earlier sessions never leak into a later session's
    end.)  One C-loop pass at any key cardinality."""
    order = np.lexsort((start, codes))
    c, s = codes[order], start[order]
    cm = pd.Series(end[order]).groupby(c).cummax().to_numpy()
    brk = np.ones(c.size, dtype=bool)
    brk[1:] = (c[1:] != c[:-1]) | (s[1:] - cm[:-1] > gap_us)
    first = np.flatnonzero(brk)
    return order, first, cm[np.append(first[1:], c.size) - 1]


def _require_columns(owner: str, table: pa.Table, cols: list[str]) -> None:
    missing = [c for c in cols if c not in table.column_names]
    if missing:
        raise ValueError(f"{owner}: partial table lacks columns {missing}")


_KEY = ["source", "salt", "window_start"]


@ray.remote(num_cpus=0)
class StatePartition(PendingIngest):
    # num_cpus=0: merge work is tiny (partial structs); reserving CPU
    # shares would starve the epoch stage's read tasks in small sessions.
    """Owns per-(source, salt, window_start) accumulator sums.

    Merge strategy: ``ingest`` only APPENDS the incoming partial table
    (the driver sends one per epoch); the field-wise merge happens
    lazily at epoch boundaries (close/peek/snapshot) as ONE vectorized
    pandas concat + groupby-sum over everything pending, so per-key
    cost is C-loop, not Python-loop, at any key cardinality."""

    def __init__(self, partition_id: int, sum_cols: list[str], window_size_s: int):
        self.pid = partition_id
        self.sum_cols = list(sum_cols)
        self.window_size_s = window_size_s
        # consolidated state: MultiIndex (source, salt, window_start) ->
        # float64 sum columns
        self.state = pd.DataFrame(
            columns=self.sum_cols,
            index=pd.MultiIndex.from_arrays([[], [], []], names=_KEY),
            dtype=np.float64,
        )
        self.pending: list[pa.Table] = []
        self.metrics = {"partial_rows_in": 0, "ingests": 0, "windows_closed": 0}

    def ingest(self, table: pa.Table) -> int:
        """Buffer a partial-sums table (cols: source, salt,
        window_start, *sum_cols); a missing column raises to the
        driver's barrier.  Field-wise addition == the reference's
        merge(); deferred to _consolidate()."""
        _require_columns(f"state partition {self.pid}", table, _KEY + self.sum_cols)
        return super().ingest(table)

    def _consolidate(self) -> None:
        if not self.pending:
            return
        tbl = pa.concat_tables(self.pending)
        self.pending = []
        df = tbl.select(_KEY + self.sum_cols).to_pandas()
        for c in self.sum_cols:
            if df[c].dtype != np.float64:
                df[c] = df[c].astype(np.float64)
        merged = df.groupby(_KEY, sort=False).sum()
        self.state = (
            merged
            if self.state.empty
            else self.state.add(merged, fill_value=0.0)
        )

    def _emit_table(self, df: pd.DataFrame) -> pa.Table:
        """(source, window_start, sums) rows, pre-merged across the
        salts this actor owns — the driver only concatenates shards and
        merges the (rare) cross-actor residue."""
        if not len(df):
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "window_start": pa.array([], pa.int64()),
                    **{c: pa.array([], pa.float64()) for c in self.sum_cols},
                }
            )
        g = df.groupby(level=["source", "window_start"], sort=False).sum()
        idx = g.index
        return pa.table(
            {
                "source": pa.array(idx.get_level_values("source"), pa.string()),
                "window_start": pa.array(
                    idx.get_level_values("window_start").astype(np.int64)
                ),
                **{c: pa.array(g[c].to_numpy()) for c in self.sum_cols},
            }
        )

    def close_windows(self, watermark_s) -> pa.Table:
        """Pop and return all state whose window has fully passed the
        watermark (window_start + size <= watermark), merged across
        this actor's salts.  ``watermark_s`` may be a per-source dict
        (cfg.watermark_scope='per_source'): each row closes against its
        OWN source's frontier; sources absent from the dict never
        close (no events seen yet)."""
        self._consolidate()
        ws = self.state.index.get_level_values("window_start").to_numpy()
        if isinstance(watermark_s, dict):
            srcs = self.state.index.get_level_values("source")
            wm = srcs.map(lambda s: watermark_s.get(s, -(2**62))).to_numpy()
            closed_mask = ws + self.window_size_s <= wm
        else:
            closed_mask = ws + self.window_size_s <= watermark_s
        closed = self.state[closed_mask]
        self.state = self.state[~closed_mask]
        self.metrics["windows_closed"] += int(len(closed))
        return self._emit_table(closed)

    def get_metrics(self) -> dict:
        self._consolidate()
        return {"partition": self.pid, **self.metrics, "live_groups": len(self.state)}

    def get_state_size(self) -> int:
        self._consolidate()
        return len(self.state)

    def peek_state(self) -> pa.Table:
        """Non-destructive snapshot of ALL live state (EMIT CHANGES:
        finalize may be applied repeatedly to intermediate state)."""
        self._consolidate()
        return self._emit_table(self.state)

    # -- checkpoint / restore ---------------------------------------------

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        self._consolidate()
        os.makedirs(ckpt_dir, exist_ok=True)
        df = self.state.sort_index()
        idx = df.index
        t = pa.table(
            {
                "source": pa.array(idx.get_level_values("source"), pa.string()),
                "salt": pa.array(idx.get_level_values("salt").astype(np.int64)),
                "window_start": pa.array(
                    idx.get_level_values("window_start").astype(np.int64)
                ),
                **{c: pa.array(df[c].to_numpy()) for c in self.sum_cols},
            }
        )
        path = os.path.join(ckpt_dir, f"state-p{self.pid:04d}.parquet")
        write_parquet_atomic(t, path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        """Rebuild state directly from the snapshot (no metrics side
        effects)."""
        path = os.path.join(ckpt_dir, f"state-p{self.pid:04d}.parquet")
        self.pending = []
        self.state = self.state.iloc[0:0]
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            df = t.select(_KEY + self.sum_cols).to_pandas()
            for c in self.sum_cols:
                df[c] = df[c].astype(np.float64)
            self.state = df.set_index(_KEY)
        return t.num_rows


class Router:
    """The epoch stage's router of ``StreamDriver``: computes one
    batch's partial table (via ``partial_fn``) and returns it as data
    through :func:`partial_row`, each row owned by partition
    ``route_partition(source, salt, P)`` (sessions carry no salt: they
    hash on source alone), with the batch's bookkeeping (max event ts,
    late-drop count, raw row count, per-source max ts, the kernel time
    ``sec_fn``) and the smallest numeric doc id as batch key.  It makes
    no actor calls, so Ray may retry the read task that runs it.
    ``actors`` goes unused (the driver routes); it keeps the
    constructor signature every streaming router shares and that
    router wrappers rely on."""

    def __init__(self, actors: list, n_partitions: int, partial_fn):
        self.P = n_partitions
        self.partial_fn = partial_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        partial, info = self.partial_fn(batch)
        part = None
        if partial.num_rows:
            salt = partial["salt"].to_numpy() if "salt" in partial.column_names else 0
            part = route_partition(partial["source"], salt, self.P)
        return partial_row(
            partial, part, info["batch_key"], max_ts_us=info["max_ts_us"],
            late_dropped=info["late_dropped"], rows_in=info["rows_in"],
            sec_fn=time.monotonic() - t0,
            # per-source max event ts (JSON; "" under a global
            # watermark) for per_source watermarking
            src_max_json=info.get("src_max_json", ""),
        )


@ray.remote(num_cpus=0)
class SessionStatePartition(PendingIngest):
    """Session-window state store: open partial sessions
    ``(source, start_us, end_us, sums...)`` merged by the gap rule.

    Sessions are NOT salted: one source's session state must be
    contiguous to merge correctly (ksqlDB likewise processes one key in
    one partition).  This is exactly the case where the reference's
    ``merge()`` on overlapping partials is load-bearing (SESSION windows
    merge partial aggregates, SURVEY.md §2.2).

    Merge strategy mirrors StatePartition: ``ingest`` only APPENDS the
    incoming partial table; the gap-rule merge happens lazily at epoch
    boundaries as ONE vectorized :func:`gap_sweep` over the open
    sessions and everything pending (the sweep the sketch actors
    share), then ``np.add.reduceat`` per sum column.  Same interval
    algorithm the batch path uses (aggregate.session_moments); no
    per-source or per-row Python."""

    def __init__(self, partition_id: int, sum_cols: list[str], gap_s: int):
        self.pid = partition_id
        self.sum_cols = list(sum_cols)
        self.gap_us = int(gap_s) * 1_000_000
        self._cols = ["session_start_us", "session_end_us"] + self.sum_cols
        self.state: pd.DataFrame = self._empty_state()
        self.pending: list[pa.Table] = []
        self.metrics = {"partial_rows_in": 0, "ingests": 0, "sessions_closed": 0}

    def _empty_state(self) -> pd.DataFrame:
        d = {
            "source": pd.Series(dtype=object),
            "session_start_us": pd.Series(dtype=np.int64),
            "session_end_us": pd.Series(dtype=np.int64),
        }
        d.update({c: pd.Series(dtype=np.float64) for c in self.sum_cols})
        return pd.DataFrame(d)

    def ingest(self, table: pa.Table) -> int:
        """Buffer a partial-sessions table (cols: source,
        session_start_us, session_end_us, *sum_cols); a missing column
        raises to the driver's barrier.  Gap-rule merge deferred to
        _consolidate()."""
        cols = ["source"] + self._cols
        _require_columns(f"session partition {self.pid}", table, cols)
        return super().ingest(table.select(cols))

    def _consolidate(self) -> None:
        if not self.pending:
            return
        new = pa.concat_tables(self.pending).to_pandas()
        self.pending = []
        new["session_start_us"] = new["session_start_us"].astype(np.int64)
        new["session_end_us"] = new["session_end_us"].astype(np.int64)
        for c in self.sum_cols:
            if new[c].dtype != np.float64:
                new[c] = new[c].astype(np.float64)
        allf = (
            pd.concat([self.state, new], ignore_index=True)
            if len(self.state)
            else new
        )
        codes, _ = pd.factorize(allf["source"], sort=False)
        start = allf["session_start_us"].to_numpy()
        order, first, end = gap_sweep(
            codes, start, allf["session_end_us"].to_numpy(), self.gap_us
        )
        sums = np.add.reduceat(allf[self.sum_cols].to_numpy()[order], first, axis=0)
        merged = pd.DataFrame(
            {
                "source": allf["source"].to_numpy()[order][first],
                "session_start_us": start[order][first],
                "session_end_us": end.astype(np.int64),
            }
        )
        for j, c in enumerate(self.sum_cols):
            merged[c] = sums[:, j]
        self.state = merged

    def _emit_table(self, df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "source": pa.array(df["source"].tolist(), pa.string()),
                "session_start_us": pa.array(
                    df["session_start_us"].to_numpy().astype(np.int64)
                ),
                "session_end_us": pa.array(
                    df["session_end_us"].to_numpy().astype(np.int64)
                ),
                **{c: pa.array(df[c].to_numpy()) for c in self.sum_cols},
            }
        )

    def close_windows(self, watermark_s) -> pa.Table:
        """Pop sessions that can no longer be extended:
        end + gap <= watermark.  Accepts a per-source watermark dict
        like StatePartition.close_windows."""
        self._consolidate()
        if isinstance(watermark_s, dict):
            wm_us = (
                self.state["source"]
                .map(lambda s: watermark_s.get(s, -(2**62)))
                .to_numpy(dtype=np.float64)
                * 1_000_000
            )
        else:
            wm_us = watermark_s * 1_000_000
        closed_mask = (
            self.state["session_end_us"].to_numpy() + self.gap_us <= wm_us
        )
        closed = self.state[closed_mask]
        self.state = self.state[~closed_mask].reset_index(drop=True)
        self.metrics["sessions_closed"] += int(len(closed))
        return self._emit_table(closed)

    def get_metrics(self) -> dict:
        self._consolidate()
        return {
            "partition": self.pid,
            **self.metrics,
            "live_sources": int(self.state["source"].nunique()),
        }

    def peek_state(self) -> pa.Table:
        """Non-destructive snapshot of all live sessions."""
        self._consolidate()
        return self._emit_table(
            self.state.sort_values(
                ["source", "session_start_us"], ignore_index=True
            )
        )

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        t = self.peek_state()
        path = os.path.join(ckpt_dir, f"sess-p{self.pid:04d}.parquet")
        write_parquet_atomic(t, path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        """Rebuild ``self.state`` directly from the snapshot, without
        routing it through ``ingest()`` or touching the ingest metrics."""
        path = os.path.join(ckpt_dir, f"sess-p{self.pid:04d}.parquet")
        self.pending = []
        self.state = self._empty_state()
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            df = t.select(["source"] + self._cols).to_pandas()
            df["session_start_us"] = df["session_start_us"].astype(np.int64)
            df["session_end_us"] = df["session_end_us"].astype(np.int64)
            for c in self.sum_cols:
                df[c] = df[c].astype(np.float64)
            self.state = df
        return t.num_rows

