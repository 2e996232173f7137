"""Keyed state partitions, the actors that host them, and the
side-effect-free partial stage's routing.

The reference's state lives in ksqlDB's RocksDB stores partitioned by
the GROUP BY key, with ``merge()`` combining partials across partitions
(SURVEY.md §4.1).  Here: ``P`` logical partitions, each owning a hash
range of the routing key, are hosted in ``H = min(P, Ray CPU slots)``
:class:`PartitionHost` actors, each over a contiguous range of
partition ids (:func:`host_pids`).  Kafka Streams runs its partition
tasks, each with its own state store, on a few stream threads the same
way: more state processes than CPU slots only time-share.  Every kind runs
one partition class, :class:`KeyedPartition`, over one Arrow state
table; a kind (:class:`Kind`) is its wire columns, a merge and a close
that returns what it emits and what it retains.  The moment kind and
the five sketch kinds are group kinds (:class:`GroupKind`: windows or
sessions, a group merge and a finish); CEP's tombstones, dedup's seen
set and the join buffers are rows of their kinds' tables.

Every stream router runs in one frame, :class:`Router`: a per-batch
kernel (``StreamDriver``'s computes *partial moment structs*, never raw
rows) and a partitioner.  It returns the partial as data; the driver
then routes the whole epoch's partials with :func:`route_partials` —
one ``ingest`` per host, carrying each owned partition's slice — the
explicit, tiny shuffle mandated by BASELINE.json:north_star.  With no
actor calls inside the stage's read tasks the stage is replayable, so
Ray's task retries are safe.

The window frame of the moment stage, the sketch routers and the
``StreamDriver`` passthrough is one set of helpers: :func:`late_rows`
(which rows the watermark drops), :func:`covering_windows` (each row's
open tumbling or hopping windows) and :func:`session_split` (a batch's
session fragments, which ``aggregate.gap_sweep`` merges in the
partitions).  The moment routines (``aggregate.power_sums``,
``aggregate.dense_key``, ``aggregate.gap_sweep``) live with the batch
path, which runs them too.

Skew: moment partials are pre-aggregated per ``(source, salt,
window)`` with a per-batch ``salt``, so a hot source's state spreads
over up to S partitions.  A partition closes each salt's row as it is;
the driver merges a window's salts once, across the partitions, on
O(closed windows x salts) rows (``StreamDriver._finalize_tables``).

Fault tolerance: Ray does not recover actor state — each partition
checkpoints its state per epoch as its own file, so a checkpoint
restores under any host count, and the driver records the epoch
frontier; resume restores the snapshot and replays from the next epoch
(SURVEY.md §4.2).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from numbers import Number

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from raystat.aggregate import encode_key, gap_sweep
from raystat.dataops.joins import _key_u64

__all__ = [
    "GroupKind", "KeyedPartition", "Kind", "PartitionHost", "Router", "route_partition",
    "key_partition", "source_watermarks", "partial_row", "route_partials",
    "write_parquet_atomic", "late_rows", "covering_windows",
    "session_split", "cpu_slots", "host_pids", "start_hosts", "event_book",
]


PART_COL = "_partition"  # owning partition of each partial row on the wire
NEG = -(2**62)  # watermark before any event
END = 2**62  # end-of-stream watermark: every window closes


def route_partition(source, salt, n_partitions: int) -> np.ndarray:
    """Owning partition of each row: ``crc32(source) * 31 + salt mod P``
    (``source`` an Arrow string column; ``salt`` an int array or 0)."""
    codes, vocab = encode_key(source, "source")
    h = np.array([zlib.crc32(v.encode()) for v in vocab.to_pylist()], dtype=np.int64)
    return (h[codes] * 31 + salt) % n_partitions


def source_watermarks(sources, watermark):
    """Each row's watermark: ``watermark`` itself when it is the one
    global scalar, else its per-source frontier dict, looked up once
    per distinct value of ``sources`` (an Arrow string column); a
    source without a frontier has seen no event yet (``NEG``)."""
    if not isinstance(watermark, dict):
        return watermark
    codes, vocab = encode_key(sources, "source")
    wm = np.array([watermark.get(s, NEG) for s in vocab.to_pylist()], dtype=np.int64)
    return wm[codes]


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


def cpu_slots() -> int:
    """The Ray cluster's CPU slots: the cap on an epoch's read tasks
    and on its state hosts."""
    return int(ray.cluster_resources().get("CPU", 1))


def host_pids(n_partitions: int, n_hosts: int) -> list[list[int]]:
    """The partition ids each of ``n_hosts`` hosts owns: contiguous
    ranges in pid order, their sizes differing by at most one."""
    return [p.tolist() for p in np.array_split(np.arange(n_partitions), n_hosts)]


def start_hosts(n_partitions: int, kind, *kind_args) -> list:
    """Start ``min(n_partitions, cpu_slots())`` :class:`PartitionHost`
    actors hosting the partitions ``range(n_partitions)``
    (:func:`host_pids`), each running ``kind(*kind_args)``."""
    n_hosts = min(n_partitions, cpu_slots())
    return [PartitionHost.remote(pids, kind, *kind_args)
            for pids in host_pids(n_partitions, n_hosts)]


def route_partials(book: pd.DataFrame, hosts: list, n_partitions: int) -> list:
    """Submit one epoch's partials to the hosts of their owning
    partitions and return the ``ingest`` refs, at most one per host
    (``hosts`` as :func:`start_hosts` made them for ``n_partitions``).
    ``book`` holds the routers' rows (:func:`partial_row`); the
    non-empty payloads are concatenated in batch-key order (payload
    bytes break ties), then stably sorted by owning partition, so every
    partition sees the same rows in the same order on every run,
    whatever order the read tasks finished in (float sums and sketch
    merges depend on it)."""
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
    pids = host_pids(n_partitions, len(hosts))
    host_of = np.repeat(np.arange(len(hosts)), [len(p) for p in pids])[part]
    cuts = [0, *(np.flatnonzero(np.diff(host_of)) + 1), len(part)]
    refs = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        owned, rows = np.unique(part[lo:hi], return_counts=True)
        refs.append(hosts[int(host_of[lo])].ingest.remote(
            tbl.slice(lo, hi - lo), list(zip(owned.tolist(), rows.tolist()))))
    return refs


def write_parquet_atomic(table: pa.Table, path: str) -> None:
    """Write ``table`` to ``path`` through a temp file and a rename, so
    a crash never leaves a torn snapshot."""
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


@ray.remote(num_cpus=0)
class PartitionHost:
    # num_cpus=0: merge work is tiny (partial structs); reserving CPU
    # shares would starve the epoch stage's read tasks in small sessions.
    """One state-actor process hosting the logical partitions ``pids``
    (a contiguous range), each a :class:`KeyedPartition` running
    ``kind(*kind_args)``.  ``call`` runs a method on each owned
    partition in pid order, so the driver sees per-partition results in
    the order ``range(P)`` gives them whatever the host count, and every
    partition still snapshots to its own file."""

    def __init__(self, pids: list[int], kind, *kind_args):
        self.parts = {p: KeyedPartition(p, kind, *kind_args) for p in pids}

    def ready(self, table: pa.Table) -> bool:
        """A no-op taking an Arrow table, which the driver's
        ``prepare()`` sends once per host: the first Arrow column a
        worker deserializes imports Ray's Arrow tensor extensions, and
        with them ``ray.data`` (0.1-0.3 s per actor process on one
        vCPU), which the first epoch's barrier would otherwise wait
        on."""
        return True

    def ingest(self, table: pa.Table, sizes: list[tuple[int, int]]) -> int:
        """``table`` is the owned partitions' slices back to back, in
        the order of ``sizes``, its ``(pid, rows)`` pairs; each
        partition ingests its own slice."""
        lo = 0
        for pid, n in sizes:
            self.parts[pid].ingest(table.slice(lo, n))
            lo += n
        return lo

    def call(self, method: str, *args) -> list:
        """``method(*args)`` of every owned partition, in pid order."""
        return [getattr(p, method)(*args) for p in self.parts.values()]

    def get_metrics(self) -> dict:
        """The owned partitions' numeric counters summed, plus their own
        metric dicts in pid order under ``partitions``."""
        per = self.call("get_metrics")
        out: dict = {}
        for m in per:
            for k, v in m.items():
                if k != "partition" and isinstance(v, Number):
                    out[k] = out.get(k, 0) + v
        return {**out, "partitions": per}


def late_rows(ts_us: np.ndarray, wm, size_s: int | None = None, hop_s: int | None = None):
    """The late rule of every stream router and of the passthrough, one
    flag per row at event time ``ts_us`` under watermark ``wm`` (s; a
    scalar or one per row).  A window row (``size_s`` windows every
    ``hop_s``) is late when its latest covering window, the one starting
    at ``(ts // hop) * hop``, has closed (``start + size <= wm``), so
    every earlier one has too.  A session row (``size_s`` None) is late
    when ``ts_us <= wm`` in microseconds: only then can it extend no
    session that is still open (``end + gap <= wm`` closes one), the
    watermark clamped as :meth:`GroupKind.close` clamps it."""
    if size_s is None:
        return ts_us <= np.clip(wm, NEG // 1_000_000, END // 1_000_000) * 1_000_000
    return _window_late(ts_us // 1_000_000 // hop_s, wm, size_s, hop_s)


def _window_late(k_last: np.ndarray, wm, size_s: int, hop_s: int) -> np.ndarray:
    # the window rule of late_rows on each row's latest window index
    return k_last * hop_s + size_s <= wm


def covering_windows(ts_us: np.ndarray, wm, size_s: int, hop_s: int):
    """Expand each row into its open covering windows: the
    ``window_start`` multiples of ``hop_s`` with ``start <= ts < start +
    size_s`` (any ``hop_s <= size_s``) whose window has not closed under
    ``wm`` (a scalar or one per row).  Returns ``(row_of, window_start,
    late)``: the pairs by row, each row's windows ascending, and the
    :func:`late_rows` flags; a late row has no pairs and is not
    expanded."""
    ts_s = ts_us // 1_000_000
    k_last = ts_s // hop_s
    late = _window_late(k_last, wm, size_s, hop_s)
    kept = np.flatnonzero(~late)
    if hop_s == size_s:  # tumbling: one window a row
        return kept, k_last[kept] * size_s, late
    k_last = k_last[kept]
    k_min = (ts_s[kept] - size_s) // hop_s + 1
    counts = k_last - k_min + 1
    row_of = np.repeat(kept, counts)
    nth = np.arange(row_of.size) - np.repeat(np.cumsum(counts) - counts, counts)
    start = (np.repeat(k_min, counts) + nth) * hop_s
    live = start + size_s > (wm[row_of] if np.ndim(wm) else wm)
    return row_of[live], start[live], late


def session_split(codes: np.ndarray, ts_us: np.ndarray, gap_us: int):
    """Split rows into session fragments: sort by (key code, ts) and
    break where the key changes or the ts gap exceeds ``gap_us``.
    Returns the sort order, each sorted row's fragment id and the
    sorted position where each fragment starts."""
    order = np.lexsort((ts_us, codes))
    c, t = codes[order], ts_us[order]
    brk = np.ones(c.size, dtype=bool)
    brk[1:] = (c[1:] != c[:-1]) | (t[1:] - t[:-1] > gap_us)
    return order, np.cumsum(brk) - 1, np.flatnonzero(brk)


def _require_columns(owner: str, table: pa.Table, cols: list[str]) -> None:
    missing = [c for c in cols if c not in table.column_names]
    if missing:
        raise ValueError(f"{owner}: partial table lacks columns {missing}")


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


class Kind:
    """A state kind, as :class:`KeyedPartition` runs it: everything
    kind-specific about one partition's state, which is one Arrow table.

    - ``wire``: the columns every partial must carry (checked at ingest);
    - ``schema``: the state table's schema; an empty schema lets the
      state take its columns from the first partials merged in (a kind
      whose columns follow the input);
    - ``merge(state, new) -> state``: fold the ``new`` partials (the
      pending ingests concatenated, in ingest order) into the state;
    - ``close(state, arg) -> (emitted, retained)``: the rows ``arg`` (a
      watermark, or dedup's epoch) makes final, and the state to keep;
    - ``peek(state)``: the rows every open group would emit now (EMIT
      CHANGES), for the kinds that have groups;
    - ``gauges(state)``: metrics read off the state;
    - ``metrics``: the counters, which a snapshot saves and a restore
      reloads with the state.
    """

    wire: list = []
    schema = pa.schema([])

    def __init__(self):
        self.metrics = {"partial_rows_in": 0, "ingests": 0}

    def peek(self, state: pa.Table) -> pa.Table:
        raise NotImplementedError(f"{type(self).__name__} has no open groups to peek at")

    def gauges(self, state: pa.Table) -> dict:
        return {"state_rows": state.num_rows}


class GroupKind(Kind):
    """A kind whose state is open groups: windows of ``span_s`` seconds,
    or sessions with a gap of ``span_s`` seconds when ``session``.  The
    moment kind and the five sketch kinds are group kinds.

    - ``window_groups`` / ``session_groups``: the group columns, a
      string key first (the one the watermark and the gap sweep go
      by), then int64 columns: a window's start in seconds last, a
      session's start and end in microseconds;
    - ``payload``: the state columns after the group columns;
      ``payload_wire`` (the payload unless given): the partial columns
      its routers send after the group columns;
    - ``merge_groups(state, new, gid) -> (g, columns)``: merge the
      consolidated ``state`` table and the ``new`` partials; ``gid`` is
      the group id of every row of ``state`` then ``new``.  Returns
      each output row's group id and the payload columns; ``merge`` puts
      the group columns in front;
    - ``finish(closed, gid) -> pa.Table``: the emitted rows of the
      closed groups (``gid``: each closed row's group id), group columns
      first; by default the closed rows as they are.

    ``merge`` groups windows by their group columns; sessions run the
    gap-rule sweep over the open sessions and the new fragments
    (``aggregate.gap_sweep``): each cluster becomes one session whose bounds
    span its members.  ksqlDB's SESSION contract is why merge exists:
    overlapping partials must merge.  ``close`` retires a window when
    ``window_start + size <= watermark`` and a session when ``end + gap
    <= watermark`` (any admissible future event has ts > watermark, so
    it cannot extend it).  The watermark may be a per-source dict
    (:func:`source_watermarks`)."""

    window_groups = ("key", "window_start_s")
    session_groups = ("key", "session_start_us", "session_end_us")
    payload: dict = {}

    def __init__(self, span_s: int, session: bool, payload_wire: list | None = None):
        super().__init__()
        self.session = bool(session)
        self.groups = list(self.session_groups if self.session else self.window_groups)
        # window size in s (window starts are in s), session gap in us
        self.span = int(span_s) * (1_000_000 if self.session else 1)
        self.payload_wire = list(self.payload if payload_wire is None else payload_wire)
        self.wire = self.groups + self.payload_wire
        group_types = [pa.string()] + [pa.int64()] * (len(self.groups) - 1)
        self.schema = pa.schema(list(zip(self.groups, group_types)) + list(self.payload.items()))
        self.closed_metric = "sessions_closed" if self.session else "windows_closed"
        self.metrics[self.closed_metric] = 0

    def _group_columns(self, t: pa.Table) -> dict:
        return {c: t[c] for c in self.groups}

    def _session_groups(self, t: pa.Table):
        key = self.groups[0]
        codes = encode_key(t[key], key)[0]
        start = t["session_start_us"].to_numpy()
        order, first, end = gap_sweep(codes, start, t["session_end_us"].to_numpy(), self.span)
        gid = np.empty(t.num_rows, dtype=np.int64)
        gid[order] = np.repeat(np.arange(first.size), np.diff(np.append(first, order.size)))
        bounds = pa.table({key: t[key].take(pa.array(order[first])),
                           "session_start_us": start[order][first],
                           "session_end_us": end.astype(np.int64)})
        return gid, bounds

    def merge(self, state: pa.Table, new: pa.Table) -> pa.Table:
        new = new.select(self.wire)
        both = pa.concat_tables([state.select(self.groups), new.select(self.groups)])
        if self.session:
            gid, bounds = self._session_groups(both)
        else:
            gid, first = _group_ids(both, self.groups)
            bounds = both.take(pa.array(first))
        g, cols = self.merge_groups(state, new, gid)
        keys = bounds.take(pa.array(g))
        return pa.table({**{c: keys[c] for c in self.groups}, **cols})

    def close(self, state: pa.Table, watermark_s) -> tuple[pa.Table, pa.Table]:
        """Retire every group the watermark passed: the kind's output
        rows for them, and the open groups."""
        wm = source_watermarks(state[self.groups[0]], watermark_s)
        if self.session:
            wm = np.clip(wm, NEG // 1_000_000, END // 1_000_000) * 1_000_000
            bound = state["session_end_us"].to_numpy() + self.span
        else:
            bound = state[self.groups[-1]].to_numpy() + self.span
        done = bound <= wm
        closed = state.filter(pa.array(done))
        gid, first = _group_ids(closed, self.groups)
        self.metrics[self.closed_metric] += int(first.size)
        return self.finish(closed, gid), state.filter(pa.array(~done))

    def finish(self, closed: pa.Table, gid: np.ndarray) -> pa.Table:
        return closed

    def peek(self, state: pa.Table) -> pa.Table:
        return self.finish(state, _group_ids(state, self.groups)[0])


class KeyedPartition:
    """One logical partition's state, for every kind: the kind
    ``kind(*kind_args)`` (a :class:`Kind`) and its state, ONE Arrow
    table.  ``ingest`` checks a partial table's ``kind.wire`` columns
    (a missing one raises to the driver's barrier) and buffers it; the
    merge happens lazily (close, peek, snapshot, metrics) as ONE
    ``kind.merge`` over everything pending, in ingest order.
    ``close(arg)`` emits what ``arg`` made final and keeps what the
    kind retains.  A snapshot is one file, ``state-pNNNN.parquet``,
    whose schema metadata holds the counters; a restore reloads both."""

    def __init__(self, pid: int, kind, *kind_args):
        self.pid = pid
        self.kind = kind(*kind_args)
        self.metrics = self.kind.metrics
        self.state = self.kind.schema.empty_table()
        self.pending: list[pa.Table] = []

    def ingest(self, table: pa.Table) -> int:
        _require_columns(f"partition {self.pid}", table, self.kind.wire)
        n = table.num_rows
        if n:
            self.pending.append(table)
        self.metrics["partial_rows_in"] += n
        self.metrics["ingests"] += 1
        return n

    def _consolidate(self) -> None:
        if self.pending:
            new = pa.concat_tables(self.pending, promote_options="default")
            self.pending = []
            self.state = self.kind.merge(self.state, new)

    def close(self, arg) -> pa.Table:
        self._consolidate()
        emitted, self.state = self.kind.close(self.state, arg)
        return emitted

    def peek_state(self) -> pa.Table:
        self._consolidate()
        return self.kind.peek(self.state)

    def get_metrics(self) -> dict:
        self._consolidate()
        return {"partition": self.pid, **self.metrics, **self.kind.gauges(self.state)}

    def _path(self, ckpt_dir: str) -> str:
        return os.path.join(ckpt_dir, f"state-p{self.pid:04d}.parquet")

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        self._consolidate()
        os.makedirs(ckpt_dir, exist_ok=True)
        path = self._path(ckpt_dir)
        meta = {b"metrics": json.dumps(self.metrics, separators=(",", ":")).encode()}
        write_parquet_atomic(self.state.replace_schema_metadata(meta), path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        """Rebuild the state and the counters from the snapshot.  A
        checkpoint without this partition's snapshot raises: resuming on
        empty state would silently lose it."""
        t = pq.read_table(self._path(ckpt_dir))
        self.pending = []
        self.metrics.update(json.loads(t.schema.metadata[b"metrics"]))
        self.state = t.replace_schema_metadata()
        return self.state.num_rows


def event_book(ts_us: np.ndarray, key: np.ndarray | None = None, **book) -> dict:
    """A router's bookkeeping for a batch at event times ``ts_us``:
    ``rows_in``, ``max_ts_us`` (what moves the watermark) and
    ``batch_key``, the smallest ``key`` (the event times unless given),
    which orders the epoch's payloads (:func:`route_partials`); -1 for
    an empty batch.  ``book`` adds the router's own counters."""
    n = len(ts_us)
    key = ts_us if key is None else key
    return {"max_ts_us": int(ts_us.max()) if n else -1, "rows_in": n,
            "batch_key": int(key.min()) if n else -1, **book}


class Router:
    """The one frame of every stream router: runs the per-batch kernel
    ``partial_fn(batch) -> (partial table or None, info)``, gives each
    partial row its owning partition (``partition(partial)``) and
    returns both as data through :func:`partial_row`, with the kernel
    time (partition included) as ``sec_fn``.  ``info`` is the batch's
    bookkeeping (:func:`event_book`, plus the router's counters).

    ``StreamDriver`` passes its moment kernel as ``partial_fn``, and its
    partials are owned by ``route_partition(source, salt, P)`` (sessions
    carry no salt: they hash on source alone).  The sketch, CEP, join
    and dedup routers subclass it and write ``partial_fn`` and
    ``partition`` as methods.  A router makes no actor calls, so Ray
    may retry the read task that runs it; ``actors`` goes unused (the
    driver routes) and stays the first constructor argument of every
    router, which router wrappers rely on."""

    def __init__(self, actors: list, n_partitions: int, partial_fn=None):
        self.P = n_partitions
        if partial_fn is not None:
            self.partial_fn = partial_fn

    def partition(self, partial: pa.Table) -> np.ndarray:
        salt = partial["salt"].to_numpy() if "salt" in partial.column_names else 0
        return route_partition(partial["source"], salt, self.P)

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        partial, info = self.partial_fn(batch)
        part = None
        if partial is not None and partial.num_rows:
            part = self.partition(partial)
        return partial_row(partial, part, sec_fn=time.monotonic() - t0, **info)
