"""Distributed grouped moment aggregation — the batch query path.

Three stages, mirroring the reference's partial/final UDAF contract
(``aggregate`` per event → ``merge`` across partitions → ``map``,
e.g. WeightedStdDevUdaf.java:94-163) but vectorized and Ray-Data-first:

1. **partial** — one ``map_batches(batch_format="pyarrow")`` computes
   per-batch power sums per (keys, window): a dense group id per row
   (:func:`dense_key`) and one ``np.bincount`` per sum
   (:func:`power_sums`); sessions first run :func:`gap_sweep`.  These
   are the streaming moment stage's routines too.  Each input batch
   collapses to at most |distinct groups in batch| rows, so the
   shuffle moves partial aggregates, not rows (SURVEY.md §4.2).
2. **merge** — :func:`keyed_merge`: one sort exchange on the group
   keys, then one Arrow ``group_by().aggregate(sum)`` per block
   (:func:`sum_kernel`; sessions: :func:`session_kernel`); no
   per-group Python call (field-wise addition == the reference's ``merge``).
3. **finalize** — a ``map_batches`` fused with the merge evaluates every
   requested statistic for all groups in one vectorized NumPy
   expression (== the reference's ``map``, non-destructive).

Scales to arbitrary input size: stages 1 and 3 stream; stage 2's
input is O(batches × groups) rows of ≤10 float64 columns.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raystat.accumulators import AggregatorSpec, canonical_sums_for, get_spec
from raystat.scratch import buf, tune_allocator
from raystat.windows import Hopping, Tumbling, assign_windows, ts_to_epoch_us

__all__ = [
    "grouped_moments", "session_moments", "keyed_merge", "power_sums", "group_sums",
    "dense_key", "split_key", "gap_sweep",
]

_GLOBAL_KEY = "_all"  # constant group key for global aggregates
# (mirrors the reference's GROUP BY 'singleton', AllUdafIT.java:596-598)


def _resolve(specs) -> dict[str, AggregatorSpec]:
    return {
        out: (get_spec(s) if isinstance(s, str) else s) for out, s in specs.items()
    }


def keyed_merge(ds, keys: list[str], kernel):
    """Run ``kernel`` (pa.Table -> pa.Table) on blocks that each hold
    every row of their keys: a range-partitioning sort on ``keys`` and
    then whole blocks (``batch_size=None``) — the pair Ray Data's own
    grouped map is built on.  ``kernel`` sees many keys per call."""
    return ds.sort(keys).map_batches(kernel, batch_format="pyarrow", batch_size=None)


def sum_kernel(group_cols: list[str], cols: list[str]):
    """Kernel adding ``cols`` per distinct ``group_cols`` (Arrow hash
    aggregation); output columns ``group_cols + cols``."""

    def merge(t: pa.Table) -> pa.Table:
        agg = t.group_by(group_cols).aggregate([(c, "sum") for c in cols])
        return agg.rename_columns(group_cols + cols)

    return merge


def finalize_kernel(resolved: Mapping, needed, pass_cols: list[str]):
    """Kernel evaluating every spec's ``finalize_arrays`` over merged
    sums for all groups of a batch; ``pass_cols`` are carried through.
    A statistic the finalizer leaves NaN (undefined: a sample skewness
    under 3 rows, say) is null, as SQL aggregates give it.  The batch
    and the streaming moment closes both finalize here."""

    def finalize(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c].to_numpy(zero_copy_only=False) for c in needed}
        out: dict[str, object] = {k: batch[k] for k in pass_cols}
        for name, spec in resolved.items():
            out[name] = pa.array(np.atleast_1d(spec.finalize_arrays(cols)), type=pa.float64(),
                                 from_pandas=True)
        return pa.table(out)

    return finalize


def check_keys(batch: pa.Table, keys: list[str]) -> None:
    """Fail loudly on null group keys before the exchange: Ray's sort
    cannot order nulls (a TypeError in the shuffle, or a split group)."""
    for k in keys:
        if batch[k].null_count:
            raise ValueError(f"group key column {k!r} contains nulls")


def encode_key(col, name: str) -> tuple[np.ndarray, pa.Array]:
    """Dictionary-encode key column ``name``: (int64 codes, dictionary).
    A null key raises: its null index would cast to an arbitrary int64
    code and mis-group (or crash) every grouping downstream."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError(f"key column {name!r} contains nulls")
    d = pc.dictionary_encode(col)
    return d.indices.to_numpy(zero_copy_only=False).astype(np.int64), d.dictionary


def valid_xw_mask(batch: pa.Table, cols):
    """The rows whose ``cols`` (None entries skipped) are all non-null,
    or None when no row has a null: the null rule of the batch moments
    and comoments (:func:`partial_rows`) and the streaming moment stage
    (SQL-aggregate null semantics; ksqlDB likewise skips null events)."""
    mask = None
    for c in cols:
        if c is not None and batch[c].null_count:
            v = pc.is_valid(batch[c])
            mask = v if mask is None else pc.and_(mask, v)
    return mask


def partial_rows(batch: pa.Table, keys: list[str], window, ts: str, cols) -> pa.Table:
    """A batch partial's input rows: null keys raise (:func:`check_keys`),
    a ``window`` appends ``window_start`` (hopping windows repeat each
    row per window), and rows with a null in ``cols`` are dropped
    (:func:`valid_xw_mask`)."""
    tune_allocator()  # idempotent; needed under by-value pickling
    check_keys(batch, keys)
    if window is not None:
        batch, ws = assign_windows(batch, ts, window)
        batch = batch.append_column("window_start", pa.array(ws, type=pa.int64()))
    mask = valid_xw_mask(batch, cols)
    return batch if mask is None else batch.filter(mask)


def f8_column(batch: pa.Table, col: str) -> np.ndarray:
    """Column ``col`` of ``batch`` as a float64 array."""
    return batch[col].cast(pa.float64()).to_numpy(zero_copy_only=False)


# ---------------------------------------------------------------------------
# Moment routines of the batch partials and the streaming moment stage:
# a dense group id per row, grouped bincount sums, the session gap sweep.
# ---------------------------------------------------------------------------


def group_sums(gidx: np.ndarray, n_groups: int):
    """Grouped sums over group ids ``gidx`` (one per pair, ``<
    n_groups``): each group's pair count, the ids that have pairs
    (ascending) and ``gsum(v)``, the per-pair array ``v`` summed per
    present id with an ``np.bincount``, which adds a group's pairs in
    pair order."""
    counts = np.bincount(gidx, minlength=n_groups)
    present = np.flatnonzero(counts)
    sel = None if present.size == n_groups else present

    def gsum(v):
        s = np.bincount(gidx, weights=v, minlength=n_groups)
        return s if sel is None else s[sel]

    return counts, present, gsum


def power_sums(gidx, n_groups: int, take, x, w, tr, needed, u_order, w_order, alias_w):
    """Every partial sum of ``needed`` per group id ``gidx`` (one per
    pair, ``< n_groups``; :func:`group_sums`).  Pair ``i`` is row
    ``take[i]`` of the per-row arrays ``x``, ``w`` and ``tr`` (``take``
    None: pair ``i`` is row ``i``).  Returns the group ids that have
    pairs, ascending, and their sums."""
    def at(v):
        return v if take is None else np.take(v, take)

    counts, present, gsum = group_sums(gidx, n_groups)
    g_x = at(x)
    m = g_x.size
    sums: dict[str, np.ndarray] = {}
    if u_order:
        sums["u_n"] = counts[present].astype(np.int64)
        sums["u_s1"] = gsum(g_x)
        pb = buf("pow", m)
        np.copyto(pb, g_x)
        for i in range(2, u_order + 1):
            np.multiply(pb, g_x, out=pb)
            sums[f"u_s{i}"] = gsum(pb)
    if w_order and alias_w:
        # weight == value: sum w·x^i is the power sum one order up
        sums["w_sw"] = sums["u_s1"]
        sums["w_sv"] = sums["u_s2"]
        for i in range(2, w_order + 1):
            sums[f"w_s{i}"] = sums[f"u_s{i + 1}"]
    elif w_order:
        g_w = at(w)
        wp = buf("wpow", m)
        sums["w_sw"] = gsum(g_w)
        np.multiply(g_w, g_x, out=wp)
        sums["w_sv"] = gsum(wp)
        pb = buf("pow", m)
        np.copyto(pb, g_x)
        for i in range(2, w_order + 1):
            np.multiply(pb, g_x, out=pb)
            np.multiply(g_w, pb, out=wp)
            sums[f"w_s{i}"] = gsum(wp)
    if tr is not None:
        for c, v in tr.items():
            sums[c] = gsum(at(v))
    if "c_sxy" in needed:
        # bivariate sums: y = the row's token sum
        y = at(tr["t_s1"])
        sums["c_syy"] = gsum(y * y)
        sums["c_sxy"] = gsum(g_x * y)
    return present, sums


def dense_key(code: np.ndarray, n_code: int, sub: np.ndarray, n_sub: int):
    """The composite group id ``code * n_sub + sub`` of each pair
    (``code < n_code``, ``sub < n_sub``): when the key domain is small
    the ids index a direct ``np.bincount`` with no sort at all; past
    ``max(4 * pairs, 2**16)`` ids a 1-D ``np.unique`` compacts them.
    Returns the ids, their count and the composite value of each id
    (None when not compacted); :func:`split_key` inverts it."""
    gidx = buf("dense", sub.size, np.int64)
    np.multiply(code, n_sub, out=gidx)
    np.add(gidx, sub, out=gidx)
    n_groups, key = n_code * n_sub, None
    if n_groups > max(4 * sub.size, 1 << 16):  # high cardinality: sort
        key, gidx = np.unique(gidx, return_inverse=True)
        n_groups = key.size
    return gidx, n_groups, key


def split_key(g: np.ndarray, n_sub: int, key) -> tuple[np.ndarray, np.ndarray]:
    """The ``(code, sub)`` of :func:`dense_key` ids ``g``."""
    return np.divmod(g if key is None else key[g], n_sub)


def gap_sweep(codes: np.ndarray, start: np.ndarray, end: np.ndarray, gap_us: int):
    """The gap-rule session sweep of the batch session merge and the
    session state partitions: sort by (key code, start), take each key's
    running max of the ends, and open a new session where the key
    changes or ``start - running max > gap``.  Returns the sort order,
    the sorted position of each session's first row and each session's
    end.  (The grouped running max suffices: a row starting beyond it
    is provably a new session, and every row of a new session has
    ``end >= start > previous max``, so earlier sessions never leak
    into a later session's end.)  One C-loop pass at any key
    cardinality."""
    order = np.lexsort((start, codes))
    c, s = codes[order], start[order]
    cm = pd.Series(end[order]).groupby(c).cummax().to_numpy()
    brk = np.ones(c.size, dtype=bool)
    brk[1:] = (c[1:] != c[:-1]) | (s[1:] - cm[:-1] > gap_us)
    first = np.flatnonzero(brk)
    last = np.append(first[1:], c.size)[: first.size] - 1  # no rows: no sessions
    return order, first, cm[last]


def table_groups(t: pa.Table, cols: list[str]):
    """The batch path's dense group id of each row of ``t`` over
    ``cols``: each column's codes in value order, folded in column by
    column with :func:`dense_key`, so ids ascend in value order.
    Returns the ids, their count and ``values(g)``, the ``cols`` of ids
    ``g`` (a constant ``_all`` column when ``cols`` is empty)."""
    gidx, n, radix = np.zeros(t.num_rows, np.int64), 1, []
    for c in cols:
        codes, d = encode_key(t[c], c)
        rank = pc.rank(d).to_numpy().astype(np.int64) - 1
        gidx, n, key = dense_key(gidx, n, rank[codes], len(d))
        radix.append((c, d.take(pc.sort_indices(d)), key))

    def values(g: np.ndarray) -> dict:
        out = {}
        for c, d, key in reversed(radix):
            g, code = split_key(g, len(d), key)
            out[c] = d.take(pa.array(code))
        return {c: out[c] for c in cols} or {_GLOBAL_KEY: np.zeros(g.size, np.int8)}

    return gidx, n, values


def sum_table(groups: dict, sums: dict) -> pa.Table:
    """A partial table: the group columns, then the sums (the counts
    int64, every other sum float64, also with no rows)."""
    typed = {c: pa.array(v, pa.int64() if c in ("u_n", "c_n") else pa.float64())
             for c, v in sums.items()}
    return pa.table({**groups, **typed})


def _sessions(t: pa.Table, keys: list[str], start: np.ndarray, end: np.ndarray, gap_us: int):
    """:func:`gap_sweep` over the rows of ``t`` (sessions ``[start,
    end]`` of ``keys``): the sort order, each session's first sorted
    position and its group columns and bounds."""
    gidx, _, values = table_groups(t, keys)
    order, first, last = gap_sweep(gidx, start, end, gap_us)
    rows = order[first]
    return order, first, {**values(gidx[rows]), "session_start_us": start[rows],
                          "session_end_us": last}


def grouped_moments(
    ds,
    specs: Mapping[str, "AggregatorSpec | str"],
    keys: list[str] | None = None,
    *,
    value: str,
    weight: str | None = None,
    window: "Tumbling | Hopping | None" = None,
    ts: str = "ts",
    batch_size: int | None = None,
):
    """Grouped (optionally windowed) statistics over a Dataset.

    ``specs`` maps output column name -> registered aggregator name (or
    spec).  ``keys=None``/[] computes a global aggregate (constant
    group, like the reference's ``GROUP BY 'singleton'``).  ``window``
    (Tumbling/Hopping over ``ts``) adds an int64 epoch-seconds
    ``window_start`` group column.  Returns a lazy Dataset with columns
    ``keys + [window_start?] + list(specs)``.
    """
    resolved = _resolve(specs)
    needed, u_order, w_order = canonical_sums_for(resolved.values())
    if not needed:
        raise ValueError("no aggregators requested")
    if w_order and weight is None:
        raise ValueError("weighted aggregator requested but weight column is None")
    # name-based check: isinstance breaks across by-value module copies
    # (see windows.assign_windows)
    if window is not None and type(window).__name__ not in ("Tumbling", "Hopping"):
        raise TypeError(
            f"grouped_moments supports Tumbling/Hopping windows, got {window!r}; "
            "use session_moments() for Session windows"
        )
    keys = list(keys or [])
    group_cols = keys + (["window_start"] if window is not None else [])
    out_group_cols = group_cols or [_GLOBAL_KEY]
    alias_w = weight is not None and weight == value and u_order >= w_order + 1

    def partial(batch: pa.Table) -> pa.Table:
        batch = partial_rows(batch, keys, window, ts, (value, weight))
        x = f8_column(batch, value)
        w = None if weight is None else x if weight == value else f8_column(batch, weight)
        gidx, n_groups, values = table_groups(batch, group_cols)
        present, sums = power_sums(gidx, n_groups, None, x, w, None, needed,
                                   u_order, w_order, alias_w)
        return sum_table(values(present), {c: sums[c] for c in needed})

    kwargs = {"batch_format": "pyarrow", "zero_copy_batch": True}
    if batch_size is not None:
        kwargs["batch_size"] = batch_size
    partials = ds.map_batches(partial, **kwargs)
    agg = keyed_merge(partials, out_group_cols, sum_kernel(out_group_cols, list(needed)))
    # global aggregates drop the constant _all key
    return agg.map_batches(finalize_kernel(resolved, needed, group_cols), batch_format="pyarrow")


def session_kernel(keys: list[str], sum_cols: list[str], gap_us: int):
    """Kernel merging sessions (rows of ``keys``, ``session_start_us``,
    ``session_end_us``, ``sum_cols``) for all keys of a block at once:
    :func:`gap_sweep`, then each session's sums through
    ``np.add.reduceat`` in (key, start) order.  Output rows are ordered
    by keys, then start."""

    def merge(t: pa.Table) -> pa.Table:
        start = t["session_start_us"].to_numpy()
        order, first, bounds = _sessions(t, keys, start, t["session_end_us"].to_numpy(), gap_us)
        return sum_table(bounds, {c: np.add.reduceat(t[c].to_numpy()[order], first)
                                   for c in sum_cols})

    return merge


def session_moments(
    ds,
    specs: Mapping[str, "AggregatorSpec | str"],
    keys: list[str],
    *,
    value: str,
    weight: str | None = None,
    ts: str = "ts",
    gap_s: int = 300,
):
    """Session-window statistics (ksqlDB SESSION semantics: per-key
    events whose successive gaps are <= gap share a window).

    Each batch's rows become its sessions through :func:`gap_sweep`
    (an event is the session ``[ts, ts]``) and :func:`power_sums`;
    then :func:`session_kernel` merges the sessions of all batches with
    the same sweep — the step where the reference's ``merge()`` on
    overlapping partials is load-bearing.  Output: keys +
    session_start_us + session_end_us (int64 epoch microseconds) + one
    column per spec.

    Partitioning assumption: :func:`keyed_merge` sorts the partials on
    ``keys``, so all partial sessions of one key meet in one block;
    partials are O(batches × keys), not O(rows).
    """
    resolved = _resolve(specs)
    needed, u_order, w_order = canonical_sums_for(resolved.values())
    if w_order and weight is None:
        raise ValueError("weighted aggregator requested but weight column is None")
    gap_us = int(gap_s) * 1_000_000
    alias_w = weight is not None and weight == value and u_order >= w_order + 1

    def partial(batch: pa.Table) -> pa.Table:
        batch = partial_rows(batch, keys, None, ts, (value, weight))
        x = f8_column(batch, value)
        w = None if weight is None else x if weight == value else f8_column(batch, weight)
        ts_us = ts_to_epoch_us(batch[ts])
        order, first, bounds = _sessions(batch, keys, ts_us, ts_us, gap_us)
        sid = np.repeat(np.arange(first.size), np.diff(np.append(first, order.size)))
        _, sums = power_sums(sid, first.size, order, x, w, None, needed,
                             u_order, w_order, alias_w)
        return sum_table(bounds, {c: sums[c] for c in needed})

    merge = session_kernel(keys, list(needed), gap_us)
    merged = keyed_merge(ds.map_batches(partial, batch_format="pyarrow"), keys, merge)
    finalize = finalize_kernel(resolved, needed, keys + ["session_start_us", "session_end_us"])
    return merged.map_batches(finalize, batch_format="pyarrow")
