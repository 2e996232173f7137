"""Distributed grouped moment aggregation — the batch query path.

Three stages, mirroring the reference's partial/final UDAF contract
(``aggregate`` per event → ``merge`` across partitions → ``map``,
e.g. WeightedStdDevUdaf.java:94-163) but vectorized and Ray-Data-first:

1. **partial** — one ``map_batches(batch_format="pyarrow")`` computes
   per-batch power sums per (keys, window) with Arrow's C++ hash
   aggregation.  Each input batch collapses to at most
   |distinct groups in batch| rows, so the shuffle moves partial
   aggregates, not rows (SURVEY.md §4.2).
2. **merge** — :func:`keyed_merge`: one sort exchange on the group
   keys, then one Arrow ``group_by().aggregate(sum)`` per block; no
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
import pyarrow as pa
import pyarrow.compute as pc

from raystat.accumulators import AggregatorSpec, canonical_sums_for, get_spec
from raystat.scratch import buf, tune_allocator
from raystat.windows import Hopping, Tumbling, assign_windows, ts_to_epoch_us

__all__ = ["grouped_moments", "session_moments", "partial_sums", "keyed_merge"]

_GLOBAL_KEY = "_all"  # constant group key for global aggregates
# (mirrors the reference's GROUP BY 'singleton', AllUdafIT.java:596-598)


def _resolve(specs) -> dict[str, AggregatorSpec]:
    return {
        out: (get_spec(s) if isinstance(s, str) else s) for out, s in specs.items()
    }


def partial_sums(
    group_arrays: Mapping[str, "pa.Array | pa.ChunkedArray | np.ndarray"],
    x: np.ndarray,
    w: np.ndarray | None,
    u_order: int,
    w_order: int,
) -> pa.Table:
    """Per-batch partial power sums per group (Arrow hash aggregation).

    ``x``/``w`` are float64 arrays with nulls already removed.
    Returns one row per distinct group with canonical sum columns.
    """
    tune_allocator()  # idempotent; needed under by-value pickling
    n = x.size
    arrays: dict[str, np.ndarray] = {}
    # weight is literally the value array (e.g. n_tok-weighted n_tok):
    # every weighted sum is an unweighted power sum one order up
    alias_w = w is x and u_order >= w_order + 1
    # power columns go into named per-worker scratch buffers: fresh
    # mmap'd allocations cost ~100x the compute in this environment;
    # pa.table() wraps them zero-copy and group_by consumes them
    # before the next batch reuses the buffers.
    if u_order:
        ones = buf("ps_ones", n, np.int64)
        ones.fill(1)
        arrays["u_n"] = ones
        arrays["u_s1"] = x
        prev = x
        for i in range(2, u_order + 1):
            pb = buf(f"ps_u{i}", n)
            np.multiply(prev, x, out=pb)
            arrays[f"u_s{i}"] = pb
            prev = pb
    if w_order and alias_w:
        arrays["w_sw"] = arrays["u_s1"]
        arrays["w_sv"] = arrays["u_s2"]
        for i in range(2, w_order + 1):
            arrays[f"w_s{i}"] = arrays[f"u_s{i + 1}"]
    elif w_order:
        assert w is not None
        arrays["w_sw"] = w
        wv = buf("ps_wv", n)
        np.multiply(w, x, out=wv)
        arrays["w_sv"] = wv
        prev = x
        for i in range(2, w_order + 1):
            pb = buf(f"ps_p{i}", n)
            np.multiply(prev, x, out=pb)
            wb = buf(f"ps_w{i}", n)
            np.multiply(w, pb, out=wb)
            arrays[f"w_s{i}"] = wb
            prev = pb
    group_cols = list(group_arrays)
    data = {k: v for k, v in group_arrays.items()}
    data.update(arrays)
    t = pa.table(data)
    agg = t.group_by(group_cols).aggregate([(c, "sum") for c in arrays])
    return agg.rename_columns(group_cols + list(arrays))


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
    sums for all groups of a batch; ``pass_cols`` are carried through."""

    def finalize(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c].to_numpy(zero_copy_only=False) for c in needed}
        out: dict[str, object] = {k: batch[k] for k in pass_cols}
        for name, spec in resolved.items():
            out[name] = pa.array(np.atleast_1d(spec.finalize_arrays(cols)), type=pa.float64())
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


def valid_xw_mask(batch: pa.Table, value: str, weight: str | None):
    """The rows whose value and weight are both non-null, or None when
    no row has a null: the null rule of the batch path (``_clean_xw``)
    and of the streaming moment stage (SQL-aggregate null semantics;
    ksqlDB likewise skips null events)."""
    mask = None
    if batch[value].null_count:
        mask = pc.is_valid(batch[value])
    if weight is not None and batch[weight].null_count:
        wv = pc.is_valid(batch[weight])
        mask = wv if mask is None else pc.and_(mask, wv)
    return mask


def _clean_xw(batch: pa.Table, value: str, weight: str | None):
    """Extract float64 value/weight arrays, dropping null rows
    (:func:`valid_xw_mask`)."""
    mask = valid_xw_mask(batch, value, weight)
    if mask is not None:
        batch = batch.filter(mask)
    x = batch[value].cast(pa.float64()).to_numpy(zero_copy_only=False)
    if weight == value:
        w = x  # identical object => partial_sums can alias power sums
    elif weight is not None:
        w = batch[weight].cast(pa.float64()).to_numpy(zero_copy_only=False)
    else:
        w = None
    return batch, x, w


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

    def partial(batch: pa.Table) -> pa.Table:
        check_keys(batch, keys)
        if window is not None:
            batch, ws = assign_windows(batch, ts, window)
            batch = batch.append_column(
                "window_start", pa.array(ws, type=pa.int64())
            )
        batch, x, w = _clean_xw(batch, value, weight)
        if keys or window is not None:
            groups = {k: batch[k] for k in group_cols}
        else:
            groups = {_GLOBAL_KEY: np.zeros(x.size, dtype=np.int8)}
        return partial_sums(groups, x, w, u_order, w_order)

    kwargs = {"batch_format": "pyarrow", "zero_copy_batch": True}
    if batch_size is not None:
        kwargs["batch_size"] = batch_size
    partials = ds.map_batches(partial, **kwargs)
    agg = keyed_merge(partials, out_group_cols, sum_kernel(out_group_cols, list(needed)))
    # global aggregates drop the constant _all key
    return agg.map_batches(finalize_kernel(resolved, needed, group_cols), batch_format="pyarrow")


def _merge_runs(t: pa.Table, keys: list[str], sum_cols: list[str], gap_us: int) -> pa.Table:
    """Merge sessions (rows of ``keys``, sums, ``session_start_us``,
    ``session_end_us``) for all keys of ``t`` at once: sort by keys and
    start, keep a per-key running max of the end, and start a new
    session where the key changes or ``start - prev_run_end > gap``.
    A raw event is the session ``[ts, ts]``."""
    import pandas as pd

    if t.num_rows == 0:
        return t.select(keys + sum_cols + ["session_start_us", "session_end_us"])
    t = t.sort_by([(c, "ascending") for c in keys + ["session_start_us"]])
    brk = np.arange(t.num_rows) == 0  # first row of each key, then of each session
    for k in keys:
        brk[1:] |= pc.not_equal(t[k][1:], t[k][:-1]).to_numpy()
    starts = t["session_start_us"].to_numpy()
    ends = t["session_end_us"].to_numpy()
    run_end = pd.Series(ends).groupby(np.cumsum(brk)).cummax().to_numpy()
    brk[1:] |= (starts[1:] - run_end[:-1]) > gap_us
    idx = np.flatnonzero(brk)
    out = {k: t[k].take(idx) for k in keys}
    for c in sum_cols:
        out[c] = np.add.reduceat(t[c].to_numpy(), idx)
    out["session_start_us"] = starts[idx]
    out["session_end_us"] = np.maximum.reduceat(ends, idx)
    return pa.table(out)


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

    Partial sessions are built per batch, then merged with an interval
    cummax sweep — the step where the reference's ``merge()`` on
    overlapping partials is load-bearing.  Both steps are
    :func:`_merge_runs`, vectorized over all keys of a batch.
    Output: keys + session_start_us + session_end_us (int64 epoch
    microseconds) + one column per spec.

    Partitioning assumption: :func:`keyed_merge` sorts the partials on
    ``keys``, so all partial sessions of one key meet in one block;
    partials are O(batches × keys), not O(rows).
    """
    resolved = _resolve(specs)
    needed, u_order, w_order = canonical_sums_for(resolved.values())
    if w_order and weight is None:
        raise ValueError("weighted aggregator requested but weight column is None")
    gap_us = int(gap_s) * 1_000_000
    sum_cols = list(needed)

    def merge(t: pa.Table) -> pa.Table:
        return _merge_runs(t, keys, sum_cols, gap_us)

    def partial(batch: pa.Table) -> pa.Table:
        check_keys(batch, keys)
        batch, x, w = _clean_xw(batch, value, weight)
        groups = {k: batch[k] for k in keys}
        groups["session_start_us"] = ts_to_epoch_us(batch[ts])
        t = partial_sums(groups, x, w, u_order, w_order)
        return merge(t.append_column("session_end_us", t["session_start_us"]))

    merged = keyed_merge(ds.map_batches(partial, batch_format="pyarrow"), keys, merge)
    finalize = finalize_kernel(resolved, needed, keys + ["session_start_us", "session_end_us"])
    return merged.map_batches(finalize, batch_format="pyarrow")
