"""Distributed as-of join (point-in-time lookup) — an operator Ray
Data lacks natively.

For each left row, finds the LATEST right row with the same key and
``right.on <= left.on`` (inclusive; DuckDB ``ASOF JOIN`` / pandas
``merge_asof(direction="backward")`` semantics) and attaches the
requested right columns (null when no such row exists).

Shape for scale (the lesson of the LSH bucket sweep, BASELINE.md):

1. Both sides are tagged and hash-partitioned **once** on the join key
   into ``n_parts`` partitions (``joins.co_partition``, the only
   shuffle; both sides move).
2. One Arrow ``map_groups`` call per PARTITION (not per key!) runs a
   single vectorized pass over all keys in that partition: lexsort by
   (key, ts, side) with right rows ordered before left rows at equal
   timestamps, then a ``np.maximum.accumulate`` carry of the last-seen
   right-row index, invalidated across key-run boundaries, and one
   ``take`` per output column.  O(n log n) per partition, zero per-key
   Python.  The streaming as-of join closes with the same kernel.

Partitioning assumption: all rows of one key land in one partition
(hash on key); a single pathologically hot key bounds one task's input
— acceptable because the per-partition pass is a sort + linear sweep,
not a pairwise product.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raystat.dataops.joins import co_partition, key_codes

__all__ = ["asof_join", "asof_join_frames"]


def asof_join_frames(
    t: pa.Table,
    *,
    by: str,
    on: str,
    right_cols: list[str],
    side_col: str = "_side",
    tolerance=None,
) -> pa.Table:
    """Vectorized multi-key as-of over one co-partitioned table.

    ``t`` holds BOTH sides: ``side_col`` is 0 for right rows, 1 for
    left rows; right rows carry ``right_cols``, left rows carry the
    remaining columns.  Returns the left rows (without ``side_col``)
    with ``right_cols`` attached last (null when no right row is
    at-or-before).
    """
    n = t.num_rows
    codes, _ = key_codes(t[by])  # local codes fine: only equality is used
    ts = t[on].to_numpy()
    side = t[side_col].to_numpy()
    # right (0) before left (1) at equal (key, ts): inclusive join
    order = np.lexsort((side, ts, codes))
    codes_s = codes[order]
    side_s = side[order]
    # first index of each key run, broadcast to every row of the run
    boundary = np.ones(n, dtype=bool)
    boundary[1:] = codes_s[1:] != codes_s[:-1]
    run_start = np.maximum.accumulate(np.where(boundary, np.arange(n), 0))
    # carry the last right-row sorted position forward
    last_right = np.where(side_s == 0, np.arange(n), -1)
    mark = np.maximum.accumulate(last_right)
    valid = mark >= run_start  # a right row from a previous key run is unusable
    if tolerance is not None:
        ts_s = ts[order]
        lag = ts_s - ts_s[np.maximum(mark, 0)]
        valid &= lag <= tolerance
    left_pos = side_s == 1
    matched_sorted = np.where(valid[left_pos], mark[left_pos], -1)
    # map sorted positions back to original row indices; an unmatched
    # left row takes a null index, so null right_cols
    left_orig = order[left_pos]
    right_orig = pa.array(order[np.maximum(matched_sorted, 0)], mask=matched_sorted < 0)
    out = t.drop_columns([side_col, *right_cols]).take(left_orig)
    for c in right_cols:
        out = out.append_column(c, t[c].take(right_orig))
    return out


def asof_join(
    left_ds,
    right_ds,
    *,
    by: str,
    on: str,
    right_cols: list[str],
    n_parts: int = 64,
    tolerance=None,
):
    """As-of join two Datasets: for each left row, the latest right row
    with equal ``by`` and ``right[on] <= left[on]`` (optionally within
    ``tolerance`` of the left timestamp).  Returns a Dataset of left
    rows + ``right_cols``."""
    both = co_partition(left_ds, right_ds, shared=[by, on], key=by, n_parts=n_parts,
                        right_cols=right_cols)

    def per_partition(t: pa.Table) -> pa.Table:
        out = asof_join_frames(t, by=by, on=on, right_cols=right_cols, tolerance=tolerance)
        return out.drop_columns(["_part"])

    return both.groupby("_part").map_groups(per_partition, batch_format="pyarrow")
