"""Distributed interval join (stream-stream windowed join) — emit
(left, right) PAIRS with equal key whose timestamps fall within a
bounded interval of each other:

    left.by == right.by  AND
    left.on - before <= right.on <= left.on + after   (inclusive)

This is ksqlDB's stream-stream ``JOIN ... WITHIN (before, after)``
(the reference's platform joins streams this way; see
/root/reference/README.md:15 for the ksqlDB 0.29 platform pin)
re-expressed Ray-Data-first, and the SQL range-join
``ON l.k = r.k AND r.ts BETWEEN l.ts - before AND l.ts + after``.

Shape for scale (same lesson as the as-of join and the LSH bucket
sweep):

1. Both sides are tagged and hash-partitioned ONCE on the join key
   into ``n_parts`` partitions (``joins.co_partition``, the only
   shuffle; both sides move).
2. One Arrow ``map_groups`` call per PARTITION runs a single
   vectorized pass over all keys in that partition: dictionary-encode
   the keys, sort the right side by (key, ts), encode (key, ts) into
   one monotone int64 composite, then TWO ``np.searchsorted`` calls
   give every left row's matching right-row range, expanded with a
   repeat/cumsum scan into one ``take`` per side.  O(n log n + output)
   per partition, zero per-key and zero per-pair Python.  The
   streaming interval join closes with the same kernel.

Partitioning assumption: all rows of one key land in one partition
(hash on key).  A hot key bounds one task's INPUT, but — unlike the
as-of join — the OUTPUT of an interval join is the true pair
cardinality, so a key with many rows inside one window genuinely
produces quadratic pairs; ``before``/``after`` are the levers that
bound it, exactly as ksqlDB's WITHIN grace bounds its state.

The composite encode needs ``n_keys_in_partition * time_span`` to fit
in int64.  The guard raises with the remedy (more partitions, or a
coarser timestamp unit) instead of silently corrupting — at 100 TB
with microsecond timestamps spanning 3 years (~1e14 us) this allows
~90k keys per partition, so size ``n_parts`` to keys/90k.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raystat.dataops.joins import co_partition, key_codes

__all__ = ["interval_join", "interval_join_frames"]


def _ts_int64(arr: np.ndarray) -> np.ndarray:
    """Timestamps (datetime64 any unit -> microseconds) or plain
    numeric ``on`` values as int64."""
    if arr.dtype.kind == "M":
        return arr.astype("datetime64[us]").astype(np.int64)
    return arr.astype(np.int64, copy=False)


def _bound_int64(v) -> int:
    """A before/after bound: numeric, or timedelta-like -> microseconds."""
    if isinstance(v, np.timedelta64):
        return int(v.astype("timedelta64[us]").astype(np.int64))
    if hasattr(v, "total_seconds"):  # datetime.timedelta / pd.Timedelta
        return int(round(v.total_seconds() * 1_000_000))
    return int(v)


def interval_join_frames(
    t: pa.Table,
    *,
    by: str,
    on: str,
    right_cols: list[str],
    before,
    after,
    side_col: str = "_side",
) -> pa.Table:
    """Vectorized multi-key interval join over one co-partitioned table.

    ``t`` holds BOTH sides: ``side_col`` is 0 for right rows, 1 for
    left rows; right rows carry ``right_cols``, left rows the remaining
    columns.  Returns one row per matching (left, right) pair: the left
    columns (without ``side_col``) plus ``right_cols`` last (left rows
    with no match emit nothing — inner-join semantics, like ksqlDB's
    stream-stream inner join).
    """
    before_i = _bound_int64(before)
    after_i = _bound_int64(after)
    if before_i < 0 or after_i < 0:
        raise ValueError("before/after must be non-negative")

    is_left = t[side_col].to_numpy() == 1
    l_idx = np.flatnonzero(is_left)
    r_idx = np.flatnonzero(~is_left)
    left_rows = right_rows = np.zeros(0, dtype=np.int64)
    if len(l_idx) and len(r_idx):
        codes, _ = key_codes(t[by])  # local: only equality used
        ts = _ts_int64(t[on].to_numpy())
        ts_min = int(ts.min())
        span = int(ts.max()) - ts_min + before_i + after_i + 1
        n_codes = int(codes.max()) + 1
        if n_codes * span >= 2**62:
            raise ValueError(
                f"interval_join composite overflow: {n_codes} keys x time span "
                f"{span} does not fit int64 — raise n_parts (fewer keys per "
                f"partition) or coarsen the timestamp unit"
            )

        # rel is shifted so every probe value stays non-negative
        comp = codes * span + (ts - ts_min + before_i)
        r_comp = comp[r_idx]
        r_order = np.argsort(r_comp, kind="stable")
        r_sorted = r_comp[r_order]
        r_rows = r_idx[r_order]  # original row index per sorted right slot

        l_comp = comp[l_idx]
        lo = np.searchsorted(r_sorted, l_comp - before_i, side="left")
        hi = np.searchsorted(r_sorted, l_comp + after_i, side="right")
        counts = hi - lo
        total = int(counts.sum())
        # expand: pair p = (left i repeated counts[i] times, right slot lo[i]..hi[i])
        starts = np.cumsum(counts) - counts
        slot = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo, counts)
        left_rows = np.repeat(l_idx, counts)
        right_rows = r_rows[slot]

    out = t.drop_columns([side_col, *right_cols]).take(left_rows)
    for c in right_cols:
        out = out.append_column(c, t[c].take(right_rows))
    return out


def interval_join(
    left_ds,
    right_ds,
    *,
    by: str,
    on: str,
    right_cols: list[str],
    before,
    after,
    n_parts: int = 64,
):
    """Interval-join two Datasets: one pair row per (left, right) with
    equal ``by`` and ``left[on] - before <= right[on] <= left[on] + after``
    (inclusive).  ``right_cols`` are the right-side columns attached to
    each pair (the right ``on`` value itself must be duplicated into a
    differently-named column by the caller if wanted in the output).
    Returns a Dataset of left columns + ``right_cols``."""
    both = co_partition(left_ds, right_ds, shared=[by, on], key=by, n_parts=n_parts,
                        right_cols=right_cols)

    def per_partition(t: pa.Table) -> pa.Table:
        out = interval_join_frames(t, by=by, on=on, right_cols=right_cols, before=before,
                                   after=after)
        return out.drop_columns(["_part"])

    return both.groupby("_part").map_groups(per_partition, batch_format="pyarrow")
