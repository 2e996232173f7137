"""The keyed exchange of the batch joins and the funnel, and the
distributed hash equi-join (big x big) — Ray Data has no native
Dataset.join, so the repartition join is built from primitives:

1. :func:`co_partition` tags each side and hash-partitions BOTH on the
   join key into ``n_parts`` co-partitions (the one all-to-all
   exchange — the inherent cost of a big-big join; small sides should
   use the broadcast pattern instead, see ``customer_stats_by_region``).
   The as-of join, the interval join and the funnel run the same
   exchange (the funnel one-sided).
2. One Arrow ``map_groups`` call per PARTITION runs pandas' C hash join
   over all keys in that partition — no per-key Python.

Skew: a hot join key bounds one task's input; because the
per-partition join is hash-based (not pairwise), a hot key costs
O(|left_k| x |right_k|) only in its OUTPUT size, which is the join's
true cardinality — unavoidable.  ``n_parts`` sizes tasks.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raystat.dataops.pairs import splitmix64

__all__ = ["co_partition", "hash_join", "key_codes"]


def _key_u64(arr: np.ndarray) -> np.ndarray:
    """Stable 64-bit hash of an int or string key array."""
    if arr.dtype.kind in ("i", "u"):
        return splitmix64(arr.astype(np.uint64, copy=False))
    # hash the VALUES (stable across partitions), not factorize codes
    vals = pd.util.hash_array(np.asarray(arr, dtype=object), categorize=True)
    return splitmix64(vals.astype(np.uint64, copy=False))


def key_codes(col) -> tuple[np.ndarray, pa.Array]:
    """int64 codes of key column ``col`` in first-appearance order (the
    order ``pd.factorize`` gives) and the distinct keys they index.
    Nulls share one code, as ``pd.factorize``'s -1 did; unlike
    ``aggregate.encode_key``, a null key does not raise."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    d = pc.dictionary_encode(col, null_encoding="encode")
    return d.indices.to_numpy(zero_copy_only=False).astype(np.int64), d.dictionary


def _exchange_rows(batch: pa.Table, key: str, n_parts: int, shared: list[str], others: dict,
                   side, own) -> pa.Table:
    """One batch as :func:`co_partition` ships it: the ``shared``
    columns, ``_side`` (none when ``side`` is None), ``_part``, then
    each column of ``others`` (name -> type): the batch's when in
    ``own``, else nulls."""
    cols = {c: batch[c] for c in shared}
    if side is not None:
        cols["_side"] = pa.array(np.full(batch.num_rows, side, dtype=np.int8))
    k = batch[key].to_numpy(zero_copy_only=False)
    cols["_part"] = pa.array((_key_u64(k) % np.uint64(n_parts)).astype(np.int32))
    for c, t in others.items():
        cols[c] = batch[c] if c in own else pa.nulls(batch.num_rows, t)
    return pa.table(cols)


def co_partition(left_ds, right_ds=None, *, shared: list[str], key: str, n_parts: int,
                 right_cols: list[str] = ()):
    """The keyed exchange's input: each row with its co-partition
    ``_part`` (``_key_u64(key) % n_parts``, int32), ready for
    ``groupby("_part")``.  With a ``right_ds``, the tagged union of both
    sides: the ``shared`` columns, ``_side`` (int8: 1 left, 0 right),
    ``_part``, the left side's other columns (null on right rows) and
    ``right_cols`` (null on left rows); a ``right_cols`` name the left
    side also has raises.  Without one, ``left_ds``'s ``shared`` columns
    and ``_part``."""

    def exchange(ds, **fn_kwargs):
        return ds.map_batches(_exchange_rows, batch_format="pyarrow", fn_kwargs=dict(
            key=key, n_parts=n_parts, shared=shared, **fn_kwargs))

    if right_ds is None:
        return exchange(left_ds, others={}, side=None, own=())
    ls, rs = left_ds.schema(), right_ds.schema()
    overlap = set(right_cols) & set(ls.names)
    if overlap:
        raise ValueError(f"right_cols collide with left columns (a column collision "
                         f"outside the join key): {sorted(overlap)}")
    lcols = [c for c in ls.names if c not in shared]
    ltypes, rtypes = dict(zip(ls.names, ls.types)), dict(zip(rs.names, rs.types))
    others = {**{c: ltypes[c] for c in lcols}, **{c: rtypes[c] for c in right_cols}}
    return exchange(left_ds, others=others, side=1, own=lcols).union(
        exchange(right_ds, others=others, side=0, own=list(right_cols)))


def hash_join(
    left_ds,
    right_ds,
    *,
    on: str,
    n_parts: int = 64,
    how: str = "inner",
):
    """Equi-join two Datasets on column ``on`` (same name both sides).
    ``how``: "inner" or "left".  Returns a Dataset with the union of
    both sides' columns (join key once)."""
    if how not in ("inner", "left"):
        raise ValueError(f"how={how!r}: inner or left")
    lcols = [c for c in left_ds.schema().names if c != on]
    rcols = [c for c in right_ds.schema().names if c != on]
    both = co_partition(left_ds, right_ds, shared=[on], key=on, n_parts=n_parts,
                        right_cols=rcols)

    def per_partition(t: pa.Table) -> pd.DataFrame:
        # the sides split in Arrow, where the other side's columns are
        # null, so pandas keeps each side's int columns int; pandas'
        # merge, not Table.join: Arrow's join rejects list-typed payload
        # columns
        lf = t.filter(pc.equal(t["_side"], 1)).select([on] + lcols).to_pandas()
        rf = t.filter(pc.equal(t["_side"], 0)).select([on] + rcols).to_pandas()
        return lf.merge(rf, on=on, how=how).reset_index(drop=True)

    return both.groupby("_part").map_groups(per_partition, batch_format="pyarrow")
