"""Complex-event-processing primitives: ordered-pattern (funnel)
matching over keyed event streams.

``funnel_counts`` finds, per key, the earliest chain of stage events
in strict time order (stage1 < stage2 < ... — each stage's timestamp
is the MINIMUM occurrence after the previous stage's match, the
standard funnel semantics), and reports how many keys reach each
stage.

Shape: one hash shuffle on the key (``joins.co_partition``, one-sided:
the as-of join's co-partitioning), then per PARTITION one Arrow
``map_groups`` call runs a fully vectorized pass: dictionary-encode the
keys once, then one segmented minimum per stage with a per-row lookup
of the previous stage's match time — no per-key Python.  The streaming
funnel closes with the same kernel.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from raystat.dataops.joins import co_partition, key_codes

__all__ = ["funnel_counts", "funnel_frame"]


def funnel_frame(
    t: pa.Table, *, key: str, ts: str, type_col: str, stages: list,
    within_us: int | None = None,
) -> pa.Table:
    """Per-key earliest strict-order stage times over one partition.
    ``within_us`` additionally requires every later stage to land
    within that many microseconds of the stage-0 match (time-bounded
    funnel).  Returns one row per key, in first-appearance order, with
    ``t_<i>`` int64 epoch-microsecond columns (int64 max when the stage
    is never reached)."""
    codes, uniq = key_codes(t[key])
    tsv = t[ts].to_numpy().astype("datetime64[us]").astype(np.int64)
    typ = t[type_col].to_numpy(zero_copy_only=False)
    n_keys = len(uniq)
    NO = np.int64(np.iinfo(np.int64).max)
    prev = np.full(n_keys, -(2**62), dtype=np.int64)  # stage-0 gate: -inf
    t0 = None
    out = {key: uniq}
    for i, stage in enumerate(stages):
        m = typ == stage
        tm = np.full(n_keys, NO, dtype=np.int64)
        if m.any():
            c = codes[m]
            v = tsv[m]
            ok = v > prev[c]  # strictly after the previous stage's match
            if within_us is not None and t0 is not None:
                # deadline only binds for keys that matched stage 0;
                # unmatched keys have prev == NO, so ok is already False
                with np.errstate(over="ignore"):
                    ok &= v <= t0[c] + np.int64(within_us)
            if ok.any():
                np.minimum.at(tm, c[ok], v[ok])
        out[f"t_{i}"] = tm
        prev = tm
        if i == 0:
            t0 = tm
    return pa.table(out)


def funnel_counts(ds, *, key: str, ts: str, type_col: str, stages: list[str],
                  n_parts: int = 32, within_us: int | None = None) -> pd.DataFrame:
    """Distributed funnel: hash-partition by key, one vectorized
    per-partition pass, then a tiny driver reduce.  Returns one row
    per stage: (stage, n_keys_reached)."""
    NO = np.int64(np.iinfo(np.int64).max)

    def per_partition(t: pa.Table) -> pa.Table:
        return funnel_frame(t, key=key, ts=ts, type_col=type_col, stages=stages,
                            within_us=within_us)

    per_key = (
        co_partition(ds, shared=[key, ts, type_col], key=key, n_parts=n_parts)
        .groupby("_part")
        .map_groups(per_partition, batch_format="pyarrow")
    )
    cols = [f"t_{i}" for i in range(len(stages))]
    from ray.data.aggregate import Sum

    def count_partial(batch: pa.Table) -> pa.Table:
        data = {"_all": pa.array([0], pa.int8())}
        for i, c in enumerate(cols):
            v = batch[c].to_numpy(zero_copy_only=False)
            data[f"n_{i}"] = pa.array([int((v != NO).sum())], pa.int64())
        return pa.table(data)

    agg = (
        per_key.map_batches(count_partial, batch_format="pyarrow")
        .groupby("_all")
        .aggregate(*[Sum(f"n_{i}", alias_name=f"n_{i}") for i in range(len(stages))])
        .to_pandas()
    )
    return pd.DataFrame(
        {
            "stage": stages,
            "n_keys": [int(agg[f"n_{i}"].iloc[0]) for i in range(len(stages))],
        }
    )
