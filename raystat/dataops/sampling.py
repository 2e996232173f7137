"""Deterministic hash-based sampling and dataset splits.

Training pipelines sample corpora and carve train/val/test splits; at
100 TB both must be (a) deterministic across reruns and cluster sizes
(no RNG state, no coordination), (b) streaming (a pure row predicate
inside ``map_batches`` — no shuffle, no materialization), and (c)
reproducible by the SQL oracle.  The assignment hash is the
splitmix64 finalizer of the integer doc id (``pairs.splitmix64``),
which DuckDB replicates exactly in UHUGEINT mod-2^64 arithmetic
(``SPLITMIX_Z_CTE_SQL`` in pipelines/queries.py).

Analog of the reference's per-row stream predicates (ksqlDB WHERE
clauses over a stream); the hash-mod idiom is the standard
deterministic sampler for distributed corpora.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from raystat.dataops.pairs import splitmix64

__all__ = [
    "hash_pct",
    "sample_by_hash",
    "assign_split_batch",
    "split_dataset",
    "sample_k_per_group",
    "mixture_sample_rates",
    "mixture_sample",
    "global_shuffle_rank",
]

# (name, upper-bound pct) cumulative: h<80 train, h<90 val, else test
DEFAULT_SPLITS = (("train", 80), ("val", 90), ("test", 100))


def hash_pct(ids: np.ndarray) -> np.ndarray:
    """Stable per-id percentile bucket 0..99 (splitmix64 mod 100)."""
    return (splitmix64(ids.astype(np.uint64)) % np.uint64(100)).astype(np.int64)


def sample_by_hash(ds, pct: int, id_col: str = "doc_id"):
    """Keep rows whose hash percentile < pct — a deterministic ~pct%
    sample, stable under reruns, repartitioning and cluster size.
    Pure streaming filter: no shuffle, nothing materializes."""

    def flt(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(hash_pct(ids) < pct))

    return ds.map_batches(flt, batch_format="pyarrow")


def assign_split_batch(
    batch: pa.Table,
    id_col: str = "doc_id",
    splits: tuple = DEFAULT_SPLITS,
) -> pa.Table:
    """Append a ``split`` column (train/val/test by hash percentile)."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    h = hash_pct(ids)
    out = np.empty(len(h), dtype=object)
    lo = 0
    for name, hi in splits:
        out[(h >= lo) & (h < hi)] = name
        lo = hi
    return batch.append_column("split", pa.array(out, pa.string()))


def split_dataset(ds, id_col: str = "doc_id", splits: tuple = DEFAULT_SPLITS):
    """Dataset with the ``split`` column appended (streaming)."""

    def fn(batch: pa.Table) -> pa.Table:
        return assign_split_batch(batch, id_col, splits)

    return ds.map_batches(fn, batch_format="pyarrow")


def stratified_sample(ds, pct_by_key: dict, key_col: str = "source",
                      id_col: str = "doc_id", default_pct: int = 0):
    """Per-stratum deterministic sampling: each key keeps its own hash
    percentile cut (e.g. downsample a dominant source to 10% while
    keeping 100% of a rare one).  Still a pure streaming row predicate
    — the O(strata) pct map rides the closure; no shuffle."""

    def flt(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cuts = (
            pd.Series(batch[key_col].to_numpy(zero_copy_only=False))
            .map(pct_by_key)
            .fillna(default_pct)
            .to_numpy(dtype=np.int64)
        )
        return batch.filter(pa.array(hash_pct(ids) < cuts))

    return ds.map_batches(flt, batch_format="pyarrow")


def sample_k_per_group(ds, k: int, key_col: str = "source",
                       id_col: str = "doc_id"):
    """Exactly-k deterministic sample per group: the k rows with the
    SMALLEST splitmix64(id) per key (ties by id) — a coordination-free
    fixed-size reservoir equivalent (bottom-k sketch): stable under
    reruns, repartitioning and cluster size, unlike an RNG reservoir.

    Scale shape: per-batch PARTIAL bottom-k per group (one lexsort per
    batch) means at most k x groups x batches candidate rows reach the
    one small groupby — the corpus itself never shuffles.  Returns a
    Dataset of the selected (key, id, hash) rows."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        hv = splitmix64(ids.astype(np.uint64))
        codes, uniq = pd.factorize(keys, sort=False)
        order = np.lexsort((ids, hv, codes))
        cs = codes[order]
        # rank within group along the sorted layout
        starts = np.flatnonzero(np.diff(cs, prepend=-1))
        rank = np.arange(cs.size) - np.repeat(starts, np.diff(
            np.append(starts, cs.size)))
        keep = order[rank < k]
        return pa.table(
            {
                key_col: pa.array(keys[keep]),
                id_col: pa.array(ids[keep]),
                "hv": pa.array(hv[keep].astype(np.int64)),
            }
        )

    def final(g: "pd.DataFrame") -> "pd.DataFrame":
        hv_u = g["hv"].to_numpy().astype(np.uint64)
        order = np.lexsort((g[id_col].to_numpy(), hv_u))
        return g.iloc[order[:k]][[key_col, id_col, "hv"]]

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(final, batch_format="pandas")
    )


def mixture_sample_rates(
    mass_by_key: dict, alpha: float = 0.5, rho: float = 0.5
) -> dict:
    """Temperature-weighted mixture rates: keep-rate per stratum
    proportional to ``mass**(alpha-1)`` — the standard data-mixing rule
    that flattens the corpus distribution toward uniform as ``alpha``
    drops below 1 (alpha=1 keeps natural proportions; alpha=0 equalizes
    strata).  Rates are anchored to the LARGEST stratum, which keeps
    ``rho`` of its mass: rate_s = min(1, rho * (m_max / m_s)**(1-alpha)).

    alpha is fixed at 0.5 so the exponent is a SQUARE ROOT — IEEE 754
    requires sqrt (and /,*) to be correctly rounded, so numpy and the
    DuckDB oracle compute BIT-IDENTICAL rates from the same integer
    masses; a general ``pow`` is only faithfully rounded and could
    disagree by 1 ulp across libms.  Returns {key: (rate, threshold)}
    with threshold = floor(rate * 2**64) for the splitmix64 keep test.
    """
    if alpha != 0.5:
        raise ValueError("alpha is pinned to 0.5 (sqrt) for oracle-exact rates")
    m_max = float(max(mass_by_key.values()))
    out = {}
    for k, m in mass_by_key.items():
        r = min(1.0, rho * math.sqrt(m_max / float(m)))
        out[k] = (r, math.floor(r * 2.0**64))
    return out


def mixture_sample(ds, key_col: str = "source", mass_col: str = "n_chars",
                   id_col: str = "doc_id", alpha: float = 0.5,
                   rho: float = 0.5):
    """Deterministic temperature mixture sampling over strata (the
    data-mixing operator: downsample dominant sources toward a flatter
    mix, weighted by token/char MASS rather than doc count).  Two
    scale-shaped passes: (1) an O(strata)-row grouped sum of
    ``mass_col`` (tiny driver frame), (2) a pure streaming keep-filter
    ``splitmix64(id) < floor(rate_s * 2**64)`` with the O(strata) rate
    map riding the closure — no shuffle of the corpus, stable under
    reruns, repartitioning and cluster size."""
    masses = {
        r[key_col]: int(r[f"sum({mass_col})"])
        for r in ds.groupby(key_col).sum(mass_col).take_all()
    }
    rates = mixture_sample_rates(masses, alpha=alpha, rho=rho)

    def flt(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hv = splitmix64(ids.astype(np.uint64))
        keys = pd.Series(batch[key_col].to_numpy(zero_copy_only=False))
        # threshold == 2**64 (rate 1.0, or floor(r*2**64) rounding up
        # to 2**64 for r within 1 ulp of 1) keeps EVERY row — matching
        # the oracle, where hv < 2**64 is vacuously true in uhugeint
        full = keys.map({k: t >= 2**64 for k, (r, t) in rates.items()})
        if full.isna().any():  # NaN would cast to True and keep the stratum
            raise ValueError(
                f"stratum {keys[full.isna()].iloc[0]!r} has no mixture rate"
            )
        full = full.to_numpy(dtype=bool)
        thr = keys.map(
            {k: min(t, np.iinfo(np.uint64).max) for k, (r, t) in rates.items()}
        ).to_numpy(dtype=np.uint64)
        return batch.filter(pa.array((hv < thr) | full))

    return ds.map_batches(flt, batch_format="pyarrow")


def global_shuffle_rank(ds, id_col: str = "doc_id", n_buckets: int = 256):
    """Deterministic GLOBAL shuffle order for training export: every
    row's position in the corpus ordered by ``splitmix64(id)`` — the
    coordination-free equivalent of ``random_shuffle`` that is stable
    under reruns, repartitioning and cluster size (and resumable: the
    order is a pure function of ids).

    Scale shape — a distributed rank without a monolithic sort: the
    hash is uniform on u64, so FIXED range buckets ``hv >> shift``
    are balanced with no boundary pass; pass 1 counts rows per bucket
    (O(n_buckets) driver scan for the exclusive prefix offsets), pass
    2 shuffles by bucket once and ranks inside each bucket with one
    vectorized argsort + its bucket offset.  No task ever sorts more
    than one bucket (#buckets scales with cluster size); the driver
    holds O(n_buckets) integers.  Returns (id, shuffle_pos)."""
    import pandas as pd

    if n_buckets < 2 or n_buckets & (n_buckets - 1):
        raise ValueError("n_buckets must be a power of two >= 2")
    shift = np.uint64(64 - n_buckets.bit_length() + 1)

    def with_bucket(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hv = splitmix64(ids.astype(np.uint64))
        return pa.table(
            {
                id_col: pa.array(ids),
                "hv": pa.array(hv, pa.uint64()),
                "bucket": pa.array((hv >> shift).astype(np.int64)),
            }
        )

    counts = {
        r["bucket"]: r["count()"]
        for r in ds.map_batches(with_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .count()
        .take_all()  # O(n_buckets) rows
    }
    offsets = {}
    acc = 0
    for b in sorted(counts):
        offsets[b] = acc
        acc += counts[b]

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        hv = g["hv"].to_numpy().astype(np.uint64)
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, hv))
        pos = np.empty(len(g), dtype=np.int64)
        pos[order] = offsets[int(g["bucket"].iloc[0])] + np.arange(
            len(g), dtype=np.int64
        )
        return pd.DataFrame({id_col: ids, "shuffle_pos": pos})

    return (
        ds.map_batches(with_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(rank_bucket, batch_format="pandas")
    )
