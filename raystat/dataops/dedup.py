"""Deduplication operators, Ray-Data-first (SURVEY-plus surface for
training-data pipelines).

- exact: content hash in map_batches -> hash-partitioned groupby ->
  first-per-group (only winners leave the shuffle).
- MinHash+LSH near-dup: shingle -> 64-perm minhash (vectorized
  reduceat) -> banded (band_id, band_hash, doc_id) rows -> groupby
  buckets (capped: hot buckets sub-split, pairs.capped_bucket_pairs)
  -> candidate id pairs -> exact shingle-Jaccard verify in a
  co-partitioned distributed pass (pairs.verify_pairs_distributed).
- SimHash near-dup: 64-bit simhash per doc (bitplane sums via
  reduceat), band on 16-bit quarters (capped), Hamming verify inside
  the bucket map_groups.
- exact_dup_pairs: identical-text pairs (containment ground truth for
  the LSH paths).
- embedding cosine near-dup: see similarity.py.

Partitioning assumptions are stated per function; every shuffle moves
hashes/signatures/id-pairs, never raw text, and candidate payloads
never materialize on the driver.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from raystat.dataops.graph import connected_components
from raystat.dataops.pairs import (
    OVERFLOW_SENTINEL,
    bucket_partition,
    pairwise_set_jaccard,
    pop_overflow,
    segmented_capped_pairs,
    sort_segments,
    splitmix64,
    verify_pairs_distributed,
)
from raystat.dataops.text import WS_RE

__all__ = [
    "add_content_hash",
    "exact_dedup",
    "exact_dup_pairs",
    "near_dedup",
    "near_dedup_lp",
    "minhash_signatures_batch",
    "minhash_lsh_pairs",
    "ngram_jaccard_pairs",
    "simhash_batch",
    "simhash_pairs",
    "shingle_set",
    "jaccard",
]

_MERSENNE = (1 << 61) - 1
_N_PERM = 64
_BANDS = 16  # 16 bands x 4 rows
_rng = np.random.default_rng(12345)
_PERM_A = _rng.integers(1, _MERSENNE, size=_N_PERM, dtype=np.int64)
_PERM_B = _rng.integers(0, _MERSENNE, size=_N_PERM, dtype=np.int64)


def _md5_64(texts: list) -> np.ndarray:
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5((t or "").encode()).digest()[:8], "little")
            for t in texts
        ),
        dtype=np.uint64,
        count=len(texts),
    ).astype(np.int64)


_EMPTY_MD5_64 = int(
    np.uint64(
        int.from_bytes(hashlib.md5(b"").digest()[:8], "little")
    ).astype(np.int64)
)


def _md5_64_col(col) -> np.ndarray:
    """64-bit md5 prefix per row of an Arrow string column/chunked
    array.  Hashes each DISTINCT text exactly once (a
    ``dictionary_encode`` pre-pass — the trick tokens.py uses for
    word-token ids), so duplicate/template-heavy batches collapse to
    their unique texts before the per-text hashlib call.  Bit-identical
    to mapping ``_md5_64`` over the rows (nulls hash as "")."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    d = pc.dictionary_encode(col)
    uniq = _md5_64(d.dictionary.to_pylist())
    idx = (
        pc.fill_null(d.indices, -1)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    if uniq.size == 0:  # all-null column
        return np.full(len(idx), _EMPTY_MD5_64, dtype=np.int64)
    out = uniq[np.maximum(idx, 0)]
    out[idx < 0] = _EMPTY_MD5_64
    return out


def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    return batch.append_column("content_hash", pa.array(_md5_64_col(batch[text_col])))


def _drop_ids(ds, losers: np.ndarray, id_col: str):
    """``ds`` without the rows whose ``id_col`` is in the sorted int64
    ``losers``: the ids broadcast through one ``ray.put`` and a
    streaming anti-join filters each batch (the corpus never
    shuffles)."""
    import ray

    ref = ray.put(losers)

    def anti_join(batch: pa.Table) -> pa.Table:
        lose = ray.get(ref)
        if not lose.size:
            return batch
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(lose, ids)
        pos[pos == lose.size] = 0
        return batch.filter(pa.array(lose[pos] != ids))

    return ds.map_batches(anti_join, batch_format="pyarrow")


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id", n_parts: int = 64):
    """Keep the min-id row per identical text.

    Scale shape: text never enters a shuffle.  Pass 1 shuffles ONLY
    (content_hash, id, part) rows; a ``groupby(part)`` sweeps each
    hash partition's groups vectorized (sort by hash, first-per-hash
    keeps) and emits the ids that lose to the global min.  The loser
    set is O(#duplicate rows) (≪ corpus in any dedup regime), so it
    broadcasts via one ``ray.put``; pass 2 streams the input again and
    anti-joins it.  Hash = 64-bit md5 prefix (uniform, no skew);
    size ``n_parts`` per pairs.bucket_partition's rule."""

    def hash_id(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = _md5_64_col(batch[text_col])
        return pa.table(
            {"content_hash": pa.array(h), "_id": pa.array(ids),
             "part": pa.array(bucket_partition(h, n_parts=n_parts))}
        )

    def part_losers(g: pd.DataFrame) -> pd.DataFrame:
        """All hash groups of one partition in ONE vectorized sweep:
        sort by (hash, id); the first row per hash is the global min
        (keeper), everything else loses.  No per-group Python."""
        ids = g["_id"].to_numpy()
        order, starts = sort_segments(ids, g["content_hash"].to_numpy())
        first = np.zeros(len(ids), dtype=bool)
        first[starts] = True
        return pd.DataFrame({"_id": ids[order][~first]})

    loser_df = (
        ds.map_batches(hash_id, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_losers, batch_format="pandas")
        .to_pandas()
    )
    losers = (
        np.sort(loser_df["_id"].to_numpy().astype(np.int64))
        if len(loser_df) and "_id" in loser_df.columns
        else np.zeros(0, dtype=np.int64)
    )
    return _drop_ids(ds, losers, id_col)


def near_dedup(ds, pairs: pd.DataFrame, id_col: str = "doc_id"):
    """Filter a corpus to one survivor (min id) per connected component
    of a near-duplicate pair graph — the end product of MinHash/SimHash
    dedup (the pair functions feed this).

    Scale shape: union-find runs on the driver over the PAIR LIST,
    which is the same magnitude as the pair functions' own return
    value (≪ corpus in any dedup regime); the loser ids broadcast via
    one ``ray.put`` and a streaming anti-join filters the corpus —
    the corpus itself never shuffles (same pass-2 shape as
    :func:`exact_dedup`)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            # min-id root wins so the survivor is deterministic
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    losers = np.array(
        sorted(x for x in parent if find(x) != x), dtype=np.int64
    )
    return _drop_ids(ds, losers, id_col)


def near_dedup_lp(ds, pairs, id_col: str = "doc_id"):
    """:func:`near_dedup` with the clustering step DISTRIBUTED: min-label
    propagation (raystat/dataops/graph.py) replaces the driver
    union-find, so the pair list never has to fit one machine — the
    driver only sees the loser-id array (O(#dupes)), which broadcasts
    into the same streaming anti-join."""
    import ray.data as rd

    edges = pd.DataFrame(
        {"a": np.asarray(pairs["doc_a"], dtype=np.int64),
         "b": np.asarray(pairs["doc_b"], dtype=np.int64)}
    )
    if not len(edges):  # no dup pairs: every doc survives
        return ds
    comp = connected_components(rd.from_pandas(edges))
    losers = np.sort(
        comp.loc[comp["node"] != comp["component"], "node"].to_numpy(np.int64)
    )
    return _drop_ids(ds, losers, id_col)


# -- shingles / jaccard -----------------------------------------------------


def shingle_set(text: str, k: int = 3) -> set[int]:
    """Word k-shingles hashed to int (crc of joined words); ASCII
    token model (text.WS_RE) shared with the SQL twins."""
    import zlib

    words = WS_RE.findall(text or "")
    if len(words) < k:
        return {zlib.crc32(" ".join(words).encode())} if words else set()
    return {
        zlib.crc32(" ".join(words[i : i + k]).encode())
        for i in range(len(words) - k + 1)
    }


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    u = len(a | b)
    return len(a & b) / u if u else 0.0


def _doc_shingle_arrays(texts) -> tuple[np.ndarray, np.ndarray]:
    """Flattened DISTINCT crc32 shingle hashes + row offsets (for
    reduceat) — the shared vectorized shingle pipeline with the crc32
    hash of ``shingle_set`` (one crc per UNIQUE shingle)."""
    import zlib

    def crc32_arr(words: list) -> np.ndarray:
        return np.fromiter(
            (zlib.crc32(w.encode()) for w in words),
            dtype=np.uint64,
            count=len(words),
        )

    flat, offsets = _doc_shingle_hash_arrays(texts, crc32_arr)
    return flat.astype(np.int64), offsets


def _sigs_from_shingles(
    flat: np.ndarray, offsets: np.ndarray, n_docs: int
) -> np.ndarray:
    """(n_docs, 64) int64 minhash signatures from flattened per-doc
    shingle hashes: perm hash = (a*h + b) mod p, min per doc via
    minimum.reduceat."""
    sig = np.empty((n_docs, _N_PERM), dtype=np.int64)
    flat_u = flat.astype(np.uint64)
    for j in range(_N_PERM):
        ph = (np.uint64(_PERM_A[j]) * flat_u + np.uint64(_PERM_B[j])) % np.uint64(
            _MERSENNE
        )
        sig[:, j] = np.minimum.reduceat(ph.astype(np.int64), offsets)
    return sig


def minhash_signatures_batch(batch: pa.Table, text_col: str = "text") -> np.ndarray:
    """(n_docs, 64) int64 minhash signatures, vectorized."""
    n_docs = batch.num_rows
    if not n_docs:
        return np.zeros((0, _N_PERM), dtype=np.int64)
    flat, offsets = _doc_shingle_arrays(batch[text_col])
    return _sigs_from_shingles(flat, offsets, n_docs)


def _band_rows(ids: np.ndarray, sig: np.ndarray) -> pa.Table:
    """(band_id, band_hash, doc_id) rows: band hash mixes its 4 rows."""
    rows_per_band = _N_PERM // _BANDS
    out_band, out_hash, out_id = [], [], []
    for b in range(_BANDS):
        chunk = sig[:, b * rows_per_band : (b + 1) * rows_per_band].astype(np.uint64)
        h = np.zeros(len(ids), dtype=np.uint64)
        for c in range(rows_per_band):
            h = h * np.uint64(1099511628211) + chunk[:, c]
        out_band.append(np.full(len(ids), b, dtype=np.int64))
        out_hash.append(h.astype(np.int64))
        out_id.append(ids)
    return pa.table(
        {
            "band_id": pa.array(np.concatenate(out_band)),
            "band_hash": pa.array(np.concatenate(out_hash)),
            "doc_id": pa.array(np.concatenate(out_id)),
        }
    )


def minhash_lsh_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    bucket_cap: int = 512,
    metrics: dict | None = None,
    n_parts: int = 64,
):
    """Near-duplicate pairs by MinHash-LSH, verified with exact
    shingle Jaccard >= threshold.  Returns a pandas DataFrame
    (doc_a, doc_b, jaccard), doc_a < doc_b.

    Recall: (a) LSH banding recall (16 bands x 4 rows; a true pair is
    a candidate iff it collides in >=1 band); (b) a PROBABILISTIC
    estimate prune inside the verify — pairs whose 64-permutation
    signature estimate falls below ``threshold - 3σ`` are rejected
    without computing exact Jaccard (a borderline true pair in the
    estimator's extreme lower tail can be lost; the margin makes that
    ~1e-3).  Every EMITTED pair's jaccard VALUE is exact.  Degenerate
    hot buckets are sub-split at ``bucket_cap``
    (pairs.capped_bucket_pairs), which additionally bounds recall
    inside a single oversized bucket; overflow counts land in
    ``metrics``.

    Scale shape (two streaming passes, no text in any shuffle, no
    payloads on the driver):
    1. band rows (band_id, band_hash, doc_id) -> bucket groupby with
       cap -> candidate id pairs (only 16-B id pairs reach the driver
       — the same magnitude as this function's own return value).
    2. distributed verify (pairs.verify_pairs_distributed): pairs are
       hash-partitioned; one streaming pass computes (signature ‖
       sorted shingle hashes) for ONLY the referenced docs and routes
       each to the partitions whose pairs need it.  Inside each
       partition the signature estimate is one vectorized matrix
       compare over ALL pairs; the per-pair exact-Jaccard intersect
       runs only on the near-positives — this is what keeps
       boilerplate-heavy corpora (many same-prefix docs colliding in
       bands with low true Jaccard) from degrading into a per-pair
       set-intersect storm."""
    def bands(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = _band_rows(ids, minhash_signatures_batch(batch, text_col))
        # partition BUCKETS (not one Python call per bucket): buckets
        # sharing a partition are swept vectorized in part_pairs
        part = bucket_partition(
            t["band_hash"].to_numpy(), t["band_id"].to_numpy(), n_parts=n_parts
        )
        return t.append_column("part", pa.array(part))

    def part_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["doc_id"].to_numpy().astype(np.int64)
        order, starts = sort_segments(
            ids, g["band_id"].to_numpy(), g["band_hash"].to_numpy()
        )
        return segmented_capped_pairs(ids[order], starts, bucket_cap)

    cand = (
        ds.map_batches(bands, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_pairs, batch_format="pandas")
        .to_pandas()
    )
    cand = pop_overflow(cand, metrics).drop_duplicates(ignore_index=True)
    if metrics is not None:
        # driver-frame bound observability: the candidate id-pair frame
        # is the ONLY per-pair driver materialization in this path
        metrics["candidate_pairs"] = int(len(cand))
    empty = pd.DataFrame(
        {"doc_a": pd.Series(dtype=np.int64), "doc_b": pd.Series(dtype=np.int64),
         "jaccard": pd.Series(dtype=np.float64)}
    )
    if not len(cand):
        return empty

    def payload_of(batch: pa.Table, rows: np.ndarray) -> list:
        # payload = 64-int signature ‖ distinct shingle hashes, all
        # from ONE pass of the shared vectorized shingle pipeline
        # (empty docs carry the 0-sentinel hash on BOTH sides of the
        # verify, so empty-empty still scores J=1)
        sub = batch.take(pa.array(rows))
        flat, offsets = _doc_shingle_arrays(sub[text_col])
        sigs = _sigs_from_shingles(flat, offsets, sub.num_rows)
        bounds = np.append(offsets, len(flat))
        return [
            np.concatenate([sigs[i], flat[bounds[i] : bounds[i + 1]]])
            for i in range(sub.num_rows)
        ]

    # 3-sigma lower margin of the 64-permutation Jaccard estimator
    margin = 3.0 * float(np.sqrt(threshold * (1 - threshold) / _N_PERM))

    def verify(prs: pd.DataFrame, lookup: dict) -> pd.DataFrame:
        pa_ids = prs["doc_a"].to_numpy().astype(np.int64)
        pb_ids = prs["doc_b"].to_numpy().astype(np.int64)
        SA = np.stack([lookup[int(a_)][:_N_PERM] for a_ in pa_ids])
        SB = np.stack([lookup[int(b_)][:_N_PERM] for b_ in pb_ids])
        est = (SA == SB).mean(axis=1)
        near = np.nonzero(est >= threshold - margin)[0]
        # exact Jaccard for the near-positives in one lexsort-merge
        # sweep (pairs.pairwise_set_jaccard) — no per-pair Python
        j = pairwise_set_jaccard(
            [np.asarray(lookup[int(pa_ids[i])][_N_PERM:]) for i in near],
            [np.asarray(lookup[int(pb_ids[i])][_N_PERM:]) for i in near],
        )
        keep = j >= threshold
        sel = near[keep]
        return pd.DataFrame(
            {"doc_a": pa_ids[sel],
             "doc_b": pb_ids[sel],
             "jaccard": j[keep].astype(np.float64)}
        )

    out = verify_pairs_distributed(
        ds, cand, id_col, payload_of, verify,
        payload_type=pa.list_(pa.int64()),
        out_schema={"doc_a": np.int64, "doc_b": np.int64, "jaccard": np.float64},
    )
    return out.sort_values(["doc_a", "doc_b"], ignore_index=True)


def exact_dup_pairs(
    ds, text_col: str = "text", id_col: str = "doc_id", bucket_cap: int = 4096,
    n_parts: int = 64,
) -> pd.DataFrame:
    """All (a < b) pairs of EXACTLY identical texts — the containment
    ground truth for the LSH paths (every exact-dup pair must appear in
    minhash/simhash output; its SQL twin is a self-join on text).
    Shuffles (content_hash, id) only; each partition's hash groups
    pair in one vectorized sweep (capped like any LSH bucket)."""
    def hash_id(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = _md5_64_col(batch[text_col])
        return pa.table(
            {"content_hash": pa.array(h), "doc_id": pa.array(ids),
             "part": pa.array(bucket_partition(h, n_parts=n_parts))}
        )

    def part_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["doc_id"].to_numpy().astype(np.int64)
        order, starts = sort_segments(ids, g["content_hash"].to_numpy())
        return segmented_capped_pairs(ids[order], starts, bucket_cap)

    out = (
        ds.map_batches(hash_id, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_pairs, batch_format="pandas")
        .to_pandas()
    )
    if not len(out):
        return pd.DataFrame(
            {"doc_a": pd.Series(dtype=np.int64), "doc_b": pd.Series(dtype=np.int64)}
        )
    out = pop_overflow(out, None)
    return (
        out.drop_duplicates(ignore_index=True)
        .astype({"doc_a": np.int64, "doc_b": np.int64})
        .sort_values(["doc_a", "doc_b"], ignore_index=True)
    )


# -- exact n-gram Jaccard (prefix-filtered inverted index) ------------------


def _ppjoin_filtered_pairs(
    ids: np.ndarray,
    sz: np.ndarray,
    pos: np.ndarray,
    starts: np.ndarray,
    cap: int,
    t: float,
) -> pd.DataFrame:
    """Candidate pairs within each posting-list segment of an
    (id-sorted-within-segment) prefix index, with the PPJoin size and
    positional filters applied AT GENERATION — both are exact-recall
    preserving:

    - size filter: J >= t forces min(|A|,|B|) >= t * max(|A|,|B|)
      (inter <= min, union >= max).
    - positional filter: at the SMALLEST common shingle of a matching
      pair, every earlier shingle of either doc is non-common, so
      overlap <= min(|A|-posA, |B|-posB); J >= t forces overlap >=
      ceil(t/(1+t) * (|A|+|B|)) — the pair always survives via that
      bucket, so the per-bucket filter + cross-bucket union keeps
      recall exactly 1 (Xiao et al., PPJoin, WWW'08).

    Buckets past ``cap`` sub-split exactly like
    ``pairs.capped_bucket_pairs`` (same sentinel accounting)."""
    ends = np.append(starts[1:], len(ids))
    sizes = ends - starts
    multi = np.nonzero(sizes >= 2)[0]
    empty = pd.DataFrame(
        {"doc_a": pd.Series(dtype=np.int64), "doc_b": pd.Series(dtype=np.int64)}
    )
    if not len(multi):
        return empty
    thr = t / (1.0 + t)

    def filt(ia: np.ndarray, ib: np.ndarray, off: int) -> tuple:
        sa, sb = sz[off + ia], sz[off + ib]
        keep = np.minimum(sa, sb) >= t * np.maximum(sa, sb) - 1e-9
        ia, ib = ia[keep], ib[keep]
        sa, sb = sa[keep], sb[keep]
        req = np.ceil(thr * (sa + sb) - 1e-9)
        keep2 = (
            np.minimum(sa - pos[off + ia], sb - pos[off + ib]) >= req
        )
        return ia[keep2] + off, ib[keep2] + off

    out_a, out_b = [], []
    for i in multi:
        s, e = int(starts[i]), int(ends[i])
        n = e - s
        if n <= cap:
            ia, ib = np.triu_indices(n, k=1)
            ga, gb = filt(ia, ib, s)
            out_a.append(ids[ga])
            out_b.append(ids[gb])
            continue
        # overflow: sentinel row + sub-split (ids stay sorted in subs)
        out_a.append(np.array([OVERFLOW_SENTINEL], dtype=np.int64))
        out_b.append(np.array([n], dtype=np.int64))
        nsub = -(-n // cap)
        sub = (
            splitmix64(ids[s:e].astype(np.uint64)) % np.uint64(nsub)
        ).astype(np.int64)
        order = np.argsort(sub, kind="stable")
        sub_s = sub[order]
        bnd = np.append(
            np.nonzero(np.r_[True, sub_s[1:] != sub_s[:-1]])[0], n
        )
        for k in range(len(bnd) - 1):
            m = bnd[k + 1] - bnd[k]
            if m < 2:
                continue
            loc = order[bnd[k] : bnd[k + 1]]
            ia, ib = np.triu_indices(m, k=1)
            sa, sb = sz[s + loc[ia]], sz[s + loc[ib]]
            # size filter only: the sub-split already forfeits the
            # smallest-common-shingle guarantee for this bucket, so the
            # positional filter would silently compound the (counted)
            # cap loss instead of pruning provable non-matches.
            keep = np.minimum(sa, sb) >= t * np.maximum(sa, sb) - 1e-9
            ga, gb = loc[ia[keep]], loc[ib[keep]]
            out_a.append(ids[s + ga])
            out_b.append(ids[s + gb])
    a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
    b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
    return pd.DataFrame({"doc_a": a, "doc_b": b})


def ngram_jaccard_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    bucket_cap: int = 2048,
    metrics: dict | None = None,
    n_parts: int = 64,
) -> pd.DataFrame:
    """EXACT n-gram (word 3-shingle) Jaccard near-dup pairs — the
    deterministic member of the near-dup family (MinHash/SimHash are
    the probabilistic ones; same shingle model, text.WS_RE + k=3).

    Candidate generation is the prefix-filter principle (SSJoin /
    All-Pairs / PPJoin): under a GLOBAL shingle ordering, J(A,B) >= t
    implies the (|A| - ceil(t*|A|) + 1)-prefix of A and the
    corresponding prefix of B share a shingle, so ONLY those prefixes
    enter the inverted (shingle, doc_id) index — ~(1-t) of the index
    rows of a full posting list, with candidate recall EXACTLY 1 (the
    property LSH can't give).  The global order is the All-Pairs
    df-ascending order in its cheap two-level form: a first
    bounded-partial aggregation pass counts per-shingle document
    frequency and collects the HOT set (df > bucket_cap — exactly the
    shingles whose posting bucket would overflow), and the order is
    then (is_hot, hash): rare shingles fill every prefix first, so
    posting buckets are df-bounded <= bucket_cap BY CONSTRUCTION and
    the cap fires only for docs whose whole shingle set is hot (the
    degenerate all-template case, counted in ``metrics``).

    Scale shape mirrors minhash_lsh_pairs: (hash, id, size, position)-
    only shuffle for candidates (raw text never leaves its block), with
    the PPJoin size + positional filters applied AT candidate
    generation (exact-recall preserving under any consistent global
    order, see ``_ppjoin_filtered_pairs``), then the shared
    co-partitioned distributed verify: a vectorized size-filter
    re-check followed by ONE lexsort-merge intersection sweep over the
    whole partition's (pair, hash) rows — no per-pair Python.
    md5-prefix-64 shingle hashes, so the DuckDB twin
    (NGRAM_JACCARD_SQL) computes the IDENTICAL jaccard value.

    The hot set is broadcast-sized (heavy-tail head: shingles with df
    > bucket_cap — the same broadcast-shape assumption as the BM25 IDF
    array) and ships once via ``ray.put``.  The default cap (2048,
    ~2M candidate pairs per worst-case bucket before the filters) is
    sized so that ordinary near-dup families (hundreds of docs) pair
    exhaustively — at the 300k-doc probe scale this path finds the
    FULL true pair set with zero overflow where cap=512 lost the
    planted 600-doc template family's cross-sub-bucket pairs."""
    import ray
    from ray.data.aggregate import Sum

    tmin = float(threshold)

    # -- pass 1: per-shingle document frequency -> the hot set --------
    # Per-batch partials are the batch's DISTINCT (doc, shingle) counts
    # collapsed to (shingle, n) — the shuffle is bounded by distinct
    # shingles per batch; the df > bucket_cap filter runs INSIDE
    # map_batches so the driver only ever holds the hot rows.
    def df_partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        if not texts:
            return pa.table(
                {"shingle": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64())}
            )
        flat, _ = _doc_shingle_md5_arrays(texts)
        u, c = np.unique(flat.astype(np.int64), return_counts=True)
        return pa.table({"shingle": pa.array(u), "n": pa.array(c)})

    def hot_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.greater(batch["n"], bucket_cap))

    hot_df = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("shingle")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(hot_only, batch_format="pyarrow")
        .to_pandas()
    )
    hot_sorted = (
        np.sort(hot_df["shingle"].to_numpy().astype(np.int64))
        if "shingle" in hot_df.columns
        else np.array([], dtype=np.int64)  # empty blocks drop the schema
    )
    if metrics is not None:
        metrics["hot_shingles"] = int(hot_sorted.size)
    hot_ref = ray.put(hot_sorted)

    # -- pass 2: prefix index under the (is_hot, hash) order ----------
    def prefix_index(batch: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch[text_col].to_pylist()
        if not texts:
            return pa.table(
                {"shingle": pa.array([], pa.int64()),
                 "doc_id": pa.array([], pa.int64()),
                 "sz": pa.array([], pa.int64()),
                 "pos": pa.array([], pa.int64()),
                 "part": pa.array([], pa.int64())}
            )
        flat, offsets = _doc_shingle_md5_arrays(texts)
        h = flat.astype(np.int64)
        n = np.diff(np.append(offsets, len(h)))
        # doc-major, (is_hot, hash)-ascending layout: rare shingles
        # first within each doc, so prefixes avoid hot buckets
        loc = np.searchsorted(hot, h)
        loc[loc == hot.size] = 0
        is_hot = (
            (hot[loc] == h) if hot.size else np.zeros(len(h), dtype=bool)
        )
        doc_of = np.repeat(np.arange(len(n)), n)
        order = np.lexsort((h, is_hot, doc_of))
        hs = h[order]
        # prefix length |A| - ceil(t*|A|) + 1 (empty docs pad n=1 -> 1:
        # the 0-sentinel keeps empty-empty pairs, J=1, reachable)
        pl = n - np.ceil(tmin * n).astype(np.int64) + 1
        total = int(pl.sum())
        base = np.repeat(offsets, pl)
        within = np.arange(total) - np.repeat(np.cumsum(pl) - pl, pl)
        sh = hs[base + within]
        did = np.repeat(ids, pl)
        return pa.table(
            {"shingle": pa.array(sh), "doc_id": pa.array(did),
             # sz = |doc's distinct shingle set|, pos = the shingle's
             # rank in the doc's (is_hot, hash)-sorted set — the
             # PPJoin filters
             "sz": pa.array(np.repeat(n, pl).astype(np.int64)),
             "pos": pa.array(within.astype(np.int64)),
             "part": pa.array(bucket_partition(sh, n_parts=n_parts))}
        )

    def part_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["doc_id"].to_numpy().astype(np.int64)
        order, starts = sort_segments(ids, g["shingle"].to_numpy())
        return _ppjoin_filtered_pairs(
            ids[order],
            g["sz"].to_numpy().astype(np.int64)[order],
            g["pos"].to_numpy().astype(np.int64)[order],
            starts, bucket_cap, tmin,
        )

    cand = (
        ds.map_batches(prefix_index, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_pairs, batch_format="pandas")
        .to_pandas()
    )
    cand = pop_overflow(cand, metrics).drop_duplicates(ignore_index=True)
    if metrics is not None:
        # driver-frame bound observability: the candidate id-pair frame
        # is the ONLY per-pair driver materialization in this path
        metrics["candidate_pairs"] = int(len(cand))
    empty = pd.DataFrame(
        {"doc_a": pd.Series(dtype=np.int64), "doc_b": pd.Series(dtype=np.int64),
         "jaccard": pd.Series(dtype=np.float64)}
    )
    if not len(cand):
        return empty

    def payload_of(batch: pa.Table, rows: np.ndarray) -> list:
        # payload = hash-sorted distinct md5-64 shingle sets via the
        # shared VECTORIZED shingle pipeline (Arrow split + md5 once
        # per UNIQUE shingle) — the same arrays prefix_index indexed.
        # Empty docs carry the single 0-sentinel hash (matching the
        # index side), so empty-empty pairs still verify to J=1 and
        # empty-vs-nonempty stays 0 (the 0 hash never collides).
        texts = batch.take(pa.array(rows))[text_col].to_pylist()
        if not texts:
            return []
        flat, offsets = _doc_shingle_md5_arrays(texts)
        h = flat.astype(np.int64)
        bounds = np.append(offsets, len(h))
        return [h[bounds[i] : bounds[i + 1]] for i in range(len(texts))]

    def verify(prs: pd.DataFrame, lookup: dict) -> pd.DataFrame:
        emptydf = pd.DataFrame(
            {"doc_a": pd.Series(dtype=np.int64),
             "doc_b": pd.Series(dtype=np.int64),
             "jaccard": pd.Series(dtype=np.float64)}
        )
        pa_ids = prs["doc_a"].to_numpy().astype(np.int64)
        pb_ids = prs["doc_b"].to_numpy().astype(np.int64)
        k = len(pa_ids)
        arrs_a = [np.asarray(lookup[int(x)], dtype=np.int64) for x in pa_ids]
        arrs_b = [np.asarray(lookup[int(x)], dtype=np.int64) for x in pb_ids]
        na = np.fromiter((v.size for v in arrs_a), dtype=np.int64, count=k)
        nb = np.fromiter((v.size for v in arrs_b), dtype=np.int64, count=k)
        # size filter: J >= t needs |A∩B| <= min to beat t * |A∪B| >= t * max
        ok = np.minimum(na, nb) >= tmin * np.maximum(na, nb) - 1e-9
        idx = np.flatnonzero(ok)
        if not idx.size:
            return emptydf
        # ONE lexsort-merge intersection sweep over the partition's
        # flattened (pair, hash) rows — no per-pair Python
        j = pairwise_set_jaccard(
            [arrs_a[i] for i in idx], [arrs_b[i] for i in idx]
        )
        keep = j >= tmin
        sel = idx[keep]
        return pd.DataFrame(
            {"doc_a": pa_ids[sel],
             "doc_b": pb_ids[sel],
             "jaccard": j[keep].astype(np.float64)}
        )

    out = verify_pairs_distributed(
        ds, cand, id_col, payload_of, verify,
        payload_type=pa.list_(pa.int64()),
        out_schema={"doc_a": np.int64, "doc_b": np.int64, "jaccard": np.float64},
    )
    return out.sort_values(["doc_a", "doc_b"], ignore_index=True)


# -- simhash ---------------------------------------------------------------


def _shingle_strings(text: str, k: int = 3) -> set[str]:
    """Word k-shingle STRINGS (the same shingling as shingle_set,
    pre-hash) — the form DuckDB can reproduce with string_split +
    list_transform."""
    words = WS_RE.findall(text or "")
    if len(words) < k:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


def _doc_shingle_md5_arrays(texts) -> tuple[np.ndarray, np.ndarray]:
    """Flattened DISTINCT md5-prefix-64 shingle hashes + row offsets.
    md5 (not crc32+mix) so the DuckDB oracle computes the IDENTICAL
    feature hash: cast('0x' || substr(md5(s),1,16) as ubigint).  Empty
    docs pad with one 0 hash (keeps reduceat offsets valid; yields
    simhash 0, matching the oracle's coalesce).

    Vectorized: Arrow whitespace split (byte-identical to the WS_RE
    word model), shingle strings via one ``binary_join_element_wise``
    over position-shifted word slices, md5 once per UNIQUE shingle
    (dictionary encode — ~10:1 dedup on template-heavy corpora), and
    a lexsort run-dedup for the per-doc distinct sets."""

    def md5_64(words: list) -> np.ndarray:
        return np.fromiter(
            (
                int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "big")
                for w in words
            ),
            dtype=np.uint64,
            count=len(words),
        )

    return _doc_shingle_hash_arrays(texts, md5_64)


def _doc_shingle_hash_arrays(texts, hash_fn) -> tuple[np.ndarray, np.ndarray]:
    """Shared vectorized shingle pipeline: Arrow split -> 3-word
    shingle strings (one binary_join_element_wise over shifted word
    slices; whole-doc join for 1-2-word docs) -> ``hash_fn`` once per
    UNIQUE shingle (dictionary encode) -> per-doc DISTINCT hash runs.
    Returns (flat uint64 hashes, per-doc offsets); empty docs pad one
    0 hash."""
    import pyarrow.compute as pc

    if isinstance(texts, (list, tuple)):
        txt = pa.array([t or "" for t in texts], pa.string())
    else:
        txt = texts.combine_chunks() if isinstance(
            texts, pa.ChunkedArray
        ) else texts
    n = len(txt)
    if not n:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    wl = pc.ascii_split_whitespace(pc.fill_null(txt, ""))
    if isinstance(wl, pa.ChunkedArray):
        wl = wl.combine_chunks()
    loff = wl.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lo = int(loff[0])
    vals = wl.values.slice(lo, int(loff[-1]) - lo)
    keep = np.asarray(pc.binary_length(vals)) > 0
    cum = np.zeros(len(vals) + 1, dtype=np.int64)
    np.cumsum(keep, out=cum[1:])
    w_off = cum[loff - lo]
    flat_words = vals.filter(pa.array(keep))
    n_words = np.diff(w_off)

    # shingle strings: 3-word windows for docs with >=3 words, the
    # whole-doc join for 1-2-word docs
    parts = []
    long_sel = np.flatnonzero(n_words >= 3)
    if long_sel.size:
        nw = n_words[long_sel] - 2
        base = np.repeat(w_off[long_sel], nw)
        tot = int(nw.sum())
        within = np.arange(tot) - np.repeat(np.cumsum(nw) - nw, nw)
        s = base + within
        a = flat_words.take(pa.array(s))
        b = flat_words.take(pa.array(s + 1))
        c = flat_words.take(pa.array(s + 2))
        parts.append((long_sel, nw, pc.binary_join_element_wise(a, b, c, " ")))
    short_sel = np.flatnonzero((n_words > 0) & (n_words < 3))
    if short_sel.size:
        joined = pa.array(
            [
                " ".join(
                    flat_words.slice(
                        int(w_off[i]), int(n_words[i])
                    ).to_pylist()
                )
                for i in short_sel
            ],
            pa.string(),
        )
        parts.append((short_sel, np.ones(short_sel.size, np.int64), joined))

    # hash once per UNIQUE shingle, scattered back
    doc_of_parts, hash_parts = [], []
    for sel, cnts, strs in parts:
        d = pc.dictionary_encode(strs)
        uniq = hash_fn(d.dictionary.to_pylist())
        hash_parts.append(uniq[d.indices.to_numpy(zero_copy_only=False)])
        doc_of_parts.append(np.repeat(sel, cnts))
    if hash_parts:
        hs = np.concatenate(hash_parts)
        doc_of = np.concatenate(doc_of_parts)
        order = np.lexsort((hs, doc_of))
        ds_, hs_ = doc_of[order], hs[order]
        first = np.ones(hs_.size, dtype=bool)
        first[1:] = (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])
        ds_u, hs_u = ds_[first], hs_[first]
    else:
        ds_u = np.zeros(0, dtype=np.int64)
        hs_u = np.zeros(0, dtype=np.uint64)
    counts = np.bincount(ds_u, minlength=n).astype(np.int64)
    pad = counts == 0  # empty docs: one 0 hash
    counts[pad] = 1
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    flat = np.zeros(int(counts.sum()), dtype=np.uint64)
    put = np.ones(len(flat), dtype=bool)
    put[offsets[pad]] = False  # empty docs keep their single 0 pad
    flat[put] = hs_u
    return flat, offsets


def simhash_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """64-bit SimHash per doc over word shingles (bitplane sums via
    add.reduceat); feature hash is the md5 prefix so the pair set has
    an exact DuckDB twin (SIMHASH_PAIRS_SQL in pipelines/queries.py)."""
    texts = batch[text_col].to_pylist()
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if not texts:
        return pa.table({"doc_id": pa.array([], pa.int64()), "simhash": pa.array([], pa.int64())})
    h, offsets = _doc_shingle_md5_arrays(texts)
    sims = np.zeros(len(texts), dtype=np.uint64)
    counts = np.diff(np.append(offsets, len(h)))
    for b in range(64):
        bit = ((h >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
        ones = np.add.reduceat(bit, offsets)
        sims |= ((2 * ones > counts).astype(np.uint64)) << np.uint64(b)
    return pa.table({"doc_id": pa.array(ids), "simhash": pa.array(sims.astype(np.int64))})


def simhash_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    bucket_cap: int = 512,
    metrics: dict | None = None,
    n_parts: int = 64,
):
    """Near-dup pairs with Hamming(simhash) <= max_hamming, candidates
    via 4x16-bit band collisions (guaranteed to catch distance <= 3
    when no bucket overflows; oversized buckets sub-split at
    ``bucket_cap`` — overflow counts land in ``metrics``).  Hamming
    verify runs INSIDE the bucket map_groups — only verified pairs
    leave the workers."""
    def sh(batch: pa.Table) -> pa.Table:
        return simhash_batch(batch, text_col, id_col)

    def bands(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        s = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        parts = []
        for b in range(4):
            bh = ((s >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
            parts.append(
                pa.table(
                    {
                        "band_id": pa.array(np.full(len(ids), b, dtype=np.int64)),
                        "band_hash": pa.array(bh),
                        "doc_id": pa.array(ids),
                        "simhash": pa.array(s.astype(np.int64)),
                        "part": pa.array(
                            bucket_partition(bh, np.full(len(ids), b, dtype=np.int64), n_parts=n_parts)
                        ),
                    }
                )
            )
        return pa.concat_tables(parts)

    def _ham_pairs(ids: np.ndarray, s: np.ndarray) -> tuple:
        a, b = np.triu_indices(len(ids), k=1)
        x = s[a] ^ s[b]
        ham = np.zeros(len(x), dtype=np.int64)
        for _ in range(64):
            ham += (x & np.uint64(1)).astype(np.int64)
            x = x >> np.uint64(1)
        keep = ham <= max_hamming
        return ids[a][keep], ids[b][keep], ham[keep]

    def _bucket_ham(ids: np.ndarray, s: np.ndarray) -> tuple:
        """One bucket (already id-sorted): capped + sub-split + verify."""
        n = len(ids)
        if n <= bucket_cap:
            return _ham_pairs(ids, s)
        # hot bucket: sub-split by a secondary id hash (bounds the
        # O(n^2) pair-gen to ~n*cap/2); report via sentinel row
        nsub = -(-n // bucket_cap)
        sub = (splitmix64(ids.astype(np.uint64)) % np.uint64(nsub)).astype(np.int64)
        out_a = [np.array([OVERFLOW_SENTINEL], dtype=np.int64)]
        out_b = [np.array([n], dtype=np.int64)]
        out_h = [np.array([-1], dtype=np.int64)]
        order = np.argsort(sub, kind="stable")
        sub_s, ids_s, s_s = sub[order], ids[order], s[order]
        starts = np.nonzero(np.r_[True, sub_s[1:] != sub_s[:-1]])[0]
        bounds = np.append(starts, n)
        for i in range(len(starts)):
            lo, hi = bounds[i], bounds[i + 1]
            if hi - lo >= 2:
                a, b, h = _ham_pairs(ids_s[lo:hi], s_s[lo:hi])
                out_a.append(a)
                out_b.append(b)
                out_h.append(h)
        return (
            np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_h)
        )

    def part_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """All buckets of one partition in a single vectorized sweep;
        Python touches only the COLLIDING segments."""
        ids = g["doc_id"].to_numpy().astype(np.int64)
        order, starts = sort_segments(
            ids, g["band_id"].to_numpy(), g["band_hash"].to_numpy()
        )
        ids = ids[order]
        s = g["simhash"].to_numpy().astype(np.uint64)[order]
        n = len(ids)
        ends = np.append(starts[1:], n)
        sizes = ends - starts
        out_a, out_b, out_h = [], [], []
        for i in np.nonzero(sizes >= 2)[0]:
            a, b, h = _bucket_ham(ids[starts[i] : ends[i]], s[starts[i] : ends[i]])
            out_a.append(a)
            out_b.append(b)
            out_h.append(h)
        if not out_a:
            return pd.DataFrame(
                {"doc_a": pd.Series(dtype=np.int64),
                 "doc_b": pd.Series(dtype=np.int64),
                 "hamming": pd.Series(dtype=np.int64)}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b),
             "hamming": np.concatenate(out_h)}
        )

    out = (
        ds.map_batches(sh, batch_format="pyarrow")
        .map_batches(bands, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_pairs, batch_format="pandas")
        .to_pandas()
    )
    if not len(out):
        return out
    out = pop_overflow(out, metrics)
    return (
        out.drop_duplicates(["doc_a", "doc_b"], ignore_index=True)
        .astype({"doc_a": np.int64, "doc_b": np.int64, "hamming": np.int64})
        .sort_values(["doc_a", "doc_b"], ignore_index=True)
    )
