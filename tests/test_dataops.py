"""Training-data operations: planted-duplicate recovery, similarity
search correctness vs brute force, text-analysis determinism,
multimodal actor-pool plumbing."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from tests.util import to_pandas

BASE_TEXTS = [
    "the quick brown fox jumps over the lazy dog near the river bank today",
    "a completely different document about distributed data processing engines",
    "streaming statistics with watermarks and windows over token sequences",
    "weighted moments skewness and kurtosis computed from power sums exactly",
    "large scale training data pipelines need deduplication and quality checks",
]


def _docs_table(n=40, seed=3):
    rng = np.random.default_rng(seed)
    texts, srcs = [], []
    for i in range(n):
        base = BASE_TEXTS[i % len(BASE_TEXTS)]
        words = base.split()
        rng.shuffle(words) if i % 7 == 0 else None
        texts.append(" ".join(words) + f" tail{i % 11}")
        srcs.append(f"s{i % 3}")
    # plant exact duplicates: 35<-0, 36<-1
    texts[35] = texts[0]
    texts[36] = texts[1]
    # plant a near duplicate of 2 (one appended word -> shingle
    # jaccard ~0.89, reliably above the LSH band threshold)
    texts[37] = texts[2] + " extraword"
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(srcs, pa.string()),
        }
    )


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(_docs_table())


def test_exact_dedup(docs_ds):
    from raystat.dataops.dedup import exact_dedup

    out = to_pandas(exact_dedup(docs_ds)).sort_values("doc_id")
    assert 35 not in set(out["doc_id"]) and 36 not in set(out["doc_id"])
    assert 0 in set(out["doc_id"]) and 1 in set(out["doc_id"])
    assert len(out) == 38  # 40 - 2 exact dups


def test_minhash_lsh_finds_planted_dups(docs_ds):
    from raystat.dataops.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(docs_ds, threshold=0.7)
    got = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 35) in got and (1, 36) in got  # exact dups (jaccard 1.0)
    assert (2, 37) in got  # near dup
    # verified jaccard values are exact
    j = pairs.set_index(["doc_a", "doc_b"])["jaccard"]
    assert j.loc[(0, 35)] == 1.0


def test_simhash_finds_exact_dups(docs_ds):
    from raystat.dataops.dedup import simhash_pairs

    pairs = simhash_pairs(docs_ds, max_hamming=3)
    got = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 35) in got and (1, 36) in got
    ham = pairs.set_index(["doc_a", "doc_b"])["hamming"]
    assert ham.loc[(0, 35)] == 0


def test_simhash_pairs_equal_hamming_ball(ray_session):
    """With 4 disjoint 16-bit bands and max_hamming=3, the band LSH is
    lossless by pigeonhole — the distributed pair set must EQUAL the
    brute-force Hamming<=3 ball (ids AND distances), with no band or
    routing plumbing dropping or duplicating a pair."""
    import ray.data as rd

    from raystat.dataops.dedup import simhash_batch, simhash_pairs

    rng = np.random.default_rng(7)
    texts, ids = [], []
    for i in range(200):
        words = [f"w{rng.integers(0, 300)}" for _ in range(40)]
        texts.append(" ".join(words))
        ids.append(i)
    # plant exact dups and one-word perturbations (near-zero hamming)
    for a, b in [(0, 150), (1, 151), (2, 152)]:
        texts[b] = texts[a]
    for a, b in [(3, 153), (4, 154)]:
        w = texts[a].split()
        w[17] = "CHANGED"
        texts[b] = " ".join(w)
    t = pa.table(
        {
            "doc_id": pa.array(np.array(ids, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = simhash_pairs(rd.from_arrow(t).repartition(6), max_hamming=3)
    got_set = {
        (int(a), int(b)): int(h)
        for a, b, h in zip(got["doc_a"], got["doc_b"], got["hamming"])
    }
    # brute force over the same simhashes
    s = simhash_batch(t)["simhash"].to_numpy().astype(np.uint64)
    bytes_ = s.view(np.uint8).reshape(len(s), 8)
    bits = np.unpackbits(bytes_, axis=1)  # (n, 64)
    ham = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
    exp_set = {}
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if ham[i, j] <= 3:
                exp_set[(i, j)] = int(ham[i, j])
    assert (0, 150) in exp_set  # planted dups really are in the ball
    assert got_set == exp_set


def test_near_dedup_transitive_components(ray_session):
    """near_dedup keeps ONE doc per connected component: a~b and b~c
    put a,b,c in one component even when a!~c (transitivity via
    union-find), and isolated docs always survive."""
    import ray.data as rd

    from raystat.dataops.dedup import near_dedup

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(np.arange(8, dtype=np.int64)),
                "text": pa.array([f"t{i}" for i in range(8)], pa.string()),
            }
        )
    )
    pairs = pd.DataFrame(
        {"doc_a": np.array([1, 2, 6], dtype=np.int64),
         "doc_b": np.array([2, 5, 7], dtype=np.int64)}
    )  # components {1,2,5}, {6,7}; isolated 0,3,4
    out = to_pandas(near_dedup(ds, pairs))
    assert sorted(out["doc_id"]) == [0, 1, 3, 4, 6]


def test_ngram_jaccard_symmetry():
    from raystat.dataops.dedup import jaccard, shingle_set

    a = shingle_set(BASE_TEXTS[0])
    b = shingle_set(BASE_TEXTS[0])
    c = shingle_set(BASE_TEXTS[1])
    assert jaccard(a, b) == 1.0
    assert jaccard(a, c) < 0.2
    assert jaccard(a, c) == jaccard(c, a)


def test_ngram_jaccard_pairs_equal_bruteforce(docs_ds):
    """The prefix-filtered inverted-index pair set must EQUAL the
    brute-force all-pairs shingle Jaccard >= t set — ids AND values —
    i.e. the prefix filter loses nothing (the theorem) and the index
    plumbing neither drops nor duplicates a pair."""
    from raystat.dataops.dedup import (
        _shingle_strings,
        jaccard,
        ngram_jaccard_pairs,
    )

    t = 0.7
    m = {}
    got = ngram_jaccard_pairs(docs_ds, threshold=t, metrics=m)
    assert m["overflow_buckets"] == 0
    sets = {
        i: _shingle_strings(txt)
        for i, txt in enumerate(_docs_table()["text"].to_pylist())
    }
    want = {
        (a, b): jaccard(sets[a], sets[b])
        for a in sets
        for b in sets
        if a < b and jaccard(sets[a], sets[b]) >= t
    }
    got_map = {
        (int(a), int(b)): float(j)
        for a, b, j in zip(got["doc_a"], got["doc_b"], got["jaccard"])
    }
    assert set(got_map) == set(want)
    for k, v in want.items():
        assert abs(got_map[k] - v) < 1e-12


def test_ngram_jaccard_contains_minhash_pairs(docs_ds):
    """Exact recall=1: every MinHash-LSH verified pair (a subset of
    the true >= t pair set) must appear in the exact n-gram Jaccard
    output at the same threshold."""
    from raystat.dataops.dedup import minhash_lsh_pairs, ngram_jaccard_pairs

    exact = ngram_jaccard_pairs(docs_ds, threshold=0.8)
    mh = minhash_lsh_pairs(docs_ds, threshold=0.8)
    exact_keys = {(int(a), int(b)) for a, b in zip(exact["doc_a"], exact["doc_b"])}
    for a, b in zip(mh["doc_a"], mh["doc_b"]):
        assert (int(a), int(b)) in exact_keys


def test_ngram_jaccard_hot_shingle_order(ray_session):
    """The df-ascending (is_hot, hash) prefix order: a boilerplate
    3-gram shared by EVERY doc is detected as hot (df > bucket_cap)
    and excluded from prefixes, so its posting bucket never forms —
    zero overflow at a cap far below the corpus size — while the pair
    set still EQUALS brute force (rare shingles carry the prefixes)."""
    import ray.data as rd

    from raystat.dataops.dedup import (
        _shingle_strings,
        jaccard,
        ngram_jaccard_pairs,
    )

    rng = np.random.default_rng(11)
    texts = []
    for i in range(20):
        uniq = " ".join(f"u{i}w{j}" for j in rng.integers(0, 10**6, size=10))
        texts.append(f"common boilerplate header {uniq}")
    texts.append(texts[0] + " onemore")  # planted near-dup of doc 0
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    t = 0.7
    m = {}
    got = ngram_jaccard_pairs(ds, threshold=t, metrics=m, bucket_cap=8)
    assert m["hot_shingles"] > 0  # the shared header shingle is hot
    assert m["overflow_buckets"] == 0  # ...so its bucket never forms
    sets = {i: _shingle_strings(txt) for i, txt in enumerate(texts)}
    want = {
        (a, b): jaccard(sets[a], sets[b])
        for a in sets
        for b in sets
        if a < b and jaccard(sets[a], sets[b]) >= t
    }
    assert (0, 20) in want  # the planted pair is actually above t
    got_map = {
        (int(a), int(b)): float(j)
        for a, b, j in zip(got["doc_a"], got["doc_b"], got["jaccard"])
    }
    assert set(got_map) == set(want)
    for k, v in want.items():
        assert abs(got_map[k] - v) < 1e-12


def _emb_ds(ray_session, n=60, dim=16, seed=5):
    import ray.data as rd

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim)).astype(np.float32)
    X[50] = X[0]  # exact dup
    X[51] = X[1] + rng.standard_normal(dim).astype(np.float32) * 0.01  # near dup
    return rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(list(X), type=pa.list_(pa.float32())),
            }
        )
    ), X


def test_embedding_dup_pairs(ray_session):
    from raystat.dataops.similarity import embedding_dup_pairs

    ds, X = _emb_ds(ray_session)
    out = embedding_dup_pairs(ds, threshold=0.95)
    got = {(int(a), int(b)) for a, b in zip(out["vec_a"], out["vec_b"])}
    assert (0, 50) in got and (1, 51) in got


def test_embedding_lsh_recovers_exact_dup(ray_session):
    from raystat.dataops.similarity import embedding_lsh_pairs

    ds, X = _emb_ds(ray_session)
    out = embedding_lsh_pairs(ds, threshold=0.95)
    got = {(int(a), int(b)) for a, b in zip(out["vec_a"], out["vec_b"])}
    assert (0, 50) in got  # identical vectors always collide


def test_ann_topk_matches_bruteforce(ray_session):
    from raystat.dataops.similarity import ann_topk

    ds, X = _emb_ds(ray_session)
    Xn = X.astype(np.float64)
    Xn = Xn / np.linalg.norm(Xn, axis=1, keepdims=True)
    C = Xn @ Xn[:3].T
    out = ann_topk(ds, X[:3], np.arange(3), k=5)
    for q in range(3):
        c = C[:, q].copy()
        ids = np.arange(len(c))
        mask = ids != q
        order = np.lexsort((ids[mask], -c[mask]))[:5]
        expect = list(ids[mask][order])
        got = out[out["query_id"] == q]["neighbor_id"].tolist()
        assert got == expect, (q, got, expect)


def test_text_analysis_deterministic(docs_ds):
    from raystat.dataops.text import (
        fingerprint_batch,
        lang_id_batch,
        quality_score_batch,
        token_count_batch,
    )

    t = _docs_table()
    a = token_count_batch(t)
    assert a["n_tok"][0].as_py() == len(BASE_TEXTS[0].split()) + 1  # + tail word
    q = quality_score_batch(t)
    assert q.num_rows == t.num_rows
    sr = q["stop_ratio"].to_numpy()
    assert (sr >= 0).all() and (sr <= 1).all() and sr[0] > 0
    l = lang_id_batch(t)
    assert set(l["pred_lang"].to_pylist()) <= {"en", "zh", "ru", "unk"}
    f1 = fingerprint_batch(t)["fingerprint"].to_pylist()
    f2 = fingerprint_batch(t)["fingerprint"].to_pylist()
    assert f1 == f2
    assert f1[0] == f1[35]  # identical texts -> identical fingerprints


def test_multimodal_plumbing(docs_ds):
    from raystat.dataops.multimodal import image_features

    out = to_pandas(image_features(docs_ds, concurrency=2, batch_size=16))
    assert len(out) == 40
    assert len(out["features"].iloc[0]) == 8
    # deterministic across runs
    out2 = to_pandas(image_features(docs_ds, concurrency=2, batch_size=16))
    pd.testing.assert_frame_equal(
        out.sort_values("doc_id", ignore_index=True),
        out2.sort_values("doc_id", ignore_index=True),
    )


# -- pure-NumPy image codecs ------------------------------------------------


def _test_img(seed=7, h=9, w=13):
    from raystat.dataops.multimodal import synth_image

    return synth_image(seed, h=h, w=w)


def test_codec_roundtrips_exact():
    from raystat.dataops import imagecodec as ic

    img = _test_img()
    for enc, dec in [
        (ic.encode_ppm, ic.decode_ppm),
        (ic.encode_bmp, ic.decode_bmp),
        (ic.encode_png, ic.decode_png),
    ]:
        out = dec(enc(img))
        np.testing.assert_array_equal(out, img)
    # dispatch by magic bytes
    for enc in (ic.encode_ppm, ic.encode_bmp, ic.encode_png):
        np.testing.assert_array_equal(ic.decode_image(enc(img)), img)


def test_png_decoder_handles_all_filters():
    """Forward-apply each PNG filter manually, then decode."""
    import struct
    import zlib

    from raystat.dataops import imagecodec as ic

    img = _test_img(seed=11, h=6, w=5)
    h, w = img.shape[:2]
    raw = img.reshape(h, w * 3).astype(np.int32)
    bpp = 3
    scan = np.zeros((h, 1 + w * 3), dtype=np.uint8)
    for y in range(h):
        f = y % 5  # exercise filters 0..4
        scan[y, 0] = f
        prev = raw[y - 1] if y else np.zeros(w * 3, np.int32)
        line = raw[y]
        enc = np.empty(w * 3, np.int32)
        for i in range(w * 3):
            a = line[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            if f == 0:
                pred = 0
            elif f == 1:
                pred = a
            elif f == 2:
                pred = b
            elif f == 3:
                pred = (a + b) >> 1
            else:
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
            enc[i] = (line[i] - pred) & 0xFF
        scan[y, 1:] = enc.astype(np.uint8)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    data = (
        b"\x89PNG\r\n\x1a\n"
        + ic._chunk(b"IHDR", ihdr)
        + ic._chunk(b"IDAT", zlib.compress(scan.tobytes()))
        + ic._chunk(b"IEND", b"")
    )
    np.testing.assert_array_equal(ic.decode_png(data), img)


def test_image_features_real_decode(docs_ds):
    from raystat.dataops.multimodal import (
        ImageFeatureStage,
        attach_image_payload,
        synth_image,
    )

    t = attach_image_payload(_docs_table())
    out = ImageFeatureStage()(t)
    assert out["decoded"].to_pylist() == [True] * t.num_rows
    assert out["width"].to_pylist() == [32] * t.num_rows
    assert out["height"].to_pylist() == [24] * t.num_rows
    # features match a direct computation on the planted pixels
    img0 = synth_image(0)
    f0 = np.asarray(out["features"][0].as_py())
    np.testing.assert_allclose(
        f0[2:5], img0.reshape(-1, 3).astype(np.float64).mean(axis=0), rtol=1e-12
    )


def test_image_resize_stage():
    from raystat.dataops import imagecodec as ic
    from raystat.dataops.multimodal import ImageResizeStage, attach_image_payload

    t = attach_image_payload(_docs_table().slice(0, 6))
    out = ImageResizeStage(out_h=8, out_w=8)(t)
    for p in out["payload"].to_pylist():
        img = ic.decode_png(p)
        assert img.shape == (8, 8, 3)


def test_frame_sample_stage():
    from raystat.dataops import imagecodec as ic
    from raystat.dataops.multimodal import FrameSampleStage, synth_image

    frames = [ic.encode_png(synth_image(s, h=4, w=4)) for s in range(5)]
    t = pa.table(
        {
            "doc_id": pa.array([1], pa.int64()),
            "frames": pa.array([frames], pa.list_(pa.binary())),
        }
    )
    out = FrameSampleStage(stride=2)(t)
    assert out["frame_index"].to_pylist() == [0, 2, 4]
    np.testing.assert_array_equal(
        ic.decode_png(out["payload"][0].as_py()), synth_image(0, h=4, w=4)
    )


def test_minhash_lsh_larger_fixture(ray_session):
    """10x fixture: planted dup recovery through the co-partitioned
    distributed verify path."""
    import ray.data as rd

    rng = np.random.default_rng(17)
    n = 400
    texts = []
    for i in range(n):
        base = BASE_TEXTS[i % len(BASE_TEXTS)].split()
        extra = [f"w{rng.integers(0, 5000)}" for _ in range(8)]
        texts.append(" ".join(base + extra))
    planted = [(0, 390), (1, 391), (2, 392)]
    for a, b in planted:
        texts[b] = texts[a]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "text": pa.array(texts, pa.string()),
                "source": pa.array(["s"] * n, pa.string()),
            }
        )
    ).repartition(8)
    from raystat.dataops.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(ds, threshold=0.8)
    got = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    for p in planted:
        assert p in got, (p, got)
    j = pairs.set_index(["doc_a", "doc_b"])["jaccard"]
    for p in planted:
        assert j.loc[p] == 1.0  # output jaccard is exact, not estimated


def test_capped_bucket_pairs_properties():
    from raystat.dataops.pairs import OVERFLOW_SENTINEL, capped_bucket_pairs

    rng = np.random.default_rng(47)
    ids = rng.choice(100_000, size=1000, replace=False).astype(np.int64)
    # small bucket: exhaustive
    small = capped_bucket_pairs(ids[:10], cap=64)
    assert len(small) == 45 and (small["doc_a"] < small["doc_b"]).all()
    # big bucket: bounded, sentinel present, deterministic
    big = capped_bucket_pairs(ids, cap=64)
    sent = big[big["doc_a"] == OVERFLOW_SENTINEL]
    assert len(sent) == 1 and int(sent["doc_b"].iloc[0]) == 1000
    real = big[big["doc_a"] != OVERFLOW_SENTINEL]
    assert 0 < len(real) <= 1000 * 64 // 2 + 1000
    assert (real["doc_a"] < real["doc_b"]).all()
    big2 = capped_bucket_pairs(rng.permutation(ids), cap=64)
    pd.testing.assert_frame_equal(
        big.sort_values(["doc_a", "doc_b"], ignore_index=True),
        big2.sort_values(["doc_a", "doc_b"], ignore_index=True),
    )


def test_verify_pairs_distributed_routing(ray_session):
    """The id->partitions routing must deliver every referenced doc's
    payload to every partition whose pairs need it — checked by a
    verify_group that fails loudly on a missing lookup, across enough
    pairs to span many partitions, with ids scattered over batches."""
    import ray.data as rd

    from raystat.dataops.pairs import verify_pairs_distributed

    n = 3000
    ids = np.arange(n, dtype=np.int64)
    vals = (ids * 7 + 3).astype(np.float64)
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids), "val": pa.array(vals)})
    ).repartition(16)
    rng = np.random.default_rng(53)
    a = rng.integers(0, n, size=5000).astype(np.int64)
    b = rng.integers(0, n, size=5000).astype(np.int64)
    keep = a != b
    cand = pd.DataFrame(
        {"doc_a": np.minimum(a, b)[keep], "doc_b": np.maximum(a, b)[keep]}
    ).drop_duplicates(ignore_index=True)

    def payload_of(batch: pa.Table, rows: np.ndarray) -> list:
        sub = batch.take(pa.array(rows))
        return [np.array([v], dtype=np.float64) for v in sub["val"].to_pylist()]

    def verify(prs: pd.DataFrame, lookup: dict) -> pd.DataFrame:
        out = []
        for x, y in zip(prs["doc_a"], prs["doc_b"]):
            # KeyError here = payload not routed to this partition
            out.append((int(x), int(y), float(lookup[int(x)][0] + lookup[int(y)][0])))
        return pd.DataFrame(out, columns=["doc_a", "doc_b", "s"])

    out = verify_pairs_distributed(
        ds, cand, "doc_id", payload_of, verify,
        payload_type=pa.list_(pa.float64()),
        out_schema={"doc_a": np.int64, "doc_b": np.int64, "s": np.float64},
        pairs_per_partition=256,  # force many partitions
    )
    assert len(out) == len(cand)
    m = out.sort_values(["doc_a", "doc_b"], ignore_index=True)
    expect = (m["doc_a"] * 7 + 3 + m["doc_b"] * 7 + 3).astype(np.float64)
    np.testing.assert_array_equal(m["s"].to_numpy(), expect.to_numpy())


def test_ann_topk_1000_queries(ray_session):
    """Vectorized-across-queries partial top-k: 1000 queries against
    2000 vectors (with planted exact duplicates so boundary ties
    exercise the tie repair) must match the brute-force (cos desc,
    id asc) reference exactly."""
    import ray.data as rd

    from raystat.dataops.similarity import ann_topk

    rng = np.random.default_rng(41)
    n, dim, nq, k = 2000, 16, 1000, 10
    X = rng.standard_normal((n, dim))
    X[1500:1520] = X[0:20]  # planted dups -> exact cos ties
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(list(X), type=pa.list_(pa.float64())),
            }
        )
    ).repartition(8)
    qids = np.arange(nq, dtype=np.int64)
    out = ann_topk(ds, X[:nq], qids, k=k)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    C = Xn @ Xn[:nq].T
    ids = np.arange(n)
    for q in [0, 1, 5, 17, 499, 999]:  # incl. planted-dup queries
        c = C[:, q]
        mask = ids != q
        order = np.lexsort((ids[mask], -c[mask]))[:k]
        expect = list(ids[mask][order])
        got = out[out["query_id"] == q]["neighbor_id"].tolist()
        assert got == expect, (q, got, expect)
    assert len(out) == nq * k


def test_exact_dup_pairs(docs_ds):
    from raystat.dataops.dedup import exact_dup_pairs

    out = exact_dup_pairs(docs_ds)
    got = {(int(a), int(b)) for a, b in zip(out["doc_a"], out["doc_b"])}
    assert got == {(0, 35), (1, 36)}


def _hot_bucket_docs(ray_session, n_hot=1000):
    """Adversarial fixture: the 400-doc corpus plus one degenerate
    cluster of identical EMPTY texts (all land in one LSH bucket in
    every band)."""
    import ray.data as rd

    rng = np.random.default_rng(23)
    texts, ids = [], []
    for i in range(400):
        base = BASE_TEXTS[i % len(BASE_TEXTS)].split()
        extra = [f"w{rng.integers(0, 5000)}" for _ in range(8)]
        texts.append(" ".join(base + extra))
        ids.append(i)
    planted = [(0, 390), (1, 391)]
    for a, b in planted:
        texts[b] = texts[a]
    for i in range(n_hot):
        texts.append("")
        ids.append(1000 + i)
    t = pa.table(
        {
            "doc_id": pa.array(np.array(ids, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(["s"] * len(ids), pa.string()),
        }
    )
    return rd.from_arrow(t).repartition(8), planted


def test_minhash_hot_bucket_bounded(ray_session):
    """One adversarial hot bucket (1k identical empty docs) must not
    explode pair generation quadratically: the cap sub-splits it,
    reports overflow, and the planted real dups still come out with
    exact jaccard."""
    from raystat.dataops.dedup import minhash_lsh_pairs

    ds, planted = _hot_bucket_docs(ray_session)
    cap = 64
    metrics: dict = {}
    pairs = minhash_lsh_pairs(ds, threshold=0.8, bucket_cap=cap, metrics=metrics)
    assert metrics["overflow_buckets"] > 0
    assert metrics["max_bucket_size"] >= 1000
    got = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    for p in planted:
        assert p in got, (p, len(got))
    hot = pairs[pairs["doc_a"] >= 1000]
    # sub-splitting bounds the degenerate cluster's pairs to ~n*cap/2
    assert 0 < len(hot) <= 1000 * cap
    assert (hot["jaccard"] == 1.0).all()  # empty==empty exactly


def test_simhash_hot_bucket_bounded(ray_session):
    from raystat.dataops.dedup import simhash_pairs

    ds, planted = _hot_bucket_docs(ray_session)
    cap = 64
    metrics: dict = {}
    pairs = simhash_pairs(ds, max_hamming=3, bucket_cap=cap, metrics=metrics)
    assert metrics["overflow_buckets"] > 0
    got = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    for p in planted:
        assert p in got
    hot = pairs[pairs["doc_a"] >= 1000]
    assert 0 < len(hot) <= 1000 * cap
    assert (hot["hamming"] == 0).all()


def test_embedding_lsh_hot_bucket_bounded(ray_session):
    """1k zero vectors all collide in every hyperplane table; the cap
    bounds pair-gen and the (distributed) exact-cosine verify rejects
    them (cos=0), while the planted identical pair survives."""
    import ray.data as rd

    from raystat.dataops.similarity import embedding_lsh_pairs

    rng = np.random.default_rng(29)
    n, dim, n_hot = 100, 16, 1000
    X = rng.standard_normal((n, dim))
    X[50] = X[0]  # exact dup
    Z = np.zeros((n_hot, dim))
    ids = np.concatenate([np.arange(n), 10_000 + np.arange(n_hot)])
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids.astype(np.int64)),
                "embedding": pa.array(
                    list(np.vstack([X, Z])), type=pa.list_(pa.float64())
                ),
            }
        )
    ).repartition(8)
    metrics: dict = {}
    out = embedding_lsh_pairs(ds, threshold=0.95, bucket_cap=64, metrics=metrics)
    assert metrics["overflow_buckets"] > 0
    got = {(int(a), int(b)) for a, b in zip(out["vec_a"], out["vec_b"])}
    assert (0, 50) in got
    assert not any(a >= 10_000 for a, _ in got)  # zero-vector pairs rejected


def test_ann_ivf_index_and_search(ray_session, tmp_path):
    """IVF index partitions by centroid; full probe equals brute force
    exactly; pruned probe reads fewer partitions with high recall."""
    import os

    from raystat.dataops.similarity import (
        ann_topk,
        ann_topk_ivf,
        ivf_index,
        train_centroids,
    )

    ds, X = _emb_ds(ray_session, n=200, dim=16)
    C = train_centroids(ds, n_centroids=8, sample_size=200)
    idx = str(tmp_path / "ivf")
    ivf_index(ds, idx, C)
    parts = [d for d in os.listdir(idx) if d.startswith("centroid_part=")]
    assert len(parts) >= 2  # really partitioned

    Q, qids = X[:4], np.arange(4)
    exact = ann_topk(ds, Q, qids, k=10)
    full = ann_topk_ivf(idx, C, Q, qids, k=10, nprobe=None)
    pd.testing.assert_frame_equal(
        exact.reset_index(drop=True)[["query_id", "neighbor_id"]],
        full.reset_index(drop=True)[["query_id", "neighbor_id"]],
    )
    pruned = ann_topk_ivf(idx, C, Q, qids, k=10, nprobe=3)
    hits = 0
    for q in qids:
        e = set(exact[exact["query_id"] == q]["neighbor_id"])
        p = set(pruned[pruned["query_id"] == q]["neighbor_id"])
        hits += len(e & p) / max(len(e), 1)
    assert hits / len(qids) >= 0.5  # random gaussian data: modest recall floor


def test_audio_wav_decode_features():
    """Real WAV decode (stdlib wave): planted tone's spectral centroid
    lands near the tone frequency; RMS near 0.6/sqrt(2)."""
    import pyarrow as pa

    from raystat.dataops.multimodal import AudioFeatureStage, synth_audio_wav

    seed = 4  # tone at 200 + 4*50 = 400 Hz
    t = pa.table(
        {
            "doc_id": pa.array([seed], pa.int64()),
            "payload": pa.array([synth_audio_wav(seed)], pa.binary()),
        }
    )
    out = AudioFeatureStage()(t)
    assert out["decoded"].to_pylist() == [True]
    assert out["sample_rate"].to_pylist() == [8000]
    f = np.asarray(out["features"][0].as_py())
    assert f[0] == pytest.approx(0.25)  # duration
    assert f[1] == pytest.approx(0.6 / np.sqrt(2), rel=0.05)  # rms
    assert f[3] == pytest.approx(400.0, rel=0.05)  # power centroid at the tone
    assert f[4] == pytest.approx(400.0, rel=0.05)  # rolloff at the tone too
    assert f[5] <= 1.0


def test_whitespace_token_model_sql_parity():
    """The engine's token model (explicit ASCII whitespace class,
    text.WS_CLASS) must agree with every DuckDB twin on the nasty
    cases: leading/trailing whitespace, whitespace-only text, \\x0b
    (in Python's ASCII \\s but NOT RE2's), and unicode whitespace
    (\\xa0 — a token character on BOTH sides).  No Ray needed: batch
    fns run in-process, SQL runs in DuckDB."""
    import duckdb

    from raystat.dataops.dedup import simhash_batch
    from raystat.dataops.text import (
        bpe_token_count_batch,
        fingerprint_batch,
        quality_score_batch,
        token_count_batch,
    )
    from raystat.pipelines.queries import QUERIES

    edge = ["", "  ", "\n", "hello world\n", " lead", "trail ", "a\xa0b",
            "a\x0b b", "don't\tstop\r\n", "the a of\x0bto", "\xa0",
            "a\x0c\r\tb c d e f"]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(edge), dtype=np.int64)),
            "text": pa.array(edge, pa.string()),
            "source": pa.array(["s"] * len(edge), pa.string()),
        }
    )
    con = duckdb.connect()
    con.register("edge_docs", t.to_pandas())
    con.sql("CREATE VIEW documents AS SELECT * FROM edge_docs")
    sql = {q.name: q.sql for q in QUERIES}

    def oracle(name, col):
        return con.sql(sql[name]).df().sort_values("doc_id")[col].tolist()

    assert token_count_batch(t)["n_tok"].to_pylist() == oracle(
        "token_count_documents", "n_tok"
    )
    assert bpe_token_count_batch(t)["n_bpe"].to_pylist() == oracle(
        "bpe_token_count_documents", "n_bpe"
    )
    assert fingerprint_batch(t)["fingerprint"].to_pylist() == oracle(
        "fingerprint_documents", "fingerprint"
    )
    q = quality_score_batch(t).to_pandas().sort_values("doc_id")
    o = con.sql(sql["quality_score_documents"]).df().sort_values("doc_id")
    for c in ["n_chars", "n_tok", "punct_ratio", "stop_ratio", "score"]:
        assert (q[c].to_numpy() == o[c].to_numpy()).all(), c
    # simhash pair set == brute-force Hamming ball, recomputed by SQL
    s = simhash_batch(t)["simhash"].to_numpy().astype(np.uint64)
    bits = np.unpackbits(s.view(np.uint8).reshape(len(s), 8), axis=1)
    ham = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
    exp = sorted(
        (i, j, int(ham[i, j]))
        for i in range(len(s))
        for j in range(i + 1, len(s))
        if ham[i, j] <= 3
    )
    got = sorted(
        map(tuple, con.sql(sql["simhash_dedup_pairs"]).df()[
            ["doc_a", "doc_b", "hamming"]
        ].values.tolist())
    )
    assert exp == got and len(exp) > 0


def _tok_table(rows):
    """rows: list of (doc_id_str, tokens list, source)."""
    off = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([len(r[1]) for r in rows], out=off[1:])
    flat = np.array([t for r in rows for t in r[1]], dtype=np.int32)
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "tokens": pa.ListArray.from_arrays(pa.array(off), pa.array(flat)),
            "n_tok": pa.array([len(r[1]) for r in rows], pa.int32()),
            "source": pa.array([r[2] for r in rows], pa.string()),
        }
    )


def _brute_chunks(rows, L):
    out = []
    for d, toks, _ in rows:
        toks = np.asarray(toks, dtype=np.int64)
        for c in range(-(-len(toks) // L)):
            seg = toks[c * L : (c + 1) * L]
            out.append(
                (d, c, len(seg), int(seg.sum()),
                 int((seg * np.arange(1, len(seg) + 1)).sum()))
            )
    return sorted(out)


def _brute_pack(rows, L):
    out = []
    by_src: dict[str, list] = {}
    for d, toks, s in sorted(rows):
        by_src.setdefault(s, []).extend(toks)
    for s, stream in by_src.items():
        stream = np.asarray(stream, dtype=np.int64)
        for b in range(-(-len(stream) // L)):
            seg = stream[b * L : (b + 1) * L]
            out.append(
                (s, b, len(seg), int(seg.sum()),
                 int((seg * np.arange(1, len(seg) + 1)).sum()))
            )
    return sorted(out)


def test_chunk_and_pack_edge_cases(ray_session):
    """Empty token lists (leading/trailing/mid-batch), short docs,
    blocks spanning documents AND buckets, multi-source interleave."""
    import ray.data as rd

    from raystat.dataops.packing import chunk_doc_stats, pack_block_stats

    rng = np.random.default_rng(11)
    rows = []
    for i in range(60):
        n = int(rng.integers(0, 4)) * int(rng.integers(0, 9))  # many zeros
        toks = rng.integers(0, 50257, size=n).tolist()
        rows.append((f"doc-{i:012d}", toks, f"s{i % 3}"))
    rows[0] = ("doc-" + "0" * 12, [], "s0")   # leading empty
    rows[-1] = (f"doc-{59:012d}", [], "s2")   # trailing empty
    L = 5
    ds = rd.from_arrow(_tok_table(rows))

    got_c = sorted(
        map(tuple, to_pandas(chunk_doc_stats(ds, block_len=L)).values.tolist())
    )
    assert got_c == _brute_chunks(rows, L)

    # bucket size 4 forces blocks to span bucket boundaries; n_parts 3
    # forces buckets of one source into different partitions
    got_p = sorted(
        map(
            tuple,
            to_pandas(
                pack_block_stats(ds, block_len=L, bucket_docs=4, n_parts=3)
            ).values.tolist(),
        )
    )
    assert got_p == _brute_pack(rows, L)


def test_grouped_exact_quantiles_vs_bruteforce(ray_session):
    """Histogram-partial quantiles equal the sorted-multiset rule
    (smallest value with cumcount >= ceil(q*n)) on duplicate-heavy and
    single-row groups."""
    import ray.data as rd

    from raystat.dataops.quantiles import grouped_exact_quantiles

    rng = np.random.default_rng(7)
    keys = np.repeat([f"g{i}" for i in range(6)], [1, 2, 5, 40, 400, 999])
    vals = np.concatenate(
        [rng.integers(0, 9, size=n) for n in (1, 2, 5, 40, 400)]
        + [np.full(999, 3)]  # a constant group
    ).astype(np.int64)
    ds = rd.from_arrow(
        pa.table({"source": pa.array(keys.tolist()), "n_tok": pa.array(vals)})
    ).repartition(4)
    got = (
        to_pandas(grouped_exact_quantiles(ds))
        .sort_values("source", ignore_index=True)
    )
    qs = (0.25, 0.5, 0.75, 0.9, 0.99)
    for _, row in got.iterrows():
        v = np.sort(vals[keys == row["source"]])
        n = len(v)
        for q, col in zip(qs, ("p25", "p50", "p75", "p90", "p99")):
            exp = v[int(np.ceil(q * n)) - 1]
            assert row[col] == exp, (row["source"], col)


def test_redact_pii_batch():
    from raystat.dataops.text import redact_pii_batch

    b = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "mail a.b+c@x.io and d@e.org, call 555-1234",
                    "no pii at all",
                    None,
                ]
            ),
        }
    )
    out = redact_pii_batch(b)
    assert out["text"].to_pylist() == [
        "mail <EMAIL> and <EMAIL>, call <PHONE>",
        "no pii at all",
        "",
    ]
    assert out["n_emails"].to_pylist() == [2, 0, 0]
    assert out["n_phones"].to_pylist() == [1, 0, 0]


def test_hll_accuracy_and_merge():
    from raystat.dataops.sketches import (
        hll_add,
        hll_estimate,
        hll_init,
        hll_merge,
    )

    # accuracy across magnitudes (deterministic hash -> fixed results)
    for n in (100, 1_000, 10_000, 200_000):
        regs = hll_add(hll_init(), np.arange(n, dtype=np.int64))
        est = hll_estimate(regs)
        assert abs(est - n) / n < 0.05, (n, est)
    # duplicates don't move the estimate (idempotent aggregate)
    a = hll_add(hll_init(), np.arange(5_000, dtype=np.int64))
    b = hll_add(hll_init(), np.tile(np.arange(5_000, dtype=np.int64), 3))
    assert hll_estimate(a) == hll_estimate(b)
    # merge of disjoint halves == one-shot over the union
    h1 = hll_add(hll_init(), np.arange(0, 4_000, dtype=np.int64))
    h2 = hll_add(hll_init(), np.arange(4_000, 8_000, dtype=np.int64))
    both = hll_add(hll_init(), np.arange(8_000, dtype=np.int64))
    assert np.array_equal(hll_merge(h1, h2), both)
    # merge is commutative + idempotent (replay-safe)
    assert np.array_equal(hll_merge(h1, h2), hll_merge(h2, h1))
    assert np.array_equal(hll_merge(h1, h1), h1)


def test_grouped_distinct_exact_and_hll(ray_session):
    import ray.data as rd

    from raystat.dataops.sketches import grouped_exact_distinct, grouped_hll_distinct

    rng = np.random.default_rng(5)
    n = 30_000
    keys = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    # per-key distinct targets of very different sizes
    vals = np.where(
        keys == "a",
        rng.integers(0, 50, n),
        np.where(keys == "b", rng.integers(0, 2_000, n), rng.integers(0, 20_000, n)),
    ).astype(np.int64)
    ds = rd.from_arrow(
        pa.table({"k": pa.array(keys.tolist()), "v": pa.array(vals)})
    ).repartition(8)
    exact = (
        to_pandas(grouped_exact_distinct(ds, key="k", value="v"))
        .set_index("k")["n_distinct"]
        .to_dict()
    )
    truth = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"].nunique().to_dict()
    assert exact == truth
    approx = (
        to_pandas(grouped_hll_distinct(ds, key="k", value="v"))
        .set_index("k")["approx_distinct"]
        .to_dict()
    )
    for k, t in truth.items():
        assert abs(approx[k] - t) / t < 0.05, (k, t, approx[k])


def test_grouped_trimmed_mean_vs_bruteforce(ray_session):
    import ray.data as rd

    from raystat.dataops.quantiles import grouped_trimmed_mean

    rng = np.random.default_rng(11)
    keys = np.repeat(["a", "b", "c"], [500, 37, 3])
    vals = np.concatenate(
        [rng.integers(0, 200, 500), rng.integers(0, 50, 37), [5, 5, 5]]
    ).astype(np.int64)
    ds = rd.from_arrow(
        pa.table({"source": pa.array(keys.tolist()), "n_tok": pa.array(vals)})
    ).repartition(4)
    got = to_pandas(grouped_trimmed_mean(ds, trim=0.1)).set_index("source")
    for k in ("a", "b", "c"):
        v = np.sort(vals[keys == k])
        cut = int(np.floor(0.1 * len(v)))
        kept = v[cut : len(v) - cut]
        assert got.loc[k, "n_kept"] == len(kept)
        assert got.loc[k, "trimmed_mean"] == pytest.approx(kept.mean(), rel=1e-12)


def test_kll_rank_error_and_merge():
    from raystat.dataops.kll import KLL

    rng = np.random.default_rng(0)
    for data in (
        rng.uniform(0, 1, 100_000),
        rng.normal(0, 1, 100_000),
        rng.lognormal(0, 2, 100_000),
    ):
        sd = np.sort(data)
        # chunked adds
        s = KLL(200)
        for chunk in np.array_split(data, 37):
            s.add(chunk)
        # merge of independent partials (arbitrary partitioning)
        parts = [KLL(200).add(p) for p in np.array_split(data, 10)]
        m = parts[0]
        for x in parts[1:]:
            m.merge(x)
        for sk in (s, m):
            assert sk.n == len(data)
            for q in (0.01, 0.25, 0.5, 0.9, 0.99):
                est = sk.quantile(q)
                rank = np.searchsorted(sd, est, side="right") / len(sd)
                assert abs(rank - q) < 0.03, (q, rank)
        # bounded state: O(k log(n/k)) floats, far below n
        assert sum(a.size for a in m.levels) < 1_000
    # wire round-trip preserves the estimate exactly
    b = m.to_bytes()
    r = KLL.from_bytes(b)
    assert r.n == m.n and r.quantile(0.5) == m.quantile(0.5)
    # small-n sketches are EXACT (no compaction): quantile_disc rule
    v = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    s = KLL(200).add(v)
    assert s.quantile(0.5) == 3.0 and s.quantile(1.0) == 5.0
    # nan-safe, empty-safe
    assert np.isnan(KLL().quantile(0.5))
    assert KLL().add([np.nan]).n == 0


def test_grouped_kll_quantiles(ray_session):
    import ray.data as rd

    from raystat.dataops.kll import grouped_kll_quantiles

    rng = np.random.default_rng(3)
    n = 40_000
    keys = np.array(["a", "b"])[rng.integers(0, 2, n)]
    vals = np.where(keys == "a", rng.normal(10, 2, n), rng.uniform(0, 1, n))
    ds = rd.from_arrow(
        pa.table({"k": pa.array(keys.tolist()), "v": pa.array(vals)})
    ).repartition(8)
    got = to_pandas(grouped_kll_quantiles(ds, key="k", value="v")).set_index("k")
    for k in ("a", "b"):
        sd = np.sort(vals[keys == k])
        for q, col in ((0.5, "p50"), (0.9, "p90")):
            rank = np.searchsorted(sd, got.loc[k, col], side="right") / len(sd)
            assert abs(rank - q) < 0.03, (k, col, rank)


def test_grouped_mode_and_mad(ray_session):
    import ray.data as rd

    from raystat.dataops.quantiles import grouped_mad, grouped_mode

    rng = np.random.default_rng(2)
    keys = np.repeat(["a", "b"], [800, 200])
    vals = np.concatenate(
        [rng.integers(0, 30, 800), rng.integers(50, 60, 200)]
    ).astype(np.int64)
    # force a tie in group b: values 50 and 51 both at max count
    vals[800:] = np.concatenate([np.full(100, 50), np.full(100, 51)])

    def ds():
        return rd.from_arrow(
            pa.table({"k": pa.array(keys.tolist()), "v": pa.array(vals)})
        ).repartition(4)

    mode = to_pandas(grouped_mode(ds(), key="k", value="v")).set_index("k")
    va = vals[:800]
    cnt = np.bincount(va)
    assert mode.loc["a", "mode_value"] == cnt.argmax()
    assert mode.loc["a", "mode_count"] == cnt.max()
    assert mode.loc["b", "mode_value"] == 50  # tie -> smallest value
    assert mode.loc["b", "mode_count"] == 100

    got = grouped_mad(ds(), ds(), key="k", value="v").set_index("k")
    for k, v in (("a", va), ("b", vals[800:])):
        sv = np.sort(v)
        med = sv[int(np.ceil(0.5 * len(sv))) - 1]
        ad = np.sort(np.abs(v - med))
        mad = ad[int(np.ceil(0.5 * len(ad))) - 1]
        assert got.loc[k, "med"] == med and got.loc[k, "mad"] == mad


def test_grouped_entropy(ray_session):
    import ray.data as rd

    from raystat.dataops.sketches import grouped_entropy

    rng = np.random.default_rng(9)
    keys = np.repeat(["u", "s"], [1000, 1000])
    # u: uniform over 16 symbols (entropy ln 16); s: single symbol (0)
    vals = np.concatenate(
        [np.tile(np.arange(16), 1000 // 16 + 1)[:1000], np.zeros(1000, np.int64)]
    ).astype(np.int64)
    ds = rd.from_arrow(
        pa.table({"k": pa.array(keys.tolist()), "v": pa.array(vals)})
    ).repartition(4)
    got = to_pandas(grouped_entropy(ds, key="k", value="v")).set_index("k")
    # u is near-uniform (1000 not divisible by 16 -> tiny deficit)
    assert abs(got.loc["u", "entropy"] - np.log(16)) < 0.01
    assert got.loc["u", "n_distinct"] == 16
    assert got.loc["s", "entropy"] == 0.0 and got.loc["s", "n_distinct"] == 1


def test_mg_heavy_hitters_lossy_bound(ray_session):
    """Misra-Gries in the LOSSY regime (distinct >> k): every true
    heavy hitter (count > 2n/k) survives the distributed merge and is
    under-counted by at most ~n/k."""
    import ray.data as rd

    from raystat.dataops.sketches import grouped_mg_topk

    rng = np.random.default_rng(0)
    vals = rng.zipf(1.5, 150_000)
    vals = vals[vals < 1_000_000].astype(np.int64)
    n = len(vals)
    k = 200
    ds = rd.from_arrow(
        pa.table({"k": pa.array(["g"] * n), "v": pa.array(vals)})
    ).repartition(16)
    got = to_pandas(grouped_mg_topk(ds, key="k", value="v", k=k, top=10))
    true = pd.Series(vals).value_counts()
    est = dict(zip(got["v"], got["n"]))
    for item in true.index[:10]:
        assert true[item] > 2 * n / k  # the fixture really is heavy-tailed
        assert item in est, item  # heavy hitters survive
        # MG only under-counts, by at most the total decrement (~n/k,
        # amplified by per-partition merging; 3n/k is a safe envelope)
        assert 0 <= true[item] - est[item] <= 3 * n / k, (item, true[item], est[item])
    # rank-1 item is the true most frequent
    assert got.sort_values("rank").iloc[0]["v"] == true.index[0]


def test_quantize_embeddings_roundtrip(ray_session):
    import ray.data as rd

    from raystat.dataops.similarity import quantize_embeddings

    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, (200, 16))
    X[0] = 0.0  # all-zero vector edge case
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(200, dtype=np.int64)),
            "embedding": pa.array(list(X)),
        }
    )
    out = (
        quantize_embeddings(rd.from_arrow(tbl).repartition(4))
        .to_pandas()
        .sort_values("vec_id", ignore_index=True)
    )
    for i in range(200):
        q = np.asarray(out["qvec"][i], dtype=np.int64)
        s = out["scale"][i]
        assert q.min() >= -127 and q.max() <= 127
        if i == 0:
            assert s == 0.0 and (q == 0).all()
            continue
        # dequantization error bounded by half a quantization step
        assert np.abs(q * s - X[i]).max() <= s / 2 + 1e-12
        # the max-|v| element hits full scale
        assert np.abs(q).max() == 127


def test_funnel_frame_and_distributed(ray_session):
    import ray.data as rd

    from raystat.dataops.cep import funnel_counts, funnel_frame

    # hand-built pattern cases (sec-resolution ts as us epoch)
    def mk(rows):
        df = pd.DataFrame(rows, columns=["u", "ts", "t"])
        df["ts"] = pd.to_datetime(df["ts"], unit="s")
        return df

    df = mk(
        [
            # u1: full funnel in order
            (1, 10, "a"), (1, 20, "b"), (1, 30, "c"),
            # u2: b before a -> only reaches stage a (a@15, no b after 15)
            (2, 12, "b"), (2, 15, "a"),
            # u3: a then c (skips b) -> reaches a only... c requires b
            (3, 10, "a"), (3, 40, "c"),
            # u4: a,b,a,b,c with earliest-chain semantics
            (4, 1, "a"), (4, 2, "b"), (4, 3, "a"), (4, 4, "b"), (4, 5, "c"),
            # u5: simultaneous a and b (strict > drops the tie)
            (5, 7, "a"), (5, 7, "b"),
        ]
    )
    out = funnel_frame(pa.Table.from_pandas(df), key="u", ts="ts", type_col="t",
                       stages=["a", "b", "c"])
    out = out.to_pandas().set_index("u")
    NO = np.iinfo(np.int64).max
    assert out.loc[1, "t_2"] != NO
    assert out.loc[2, "t_0"] != NO and out.loc[2, "t_1"] == NO
    assert out.loc[3, "t_1"] == NO and out.loc[3, "t_2"] == NO
    assert out.loc[4, "t_2"] != NO and out.loc[4, "t_1"] == 2_000_000
    assert out.loc[5, "t_1"] == NO  # strict order: same-timestamp b not counted

    # distributed equals brute force on random data
    rng = np.random.default_rng(8)
    n = 20_000
    big = pd.DataFrame(
        {
            "u": rng.integers(0, 500, n),
            "ts": pd.to_datetime(rng.integers(0, 10**6, n), unit="s"),
            "t": np.array(["a", "b", "c", "x"])[rng.integers(0, 4, n)],
        }
    )
    got = funnel_counts(
        rd.from_pandas(big).repartition(8),
        key="u", ts="ts", type_col="t", stages=["a", "b", "c"], n_parts=8,
    ).set_index("stage")["n_keys"]
    # brute force per user
    counts = {"a": 0, "b": 0, "c": 0}
    for u, g in big.sort_values("ts").groupby("u"):
        prev = pd.Timestamp.min
        for st in ["a", "b", "c"]:
            cand = g[(g["t"] == st) & (g["ts"] > prev)]
            if len(cand) == 0:
                break
            prev = cand["ts"].min()
            counts[st] += 1
    for st in ["a", "b", "c"]:
        assert got[st] == counts[st], st


def test_funnel_within_deadline():
    from raystat.dataops.cep import funnel_frame

    NO = np.iinfo(np.int64).max
    df = pd.DataFrame(
        {
            "u": [1, 1, 1, 2, 2, 2],
            "ts": pd.to_datetime([10, 20, 30, 10, 20, 500], unit="s"),
            "t": ["a", "b", "c", "a", "b", "c"],
        }
    )
    # 100s budget: u1 completes; u2's c at t=500 misses the deadline
    out = funnel_frame(
        pa.Table.from_pandas(df), key="u", ts="ts", type_col="t", stages=["a", "b", "c"],
        within_us=100 * 1_000_000,
    ).to_pandas().set_index("u")
    assert out.loc[1, "t_2"] != NO
    assert out.loc[2, "t_1"] != NO and out.loc[2, "t_2"] == NO


def test_funnel_null_key_is_its_own_key():
    """A null key's events stay with the null key: none of them reaches
    another key's funnel, whatever the keys' order."""
    from raystat.dataops.cep import funnel_frame

    NO = np.iinfo(np.int64).max
    t = pa.table(
        {
            "u": ["x", None, "y"],
            "ts": pa.array([1_000_000, 2_000_000, 3_000_000], pa.timestamp("us")),
            "t": ["a", "a", "b"],
        }
    )
    out = funnel_frame(t, key="u", ts="ts", type_col="t", stages=["a", "b"]).to_pylist()
    assert out == [
        {"u": "x", "t_0": 1_000_000, "t_1": NO},
        {"u": None, "t_0": 2_000_000, "t_1": NO},
        {"u": "y", "t_0": NO, "t_1": NO},
    ]


def test_connected_components_vs_unionfind(ray_session):
    """Label propagation equals a reference union-find on random
    graphs, including long chains (diameter stress) and singleton
    pairs."""
    import ray.data as rd

    from raystat.dataops.graph import connected_components

    rng = np.random.default_rng(21)
    # random sparse graph + one long chain (tests multi-round prop)
    a = rng.integers(0, 300, 250)
    b = rng.integers(0, 300, 250)
    chain = np.arange(1000, 1020)
    edges = pd.DataFrame(
        {
            "a": np.concatenate([a, chain[:-1]]),
            "b": np.concatenate([b, chain[1:]]),
        }
    ).astype(np.int64)

    got = connected_components(rd.from_pandas(edges)).set_index("node")["component"]

    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(edges["a"], edges["b"]):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    # canonical min-id per component
    roots = {}
    for n in parent:
        r = find(n)
        roots.setdefault(r, []).append(n)
    expected = {}
    for r, members in roots.items():
        m = min(members)
        for n in members:
            expected[n] = m
    assert dict(got) == expected


def test_near_dedup_lp_equals_unionfind(ray_session):
    """The distributed label-propagation survivors equal the
    union-find survivors on the planted-duplicate corpus."""
    import ray.data as rd

    from raystat.dataops.dedup import (
        minhash_lsh_pairs,
        near_dedup,
        near_dedup_lp,
    )

    tbl = _docs_table()
    pairs = minhash_lsh_pairs(rd.from_arrow(tbl), threshold=0.8)
    a = (
        near_dedup(rd.from_arrow(tbl), pairs)
        .to_pandas()["doc_id"]
        .sort_values(ignore_index=True)
    )
    b = (
        near_dedup_lp(rd.from_arrow(tbl), pairs)
        .to_pandas()["doc_id"]
        .sort_values(ignore_index=True)
    )
    pd.testing.assert_series_equal(a, b)
    assert len(a) < tbl.num_rows  # the planted dups really dropped


def test_dedup_overflow_metrics_zero_at_sf001(ray_session):
    """The capped pair generators must not overflow any bucket on the
    driver testdata at sf0.01 — nonzero overflow there would mean the
    caps are silently trading recall at TEST scale, not just guarding
    the degenerate 100-TB hot-bucket case."""
    from raystat.pipelines.queries import _q_dedup_overflow

    row = _q_dedup_overflow("/root/testdata/sf0.01").iloc[0]
    assert (row == 0).all(), dict(row)


def test_sample_k_per_group_exact_k_and_partition_invariant(ray_session):
    """Bottom-k-by-hash sampling returns exactly k rows per group
    (whole group when smaller than k) and the SAME rows regardless of
    block layout — the determinism an RNG reservoir cannot give."""
    import ray.data as rd

    from raystat.dataops.pairs import splitmix64
    from raystat.dataops.sampling import sample_k_per_group

    n = 200
    ids = np.arange(n, dtype=np.int64)
    keys = np.array([f"g{i % 3}" for i in ids], dtype=object)
    keys[ids >= 198] = "tiny"  # 2-row group < k
    t = pa.table({"doc_id": pa.array(ids), "source": pa.array(keys)})

    def run(nblocks):
        out = to_pandas(
            sample_k_per_group(
                rd.from_arrow(t).repartition(nblocks), k=5
            )
        ).sort_values(["source", "doc_id"], ignore_index=True)
        return out

    a, b = run(1), run(16)
    pd.testing.assert_frame_equal(a, b)
    sizes = a.groupby("source").size()
    assert sizes["tiny"] == 2
    assert all(sizes[g] == 5 for g in ("g0", "g1", "g2"))
    # winners really are the k smallest hashes per group
    hv = splitmix64(ids.astype(np.uint64))
    for g in ("g0", "g1", "g2"):
        grp = ids[keys == g]
        want = sorted(grp[np.argsort(hv[keys == g], kind="stable")][:5])
        got = sorted(a.loc[a["source"] == g, "doc_id"])
        assert got == want


def test_range_partition_write_resumable(ray_session):
    """Sealed buckets survive a re-run untouched; an unsealed (crashed)
    bucket is re-installed; a fully-sealed re-run is a no-op; counts
    come from manifests and sum to the input."""
    import glob
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq
    import ray.data as rd

    from raystat.dataops.partition import (
        bucket_counts,
        kll_boundaries,
        range_partition_write,
    )

    n = 400
    t = pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "n_chars": pa.array(((np.arange(n) * 37) % 1000).astype(np.int64))}
    )
    ds = rd.from_arrow(t).repartition(4)
    bounds = kll_boundaries(ds, "n_chars", n_buckets=4, k=65536)
    root = tempfile.mkdtemp(prefix="rs_rpart_")
    out = os.path.join(root, "p")
    try:
        c1 = range_partition_write(ds, "n_chars", bounds, out)
        assert sum(c1.values()) == n and len(c1) == 4
        assert dict(bucket_counts(out)) == c1
        # bucket value ranges really are disjoint and ordered
        for b in range(4):
            files = glob.glob(os.path.join(out, f"bucket={b}", "*.parquet"))
            vals = np.concatenate(
                [pq.read_table(f)["n_chars"].to_numpy() for f in files]
            )
            lo = -np.inf if b == 0 else bounds[b - 1]
            hi = np.inf if b == 3 else bounds[b]
            assert ((vals >= lo) & (vals < hi)).all()

        mt = {
            f: os.path.getmtime(os.path.join(out, f))
            for f in os.listdir(out) if f.startswith("bucket=")
        }
        # fully-sealed re-run: no-op, nothing rewritten
        c2 = range_partition_write(ds, "n_chars", bounds, out)
        assert c2 == c1
        for f, m in mt.items():
            assert os.path.getmtime(os.path.join(out, f)) == m

        # simulate a crash that lost bucket 2 (data AND seal)
        shutil.rmtree(os.path.join(out, "bucket=2"))
        os.remove(os.path.join(out, "_manifests", "bucket-00002.json"))
        c3 = range_partition_write(ds, "n_chars", bounds, out)
        assert c3 == c1
        assert dict(bucket_counts(out)) == c1
        # sealed buckets were NOT rewritten
        for f, m in mt.items():
            if f != "bucket=2":
                assert os.path.getmtime(os.path.join(out, f)) == m
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_window_hashes_vectorized_equals_scalar():
    """The 64-bit split-multiply mod-2^61-1 Horner must be
    BIT-IDENTICAL to the scalar Python fold on every shape: long docs,
    <4-word docs, empty, repeated words, 50+ windows."""
    from raystat.dataops.text import (
        WS_RE,
        _rolling_hash_tokens,
        distinct_window_hashes_4,
        fingerprint_batch,
        window_hashes_4,
        window_hashes_4_flat,
    )

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "a b c", "", "one two three four",
        "x " * 50 + "y z w v", "solo",
        " ".join(f"w{i % 7}" for i in range(40)),
    ]
    col = pa.array(texts, pa.string())
    flat, off = window_hashes_4_flat(col)
    d, doff = distinct_window_hashes_4(col)
    fb = fingerprint_batch(
        pa.table({"doc_id": pa.array(range(len(texts))), "text": col})
    )
    for i, t in enumerate(texts):
        ws = WS_RE.findall(t)
        assert flat[off[i]:off[i + 1]].tolist() == window_hashes_4(ws)
        assert d[doff[i]:doff[i + 1]].tolist() == sorted(set(window_hashes_4(ws)))
        assert int(fb["fingerprint"][i].as_py()) == _rolling_hash_tokens(ws)


def test_md5_64_col_bit_identical():
    """The dictionary-encode unique-text pre-pass must be bit-identical
    to the per-row md5 fold on every shape: dups, empties, nulls,
    chunked + large_string layouts, all-null columns."""
    from raystat.dataops.dedup import _md5_64, _md5_64_col

    texts = ["a", "b", "a", "", None, "hello world", "b", None, "a" * 500]
    chunked = pa.chunked_array(
        [pa.array(texts[:4], pa.string()), pa.array(texts[4:], pa.string())]
    )
    assert (_md5_64_col(chunked) == _md5_64(texts)).all()
    assert (
        _md5_64_col(pa.array(texts, pa.large_string())) == _md5_64(texts)
    ).all()
    allnull = pa.array([None, None, None], pa.string())
    assert (_md5_64_col(allnull) == _md5_64([None] * 3)).all()
    empty = pa.array([], pa.string())
    assert _md5_64_col(empty).size == 0


def test_range_partition_empty_bucket_sealed(ray_session):
    """Empty buckets get rows=0 seal manifests so a COMPLETED run with
    an empty bucket resumes as a true no-op; zero-row entries never
    appear in the returned counts or bucket_counts."""
    import glob
    import os
    import shutil
    import tempfile

    import ray.data as rd

    from raystat.dataops.partition import bucket_counts, range_partition_write

    n = 100
    t = pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "n_chars": pa.array(np.arange(n, dtype=np.int64))}
    )
    ds = rd.from_arrow(t).repartition(2)
    # values are 0..99: buckets [>=50, >=1000, >=2000] -> buckets 2, 3 empty
    bounds = np.array([50.0, 1000.0, 2000.0])
    root = tempfile.mkdtemp(prefix="rs_rpart_empty_")
    out = os.path.join(root, "p")
    try:
        c1 = range_partition_write(ds, "n_chars", bounds, out)
        assert c1 == {0: 50, 1: 50}
        assert dict(bucket_counts(out)) == c1
        # ALL four buckets sealed, incl. the two empty ones
        assert len(glob.glob(os.path.join(out, "_manifests", "*.json"))) == 4
        mt = {
            f: os.path.getmtime(os.path.join(out, f))
            for f in os.listdir(out) if f.startswith("bucket=")
        }
        # fully-sealed fast path despite the empty buckets: a no-op
        c2 = range_partition_write(ds, "n_chars", bounds, out)
        assert c2 == c1
        assert not os.path.exists(out + ".tmp")
        for f, m in mt.items():
            assert os.path.getmtime(os.path.join(out, f)) == m
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_mixture_sample_rates_and_determinism(ray_session):
    """Temperature mixture sampling: the largest stratum keeps ~rho of
    its rows, smaller strata keep proportionally more (sqrt temperature
    flattening), rate-1 strata keep EVERYTHING, and the kept set is the
    exact splitmix64-threshold predicate — identical across block
    layouts."""
    import ray.data as rd

    from raystat.dataops.pairs import splitmix64
    from raystat.dataops.sampling import mixture_sample, mixture_sample_rates

    # three strata with 16:4:1 char mass -> rates 0.5, 1.0(capped), 1.0
    n = 2100
    ids = np.arange(n, dtype=np.int64)
    src = np.where(ids < 1600, "big", np.where(ids < 2000, "mid", "rare"))
    chars = np.where(src == "big", 100, np.where(src == "mid", 100, 100))
    t = pa.table(
        {
            "doc_id": pa.array(ids),
            "source": pa.array(src.astype(object)),
            "n_chars": pa.array(chars.astype(np.int64)),
        }
    )
    masses = {"big": 160000, "mid": 40000, "rare": 10000}
    rates = mixture_sample_rates(masses)
    assert rates["big"][0] == 0.5
    assert rates["mid"][0] == 1.0  # 0.5*sqrt(4) = 1.0 exactly
    assert rates["rare"][0] == 1.0  # capped at 1

    def run(nblocks):
        return to_pandas(
            mixture_sample(rd.from_arrow(t).repartition(nblocks))
        ).sort_values("doc_id", ignore_index=True)

    a, b = run(1), run(8)
    pd.testing.assert_frame_equal(a, b)
    # rate-1 strata keep everything
    assert (a["source"] == "mid").sum() == 400
    assert (a["source"] == "rare").sum() == 100
    # the big stratum keeps exactly the sub-threshold hashes
    big_ids = ids[src == "big"]
    thr = np.uint64(rates["big"][1])
    want = set(big_ids[splitmix64(big_ids.astype(np.uint64)) < thr].tolist())
    got = set(a.loc[a["source"] == "big", "doc_id"].tolist())
    assert got == want
    # ~rho of the big stratum survives (hash uniformity)
    assert 0.4 < len(want) / len(big_ids) < 0.6


def test_cms_never_undercounts_and_merges_linearly(ray_session):
    """Count-Min invariants: estimates are >= true counts always
    (counters only add), merge order is irrelevant (sums are linear),
    absent items estimate 0 when width dwarfs the load, and
    grouped_cms over blocks equals a single-shot local sketch."""
    import ray.data as rd

    from raystat.dataops.sketches import (
        CMS_WIDTH,
        cms_add,
        cms_estimate,
        cms_init,
        cms_merge,
        grouped_cms,
    )

    rng = np.random.default_rng(7)
    vals = rng.integers(0, 500, size=5000).astype(np.int64)
    halves = np.array_split(vals, 3)
    parts = [cms_add(cms_init(), h) for h in halves]
    m1 = cms_merge(cms_merge(parts[0], parts[1]), parts[2])
    m2 = cms_merge(parts[2], cms_merge(parts[1], parts[0]))
    assert (m1 == m2).all()

    probe = np.arange(600, dtype=np.int64)
    true_n = np.bincount(vals, minlength=600)[:600]
    est = cms_estimate(m1, probe)
    assert (est >= true_n).all()
    # 500 distinct into 8192 columns: collisions are rare; total
    # overestimate stays far under the (e/W)*N bound per probe
    assert (est - true_n).max() <= max(1, int(2 * np.e * len(vals) / CMS_WIDTH))
    assert cms_estimate(m1, np.array([10_000], dtype=np.int64))[0] >= 0

    # distributed == local, regardless of block layout
    t = pa.table(
        {
            "k": pa.array(np.where(vals % 2 == 0, "even", "odd").astype(object)),
            "v": pa.array(vals),
        }
    )
    out = to_pandas(
        grouped_cms(rd.from_arrow(t).repartition(8), "k", "v")
    ).set_index("k")
    for key, mask in (("even", vals % 2 == 0), ("odd", vals % 2 == 1)):
        local = cms_add(cms_init(), vals[mask])
        assert np.frombuffer(out.loc[key, "cms"], dtype=np.int64).tolist() == local.tolist()
        assert out.loc[key, "n"] == mask.sum()


def test_weighted_quantiles_exact_vs_bruteforce(ray_session):
    """Weighted quantiles: smallest value whose cumulative weight
    reaches q x total — equals the expanded-multiset quantile for
    integer weights, block-layout invariant, and negative weights are
    rejected."""
    import ray.data as rd

    from raystat.dataops.quantiles import grouped_weighted_quantiles

    rng = np.random.default_rng(11)
    n = 3000
    vals = rng.integers(0, 60, size=n).astype(np.int64)
    w = rng.integers(0, 9, size=n).astype(np.int64)  # includes zeros
    keys = np.where(vals % 2 == 0, "a", "b").astype(object)
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals), "w": pa.array(w)})

    def run(nblocks):
        return to_pandas(
            grouped_weighted_quantiles(
                rd.from_arrow(t).repartition(nblocks), "k", "v", "w"
            )
        ).sort_values("k", ignore_index=True)

    a, b = run(1), run(8)
    pd.testing.assert_frame_equal(a, b)

    for key in ("a", "b"):
        m = keys == key
        expanded = np.sort(np.repeat(vals[m], w[m]))
        row = a[a["k"] == key].iloc[0]
        for q, nm in ((0.25, "wp25"), (0.5, "wp50"), (0.75, "wp75"), (0.9, "wp90")):
            # smallest value with cumweight >= q * total == element at
            # rank ceil(q*N)-1 of the weight-expanded multiset
            want = expanded[min(int(np.ceil(q * len(expanded))) - 1,
                                len(expanded) - 1)]
            assert row[nm] == want, (key, nm, row[nm], want)

    bad = pa.table(
        {"k": pa.array(["a"]), "v": pa.array([1], pa.int64()),
         "w": pa.array([-1], pa.int64())}
    )
    with pytest.raises(Exception):
        to_pandas(grouped_weighted_quantiles(rd.from_arrow(bad), "k", "v", "w"))


def test_hll_set_algebra_inclusion_exclusion():
    """HLL union is the register max-merge (idempotent under repeats)
    and inclusion-exclusion recovers intersection sizes within the
    sketch's error envelope on controlled-overlap sets."""
    from raystat.dataops.sketches import _M, _rho_and_idx, hll_estimate

    def regs_of(values):
        r = np.zeros(_M, dtype=np.uint8)
        idx, rho = _rho_and_idx(np.asarray(values, dtype=np.int64))
        np.maximum.at(r, idx, rho)
        return r

    a = np.arange(0, 6000)
    b = np.arange(4000, 10000)  # |A∩B| = 2000
    ra, rb = regs_of(a), regs_of(b)
    # idempotence: re-adding duplicated occurrences changes nothing
    assert (regs_of(np.concatenate([a, a, a])) == ra).all()
    union = np.maximum(ra, rb)
    assert (union == np.maximum(rb, ra)).all()
    est_inter = hll_estimate(ra) + hll_estimate(rb) - hll_estimate(union)
    assert abs(est_inter - 2000) / 2000 < 0.10
    est_union = hll_estimate(union)
    assert abs(est_union - 10000) / 10000 < 0.05


def test_global_shuffle_rank_is_hash_permutation(ray_session):
    """Global shuffle rank: a permutation of 0..n-1 equal to the
    argsort of splitmix64(id), invariant to block layout, with the
    driver holding only O(n_buckets) offsets."""
    import ray.data as rd

    from raystat.dataops.pairs import splitmix64
    from raystat.dataops.sampling import global_shuffle_rank

    ids = np.arange(0, 4000, dtype=np.int64)
    rng = np.random.default_rng(3)
    rng.shuffle(ids)  # arrival order must not matter
    t = pa.table({"doc_id": pa.array(ids)})

    def run(nblocks):
        return (
            to_pandas(
                global_shuffle_rank(
                    rd.from_arrow(t).repartition(nblocks), n_buckets=64
                )
            )
            .sort_values("doc_id", ignore_index=True)
        )

    a, b = run(2), run(16)
    pd.testing.assert_frame_equal(a, b)
    pos = a["shuffle_pos"].to_numpy()
    assert sorted(pos.tolist()) == list(range(len(ids)))
    hv = splitmix64(a["doc_id"].to_numpy().astype(np.uint64))
    # position order must equal ascending-hash order
    assert (np.argsort(pos) == np.argsort(hv)).all()

    with pytest.raises(ValueError):
        global_shuffle_rank(rd.from_arrow(t), n_buckets=100)


@pytest.mark.parametrize("n_buckets", [0, 1])
def test_global_shuffle_rank_needs_two_buckets(n_buckets):
    """0 and 1 pass the power-of-two bit test but leave no bucket bits
    (shift 64 or 65), so they are rejected up front."""
    from raystat.dataops.sampling import global_shuffle_rank

    with pytest.raises(ValueError, match=">= 2"):
        global_shuffle_rank(None, n_buckets=n_buckets)


def test_mixture_sample_unmapped_stratum_fails(ray_session, monkeypatch):
    """A stratum missing from the rate map must fail, not map to NaN
    and cast to True (keeping every row of that stratum)."""
    import ray.data as rd

    from raystat.dataops import sampling

    rates = sampling.mixture_sample_rates
    monkeypatch.setattr(
        sampling, "mixture_sample_rates",
        lambda masses, **kw: {k: v for k, v in rates(masses, **kw).items() if k != "rare"},
    )
    t = pa.table({
        "doc_id": pa.array(np.arange(300, dtype=np.int64)),
        "source": pa.array(["big"] * 200 + ["rare"] * 100),
        "n_chars": pa.array(np.full(300, 100, dtype=np.int64)),
    })
    with pytest.raises(Exception, match="ValueError: stratum 'rare' has no mixture rate"):
        to_pandas(sampling.mixture_sample(rd.from_arrow(t)))


def test_cms_join_size_never_undercounts():
    """CMS inner-product join-size estimate: >= the true equi-join
    cardinality always, within the (e/W)*Na*Nb bound on controlled
    data, and symmetric in its arguments."""
    from raystat.dataops.sketches import (
        CMS_WIDTH,
        cms_add,
        cms_init,
        cms_join_size,
    )

    rng = np.random.default_rng(5)
    a_vals = rng.integers(0, 300, size=4000).astype(np.int64)
    b_vals = rng.integers(100, 400, size=2500).astype(np.int64)
    sa = cms_add(cms_init(), a_vals)
    sb = cms_add(cms_init(), b_vals)
    ca = np.bincount(a_vals, minlength=400)
    cb = np.bincount(b_vals, minlength=400)
    true_join = int((ca * cb).sum())
    est = cms_join_size(sa, sb)
    assert est >= true_join
    assert est - true_join <= np.e * len(a_vals) * len(b_vals) / CMS_WIDTH
    assert cms_join_size(sb, sa) == est
