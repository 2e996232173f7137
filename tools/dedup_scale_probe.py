"""Dedup / near-dup scale probe: wall time + overflow/cap metrics + recall
telemetry for the four dedup pipelines on a ~300k-doc synthetic corpus —
7.5x past the round-3 40k probe, in the regime where bucket caps are
EXPECTED to fire so the overflow accounting can be shown to work.

Fixture (deterministic, seed 42): 300k docs over a Zipf-ish 20k-word
vocabulary, 40-80 words each, with a controlled duplication profile:
  - 10% exact duplicates of earlier docs (streaming dedup ground truth),
  - 6% planted near-dups at ~3% word replacement (3-shingle Jaccard ~0.84,
    above the 0.8 threshold -> recall denominators),
  - 6% far edits at ~25% replacement (below threshold -> precision foil),
  - a ~600-doc template family sharing a 50-word prefix (one giant LSH
    bucket > bucket_cap -> caps fire and are counted).

Usage:
    python tools/dedup_scale_probe.py [N_DOCS] [OUT_JSON]
Defaults: N_DOCS=300000, OUT_JSON=/tmp/dedup_scale_probe.json.

CLI entry point: owns its Ray session (like tools/check_catalog.py).
"""
import json
import os
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

SEED = 42
VOCAB_N = 20_000
N_EPOCHS = 4


def build_fixture(n_docs: int, root: str) -> dict:
    """Deterministic corpus with a known duplication profile; returns
    the planted ground truth counts."""
    rng = np.random.default_rng(SEED)
    vocab = np.array([f"w{i}" for i in range(VOCAB_N)])
    # Zipf-ish token distribution -> realistic hot shingles
    p = 1.0 / np.arange(1, VOCAB_N + 1, dtype=np.float64)
    p /= p.sum()

    n_exact = n_docs // 10
    n_near = int(n_docs * 0.06)
    n_far = int(n_docs * 0.06)
    n_tmpl = max(600, n_docs // 500)  # >bucket_cap so caps FIRE, but the
    # template family's true-pair count (~C(n_tmpl,2) before caps) stays
    # driver-frame-sized
    n_base = n_docs - n_exact - n_near - n_far - n_tmpl

    lens = rng.integers(40, 81, size=n_base)
    toks = rng.choice(VOCAB_N, size=int(lens.sum()), p=p)
    off = np.concatenate(([0], np.cumsum(lens)))
    base = [" ".join(vocab[toks[off[i]:off[i + 1]]]) for i in range(n_base)]

    docs = list(base)
    # exact duplicates of random earlier base docs
    exact_src = rng.integers(0, n_base, size=n_exact)
    docs += [base[i] for i in exact_src]
    # planted near-dups: ~3% of words replaced -> 3-shingle J ~ 0.84
    near_src = rng.integers(0, n_base, size=n_near)
    for i in near_src:
        w = base[i].split()
        k = max(1, int(0.03 * len(w)))
        pos = rng.choice(len(w), size=k, replace=False)
        for j in pos:
            w[j] = vocab[rng.integers(0, VOCAB_N)]
        docs.append(" ".join(w))
    # far edits: ~25% replaced -> J well below 0.8
    far_src = rng.integers(0, n_base, size=n_far)
    for i in far_src:
        w = base[i].split()
        k = max(1, int(0.25 * len(w)))
        pos = rng.choice(len(w), size=k, replace=False)
        for j in pos:
            w[j] = vocab[rng.integers(0, VOCAB_N)]
        docs.append(" ".join(w))
    # template family: 50 shared words + 5 unique -> one giant LSH bucket
    tmpl = " ".join(vocab[rng.choice(VOCAB_N, size=50, p=p)])
    for i in range(n_tmpl):
        uniq = " ".join(vocab[rng.integers(0, VOCAB_N, size=5)])
        docs.append(tmpl + " " + uniq)

    n = len(docs)
    n_distinct = len(set(docs))
    perm = rng.permutation(n)
    ids = np.arange(n, dtype=np.int64)
    t = pa.table(
        {"doc_id": pa.array(ids),
         "text": pa.array([docs[i] for i in perm], pa.string())}
    )
    shutil.rmtree(root, ignore_errors=True)
    bdir = os.path.join(root, "batch")
    os.makedirs(bdir)
    # 32 files so the read parallelizes
    per = -(-n // 32)
    for f in range(32):
        pq.write_table(t.slice(f * per, per), os.path.join(bdir, f"part-{f:02d}.parquet"))
    sdir = os.path.join(root, "stream")
    per_e = -(-n // N_EPOCHS)
    for e in range(N_EPOCHS):
        d = os.path.join(sdir, f"arrival={e}")
        os.makedirs(d)
        ep = t.slice(e * per_e, per_e)
        perf = -(-ep.num_rows // 8)  # 8 files/epoch: the epoch reader
        # never splits past file count, so 1 file = 1 routing task
        for f in range(8):
            pq.write_table(
                ep.slice(f * perf, perf), os.path.join(d, f"part-{f}.parquet")
            )
    return {
        "n_docs": n, "n_distinct_texts": n_distinct,
        "n_base": n_base, "n_exact_dups": n_exact,
        "n_planted_near": n_near, "n_far_edits": n_far, "n_template": n_tmpl,
        "batch_dir": bdir, "stream_dir": sdir,
    }


def main():
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 300_000
    out_json = sys.argv[2] if len(sys.argv) > 2 else "/tmp/dedup_scale_probe.json"
    root = "/tmp/rs_dedup_scale_probe"

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import ray.data as rd

    from raystat.dataops.dedup import (
        minhash_lsh_pairs,
        near_dedup_lp,
        ngram_jaccard_pairs,
    )
    from raystat.streaming.dedup import DedupStreamDriver

    t0 = time.time()
    fx = build_fixture(n_docs, root)
    res = {"fixture": {**fx, "build_sec": round(time.time() - t0, 1)}}
    print("fixture:", res["fixture"], flush=True)

    def docs():
        return rd.read_parquet(fx["batch_dir"], columns=["doc_id", "text"])

    # exact n-gram Jaccard: deterministic, recall exactly 1 up to caps —
    # the ground truth the LSH recall is measured against
    m_ng: dict = {}
    t0 = time.time()
    ng = ngram_jaccard_pairs(docs(), threshold=0.8, metrics=m_ng)
    res["ngram_jaccard_pairs"] = {
        "sec": round(time.time() - t0, 1), "n_pairs": int(len(ng)), **m_ng,
    }
    print("ngram:", res["ngram_jaccard_pairs"], flush=True)

    m_mh: dict = {}
    t0 = time.time()
    mh = minhash_lsh_pairs(docs(), threshold=0.8, metrics=m_mh)
    res["minhash_dedup_pairs"] = {
        "sec": round(time.time() - t0, 1), "n_pairs": int(len(mh)), **m_mh,
    }
    print("minhash:", res["minhash_dedup_pairs"], flush=True)

    # recall telemetry: minhash pairs vs the exact pair set
    ng_set = set(zip(ng["doc_a"].tolist(), ng["doc_b"].tolist()))
    mh_set = set(zip(mh["doc_a"].tolist(), mh["doc_b"].tolist()))
    inter = len(ng_set & mh_set)
    res["recall_telemetry"] = {
        "exact_pairs": len(ng_set),
        "minhash_pairs": len(mh_set),
        "minhash_recall_vs_exact": round(inter / max(len(ng_set), 1), 4),
        "minhash_extra_pairs": len(mh_set - ng_set),
        "note": ("recall loss must be explainable by the overflow counters "
                 "(capped hot buckets) + LSH banding probability"),
    }
    print("recall:", res["recall_telemetry"], flush=True)

    # end product: distributed label-propagation clustering + anti-join
    t0 = time.time()
    kept = near_dedup_lp(docs(), mh).count()
    res["dedup_near_documents"] = {
        "sec": round(time.time() - t0, 1),
        "survivors": int(kept),
        "removed": int(fx["n_docs"] - kept),
    }
    print("near_dedup_lp:", res["dedup_near_documents"], flush=True)

    # streaming exact dedup over 4 arrival epochs
    out = os.path.join(root, "stream_out")
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.time()
    drv = DedupStreamDriver(fx["stream_dir"], out, text_col="text",
                            id_col="doc_id", n_partitions=16).prepare()
    sm = drv.run()["final"]["state_metrics"]
    surv = drv.result_table().num_rows
    res["streaming_dedup_documents"] = {
        "sec": round(time.time() - t0, 1),
        "survivors": int(surv),
        "expected_survivors": int(fx["n_distinct_texts"]),
        "dup_dropped": int(sum(x.get("dup_dropped", 0) for x in sm)),
        "state_hashes": int(sum(x.get("state_size", 0) for x in sm)),
    }
    print("streaming_dedup:", res["streaming_dedup_documents"], flush=True)

    with open(out_json, "w") as f:
        json.dump(res, f, indent=1)
    print("WROTE", out_json, flush=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
