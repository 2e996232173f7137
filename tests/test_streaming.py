"""End-to-end streaming engine tests: watermark/late-data semantics vs
a NumPy replay oracle, exact passthrough token equality, exactly-once
idempotence, checkpoint/resume equivalence, and the metadata join.
Mirrors the reference's integration layer (AllUdafIT.java:523-738) on
the synthetic token stream (FIXTURES.md §B)."""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raystat.extract import event_time_us_from_numeric, numeric_doc_id
from raystat.fixtures import epoch_len_us, metadata_rows, write_stream_fixture
from raystat.streaming import StreamConfig, StreamDriver
from tests import oracles

N_ROWS, N_EPOCHS = 8000, 4
FIXTURE = "/tmp/raystat_fixtures/stream_pytest"
WINDOW_S = 3600
LATENESS_S = epoch_len_us(N_EPOCHS) // 1_000_000


def make_cfg(**kw):
    base = dict(
        window_size_s=WINDOW_S,
        allowed_lateness_s=LATENESS_S,
        n_partitions=8,
        n_salts=4,
        passthrough=True,
        join_grace_epochs=1,
    )
    base.update(kw)
    return StreamConfig(**base)


@pytest.fixture(scope="module")
def fixture_dir():
    write_stream_fixture(FIXTURE, n_rows=N_ROWS, n_epochs=N_EPOCHS)
    return FIXTURE


def replay_stream(fixture_dir: str, lateness_s: int):
    """Replay the stream semantics in pandas: which rows are accepted,
    what the watermark sequence is, per-window expected stats."""
    frames = []
    for d in sorted(glob.glob(os.path.join(fixture_dir, "arrival=*"))):
        e = int(d.split("arrival=")[1])
        for f in sorted(glob.glob(os.path.join(d, "*.parquet"))):
            t = pq.read_table(f)
            df = pd.DataFrame(
                {
                    "doc_id": t["doc_id"].to_pylist(),
                    "n_tok": t["n_tok"].to_numpy(),
                    "source": t["source"].to_pylist(),
                    "arrival": e,
                }
            )
            frames.append(df)
    df = pd.concat(frames, ignore_index=True)
    ids = numeric_doc_id(pa.array(df["doc_id"]))
    ts_us = event_time_us_from_numeric(ids)
    df["ts_s"] = ts_us // 1_000_000
    df["ws"] = (df["ts_s"] // WINDOW_S) * WINDOW_S
    wm = -(2**62)
    accepted = np.zeros(len(df), dtype=bool)
    wm_by_epoch = {}
    for e in sorted(df["arrival"].unique()):
        m = (df["arrival"] == e).to_numpy()
        accepted[m] = (df.loc[m, "ws"] + WINDOW_S) > wm
        wm = max(wm, int(df.loc[m, "ts_s"].max()) - lateness_s)
        wm_by_epoch[int(e)] = wm
    df["accepted"] = accepted
    return df, wm_by_epoch


@pytest.fixture(scope="module")
def replay(fixture_dir):
    return replay_stream(fixture_dir, LATENESS_S)


@pytest.fixture(scope="module")
def run_out(ray_session, fixture_dir):
    out = "/tmp/rs_pytest_out"
    shutil.rmtree(out, ignore_errors=True)
    cfg = make_cfg()
    drv = StreamDriver(fixture_dir, out, cfg, metadata=metadata_rows(N_EPOCHS))
    metrics = drv.run()
    return drv, metrics, out


def test_aggregates_match_replay_oracle(run_out, replay):
    drv, metrics, _ = run_out
    df, _ = replay
    acc = df[df["accepted"]]
    res = drv.result_table().to_pandas()
    exp = (
        acc.groupby(["source", "ws"])
        .apply(
            lambda g: pd.Series(
                {
                    "wavg": oracles.weighted_average(g["n_tok"], g["n_tok"]),
                    "wstd": oracles.weighted_stddev(g["n_tok"], g["n_tok"]),
                    "skew": oracles.pop_skewness(g["n_tok"]),
                    "kurt": oracles.pop_kurtosis(g["n_tok"]),
                    "n_rows": len(g),
                }
            ),
            include_groups=False,
        )
        .reset_index()
    )
    assert len(res) == len(exp), (len(res), len(exp))
    m = res.merge(
        exp, left_on=["source", "window_start"], right_on=["source", "ws"],
        suffixes=("", "_exp"),
    )
    assert len(m) == len(exp)
    assert (m["n_rows"] == m["n_rows_exp"]).all()
    # wavg/wstd: tight; skew/kurt: the centered oracle legitimately
    # diverges from the (faithful) power-sum path by ~1e-8 on tiny
    # near-degenerate windows — 1e-9 conformance is proven on the
    # JUnit vectors in test_accumulators.
    for c in ["wavg", "wstd"]:
        np.testing.assert_allclose(m[c], m[f"{c}_exp"], rtol=1e-9, atol=1e-9)
    for c in ["skew", "kurt"]:
        np.testing.assert_allclose(m[c], m[f"{c}_exp"], rtol=1e-6, atol=1e-6)


def test_watermark_and_late_drop_counts(run_out, replay, fixture_dir, tmp_path):
    """Late drops per arrival epoch and the watermark after each epoch
    equal the replay's, at the fixture's lateness and at a quarter of
    it.  At a quarter, rows one epoch late are dropped against the
    watermark the epoch before them left, so a router built from an
    older watermark drops too few."""
    _, metrics, _ = run_out
    lateness_s = LATENESS_S // 4
    small = StreamDriver(
        fixture_dir, str(tmp_path / "small"),
        make_cfg(passthrough=False, allowed_lateness_s=lateness_s),
    )
    runs = [(metrics, replay), (small.run(), replay_stream(fixture_dir, lateness_s))]
    small.cleanup()
    for m, (df, wm_by_epoch) in runs:
        expected = (~df["accepted"]).groupby(df["arrival"]).sum()
        assert (expected > 0).sum() >= 3
        assert sorted(m["epochs"]) == [str(e) for e in expected.index]
        for e, em in m["epochs"].items():
            assert em["late_dropped"] == int(expected[int(e)]), e
            assert em["watermark_us"] // 1_000_000 == wm_by_epoch[int(e)], e


def test_passthrough_exact_token_equality(run_out, replay, fixture_dir):
    _, _, out = run_out
    df, _ = replay
    acc_ids = set(df.loc[df["accepted"], "doc_id"])
    got = pq.read_table(
        sorted(glob.glob(os.path.join(out, "passthrough", "epoch=*", "*.parquet")))
    )
    assert got.num_rows == len(acc_ids)
    # token arrays byte-identical vs the source fixture for every row
    src = pq.read_table(sorted(glob.glob(os.path.join(fixture_dir, "arrival=*", "*.parquet"))))
    src_df = src.to_pandas().set_index("doc_id")
    got_df = got.to_pandas().set_index("doc_id")
    assert set(got_df.index) == acc_ids
    sample = got_df.sample(n=min(500, len(got_df)), random_state=7)
    for doc_id, row in sample.iterrows():
        np.testing.assert_array_equal(row["tokens"], src_df.loc[doc_id, "tokens"])
        assert row["n_tok"] == src_df.loc[doc_id, "n_tok"]
        assert row["source"] == src_df.loc[doc_id, "source"]


def test_exactly_once_idempotent_commit(run_out):
    drv, _, out = run_out
    sink = drv.sink
    epochs = sink.committed_epochs()
    assert epochs, "nothing committed"
    e0 = epochs[-1]
    path = os.path.join(out, "agg", f"epoch={e0:06d}", "part-0.parquet")
    before = open(path, "rb").read()
    # a re-commit (re-executed epoch) must be a no-op
    fake = pa.table({"source": pa.array(["x"]), "window_start": pa.array([0])})
    assert sink.commit(e0, fake) is False
    assert open(path, "rb").read() == before


def test_join_quality_values(run_out):
    drv, _, _ = run_out
    res = drv.result_table().to_pandas()
    meta = metadata_rows(N_EPOCHS).to_pandas().set_index("source")["quality"]
    nn = res[res["quality"].notna()]
    assert len(nn), "no joined rows"
    for s, q in zip(nn["source"], nn["quality"]):
        assert q == pytest.approx(meta[s])
    # every emitted row appears exactly once (exactly-once emission)
    assert not res.duplicated(["source", "window_start"]).any()


def test_json_ingest_equals_parquet(ray_session, fixture_dir, run_out):
    """file_format='json' (the reference's value_format) must produce
    byte-identical results to the parquet path: same agg rows AND
    exact passthrough token-array equality (canonical int32 cast)."""
    from raystat.fixtures import jsonl_stream_from_parquet

    jdir = jsonl_stream_from_parquet(fixture_dir, FIXTURE + "_jsonl")
    drv_p, _, _ = run_out
    out_j = "/tmp/rs_pytest_json"
    shutil.rmtree(out_j, ignore_errors=True)
    cfg = make_cfg(file_format="json")
    drv_j = StreamDriver(jdir, out_j, cfg, metadata=metadata_rows(N_EPOCHS))
    drv_j.run()
    a = drv_p.result_table().to_pandas().sort_values(
        ["source", "window_start"], ignore_index=True
    )
    b = drv_j.result_table().to_pandas().sort_values(
        ["source", "window_start"], ignore_index=True
    )
    pd.testing.assert_frame_equal(a, b, check_like=True)
    # passthrough: same rows, same token arrays, same Arrow types
    def pt(out):
        fs = sorted(glob.glob(os.path.join(out, "passthrough", "epoch=*", "*.parquet")))
        t = pa.concat_tables([pq.read_table(f) for f in fs])
        return t.to_pandas().sort_values("doc_id", ignore_index=True), t.schema
    pdf, ps = pt("/tmp/rs_pytest_out")
    jdf, js = pt(out_j)
    assert ps.field("tokens").type == js.field("tokens").type
    assert len(pdf) == len(jdf)
    assert (pdf["doc_id"] == jdf["doc_id"]).all()
    for x, y in zip(pdf["tokens"], jdf["tokens"]):
        assert np.array_equal(np.asarray(x), np.asarray(y))


def test_resume_equals_uninterrupted(ray_session, fixture_dir, run_out):
    drv_full, _, _ = run_out
    out2 = "/tmp/rs_pytest_resume"
    shutil.rmtree(out2, ignore_errors=True)
    cfg = make_cfg()
    d1 = StreamDriver(fixture_dir, out2, cfg, metadata=metadata_rows(N_EPOCHS))
    d1.run(stop_after_epoch=1)  # "crash" after epoch 1's checkpoint
    d2 = StreamDriver(fixture_dir, out2, cfg, metadata=metadata_rows(N_EPOCHS))
    d2.run(resume=True)
    a = drv_full.result_table().to_pandas().sort_values(
        ["source", "window_start"], ignore_index=True
    )
    b = d2.result_table().to_pandas().sort_values(
        ["source", "window_start"], ignore_index=True
    )
    pd.testing.assert_frame_equal(a, b, check_like=True)


def test_checkpoint_files_exist(run_out):
    _, _, out = run_out
    cks = sorted(glob.glob(os.path.join(out, "_checkpoints", "epoch-*")))
    assert cks
    last = cks[-1]
    st = json.load(open(os.path.join(last, "driver.json")))
    assert "watermark_us" in st and "join" in st and "metrics" in st
    assert glob.glob(os.path.join(last, "state-p*.parquet"))


def test_streaming_session_windows_match_batch(ray_session, fixture_dir):
    """Streaming session mode (gap rule, per-source actors) must equal
    the batch session_moments result when lateness is large enough that
    nothing drops."""
    import ray.data as rd

    from raystat.aggregate import session_moments
    from raystat.extract import add_event_time

    out = "/tmp/rs_pytest_session"
    shutil.rmtree(out, ignore_errors=True)
    gap = 1800
    cfg = StreamConfig(
        specs={"wavg": "weighted_average", "wstd": "stddev_weighted"},
        session_gap_s=gap,
        allowed_lateness_s=10 * LATENESS_S,  # nothing ever drops
        n_partitions=4,
    )
    drv = StreamDriver(fixture_dir, out, cfg)
    m = drv.run()
    got = (
        drv.result_table()
        .to_pandas()
        .sort_values(["source", "window_start"], ignore_index=True)
    )
    assert sum(e["late_dropped"] for e in m["epochs"].values()) == 0

    files = sorted(glob.glob(os.path.join(fixture_dir, "arrival=*", "*.parquet")))
    ds = rd.read_parquet(files).map_batches(add_event_time, batch_format="pyarrow")
    exp = (
        session_moments(
            ds,
            {"wavg": "weighted_average", "wstd": "stddev_weighted"},
            ["source"],
            value="n_tok",
            weight="n_tok",
            ts="ts",
            gap_s=gap,
        )
        .to_pandas()
        .sort_values(["source", "session_start_us"], ignore_index=True)
    )
    assert len(got) == len(exp)
    np.testing.assert_array_equal(got["window_start"], exp["session_start_us"])
    np.testing.assert_array_equal(got["window_end"], exp["session_end_us"])
    np.testing.assert_allclose(got["wavg"], exp["wavg"], rtol=1e-9)
    np.testing.assert_allclose(got["wstd"], exp["wstd"], rtol=1e-9)


def test_streaming_token_value_stats(ray_session, fixture_dir, replay):
    """token_stats mode: per-window moments over every token id must
    match a pandas replay over the accepted rows' flattened tokens."""
    out = "/tmp/rs_pytest_tok"
    shutil.rmtree(out, ignore_errors=True)
    cfg = make_cfg(token_stats=True, passthrough=False)
    drv = StreamDriver(fixture_dir, out, cfg)
    drv.run()
    res = drv.result_table().to_pandas()
    assert {"tok_mean", "tok_std", "tok_skew", "tok_kurt"} <= set(res.columns)

    df, _ = replay
    acc = df[df["accepted"]]
    src = pq.read_table(
        sorted(glob.glob(os.path.join(fixture_dir, "arrival=*", "*.parquet")))
    ).to_pandas().set_index("doc_id")
    # replay token moments for a sample of windows
    sample = res.sample(n=min(40, len(res)), random_state=11)
    for _, r in sample.iterrows():
        ids = acc[(acc["source"] == r["source"]) & (acc["ws"] == r["window_start"])][
            "doc_id"
        ]
        toks = np.concatenate([np.asarray(src.loc[i, "tokens"]) for i in ids]).astype(
            float
        )
        assert r["tok_mean"] == pytest.approx(toks.mean(), rel=1e-9)
        assert r["tok_std"] == pytest.approx(toks.std(), rel=1e-6)


def test_emit_changes_incremental(ray_session, fixture_dir):
    """EMIT CHANGES: live windows are finalized non-destructively each
    epoch; per-(source,window) n_rows is non-decreasing over epochs and
    bounded by the final closed value."""
    out = "/tmp/rs_pytest_changes"
    shutil.rmtree(out, ignore_errors=True)
    cfg = make_cfg(emit_changes=True, passthrough=False)
    drv = StreamDriver(fixture_dir, out, cfg)
    drv.run()
    final = drv.result_table().to_pandas().set_index(["source", "window_start"])
    changes = drv.changes_sink.read_all().to_pandas()
    assert len(changes) > 0
    grp = changes.sort_values("epoch").groupby(["source", "window_start"])["n_rows"]
    assert (grp.apply(lambda s: bool(s.is_monotonic_increasing))).all()
    for (src, ws), n in grp.max().items():
        if (src, ws) in final.index:
            assert n <= final.loc[(src, ws), "n_rows"]


def test_streaming_token_stats_hopping_matches_replay(ray_session, fixture_dir):
    """token_stats under HOPPING windows: tok_* and wavg per
    (source, window) must match a pandas replay that expands each row
    to its covering windows (nothing drops: large lateness)."""
    out = "/tmp/rs_pytest_tok_hop"
    shutil.rmtree(out, ignore_errors=True)
    hop = WINDOW_S // 2
    cfg = make_cfg(
        token_stats=True, passthrough=False, hop_s=hop,
        allowed_lateness_s=10 * LATENESS_S,
    )
    drv = StreamDriver(fixture_dir, out, cfg)
    m = drv.run()
    assert sum(e["late_dropped"] for e in m["epochs"].values()) == 0
    res = drv.result_table().to_pandas()

    src = pq.read_table(
        sorted(glob.glob(os.path.join(fixture_dir, "arrival=*", "*.parquet")))
    ).to_pandas()
    ids = numeric_doc_id(pa.array(src["doc_id"]))
    ts_s = event_time_us_from_numeric(ids) // 1_000_000
    src["ts_s"] = ts_s
    sample = res.sample(n=min(30, len(res)), random_state=13)
    for _, r in sample.iterrows():
        ws = int(r["window_start"])
        in_win = src[
            (src["source"] == r["source"])
            & (src["ts_s"] >= ws)
            & (src["ts_s"] < ws + WINDOW_S)
        ]
        toks = (
            np.concatenate([np.asarray(t) for t in in_win["tokens"]]).astype(float)
            if len(in_win)
            else np.array([])
        )
        n_tok = in_win["n_tok"].to_numpy().astype(float)
        assert r["n_rows"] == len(in_win)
        assert r["tok_mean"] == pytest.approx(toks.mean(), rel=1e-9)
        assert r["wavg"] == pytest.approx((n_tok * n_tok).sum() / n_tok.sum(), rel=1e-9)


def test_streaming_token_stats_session_matches_replay(ray_session, fixture_dir):
    """token_stats under SESSION windows: per-session token means match
    a pandas gap-rule replay."""
    out = "/tmp/rs_pytest_tok_sess"
    shutil.rmtree(out, ignore_errors=True)
    gap = 1800
    cfg = StreamConfig(
        specs={"wavg": "weighted_average"},
        session_gap_s=gap,
        allowed_lateness_s=10 * LATENESS_S,
        n_partitions=4,
        token_stats=True,
    )
    drv = StreamDriver(fixture_dir, out, cfg)
    drv.run()
    res = drv.result_table().to_pandas()
    assert {"tok_mean", "tok_std"} <= set(res.columns)

    src = pq.read_table(
        sorted(glob.glob(os.path.join(fixture_dir, "arrival=*", "*.parquet")))
    ).to_pandas()
    ids = numeric_doc_id(pa.array(src["doc_id"]))
    src["ts_us"] = event_time_us_from_numeric(ids)
    src = src.sort_values(["source", "ts_us"], kind="stable", ignore_index=True)
    sv, tv = src["source"].to_numpy(), src["ts_us"].to_numpy()
    brk = np.ones(len(src), dtype=bool)
    brk[1:] = (sv[1:] != sv[:-1]) | ((tv[1:] - tv[:-1]) > gap * 1_000_000)
    src["sess"] = np.cumsum(brk)
    exp = {}
    for (s, _), g in src.groupby(["source", "sess"]):
        toks = np.concatenate([np.asarray(t) for t in g["tokens"]]).astype(float)
        exp[(s, int(g["ts_us"].min()))] = toks.mean()
    assert len(exp) == len(res)
    for _, r in res.iterrows():
        key = (r["source"], int(r["window_start"]))
        assert key in exp
        assert r["tok_mean"] == pytest.approx(exp[key], rel=1e-9)


def test_hop_larger_than_window_rejected():
    """ksqlDB hopping requires advance <= size; the late predicate
    assumes it, so StreamConfig must enforce it."""
    with pytest.raises(ValueError, match="hop_s"):
        StreamConfig(window_size_s=100, hop_s=200)
    StreamConfig(window_size_s=100, hop_s=100)  # boundary OK


def test_row_token_sums_empty_lists():
    """Regression: a batch whose LAST row(s) have empty token lists used
    to truncate the preceding non-empty row's reduceat segment (its
    final token silently dropped from t_s1..t_s4)."""
    from raystat.streaming.driver import _row_token_sums

    cases = [
        [[1, 2, 3], [4, 5], []],          # the reported repro
        [[], [1, 2], [], [3], []],
        [[], [], []],
        [[7]],
        [[1, 2], [], [], [3, 4, 5], [], []],
    ]
    for lists in cases:
        t = pa.table({"tokens": pa.array(lists, type=pa.list_(pa.int32()))})
        for tab in (t, t.slice(1)):  # also exercise non-zero offsets
            ls = lists if tab is t else lists[1:]
            r = _row_token_sums(tab, "tokens", tab.num_rows)
            for p in range(1, 5):
                exp = [float(sum(x**p for x in l)) for l in ls]
                assert r[f"t_s{p}"].tolist() == exp, (ls, p, r[f"t_s{p}"])
            assert r["t_n"].tolist() == [float(len(l)) for l in ls]


def test_row_token_sums_property():
    """Hypothesis: arbitrary list layouts (empties anywhere, any batch
    slice offset) must match the obvious per-row sums exactly."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from raystat.streaming.driver import _row_token_sums

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 50256), max_size=20), min_size=0, max_size=30
        ),
        st.integers(0, 5),
    )
    def check(lists, off):
        t = pa.table({"tokens": pa.array(lists, type=pa.list_(pa.int32()))})
        tab = t.slice(min(off, len(lists)))
        ls = lists[min(off, len(lists)):]
        r = _row_token_sums(tab, "tokens", tab.num_rows)
        for p in range(1, 5):
            exp = np.array([float(sum(x**p for x in l)) for l in ls])
            got = np.asarray(r[f"t_s{p}"])
            if p <= 2:  # exactly representable in float64 at these sizes
                assert got.tolist() == exp.tolist()
            else:  # x^3/x^4 sums exceed 2^53: engine float path vs
                #   exact-int oracle differ by last-ulp rounding only
                np.testing.assert_allclose(got, exp, rtol=1e-12, atol=0)
        assert r["t_n"].tolist() == [float(len(l)) for l in ls]

    check()


def test_streaming_token_stats_with_empty_token_docs(ray_session, tmp_path):
    """End-to-end token_stats with planted empty-token docs (including
    at the END of the input, where the reduceat bug hid): per-window
    tok_* must match a pandas replay."""
    rng = np.random.default_rng(31)
    n = 4000
    ids = np.arange(n, dtype=np.int64)
    doc_id = np.char.add("doc-", np.char.zfill(ids.astype(str), 12))
    src = np.char.add("s", (ids % 5).astype(str))
    n_tok = rng.integers(1, 40, size=n).astype(np.int32)
    n_tok[rng.random(n) < 0.15] = 0  # plant empty docs
    n_tok[-7:] = 0                   # ...including trailing ones
    flat = rng.integers(1, 100, size=int(n_tok.sum()), dtype=np.int32)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offs[1:])
    t = pa.table(
        {
            "doc_id": pa.array(doc_id, pa.string()),
            "tokens": pa.ListArray.from_arrays(pa.array(offs, pa.int32()), pa.array(flat)),
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(src, pa.string()),
        }
    )
    from raystat.extract import T0_US

    ev = event_time_us_from_numeric(numeric_doc_id(t["doc_id"]))
    epoch = (ev - T0_US) // epoch_len_us(2)
    fix = str(tmp_path / "empty_fix")
    for e in np.unique(epoch):
        d = os.path.join(fix, f"arrival={int(e)}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(t.filter(pa.array(epoch == e)), os.path.join(d, "p.parquet"))

    out = str(tmp_path / "empty_out")
    cfg = StreamConfig(
        window_size_s=WINDOW_S,
        allowed_lateness_s=10 * LATENESS_S,
        n_partitions=4,
        n_salts=2,
        token_stats=True,
    )
    drv = StreamDriver(fix, out, cfg)
    drv.run()
    res = drv.result_table().to_pandas()

    df = t.to_pandas()
    df["ts_s"] = (ev // 1_000_000).to_numpy() if hasattr(ev, "to_numpy") else np.asarray(ev) // 1_000_000
    df["ws"] = (df["ts_s"] // WINDOW_S) * WINDOW_S
    for _, r in res.iterrows():
        g = df[(df["source"] == r["source"]) & (df["ws"] == r["window_start"])]
        toks = (
            np.concatenate([np.asarray(x) for x in g["tokens"]]).astype(float)
            if len(g)
            else np.array([])
        )
        assert r["n_rows"] == len(g)
        if len(toks):
            assert r["tok_mean"] == pytest.approx(toks.mean(), rel=1e-9)
            assert r["tok_std"] == pytest.approx(toks.std(), rel=1e-6)


def test_session_resume_equals_uninterrupted(ray_session, fixture_dir):
    """Session-mode crash/resume: restore() must not inflate the ingest
    barrier counters (regression: restore used to route through
    ingest())."""
    gap = 1800
    def mk():
        return StreamConfig(
            specs={"wavg": "weighted_average", "wstd": "stddev_weighted"},
            session_gap_s=gap,
            allowed_lateness_s=LATENESS_S,
            n_partitions=4,
        )

    out1, out2 = "/tmp/rs_pytest_sess_full", "/tmp/rs_pytest_sess_resume"
    shutil.rmtree(out1, ignore_errors=True)
    shutil.rmtree(out2, ignore_errors=True)
    d_full = StreamDriver(fixture_dir, out1, mk())
    d_full.run()
    d1 = StreamDriver(fixture_dir, out2, mk())
    d1.run(stop_after_epoch=1)  # "crash" after epoch 1's checkpoint
    d2 = StreamDriver(fixture_dir, out2, mk())
    d2.run(resume=True)
    a = d_full.result_table().to_pandas().sort_values(
        ["source", "window_start"], ignore_index=True
    )
    b = d2.result_table().to_pandas().sort_values(
        ["source", "window_start"], ignore_index=True
    )
    pd.testing.assert_frame_equal(a, b, check_like=True)


def test_session_high_cardinality_sources(ray_session, tmp_path):
    """1000 distinct sources in SESSION mode: the vectorized
    consolidate sweep (factorize + lexsort + grouped cummax +
    reduceat) must equal the batch session_moments twin."""
    import ray.data as rd

    from raystat.aggregate import session_moments
    from raystat.extract import T0_US, add_event_time

    rng = np.random.default_rng(71)
    n = 40_000
    ids = np.arange(n, dtype=np.int64)
    doc_id = np.char.add("doc-", np.char.zfill(ids.astype(str), 12))
    src = np.char.add("s", rng.integers(0, 1000, size=n).astype(str))
    n_tok = rng.integers(1, 300, size=n).astype(np.int32)
    flat = rng.integers(0, 100, size=int(n_tok.sum()), dtype=np.int32)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offs[1:])
    t = pa.table(
        {
            "doc_id": pa.array(doc_id, pa.string()),
            "tokens": pa.ListArray.from_arrays(pa.array(offs, pa.int32()), pa.array(flat)),
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(src, pa.string()),
        }
    )
    ev = event_time_us_from_numeric(numeric_doc_id(t["doc_id"]))
    epoch = (ev - T0_US) // epoch_len_us(4)
    fix = str(tmp_path / "sess_hc")
    for e in np.unique(epoch):
        d = os.path.join(fix, f"arrival={int(e)}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(t.filter(pa.array(epoch == e)), os.path.join(d, "p.parquet"))

    gap = 1800
    cfg = StreamConfig(
        specs={"wavg": "weighted_average", "wstd": "stddev_weighted"},
        session_gap_s=gap,
        allowed_lateness_s=10 * LATENESS_S,
        n_partitions=8,
    )
    out = str(tmp_path / "sess_hc_out")
    drv = StreamDriver(fix, out, cfg)
    drv.run()
    got = drv.result_table().to_pandas().sort_values(
        ["source", "window_start"], ignore_index=True
    )
    assert got["source"].nunique() == 1000

    ds = rd.from_arrow(t).map_batches(add_event_time, batch_format="pyarrow")
    exp = (
        session_moments(
            ds, {"wavg": "weighted_average", "wstd": "stddev_weighted"},
            ["source"], value="n_tok", weight="n_tok", ts="ts", gap_s=gap,
        )
        .to_pandas()
        .sort_values(["source", "session_start_us"], ignore_index=True)
    )
    assert len(got) == len(exp)
    np.testing.assert_array_equal(got["window_start"], exp["session_start_us"])
    np.testing.assert_array_equal(got["window_end"], exp["session_end_us"])
    np.testing.assert_allclose(got["wavg"], exp["wavg"], rtol=1e-9)
    np.testing.assert_allclose(got["wstd"], exp["wstd"], rtol=1e-9, atol=1e-9)


def test_hopping_passthrough_matches_late_counts(ray_session, fixture_dir):
    """Hopping + passthrough: the sink keeps exactly the rows the
    aggregate path accepted (late iff ALL covering windows closed), and
    late_dropped counts input rows, not expanded (row, window) pairs."""
    out = "/tmp/rs_pytest_hop_pass"
    shutil.rmtree(out, ignore_errors=True)
    cfg = make_cfg(hop_s=WINDOW_S // 2, passthrough=True)
    drv = StreamDriver(fixture_dir, out, cfg)
    m = drv.run()
    rows_in = sum(e["rows_in"] for e in m["epochs"].values())
    dropped = sum(e["late_dropped"] for e in m["epochs"].values())
    got = pq.read_table(
        sorted(glob.glob(os.path.join(out, "passthrough", "epoch=*", "*.parquet")))
    )
    assert got.num_rows == rows_in - dropped
    assert dropped > 0  # the fixture plants late arrivals


def test_cleanup_lifecycle(ray_session, fixture_dir):
    """Engine teardown parity (AllUdafIT.java:461-498): cleanup() kills
    the actor pool and drops checkpoints; delete_output also removes
    committed results (the DELETE TOPIC flag)."""
    out = "/tmp/rs_pytest_cleanup"
    shutil.rmtree(out, ignore_errors=True)
    drv = StreamDriver(fixture_dir, out, make_cfg(passthrough=False))
    drv.run(stop_after_epoch=0)
    assert glob.glob(os.path.join(out, "_checkpoints", "epoch-*"))
    actors = list(drv.actors)
    drv.cleanup()
    assert drv.actors is None
    assert not os.path.exists(os.path.join(out, "_checkpoints"))
    assert os.path.exists(os.path.join(out, "agg"))  # output kept
    import ray

    for a in actors:  # ray.kill is asynchronous: a call may still land before it
        deadline = time.monotonic() + 30
        with pytest.raises(ray.exceptions.RayActorError):
            while time.monotonic() < deadline:
                ray.get(a.get_metrics.remote(), timeout=30)
                time.sleep(0.1)
    drv2 = StreamDriver(fixture_dir, out, make_cfg(passthrough=False))
    drv2.run()  # fresh run over the same out dir works after teardown
    drv2.cleanup(delete_output=True)
    assert not os.path.exists(out)


def test_high_cardinality_sources(ray_session, tmp_path):
    """1000 distinct sources: the consolidation/merge path is
    vectorized end to end; streaming result equals the batch twin."""
    import ray.data as rd

    from raystat.aggregate import grouped_moments
    from raystat.extract import add_event_time
    from raystat.windows import Tumbling

    rng = np.random.default_rng(99)
    n = 60_000
    ids = np.arange(n, dtype=np.int64)
    doc_id = np.char.add("doc-", np.char.zfill(ids.astype(str), 12))
    src = np.char.add("s", rng.integers(0, 1000, size=n).astype(str))
    n_tok = rng.integers(1, 300, size=n).astype(np.int32)
    flat = rng.integers(0, 100, size=int(n_tok.sum()), dtype=np.int32)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offs[1:])
    t = pa.table(
        {
            "doc_id": pa.array(doc_id, pa.string()),
            "tokens": pa.ListArray.from_arrays(pa.array(offs, pa.int32()), pa.array(flat)),
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(src, pa.string()),
        }
    )
    from raystat.extract import T0_US, event_time_us_from_numeric, numeric_doc_id
    from raystat.fixtures import epoch_len_us

    ev = event_time_us_from_numeric(numeric_doc_id(t["doc_id"]))
    epoch = (ev - T0_US) // epoch_len_us(4)
    fix = str(tmp_path / "hc")
    for e in np.unique(epoch):
        d = os.path.join(fix, f"arrival={int(e)}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(t.filter(pa.array(epoch == e)), os.path.join(d, "p.parquet"))

    out = str(tmp_path / "hc_out")
    cfg = StreamConfig(
        window_size_s=WINDOW_S,
        allowed_lateness_s=10 * LATENESS_S,
        n_partitions=8,
        n_salts=4,
    )
    drv = StreamDriver(fix, out, cfg)
    drv.run()
    got = drv.result_table().to_pandas().sort_values(
        ["source", "window_start"], ignore_index=True
    )
    assert got["source"].nunique() == 1000

    exp = grouped_moments(
        rd.from_arrow(t).map_batches(add_event_time, batch_format="pyarrow"),
        {"wavg": "weighted_average", "wstd": "stddev_weighted",
         "skew": "skewness", "kurt": "kurtosis"},
        ["source"], value="n_tok", weight="n_tok",
        window=Tumbling(WINDOW_S), ts="ts",
    ).to_pandas().sort_values(["source", "window_start"], ignore_index=True)
    assert len(got) == len(exp)
    for c in ["wavg", "wstd", "skew", "kurt"]:
        np.testing.assert_allclose(got[c], exp[c], rtol=1e-9, atol=1e-12)


def test_cli_end_to_end(ray_session, fixture_dir, tmp_path, capsys):
    """python -m raystat surface: the ray-job-submit entrypoint runs
    the driver and prints the metrics JSON, and leaves a Ray session it
    did not start running."""
    import ray

    from raystat.cli import main

    out = str(tmp_path / "cli_out")
    rc = main(
        ["--input", fixture_dir, "--out", out, "--window", str(WINDOW_S),
         "--lateness", str(LATENESS_S), "--partitions", "4", "--salts", "2"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    m = json.loads(printed.strip().splitlines()[-1])
    assert m["committed"], "no epochs committed"
    assert glob.glob(os.path.join(out, "agg", "epoch=*", "*.parquet"))
    assert ray.is_initialized()


def test_ingest_error_surfaces_at_barrier(ray_session):
    """A malformed partial raises from the driver's barrier within
    seconds: the state actor's ingest validates its columns and the
    barrier waits on the ingest refs, so no error is swallowed."""
    import time as _t

    from raystat.streaming.state import Router

    drv = StreamDriver(FIXTURE, "/tmp/rs_pytest_bad_ingest", make_cfg(n_partitions=2))
    drv.prepare()
    bad = pa.table(
        {
            "source": pa.array(["s"]),
            "salt": pa.array([0], pa.int64()),
            "window_start": pa.array([0], pa.int64()),  # no sum columns
        }
    )
    info = {"max_ts_us": 0, "late_dropped": 0, "rows_in": 1, "batch_key": 0}
    book = Router(drv.actors, 2, lambda batch: (bad, info))(bad).to_pandas()
    t0 = _t.monotonic()
    try:
        with pytest.raises(Exception, match="lacks columns"):
            drv._ingest_barrier(book)
        assert _t.monotonic() - t0 < 30
    finally:
        drv.cleanup(delete_output=True)


@pytest.mark.parametrize("batch_size", [None, 500])
def test_output_deterministic_across_runs(ray_session, batch_size):
    """Two runs over one input commit byte-identical aggregates (same
    manifest sha256 per epoch), with several tasks per epoch racing on
    the session's CPUs (small batches: dozens per epoch): each actor
    receives the epoch's partials in batch-key order, whatever order
    the tasks finish in.  Token-value power sums exceed 2**53, so the
    float summation order shows in the output."""
    fix = "/tmp/raystat_fixtures/stream_pytest_det"
    write_stream_fixture(fix, n_rows=40_000, rows_per_block=2_500, n_epochs=2)
    digests = []
    for i in range(2):
        out = f"/tmp/rs_pytest_det{i}"
        shutil.rmtree(out, ignore_errors=True)
        cfg = make_cfg(
            passthrough=False, allowed_lateness_s=epoch_len_us(2) // 1_000_000,
            n_partitions=4, token_stats=True, comoment_stats=True,
            batch_size=batch_size,
        )
        StreamDriver(fix, out, cfg).run()
        manifests = sorted(glob.glob(os.path.join(out, "agg", "_manifest", "*.json")))
        digests.append([json.load(open(f))["sha256"] for f in manifests])
        shutil.rmtree(out, ignore_errors=True)
    assert digests[0], "nothing committed"
    assert digests[0] == digests[1]


def test_route_partials_ignores_arrival_order():
    """Each partition receives the same rows in the same order whatever
    order the Router rows arrive in, at most one ingest per host, each
    carrying the slices of the partitions that host owns."""
    from raystat.streaming.state import Router, host_pids, route_partials

    class Host:
        def __init__(self):
            self.got = []
            self.ingest = self

        def remote(self, table, sizes):
            self.got.append((table, sizes))

    rng = np.random.default_rng(5)
    rows = []
    for key in range(12):
        n = 40
        part = pa.table(
            {
                "source": pa.array([f"s{i}" for i in rng.integers(0, 9, n)]),
                "salt": pa.array(np.full(n, key % 5), pa.int64()),
                "u_s1": pa.array(rng.random(n)),
            }
        )
        info = {"max_ts_us": 0, "late_dropped": 0, "rows_in": n, "batch_key": 1000 - key}
        rows.append(Router(None, 5, lambda b, p=part, i=info: (p, i))(part).to_pandas())
    book = pd.concat(rows, ignore_index=True)
    runs = []
    for seed in range(3):
        hosts = [Host() for _ in range(2)]
        shuffled = book.sample(frac=1, random_state=seed).reset_index(drop=True)
        assert len(route_partials(shuffled, hosts, 5)) == 2
        assert all(len(h.got) == 1 for h in hosts)
        per_part = {}
        for h, owned in zip(hosts, host_pids(5, 2)):
            table, sizes = h.got[0]
            assert [pid for pid, _ in sizes] == owned  # pid order, owned only
            assert sum(n for _, n in sizes) == table.num_rows
            lo = 0
            for pid, n in sizes:
                per_part[pid] = table.slice(lo, n)
                lo += n
        runs.append(per_part)
    for other in runs[1:]:
        assert all(other[p].equals(t) for p, t in runs[0].items())
    assert sum(t.num_rows for t in runs[0].values()) == 12 * 40
    assert host_pids(5, 2) == [[0, 1, 2], [3, 4]]


def test_moment_window_sums_equal_pandas_group_sums():
    """The moment kind sums each consolidation's partials per window
    with pandas (Kahan-compensated, in ingest order) and adds them to
    the state, bit for bit: several partial tables with hundreds of
    rows per group, consolidated twice.  A pairwise or unordered sum
    (``np.add.reduceat``, Arrow ``group_by``) differs in many groups
    at these magnitudes."""
    from raystat.streaming.driver import _Sums
    from raystat.streaming.epochs import END
    from raystat.streaming.state import KeyedPartition

    rng = np.random.default_rng(11)
    cols = ["u_n", "u_s1", "t_s4"]
    keys = ["source", "window_start"]

    def partial(n: int) -> pa.Table:
        return pa.table({
            "source": pa.array([f"s{i}" for i in rng.integers(0, 5, n)]),
            "salt": pa.array(np.zeros(n, np.int64)),
            "window_start": pa.array(rng.integers(0, 4, n) * 3600, pa.int64()),
            "u_n": pa.array(rng.integers(1, 100, n), pa.int64()),
            "u_s1": pa.array(rng.random(n) * 10.0 ** rng.integers(0, 6, n)),
            "t_s4": pa.array(rng.random(n) * 1e18),
        })

    halves = [[partial(2000) for _ in range(3)] for _ in range(2)]
    state = KeyedPartition(0, _Sums, 3600, False, cols)
    expected = None
    for tables in halves:
        for t in tables:
            state.ingest(t)
        state.get_metrics()  # consolidate
        df = pa.concat_tables(tables).to_pandas().astype({"u_n": np.float64})
        sums = df.groupby(keys, sort=False)[cols].sum()
        expected = sums if expected is None else expected.add(sums, fill_value=0.0)
    got = state.close(END).to_pandas().set_index(keys).sort_index()
    expected = expected.sort_index()
    assert len(got) == 20
    for c in cols:
        assert np.array_equal(got[c].to_numpy().view(np.int64),
                              expected[c].to_numpy().view(np.int64)), c


def _stage_driver(kind: str, fixture_dir: str, sf: str, out: str):
    """One streaming driver of each router shape with 3 state partitions,
    on its pytest fixture."""
    from raystat.streaming.dedup import DedupStreamDriver, docs_stream_fixture
    from raystat.streaming.interval import (
        IntervalJoinConfig,
        IntervalStreamDriver,
        events_interval_fixture,
    )
    from raystat.streaming.sketch import HllStreamDriver, events_stream_fixture

    lateness = 200 * 3600
    if kind == "StreamDriver":
        return StreamDriver(fixture_dir, out, make_cfg(passthrough=False, n_partitions=3))
    if kind == "HllStreamDriver":
        return HllStreamDriver(
            events_stream_fixture(sf, n_epochs=4), out, window_size_s=7 * 86400,
            allowed_lateness_s=lateness, n_partitions=3,
        )
    if kind == "DedupStreamDriver":
        return DedupStreamDriver(docs_stream_fixture(sf, n_epochs=4), out, n_partitions=3)
    return IntervalStreamDriver(
        events_interval_fixture(sf, n_epochs=4), out,
        IntervalJoinConfig(allowed_lateness_s=lateness, n_partitions=3),
    )


_STAGE_KINDS = ["StreamDriver", "HllStreamDriver", "DedupStreamDriver", "IntervalStreamDriver"]


@pytest.mark.parametrize("kind", _STAGE_KINDS)
def test_epoch_stage_runs_once_within_cpu_slots(ray_session, fixture_dir, sf_dir,
                                                kind, monkeypatch):
    """Each epoch runs ONE stage (its read and the driver's router),
    exactly once, as 1 to (Ray CPU slots) read tasks, and routes with
    at most one ingest call per state host (here one per partition)."""
    import ray

    from raystat.streaming import epochs

    out = "/tmp/rs_pytest_stage"
    shutil.rmtree(out, ignore_errors=True)
    drv = _stage_driver(kind, fixture_dir, sf_dir, out)
    stages, tasks = [], []  # per stage: its epoch, its read tasks
    stage, route_files = drv._stage, epochs._route_files

    def counted_stage(epoch, router):
        stages.append(epoch)
        tasks.append(0)
        return stage(epoch, router)

    class CountedTasks:
        def remote(self, *args):
            tasks[-1] += 1
            return route_files.remote(*args)

    drv._stage = counted_stage
    monkeypatch.setattr(epochs, "_route_files", CountedTasks())
    metrics = drv.run()
    assert stages == drv.arrival_epochs()
    cpus = ray.cluster_resources()["CPU"]
    assert all(1 <= n <= cpus for n in tasks), tasks
    calls = [em["ingest_calls"] for em in metrics["epochs"].values()]
    assert max(calls) <= 3 and sum(calls) > 0
    for a in drv.actors:
        ray.kill(a)
    shutil.rmtree(out, ignore_errors=True)


def test_null_source_fails_loudly(ray_session, tmp_path):
    """A null ``source`` raises a ValueError naming the column from the
    partial stage (it used to become an int64-min dictionary code)."""
    n = 50
    ids = np.arange(n, dtype=np.int64)
    src = pa.array(["a" if i % 7 else None for i in range(n)], pa.string())
    t = pa.table(
        {
            "doc_id": pa.array(np.char.add("doc-", np.char.zfill(ids.astype(str), 12))),
            "tokens": pa.array([[1, 2]] * n, pa.list_(pa.int32())),
            "n_tok": pa.array(np.full(n, 2), pa.int32()),
            "source": src,
        }
    )
    fix = tmp_path / "null_fix"
    os.makedirs(fix / "arrival=0")
    pq.write_table(t, fix / "arrival=0" / "part-0.parquet")
    for session_gap_s in (None, 1800):
        drv = StreamDriver(
            str(fix), str(tmp_path / f"out{session_gap_s}"),
            make_cfg(passthrough=False, session_gap_s=session_gap_s),
        )
        with pytest.raises(Exception, match="key column 'source' contains nulls"):
            drv.run()
        drv.cleanup()


def test_streaming_comoments_match_replay(ray_session, fixture_dir, replay):
    """Streaming corr/cov(n_tok, row token sum) through the state
    actors equals the brute-force pandas replay per (source, window),
    and survives crash/resume bit-identically."""
    rdf, _ = replay
    out = "/tmp/rs_pytest_comom"
    shutil.rmtree(out, ignore_errors=True)
    cfg = make_cfg(passthrough=False, token_stats=True, comoment_stats=True)
    drv = StreamDriver(fixture_dir, out, cfg, metadata=metadata_rows(N_EPOCHS))
    drv.run()
    got = (
        drv.result_table()
        .to_pandas()
        .sort_values(["source", "window_start"], ignore_index=True)
    )

    # token sums per doc from the fixture files
    tok_sum = {}
    for f in sorted(glob.glob(os.path.join(fixture_dir, "arrival=*", "*.parquet"))):
        t = pq.read_table(f, columns=["doc_id", "tokens"])
        for did, toks in zip(t["doc_id"].to_pylist(), t["tokens"].to_pylist()):
            tok_sum[did] = float(np.sum(toks)) if toks else 0.0
    df = rdf[rdf["accepted"]].copy()
    df["window_start"] = df["ws"]
    df["y"] = df["doc_id"].map(tok_sum)
    df["x"] = df["n_tok"].astype(float)

    def corr_cov(g):
        x, y = g["x"].to_numpy(), g["y"].to_numpy()
        n = len(x)
        cov = (x * y).sum() / n - x.mean() * y.mean()
        vx = (x * x).sum() / n - x.mean() ** 2
        vy = (y * y).sum() / n - y.mean() ** 2
        corr = 0.0 if vx == 0 or vy == 0 else cov / np.sqrt(max(vx, 0) * max(vy, 0))
        return pd.Series({"len_tok_corr": corr, "len_tok_cov": cov})

    exp = (
        df.groupby(["source", "window_start"])
        .apply(corr_cov, include_groups=False)
        .reset_index()
        .sort_values(["source", "window_start"], ignore_index=True)
    )
    m = got.merge(exp, on=["source", "window_start"], suffixes=("", "_exp"))
    assert len(m) == len(exp) == len(got)
    np.testing.assert_allclose(m["len_tok_corr"], m["len_tok_corr_exp"], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(m["len_tok_cov"], m["len_tok_cov_exp"], rtol=1e-9, atol=1e-9)

    # crash/resume: identical output incl. the comoment columns
    out2 = "/tmp/rs_pytest_comom_resume"
    shutil.rmtree(out2, ignore_errors=True)
    d1 = StreamDriver(fixture_dir, out2, cfg, metadata=metadata_rows(N_EPOCHS))
    d1.run(stop_after_epoch=1)
    d2 = StreamDriver(fixture_dir, out2, cfg, metadata=metadata_rows(N_EPOCHS))
    d2.run(resume=True)
    b = (
        d2.result_table()
        .to_pandas()
        .sort_values(["source", "window_start"], ignore_index=True)
    )
    pd.testing.assert_frame_equal(got, b, check_like=True)


def test_streaming_session_comoments_match_bruteforce(ray_session, fixture_dir):
    """Session-mode comoments: streaming corr/cov(n_tok, token sum) per
    (source, session) equals a pandas sessionize-and-compute replay
    (lateness set huge so every row is accepted)."""
    out = "/tmp/rs_pytest_sess_comom"
    shutil.rmtree(out, ignore_errors=True)
    cfg = make_cfg(
        passthrough=False,
        session_gap_s=7200,
        allowed_lateness_s=10**9,
        token_stats=True,
        comoment_stats=True,
    )
    drv = StreamDriver(fixture_dir, out, cfg, metadata=metadata_rows(N_EPOCHS))
    drv.run()
    got = (
        drv.result_table()
        .to_pandas()
        .sort_values(["source", "window_start"], ignore_index=True)
    )

    rows = []
    for f in sorted(glob.glob(os.path.join(fixture_dir, "arrival=*", "*.parquet"))):
        t = pq.read_table(f, columns=["doc_id", "tokens", "n_tok", "source"])
        ids = numeric_doc_id(t["doc_id"])
        ts = event_time_us_from_numeric(ids)
        for did, toks, n, src, tu in zip(
            t["doc_id"].to_pylist(), t["tokens"].to_pylist(),
            t["n_tok"].to_pylist(), t["source"].to_pylist(), ts
        ):
            rows.append((src, int(tu), float(n), float(np.sum(toks)) if toks else 0.0))
    df = pd.DataFrame(rows, columns=["source", "tu", "x", "y"]).sort_values(
        ["source", "tu"], kind="stable", ignore_index=True
    )
    gap_us = 7200 * 1_000_000
    brk = np.ones(len(df), dtype=bool)
    sv, tv = df["source"].to_numpy(), df["tu"].to_numpy()
    brk[1:] = (sv[1:] != sv[:-1]) | ((tv[1:] - tv[:-1]) > gap_us)
    df["sess"] = np.cumsum(brk)

    def cc(g):
        x, y = g["x"].to_numpy(), g["y"].to_numpy()
        n = len(x)
        cov = (x * y).sum() / n - x.mean() * y.mean()
        vx = (x * x).sum() / n - x.mean() ** 2
        vy = (y * y).sum() / n - y.mean() ** 2
        corr = 0.0 if vx == 0 or vy == 0 else cov / np.sqrt(max(vx, 0) * max(vy, 0))
        return pd.Series(
            {
                "source": g["source"].iloc[0],
                "window_start": np.int64(g["tu"].min()),
                "len_tok_corr": corr,
                "len_tok_cov": cov,
            }
        )

    exp = (
        df.groupby("sess")
        .apply(cc, include_groups=False)
        .reset_index(drop=True)
        .sort_values(["source", "window_start"], ignore_index=True)
    )
    m = got.merge(exp, on=["source", "window_start"], suffixes=("", "_e"))
    assert len(m) == len(exp) == len(got)
    np.testing.assert_allclose(m["len_tok_corr"], m["len_tok_corr_e"], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(m["len_tok_cov"], m["len_tok_cov_e"], rtol=1e-9, atol=1e-9)


def test_streaming_hopping_comoments_match_bruteforce(ray_session, fixture_dir):
    """Hopping-mode comoments: the window-expansion (row_of) path of
    the c_syy/c_sxy sums vs a pandas expand-and-compute replay
    (lateness huge -> every row in every covering window)."""
    size_s, hop_s = 2 * WINDOW_S, WINDOW_S
    out = "/tmp/rs_pytest_hop_comom"
    shutil.rmtree(out, ignore_errors=True)
    cfg = make_cfg(
        passthrough=False,
        window_size_s=size_s,
        hop_s=hop_s,
        allowed_lateness_s=10**9,
        token_stats=True,
        comoment_stats=True,
    )
    drv = StreamDriver(fixture_dir, out, cfg, metadata=metadata_rows(N_EPOCHS))
    drv.run()
    got = (
        drv.result_table()
        .to_pandas()
        .sort_values(["source", "window_start"], ignore_index=True)
    )

    rows = []
    for f in sorted(glob.glob(os.path.join(fixture_dir, "arrival=*", "*.parquet"))):
        t = pq.read_table(f, columns=["doc_id", "tokens", "n_tok", "source"])
        ts = event_time_us_from_numeric(numeric_doc_id(t["doc_id"]))
        for toks, n, src, tu in zip(
            t["tokens"].to_pylist(), t["n_tok"].to_pylist(),
            t["source"].to_pylist(), ts
        ):
            ts_s = int(tu) // 1_000_000
            k_last = ts_s // hop_s
            k_min = (ts_s - size_s) // hop_s + 1
            for k in range(k_min, k_last + 1):
                rows.append(
                    (src, k * hop_s, float(n),
                     float(np.sum(toks)) if toks else 0.0)
                )
    df = pd.DataFrame(rows, columns=["source", "window_start", "x", "y"])

    def cc(g):
        x, y = g["x"].to_numpy(), g["y"].to_numpy()
        n = len(x)
        cov = (x * y).sum() / n - x.mean() * y.mean()
        vx = (x * x).sum() / n - x.mean() ** 2
        vy = (y * y).sum() / n - y.mean() ** 2
        corr = 0.0 if vx == 0 or vy == 0 else cov / np.sqrt(max(vx, 0) * max(vy, 0))
        return pd.Series({"len_tok_corr": corr, "len_tok_cov": cov})

    exp = (
        df.groupby(["source", "window_start"])
        .apply(cc, include_groups=False)
        .reset_index()
        .sort_values(["source", "window_start"], ignore_index=True)
    )
    m = got.merge(exp, on=["source", "window_start"], suffixes=("", "_e"))
    assert len(m) == len(exp) == len(got)
    np.testing.assert_allclose(m["len_tok_corr"], m["len_tok_corr_e"], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(m["len_tok_cov"], m["len_tok_cov_e"], rtol=1e-9, atol=1e-9)


def test_per_source_watermark_keeps_lagging_source(ray_session, tmp_path):
    """watermark_scope='per_source': a source whose data arrives three
    epochs late (but in ITS OWN event-time order) loses nothing, while
    the global watermark would drop all of it; the per-source result
    equals the batch aggregate of the full input.  Also covers
    crash/resume of the per-source frontier map."""
    from raystat.aggregate import grouped_moments
    from raystat.extract import T0_US
    from raystat.fixtures import epoch_len_us, synth_token_block
    from raystat.windows import Tumbling

    import ray.data as rd

    n_epochs = 4
    blk = synth_token_block(0, 4000)
    ev_us = event_time_us_from_numeric(numeric_doc_id(blk["doc_id"]))
    epoch = (ev_us - T0_US) // epoch_len_us(n_epochs)
    src = np.asarray(blk["source"].to_pylist())
    lag = src == "web"  # the hot source arrives entirely in epoch 3
    arrival = np.where(lag, n_epochs - 1, np.minimum(epoch, n_epochs - 1))

    fix = str(tmp_path / "skewed")
    for e in range(n_epochs):
        d = os.path.join(fix, f"arrival={e}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            blk.filter(pa.array(arrival == e)), os.path.join(d, "part-0.parquet")
        )

    def run(scope, out):
        shutil.rmtree(out, ignore_errors=True)
        cfg = StreamConfig(
            specs={"wavg": "weighted_average", "wstd": "stddev_weighted"},
            window_size_s=21600,
            allowed_lateness_s=60,
            n_partitions=4,
            n_salts=2,
            watermark_scope=scope,
        )
        drv = StreamDriver(fix, out, cfg)
        m = drv.run()
        res = drv.result_table().to_pandas()
        dropped = sum(e["late_dropped"] for e in m["epochs"].values())
        return res, dropped

    res_g, dropped_g = run("global", "/tmp/rs_wm_global")
    res_p, dropped_p = run("per_source", "/tmp/rs_wm_persrc")

    # globally, every web row from event-epochs 0-1 is hopelessly late
    # by arrival time (the watermark sits at ~end of epoch 2 by then);
    # per-source, NOTHING drops because web's own frontier lagged too
    n_web_early = int((lag & (epoch <= 1)).sum())
    assert n_web_early > 0 and dropped_g >= n_web_early
    assert dropped_p == 0
    web_g = set(res_g.loc[res_g["source"] == "web", "window_start"])
    web_p = set(res_p.loc[res_p["source"] == "web", "window_start"])
    assert web_g < web_p  # strict subset: early web windows exist only per-source

    # per-source result == the batch aggregate over the FULL input
    batch = (
        grouped_moments(
            rd.from_arrow(
                blk.append_column("ts_s", pa.array(ev_us // 1_000_000))
            ),
            {"wavg": "weighted_average", "wstd": "stddev_weighted"},
            ["source"],
            value="n_tok",
            weight="n_tok",
            window=Tumbling(21600),
            ts="ts_s",
        )
        .to_pandas()
        .sort_values(["source", "window_start"], ignore_index=True)
    )
    got = res_p[["source", "window_start", "wavg", "wstd"]].sort_values(
        ["source", "window_start"], ignore_index=True
    )
    pd.testing.assert_frame_equal(
        got, batch[["source", "window_start", "wavg", "wstd"]],
        check_dtype=False, atol=1e-9, rtol=1e-9,
    )

    # crash/resume preserves the per-source frontier map
    out3 = "/tmp/rs_wm_persrc_resume"
    shutil.rmtree(out3, ignore_errors=True)
    cfg = StreamConfig(
        specs={"wavg": "weighted_average", "wstd": "stddev_weighted"},
        window_size_s=21600, allowed_lateness_s=60,
        n_partitions=4, n_salts=2, watermark_scope="per_source",
    )
    d1 = StreamDriver(fix, out3, cfg)
    d1.run(stop_after_epoch=1)
    assert d1.src_watermark  # frontier map populated and checkpointed
    d2 = StreamDriver(fix, out3, cfg)
    d2.run(resume=True)
    # the frontier restored from the checkpoint can only have ADVANCED
    for k, v in d1.src_watermark.items():
        assert d2.src_watermark.get(k, -(2**62)) >= v
    b = d2.result_table().to_pandas()[
        ["source", "window_start", "wavg", "wstd"]
    ].sort_values(["source", "window_start"], ignore_index=True)
    pd.testing.assert_frame_equal(b, got, check_dtype=False)


def test_per_source_watermark_hopping(ray_session, tmp_path):
    """Hopping + watermark_scope='per_source': the window-open filter in
    the partial stage must use the per-SOURCE frontier, not the global
    one — otherwise a lagging source's rows survive row_keep but their
    earlier covering hopping windows are silently dropped at expansion
    time, and those windows (still open in the state store) later emit
    undercounted aggregates.  The per-source result must equal the
    batch hopping aggregate over the full input; nothing may drop."""
    from raystat.aggregate import grouped_moments
    from raystat.extract import T0_US
    from raystat.fixtures import epoch_len_us, synth_token_block
    from raystat.windows import Hopping

    import ray.data as rd

    n_epochs = 4
    blk = synth_token_block(7, 4000)
    ev_us = event_time_us_from_numeric(numeric_doc_id(blk["doc_id"]))
    epoch = (ev_us - T0_US) // epoch_len_us(n_epochs)
    src = np.asarray(blk["source"].to_pylist())
    lag = src == "web"  # the hot source arrives entirely in the last epoch
    arrival = np.where(lag, n_epochs - 1, np.minimum(epoch, n_epochs - 1))

    fix = str(tmp_path / "skewed_hop")
    for e in range(n_epochs):
        d = os.path.join(fix, f"arrival={e}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            blk.filter(pa.array(arrival == e)), os.path.join(d, "part-0.parquet")
        )

    out = "/tmp/rs_wm_persrc_hop"
    shutil.rmtree(out, ignore_errors=True)
    cfg = StreamConfig(
        specs={"wavg": "weighted_average", "wstd": "stddev_weighted"},
        window_size_s=21600,
        hop_s=7200,
        allowed_lateness_s=60,
        n_partitions=4,
        n_salts=2,
        watermark_scope="per_source",
    )
    drv = StreamDriver(fix, out, cfg)
    m = drv.run()
    assert sum(e["late_dropped"] for e in m["epochs"].values()) == 0
    res = drv.result_table().to_pandas()

    batch = (
        grouped_moments(
            rd.from_arrow(
                blk.append_column("ts_s", pa.array(ev_us // 1_000_000))
            ),
            {"wavg": "weighted_average", "wstd": "stddev_weighted"},
            ["source"],
            value="n_tok",
            weight="n_tok",
            window=Hopping(21600, 7200),
            ts="ts_s",
        )
        .to_pandas()
        .sort_values(["source", "window_start"], ignore_index=True)
    )
    got = res[["source", "window_start", "wavg", "wstd"]].sort_values(
        ["source", "window_start"], ignore_index=True
    )
    # every early-web hopping window must be present (the bug dropped them)
    pd.testing.assert_frame_equal(
        got, batch[["source", "window_start", "wavg", "wstd"]],
        check_dtype=False, atol=1e-9, rtol=1e-9,
    )


def _token_rows(ids, n_tok, **cols) -> pa.Table:
    """Token-stream rows with numeric doc ids ``ids`` and values ``n_tok``."""
    ids = np.asarray(ids, dtype=np.int64)
    return pa.table({
        "doc_id": pa.array([f"doc-{i:012d}" for i in ids]),
        "tokens": pa.array([[1, 2]] * ids.size, pa.list_(pa.int32())),
        "n_tok": pa.array(n_tok, pa.int32()),
        "source": pa.array(["a"] * ids.size),
        **cols,
    })


@pytest.mark.parametrize("scope", ["global", "per_source"])
def test_session_row_in_the_watermarks_last_second_is_kept(ray_session, tmp_path, scope):
    """A session row with ``ts_us`` in ``(wm, wm + 1)`` seconds can still
    extend an open session (one closes at ``end + gap <= wm``), so the
    moment stage keeps it, as the sketch session routers do, and the
    passthrough keeps it too; one second later it is late on both."""
    fix = tmp_path / "fix"
    os.makedirs(fix / "arrival=0")
    pq.write_table(_token_rows([6], [3]), fix / "arrival=0" / "part-0.parquet")
    ts_s = int(event_time_us_from_numeric(np.array([6]))[0]) // 1_000_000
    drv = StreamDriver(str(fix), str(tmp_path / "out"),
                       make_cfg(session_gap_s=1800, n_salts=1, watermark_scope=scope))
    for wm, late in ((ts_s, 0), (ts_s + 1, 1)):
        drv.watermark_us, drv.src_watermark = wm * 10**6, {"a": wm * 10**6}
        book, _ = drv._stage(0, drv._router())
        assert book["late_dropped"].tolist() == [late]
        assert book["partial_rows"].tolist() == [1 - late]
        kept = drv._passthrough(drv._epoch_dataset(0), drv._watermark())
        assert sum(t.num_rows for t in kept) == 1 - late


@pytest.mark.parametrize("session_gap_s", [None, 3600], ids=["window", "session"])
def test_null_value_or_weight_rows_leave_the_moment_sums(ray_session, tmp_path,
                                                        session_gap_s):
    """A row whose value or weight is null is dropped before windowing,
    as the batch path drops it, and counted in ``null_dropped`` (not
    late); the passthrough keeps it.  One batch of two such rows and one
    of three rows summing to 5.0, all in one window and one session,
    close as 3 rows with mean 5/3."""
    fix = tmp_path / "fix"
    os.makedirs(fix / "arrival=0")
    one = lambda w: {"one": pa.array(w, pa.int32())}  # noqa: E731
    pq.write_table(_token_rows([0, 1], [None, 7], **one([1, None])),
                   fix / "arrival=0" / "part-0.parquet")
    pq.write_table(_token_rows([228, 229, 456], [1, 2, 2], **one([1, 1, 1])),
                   fix / "arrival=0" / "part-1.parquet")
    out = tmp_path / "out"
    cfg = make_cfg(specs={"mean": "weighted_average", "skew": "skewness"},
                   weight_col="one", n_partitions=2, session_gap_s=session_gap_s)
    drv = StreamDriver(str(fix), str(out), cfg)
    m = drv.run()
    res = drv.result_table().to_pandas()
    assert res["n_rows"].tolist() == [3]
    assert res["mean"].tolist() == [5 / 3]
    assert (m["epochs"]["0"]["null_dropped"], m["epochs"]["0"]["late_dropped"]) == (2, 0)
    got = pq.read_table(sorted(glob.glob(str(out / "passthrough" / "epoch=*" / "*.parquet"))))
    assert got.num_rows == 5


def _two_source_stream(root) -> str:
    """Arrival epoch 0: one zero-row file; epoch 1: source ``a`` with 2
    rows and ``b`` with 3, every row in one window and one session."""
    fix = root / "fix"
    for e in range(2):
        os.makedirs(fix / f"arrival={e}")
    rows = _token_rows([0, 1, 228, 229, 456], [3, 5, 1, 2, 4],
                       source=pa.array(["a", "a", "b", "b", "b"]))
    pq.write_table(rows.slice(0, 0), fix / "arrival=0" / "part-0.parquet")
    pq.write_table(rows, fix / "arrival=1" / "part-0.parquet")
    return str(fix)


@pytest.mark.parametrize("session_gap_s", [None, 3600], ids=["window", "session"])
def test_every_sink_epoch_has_one_schema(ray_session, tmp_path, session_gap_s):
    """Every committed ``agg`` and ``changes`` epoch has the same Arrow
    schema, the epochs that close nothing (or have no open group) too:
    epoch 0 has no rows, epoch 1 closes nothing, the end-of-stream
    close commits both sources."""
    drv = StreamDriver(_two_source_stream(tmp_path), str(tmp_path / "out"),
                       make_cfg(passthrough=False, emit_changes=True, n_partitions=2,
                                session_gap_s=session_gap_s),
                       metadata=metadata_rows(N_EPOCHS))
    drv.run()
    for sink, rows in ((drv.sink, [0, 0, 2]), (drv.changes_sink, [0, 2])):
        tables = [pq.read_table(p) for p in sink.committed_paths()]
        assert [t.num_rows for t in tables] == rows
        schemas = {t.schema.remove_metadata() for t in tables}
        assert len(schemas) == 1, schemas
        (schema,) = schemas
        assert schema.field("window_start").type == pa.int64()
        assert schema.field("wavg").type == pa.float64()
        assert schema.field("n_rows").type == pa.int64()
        assert schema.field("epoch").type == pa.int64()
    assert drv.result_table().schema.field("quality").type == pa.float64()


def test_undefined_sample_skewness_is_null(ray_session, tmp_path):
    """A sample skewness over 2 rows is undefined: the batch path
    (``grouped_moments``) and a ``StreamDriver`` window both give null,
    not NaN; over 3 rows both give the same value."""
    import ray
    import ray.data as rd

    from raystat.aggregate import grouped_moments

    fix = _two_source_stream(tmp_path)
    drv = StreamDriver(fix, str(tmp_path / "out"),
                       make_cfg(passthrough=False, n_partitions=2, weight_col=None,
                                specs={"skew": "skewness_sample"}))
    drv.run()
    stream = drv.result_table().sort_by("source")
    rows = pq.read_table(glob.glob(os.path.join(fix, "arrival=1", "*.parquet")))
    batch = grouped_moments(rd.from_arrow(rows), {"skew": "skewness_sample"}, ["source"],
                            value="n_tok")
    batch = pa.concat_tables(ray.get(batch.to_arrow_refs())).sort_by("source")
    for got in (stream, batch):
        assert got["source"].to_pylist() == ["a", "b"]
        assert got["skew"].is_null().to_pylist() == [True, False]
    assert stream["skew"][1].as_py() == pytest.approx(batch["skew"][1].as_py(), rel=1e-12)


def _closed_rows(sources, starts) -> pa.Table:
    """Closed-window rows as the moment close hands them to the join."""
    return pa.table({"source": pa.array(sources, pa.string()),
                     "window_start": pa.array(starts, pa.int64()),
                     "skew": pa.array([0.5, None, 1.5][:len(sources)], pa.float64()),
                     "n_rows": pa.array(np.arange(len(sources)) + 3, pa.int64())})


def test_metadata_join_grace_expiry_and_end_flush():
    """``MetadataJoin`` on its own, grace 1: a row joins when its
    metadata arrives within grace, a row whose deadline passes is
    emitted with null ``quality``, and the end-of-stream close
    (``flush``) emits every pending row; the counters add up and
    ``buffered`` ends at 0."""
    from raystat.streaming.join import MetadataJoin

    j = MetadataJoin(grace_epochs=1)
    j.update(["a"], [0.25])
    out = j.process(_closed_rows(["a", "b", "c"], [0, 0, 0]), 0)
    assert out["source"].to_pylist() == ["a"] and out["quality"].to_pylist() == [0.25]
    assert j.metrics == {"joined": 1, "buffered": 2, "expired_null": 0}
    j.update(["b"], [0.75])  # within grace for b; c's deadline passes
    out = j.process(_closed_rows(["d"], [3600]), 1)
    assert out.column_names == ["source", "window_start", "skew", "n_rows", "quality"]
    assert out.to_pydict() == {"source": ["b", "c"], "window_start": [0, 0],
                               "skew": [None, 1.5], "n_rows": [4, 5],
                               "quality": [0.75, None]}
    assert j.metrics == {"joined": 2, "buffered": 1, "expired_null": 1}
    out = j.process(_closed_rows([], []), 2, flush=True)
    assert out["source"].to_pylist() == ["d"] and out["quality"].is_null().to_pylist() == [True]
    assert j.metrics == {"joined": 2, "buffered": 0, "expired_null": 2}
    assert j.process(_closed_rows([], []), 3, flush=True).num_rows == 0


def test_metadata_join_state_keeps_pending_types():
    """Pending rows survive ``to_state`` / ``from_state`` (through JSON,
    as ``driver.json`` holds them) with their types and nulls, and the
    restored join emits what the original does."""
    from raystat.streaming.join import MetadataJoin

    j = MetadataJoin(grace_epochs=2)
    j.update(["z"], [0.5])
    j.process(_closed_rows(["a", "b"], [0, 3600]), 0)
    restored = MetadataJoin.from_state(json.loads(json.dumps(j.to_state())))
    assert restored.pending.equals(j.pending)
    assert restored.pending.schema == j.pending.schema
    assert restored.metrics == j.metrics and restored.meta == j.meta
    for k in (j, restored):
        k.update(["b"], [0.125])
    assert restored.process(_closed_rows([], []), 1).equals(j.process(_closed_rows([], []), 1))
    assert MetadataJoin.from_state(json.loads(json.dumps(MetadataJoin(3).to_state()))).pending is None
