"""Streaming windowed sketches: streamed HLL registers equal the batch
registers over the same rows (max-merge order independence), ingest
idempotence (replay safety), late-drop behaviour, crash/resume
exactly-once, and the one ``KeyedPartition`` class's column checks and
snapshot/restore for every kind and span: the sketches, the moments,
CEP, dedup and the two joins."""

from __future__ import annotations

import glob
import os
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from raystat.dataops.sketches import _M, _rho_and_idx, hll_estimate
from raystat.fixtures import epoch_len_us, write_stream_fixture
from raystat.streaming import (
    AsofJoinConfig,
    AsofStreamDriver,
    CepStreamDriver,
    DedupStreamDriver,
    IntervalJoinConfig,
    IntervalStreamDriver,
    StreamConfig,
    StreamDriver,
)
from raystat.streaming.asof import events_asof_fixture
from raystat.streaming.dedup import docs_stream_fixture
from raystat.streaming.epochs import END
from raystat.streaming.interval import events_interval_fixture
from raystat.streaming.sketch import (
    BottomKStreamDriver,
    CmsStreamDriver,
    HllStreamDriver,
    KllStreamDriver,
    MgStreamDriver,
    events_stream_fixture,
)
from raystat.streaming.state import KeyedPartition, PartitionHost, partial_row

SF = "/root/testdata/sf0.001"
TOKENS = "/tmp/raystat_fixtures/stream_pytest"  # the token stream of test_streaming
WEEK = 7 * 86400
LATENESS = 200 * 3600  # > the fixture's one-epoch arrival lag: zero drops


def _expected(fix: str, size_s: int) -> pd.DataFrame:
    """Direct register computation per (key, window) over ALL rows."""
    fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
    df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
    df["w"] = (df["ts_us"] // 1_000_000 // size_s) * size_s
    rows = []
    for (k, w), g in df.groupby(["event_type", "w"]):
        regs = np.zeros(_M, dtype=np.uint8)
        idx, rho = _rho_and_idx(g["user_id"].to_numpy())
        np.maximum.at(regs, idx, rho)
        rows.append(
            {"key": k, "window_start_s": int(w),
             "approx_distinct": hll_estimate(regs)}
        )
    return pd.DataFrame(rows).sort_values(
        ["key", "window_start_s"], ignore_index=True
    )


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["key", "window_start_s"], ignore_index=True)[
        ["key", "window_start_s", "approx_distinct"]
    ]


def test_streamed_equals_batch_registers(ray_session):
    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_hll_")
    try:
        drv = HllStreamDriver(
            fix, out, window_size_s=WEEK, allowed_lateness_s=LATENESS,
            n_partitions=4,
        )
        m = drv.run()
        got = _norm(drv.result_table().to_pandas())
        exp = _norm(_expected(fix, WEEK))
        pd.testing.assert_frame_equal(got, exp)
        assert sum(e["late_dropped"] for k, e in m["epochs"].items() if k != "final") == 0
        # windows close progressively, not only at the tail flush
        nonempty = sum(
            1 for p in drv.sink.committed_paths()
            if pq.read_metadata(p).num_rows > 0
        )
        assert nonempty >= 2
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _bottomk_pairs(items: np.ndarray):
    from raystat.dataops.pairs import splitmix64

    hv = splitmix64(items.astype(np.uint64))
    order = np.lexsort((items, hv))
    return hv[order], items[order]


def _idempotence_partial(kind: str, session: bool) -> pa.Table:
    us = 1_000_000
    groups = (
        {"key": pa.array(["a", "a"]),
         "session_start_us": pa.array([1000 * us, 1100 * us], pa.int64()),
         "session_end_us": pa.array([1050 * us, 1200 * us], pa.int64())}
        if session else
        {"key": pa.array(["a", "b"]), "window_start_s": pa.array([0, 0], pa.int64())}
    )
    items = [np.arange(1000), np.arange(500, 1700)]
    if kind == "hll":
        blobs = []
        for it in items:
            idx, rho = _rho_and_idx(it)
            regs = np.zeros(_M, dtype=np.uint8)
            np.maximum.at(regs, idx, rho)
            blobs.append(regs.tobytes())
        return pa.table({**groups, "regs": pa.array(blobs, pa.binary())})
    pairs = [_bottomk_pairs(it.astype(np.int64)) for it in items]
    if session:  # one packed blob per fragment: 3 hashes, then 3 items
        blobs = [np.concatenate([hv[:3], it[:3].view(np.uint64)]).tobytes()
                 for hv, it in pairs]
        return pa.table({**groups, "bk": pa.array(blobs, pa.binary())})
    rep = [3, 3]
    return pa.table({
        **{c: pa.array(np.repeat(col.to_numpy(zero_copy_only=False), rep))
           for c, col in groups.items()},
        "item": pa.array(np.concatenate([it[:3] for _, it in pairs])),
        "hv": pa.array(np.concatenate([hv[:3] for hv, _ in pairs]), pa.uint64()),
    })


@pytest.mark.parametrize(
    "kind, session",
    [("hll", False), ("hll", True), ("bottomk", False), ("bottomk", True)],
    ids=["hll-window", "hll-session", "bottomk-window", "bottomk-session"],
)
def test_ingest_idempotence(ray_session, kind, session):
    """HLL max-merge and the bottom-k min-union are idempotent:
    replaying the SAME partial changes nothing — the property that
    makes epoch replay safe without de-duplication bookkeeping."""
    partial = _idempotence_partial(kind, session)
    args = (3,) if kind == "bottomk" else ()
    outs = []
    for times in (1, 3):
        kind_cls = {"hll": HllStreamDriver, "bottomk": BottomKStreamDriver}[kind].kind
        state = KeyedPartition(0, kind_cls, 3600, session, *args)
        for _ in range(times):
            state.ingest(partial)
        outs.append(state.close(END).to_pandas())
    assert len(outs[0]) == (1 if session else 2) * (1 if kind == "hll" else 3)
    pd.testing.assert_frame_equal(outs[0], outs[1])


# Every (kind, span) SketchPartition runs, with the driver arguments
# that put MG in its lossy regime and give CMS probe rows.
_KIND_SPANS = [
    (cls, span, kw)
    for cls, kw in [
        (HllStreamDriver, {}), (KllStreamDriver, {"k": 16}),
        (MgStreamDriver, {"capacity": 4, "top": 3}),
        (CmsStreamDriver, {"probe_mod": 3}), (BottomKStreamDriver, {"k": 3}),
    ]
    for span in ("window", "session")
    if not (cls is CmsStreamDriver and span == "session")
]
_KIND_IDS = [f"{c.kind.__name__[1:].lower()}-{s}" for c, s, _ in _KIND_SPANS]
# the moment kind of StreamDriver runs in the same partition class, and
# so do the retaining kinds: CEP, dedup and the two joins
_RETAINING = [(CepStreamDriver, None, {}), (DedupStreamDriver, None, {}),
              (IntervalStreamDriver, None, {}), (AsofStreamDriver, None, {})]
_RETAINING_IDS = ["cep", "dedup", "interval", "asof"]
_STATE_SPANS = (_KIND_SPANS + [(StreamDriver, span, {}) for span in ("window", "session")]
                + _RETAINING)
_STATE_IDS = _KIND_IDS + ["moments-window", "moments-session"] + _RETAINING_IDS


def _kind_driver(cls, span: str, kw: dict, out: str, n_partitions: int = 2):
    if cls is StreamDriver:
        write_stream_fixture(TOKENS, n_rows=8000, n_epochs=4)
        cfg = StreamConfig(window_size_s=3600, allowed_lateness_s=epoch_len_us(4) // 1_000_000,
                           session_gap_s=1800 if span == "session" else None,
                           n_partitions=n_partitions, passthrough=False)
        return StreamDriver(TOKENS, out, cfg)
    if cls is CepStreamDriver:
        return cls(events_stream_fixture(SF, n_epochs=4), out, key="user_id",
                   type_col="event_type", stages=["view", "click", "purchase"],
                   within_us=2 * 86400 * 1_000_000, allowed_lateness_s=LATENESS,
                   n_partitions=n_partitions)
    if cls is DedupStreamDriver:
        return cls(docs_stream_fixture(SF, n_epochs=4), out, n_partitions=n_partitions)
    if cls is IntervalStreamDriver:
        return cls(events_interval_fixture(SF, n_epochs=4), out,
                   IntervalJoinConfig(allowed_lateness_s=LATENESS, n_partitions=n_partitions))
    if cls is AsofStreamDriver:
        return cls(events_asof_fixture(SF, n_epochs=4), out,
                   AsofJoinConfig(allowed_lateness_s=LATENESS, n_partitions=n_partitions))
    span_kw = {"session_gap_s": GAP_S} if span == "session" else {"window_size_s": WEEK}
    return cls(events_stream_fixture(SF, n_epochs=4), out, allowed_lateness_s=LATENESS,
               n_partitions=n_partitions, **span_kw, **kw)


# a retaining kind's partial with one of its wire columns missing
_BAD_RETAINING = {
    CepStreamDriver: {"key": pa.array([1]), "ts_us": pa.array([0])},
    DedupStreamDriver: {"content_hash": pa.array([1])},
    IntervalStreamDriver: {"user_id": pa.array([1]), "ts_us": pa.array([0])},
    AsofStreamDriver: {"user_id": pa.array([1]), "_side": pa.array([0], pa.int8())},
}


@pytest.mark.parametrize("cls, span, kw", _KIND_SPANS + _RETAINING,
                         ids=_KIND_IDS + _RETAINING_IDS)
def test_malformed_partial_fails_at_barrier(ray_session, cls, span, kw):
    """A partial that lacks its kind's wire columns raises from the
    driver's barrier (the partition checks them at ingest), not later
    at close or snapshot."""
    out = tempfile.mkdtemp(prefix="rs_sk_bad_")
    try:
        drv = _kind_driver(cls, span, kw, out).prepare()
        if cls in _BAD_RETAINING:
            bad = pa.table(_BAD_RETAINING[cls])
        else:
            groups = (["key", "session_start_us", "session_end_us"] if span == "session"
                      else ["key", "window_start_s"])
            bad = pa.table({c: pa.array(["a"]) if c == "key" else pa.array([0], pa.int64())
                            for c in groups})  # group columns, no payload
        book = partial_row(bad, [0], 0, max_ts_us=0, late_dropped=0, rows_in=1).to_pandas()
        with pytest.raises(Exception, match="lacks columns"):
            drv._ingest_barrier(book)
    finally:
        shutil.rmtree(out, ignore_errors=True)


@pytest.mark.parametrize("cls, span, kw", _STATE_SPANS, ids=_STATE_IDS)
def test_snapshot_restore_every_kind(ray_session, cls, span, kw):
    """Partials of two epochs, a snapshot, a restore into a fresh host:
    the restored partitions report the originals' counters, and closing
    everything on them gives the same tables as on the originals, from
    exactly one parquet file per partition, restored under another host
    count (the driver's two partitions on two hosts, restored into one
    host owning both); a directory without a partition's snapshot fails
    the restore.  Dedup's epochs stay unresolved until that close, so
    its snapshot holds pending rows."""
    out = tempfile.mkdtemp(prefix="rs_sk_snap_")
    try:
        drv = _kind_driver(cls, span, kw, out).prepare()
        assert len(drv.actors) == 2
        for e in (0, 1):
            book, _ = drv._stage(e, drv._router())
            drv._ingest_barrier(book)
            drv._call("get_metrics")  # consolidate
        ckpt = os.path.join(out, "ckpt")
        drv._call("snapshot", ckpt, 1)
        assert sorted(os.listdir(ckpt)) == ["state-p0000.parquet", "state-p0001.parquet"]
        fresh = PartitionHost.remote([0, 1], *drv._partition())
        with pytest.raises(Exception, match="state-p0000.parquet"):
            ray.get(fresh.call.remote("restore", out))  # no snapshot there
        ray.get(fresh.call.remote("restore", ckpt))
        metrics = drv._call("get_metrics")
        assert sum(m["partial_rows_in"] for m in metrics) > 0
        assert ray.get(fresh.call.remote("get_metrics")) == metrics
        want = drv._call("close", END)
        got = ray.get(fresh.call.remote("close", END))
        assert len(got) == 2 and sum(t.num_rows for t in want) > 0
        for w, g in zip(want, got):
            assert g.equals(w, check_metadata=True)
        if cls is MgStreamDriver:
            assert (pa.concat_tables(want).to_pandas()["mg_deficit"] > 0).any()
        for a in [fresh, *drv.actors]:
            ray.kill(a)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_late_rows_drop_when_window_closed(ray_session):
    """With tight lateness, rows for already-closed windows are
    dropped at the router and counted."""
    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_hll_")
    try:
        drv = HllStreamDriver(
            fix, out, window_size_s=3600, allowed_lateness_s=0, n_partitions=4
        )
        m = drv.run()
        late = sum(e["late_dropped"] for k, e in m["epochs"].items() if k != "final")
        assert late > 0
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_crash_resume_exactly_once(ray_session):
    fix = events_stream_fixture(SF, n_epochs=4)
    out1 = tempfile.mkdtemp(prefix="rs_hll_")
    out2 = tempfile.mkdtemp(prefix="rs_hll_")
    try:
        kw = dict(window_size_s=WEEK, allowed_lateness_s=LATENESS, n_partitions=4)
        ref = HllStreamDriver(fix, out1, **kw)
        ref.run()
        expected = _norm(ref.result_table().to_pandas())

        d1 = HllStreamDriver(fix, out2, **kw)
        d1.run(stop_after_epoch=1)
        d2 = HllStreamDriver(fix, out2, **kw)
        d2.run(resume=True)
        got = _norm(d2.result_table().to_pandas())
        pd.testing.assert_frame_equal(got, expected)
    finally:
        shutil.rmtree(out1, ignore_errors=True)
        shutil.rmtree(out2, ignore_errors=True)


# -- Misra-Gries heavy hitters ------------------------------------------------


def _mg_expected(fix: str, size_s: int, top: int) -> pd.DataFrame:
    fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
    df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
    df["w"] = (df["ts_us"] // 1_000_000 // size_s) * size_s
    c = (
        df.groupby(["event_type", "w", "user_id"])
        .size()
        .reset_index(name="n")
        .sort_values(
            ["event_type", "w", "n", "user_id"],
            ascending=[True, True, False, True],
            ignore_index=True,
        )
    )
    c["rank"] = c.groupby(["event_type", "w"]).cumcount() + 1
    c = c[c["rank"] <= top].reset_index(drop=True)
    return c.rename(columns={"w": "window_start_s", "user_id": "item"})


def test_mg_streaming_lossless_exact(ray_session):
    from raystat.streaming.sketch import MgStreamDriver

    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_mg_")
    try:
        drv = MgStreamDriver(
            fix, out, window_size_s=WEEK, allowed_lateness_s=LATENESS,
            capacity=8192, top=5, n_partitions=4,
        )
        m = drv.run()
        got = drv.result_table().to_pandas()
        assert (got["mg_deficit"] == 0).all()
        exp = _mg_expected(fix, WEEK, 5)
        cols = ["key", "window_start_s", "item", "n", "rank"]
        g = got.sort_values(["key", "window_start_s", "rank"], ignore_index=True)[cols]
        e = exp.rename(columns={"event_type": "key"}).sort_values(
            ["key", "window_start_s", "rank"], ignore_index=True
        )[cols].astype({c: "int64" for c in cols if c != "key"})
        pd.testing.assert_frame_equal(g, e.astype(g.dtypes.to_dict()))
        assert sum(s["prunes"] for s in m["epochs"]["final"]["state_metrics"]) == 0
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_mg_lossy_regime_bounds_and_heavy_item(ray_session):
    """Over-capacity stream: the MG reduction fires, the deficit is
    observable, and the dominant item still surfaces at rank 1 with an
    undercount within the n_total/capacity Misra-Gries bound."""
    from raystat.streaming.sketch import MgStreamDriver

    root = tempfile.mkdtemp(prefix="rs_mg_fix_")
    out = tempfile.mkdtemp(prefix="rs_mg_")
    try:
        rng = np.random.default_rng(7)
        n = 20_000
        # heavy item 0 (20% of traffic) + a long uniform tail
        items = np.where(
            rng.random(n) < 0.2, 0, rng.integers(1, 5_000, n)
        ).astype(np.int64)
        tbl = pa.table(
            {
                "event_type": pa.array(["a"] * n, pa.string()),
                "ts_us": pa.array(
                    np.full(n, 1_000_000_000_000, dtype=np.int64), pa.int64()
                ),
                "user_id": pa.array(items, pa.int64()),
            }
        )
        d = os.path.join(root, "arrival=0")
        os.makedirs(d)
        pq.write_table(tbl, os.path.join(d, "part-0.parquet"))

        cap = 64
        drv = MgStreamDriver(
            root, out, window_size_s=3600, allowed_lateness_s=0,
            capacity=cap, top=5, n_partitions=2,
        )
        drv.run()
        got = drv.result_table().to_pandas()
        assert len(got) and (got["mg_deficit"] > 0).all()
        top1 = got[got["rank"] == 1].iloc[0]
        true_heavy = int((items == 0).sum())
        assert top1["item"] == 0
        # MG guarantee: reported count under-counts by at most n/capacity
        assert true_heavy - cap >= 0  # sanity: the item is genuinely heavy
        assert 0 <= true_heavy - top1["n"] <= n / cap + 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)


def test_mg_crash_resume_exactly_once(ray_session):
    from raystat.streaming.sketch import MgStreamDriver

    fix = events_stream_fixture(SF, n_epochs=4)
    out1 = tempfile.mkdtemp(prefix="rs_mg_")
    out2 = tempfile.mkdtemp(prefix="rs_mg_")
    try:
        kw = dict(window_size_s=WEEK, allowed_lateness_s=LATENESS,
                  capacity=8192, top=5, n_partitions=4)
        ref = MgStreamDriver(fix, out1, **kw)
        ref.run()
        cols = ["key", "window_start_s", "item", "n", "rank"]
        expected = ref.result_table().to_pandas().sort_values(
            ["key", "window_start_s", "rank"], ignore_index=True
        )[cols]

        d1 = MgStreamDriver(fix, out2, **kw)
        d1.run(stop_after_epoch=1)
        d2 = MgStreamDriver(fix, out2, **kw)
        d2.run(resume=True)
        got = d2.result_table().to_pandas().sort_values(
            ["key", "window_start_s", "rank"], ignore_index=True
        )[cols]
        pd.testing.assert_frame_equal(got, expected)
    finally:
        shutil.rmtree(out1, ignore_errors=True)
        shutil.rmtree(out2, ignore_errors=True)


_SESS_GAP = 7200


def _mg_session_expected(fix: str, gap_s: int, top: int) -> pd.DataFrame:
    fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
    df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
    rows = []
    for k, g in df.groupby("event_type"):
        g = g.sort_values("ts_us", ignore_index=True)
        ts = g["ts_us"].to_numpy()
        brk = np.ones(len(g), dtype=bool)
        brk[1:] = (ts[1:] - ts[:-1]) > gap_s * 1_000_000
        sid = np.cumsum(brk) - 1
        for s, gg in g.groupby(sid):
            c = gg.groupby("user_id").size().reset_index(name="n")
            c = c.sort_values(
                ["n", "user_id"], ascending=[False, True], ignore_index=True
            ).head(top)
            for r_i, (u, n) in enumerate(zip(c["user_id"], c["n"]), 1):
                rows.append(
                    {"key": k,
                     "session_start_us": int(gg["ts_us"].min()),
                     "session_end_us": int(gg["ts_us"].max()),
                     "item": int(u), "n": int(n), "rank": r_i}
                )
    return pd.DataFrame(rows).sort_values(
        ["key", "session_start_us", "rank"], ignore_index=True
    )


def test_mg_session_lossless_exact(ray_session):
    """Session-window Misra-Gries at lossless capacity: gap-merged
    session boundaries AND per-session top-5 (counts, ranks) must
    equal batch sessionization exactly, with zero deficit."""
    from raystat.streaming.sketch import MgStreamDriver

    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_mgsess_")
    try:
        drv = MgStreamDriver(
            fix, out, session_gap_s=_SESS_GAP, allowed_lateness_s=LATENESS,
            capacity=8192, top=5, n_partitions=4,
        )
        drv.run()
        got = drv.result_table().to_pandas()
        assert (got["mg_deficit"] == 0).all()
        cols = ["key", "session_start_us", "session_end_us", "item", "n", "rank"]
        g = got.sort_values(
            ["key", "session_start_us", "rank"], ignore_index=True
        )[cols]
        e = _mg_session_expected(fix, _SESS_GAP, 5)[cols]
        pd.testing.assert_frame_equal(g, e.astype(g.dtypes.to_dict()))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_mg_session_lossy_deficit_observable(ray_session):
    """Over-capacity single session: the MG reduction fires inside
    SESSION state, the deficit is carried on the emitted rows, and the
    dominant item still ranks 1 within the n/capacity bound."""
    from raystat.streaming.sketch import MgStreamDriver

    root = tempfile.mkdtemp(prefix="rs_mgsess_fix_")
    out = tempfile.mkdtemp(prefix="rs_mgsess_")
    try:
        rng = np.random.default_rng(7)
        n = 20_000
        items = np.where(
            rng.random(n) < 0.2, 0, rng.integers(1, 5_000, n)
        ).astype(np.int64)
        tbl = pa.table(
            {
                "event_type": pa.array(["a"] * n, pa.string()),
                "ts_us": pa.array(
                    np.full(n, 1_000_000_000_000, dtype=np.int64), pa.int64()
                ),
                "user_id": pa.array(items, pa.int64()),
            }
        )
        d = os.path.join(root, "arrival=0")
        os.makedirs(d)
        pq.write_table(tbl, os.path.join(d, "part-0.parquet"))
        cap = 64
        drv = MgStreamDriver(
            root, out, session_gap_s=3600, allowed_lateness_s=0,
            capacity=cap, top=5, n_partitions=2,
        )
        drv.run()
        got = drv.result_table().to_pandas()
        assert len(got) and (got["mg_deficit"] > 0).all()
        top1 = got[got["rank"] == 1].iloc[0]
        true_heavy = int((items == 0).sum())
        assert top1["item"] == 0
        assert 0 <= true_heavy - top1["n"] <= n / cap + 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)


def test_mg_session_crash_resume_exactly_once(ray_session):
    from raystat.streaming.sketch import MgStreamDriver

    fix = events_stream_fixture(SF, n_epochs=4)
    out1 = tempfile.mkdtemp(prefix="rs_mgsess_")
    out2 = tempfile.mkdtemp(prefix="rs_mgsess_")
    try:
        kw = dict(session_gap_s=_SESS_GAP, allowed_lateness_s=LATENESS,
                  capacity=8192, top=5, n_partitions=4)
        cols = ["key", "session_start_us", "session_end_us", "item", "n", "rank"]
        ref = MgStreamDriver(fix, out1, **kw)
        ref.run()
        expected = ref.result_table().to_pandas().sort_values(
            ["key", "session_start_us", "rank"], ignore_index=True
        )[cols]
        d1 = MgStreamDriver(fix, out2, **kw)
        d1.run(stop_after_epoch=1)
        d2 = MgStreamDriver(fix, out2, **kw)
        d2.run(resume=True)
        got = d2.result_table().to_pandas().sort_values(
            ["key", "session_start_us", "rank"], ignore_index=True
        )[cols]
        pd.testing.assert_frame_equal(got, expected)
    finally:
        shutil.rmtree(out1, ignore_errors=True)
        shutil.rmtree(out2, ignore_errors=True)


def test_streamed_hopping_equals_batch_registers(ray_session):
    """HOPPING mode: every row feeds each of its size/hop covering
    windows; streamed registers equal direct per-window computation."""
    size_s, hop_s = 2 * 86400, 86400
    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_hllh_")
    try:
        drv = HllStreamDriver(
            fix, out, window_size_s=size_s, hop_s=hop_s,
            allowed_lateness_s=LATENESS, n_partitions=4,
        )
        drv.run()
        got = _norm(drv.result_table().to_pandas())

        fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
        df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
        ts_s = df["ts_us"] // 1_000_000
        rows = []
        for i in range(size_s // hop_s):
            d = df.copy()
            d["w"] = (ts_s // hop_s) * hop_s - i * hop_s
            rows.append(d)
        full = pd.concat(rows, ignore_index=True)
        exp_rows = []
        for (k, w), g in full.groupby(["event_type", "w"]):
            regs = np.zeros(_M, dtype=np.uint8)
            idx, rho = _rho_and_idx(g["user_id"].to_numpy())
            np.maximum.at(regs, idx, rho)
            exp_rows.append(
                {"key": k, "window_start_s": int(w),
                 "approx_distinct": hll_estimate(regs)}
            )
        exp = _norm(pd.DataFrame(exp_rows))
        pd.testing.assert_frame_equal(got, exp)
    finally:
        shutil.rmtree(out, ignore_errors=True)


# -- HLL session windows -------------------------------------------------------

GAP_S = 7200


def _sess_expected(fix: str, gap_s: int) -> pd.DataFrame:
    """Batch sessionization + per-session registers over ALL rows —
    the streamed result must match exactly (boundaries AND registers:
    max-merge makes the estimate order-independent)."""
    fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
    df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
    rows = []
    for k, g in df.groupby("event_type"):
        g = g.sort_values("ts_us", ignore_index=True)
        ts = g["ts_us"].to_numpy()
        brk = np.ones(len(g), dtype=bool)
        brk[1:] = (ts[1:] - ts[:-1]) > gap_s * 1_000_000
        sid = np.cumsum(brk) - 1
        for s, gg in g.groupby(sid):
            regs = np.zeros(_M, dtype=np.uint8)
            idx, rho = _rho_and_idx(gg["user_id"].to_numpy())
            np.maximum.at(regs, idx, rho)
            rows.append(
                {"key": k,
                 "session_start_us": int(gg["ts_us"].min()),
                 "session_end_us": int(gg["ts_us"].max()),
                 "approx_distinct": hll_estimate(regs)}
            )
    return pd.DataFrame(rows).sort_values(
        ["key", "session_start_us"], ignore_index=True
    )


def _sess_norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["key", "session_start_us"], ignore_index=True)[
        ["key", "session_start_us", "session_end_us", "approx_distinct"]
    ]


def test_session_streamed_equals_batch(ray_session):
    """Streamed session windows equal the batch sessionization exactly
    — boundaries, estimates, and session count — even though fragments
    of one session arrive across different epochs and must gap-merge
    in actor state (ksqlDB's SESSION merge contract, idempotent case)."""
    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_hllsess_")
    try:
        drv = HllStreamDriver(
            fix, out, session_gap_s=GAP_S,
            allowed_lateness_s=LATENESS, n_partitions=4,
        )
        m = drv.run()
        got = _sess_norm(drv.result_table().to_pandas())
        exp = _sess_expected(fix, GAP_S)
        pd.testing.assert_frame_equal(got, exp)
        assert len(got) > 5, "gap must split the fixture into many sessions"
        # fragments really did merge across epochs: more sessions were
        # opened than survive (strictly fewer final sessions than the
        # per-epoch fragment count)
        closed = sum(
            x["sessions_closed"] for x in m["epochs"]["final"]["state_metrics"]
        )
        assert closed == len(got)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_session_gap_merge_across_epochs(ray_session):
    """Two fragments of ONE session arriving in different epochs merge
    into a single session row (never two); a fragment beyond the gap
    opens a new session."""
    root = tempfile.mkdtemp(prefix="rs_hllsess_fix_")
    out = tempfile.mkdtemp(prefix="rs_hllsess_")
    us = 1_000_000
    try:
        epochs = [
            # epoch 0: key a rows at t=1000s, 2000s (one fragment)
            {"event_type": pa.array(["a", "a"]),
             "ts_us": pa.array([1000 * us, 2000 * us], pa.int64()),
             "user_id": pa.array([1, 2], pa.int64())},
            # epoch 1: t=2000s+gap (touches: extends), and t far away
            {"event_type": pa.array(["a", "a"]),
             "ts_us": pa.array(
                 [(2000 + GAP_S) * us, (2000 + 10 * GAP_S) * us], pa.int64()
             ),
             "user_id": pa.array([2, 3], pa.int64())},
        ]
        for e, cols in enumerate(epochs):
            d = os.path.join(root, f"arrival={e}")
            os.makedirs(d)
            pq.write_table(pa.table(cols), os.path.join(d, "part-0.parquet"))
        drv = HllStreamDriver(
            root, out, session_gap_s=GAP_S,
            allowed_lateness_s=100 * GAP_S, n_partitions=2,
        )
        drv.run()
        got = _sess_norm(drv.result_table().to_pandas())
        assert got["session_start_us"].tolist() == [
            1000 * us, (2000 + 10 * GAP_S) * us
        ]
        assert got["session_end_us"].tolist() == [
            (2000 + GAP_S) * us, (2000 + 10 * GAP_S) * us
        ]
        # merged session saw users {1, 2}; linear counting at n<<m is
        # near-exact (m*ln(m/zeros) ~ n + n^2/2m)
        assert np.allclose(got["approx_distinct"], [2.0, 1.0], rtol=1e-3)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)


def test_session_crash_resume_exactly_once(ray_session):
    fix = events_stream_fixture(SF, n_epochs=4)
    out1 = tempfile.mkdtemp(prefix="rs_hllsess_")
    out2 = tempfile.mkdtemp(prefix="rs_hllsess_")
    try:
        kw = dict(session_gap_s=GAP_S, allowed_lateness_s=LATENESS,
                  n_partitions=4)
        ref = HllStreamDriver(fix, out1, **kw)
        ref.run()
        expected = _sess_norm(ref.result_table().to_pandas())

        d1 = HllStreamDriver(fix, out2, **kw)
        d1.run(stop_after_epoch=1)
        d2 = HllStreamDriver(fix, out2, **kw)
        d2.run(resume=True)
        got = _sess_norm(d2.result_table().to_pandas())
        pd.testing.assert_frame_equal(got, expected)
    finally:
        shutil.rmtree(out1, ignore_errors=True)
        shutil.rmtree(out2, ignore_errors=True)


# -- Count-Min streaming state kind ------------------------------------------


def _cms_expected(fix: str, size_s: int, probe_mod: int) -> pd.DataFrame:
    """Exact probe counts per (key, window) over ALL fixture rows."""
    fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
    df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
    df = df[df["user_id"] % probe_mod == 0]
    df["w"] = (df["ts_us"] // 1_000_000 // size_s) * size_s
    out = (
        df.groupby(["event_type", "w", "user_id"])
        .size()
        .reset_index(name="n")
        .rename(columns={"event_type": "key", "w": "window_start_s",
                         "user_id": "item"})
    )
    return out.sort_values(
        ["key", "window_start_s", "item"], ignore_index=True
    ).astype({"window_start_s": np.int64, "item": np.int64, "n": np.int64})


def test_cms_streamed_counts_exact_and_gated(ray_session):
    """Streaming Count-Min: probe-item exact counts equal batch truth,
    the sketch estimate never under-counts, every row passes the
    over-count gate at test scale, and a re-run is deterministic."""
    from raystat.streaming.sketch import CmsStreamDriver

    fix = events_stream_fixture(SF, n_epochs=4)
    outs = []
    try:
        for _ in range(2):
            out = tempfile.mkdtemp(prefix="rs_cms_")
            outs.append(out)
            drv = CmsStreamDriver(
                fix, out, window_size_s=WEEK, allowed_lateness_s=LATENESS,
                probe_mod=3, n_partitions=4,
            )
            drv.run()
        a, b = (
            CmsStreamDriver(fix, o, window_size_s=WEEK).sink.read_all().to_pandas()
            for o in outs
        )
        a = a.sort_values(["key", "window_start_s", "item"], ignore_index=True)
        b = b.sort_values(["key", "window_start_s", "item"], ignore_index=True)
        pd.testing.assert_frame_equal(a, b)

        exp = _cms_expected(fix, WEEK, 3)
        got = a[["key", "window_start_s", "item", "n"]]
        pd.testing.assert_frame_equal(got, exp)
        assert (a["cms_est"] >= a["n"]).all()
        assert a["within_bound"].all()
    finally:
        for o in outs:
            shutil.rmtree(o, ignore_errors=True)


def test_cms_crash_resume_exactly_once(ray_session):
    from raystat.streaming.sketch import CmsStreamDriver

    fix = events_stream_fixture(SF, n_epochs=4)
    out1 = tempfile.mkdtemp(prefix="rs_cms_")
    out2 = tempfile.mkdtemp(prefix="rs_cms_")
    try:
        kw = dict(window_size_s=WEEK, allowed_lateness_s=LATENESS,
                  probe_mod=3, n_partitions=4)
        ref = CmsStreamDriver(fix, out1, **kw)
        ref.run()
        cols = ["key", "window_start_s", "item", "n", "cms_est", "within_bound"]
        expected = ref.result_table().to_pandas().sort_values(
            ["key", "window_start_s", "item"], ignore_index=True
        )[cols]

        d1 = CmsStreamDriver(fix, out2, **kw)
        d1.run(stop_after_epoch=1)
        d2 = CmsStreamDriver(fix, out2, **kw)
        d2.run(resume=True)
        got = d2.result_table().to_pandas().sort_values(
            ["key", "window_start_s", "item"], ignore_index=True
        )[cols]
        pd.testing.assert_frame_equal(got, expected)
    finally:
        shutil.rmtree(out1, ignore_errors=True)
        shutil.rmtree(out2, ignore_errors=True)


def test_cms_hopping_windows_cover_both(ray_session):
    """Hopping mode: each event feeds BOTH covering windows; probe
    counts per window equal the batch hopping expansion."""
    from raystat.streaming.sketch import CmsStreamDriver

    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_cms_hop_")
    try:
        size, hop = 2 * 86400, 86400
        drv = CmsStreamDriver(
            fix, out, window_size_s=size, hop_s=hop,
            allowed_lateness_s=LATENESS, probe_mod=3, n_partitions=4,
        )
        drv.run()
        got = drv.result_table().to_pandas().sort_values(
            ["key", "window_start_s", "item"], ignore_index=True
        )
        fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
        df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
        df = df[df["user_id"] % 3 == 0]
        ts_s = df["ts_us"] // 1_000_000
        rows = []
        for off in range(size // hop):
            w = ((ts_s - off * hop) // size) * size + off * hop
            d = df.assign(window_start_s=w)
            rows.append(d[w + size > ts_s])  # window covers the event
        exp = (
            pd.concat(rows)
            .groupby(["event_type", "window_start_s", "user_id"])
            .size()
            .reset_index(name="n")
            .rename(columns={"event_type": "key", "user_id": "item"})
            .sort_values(["key", "window_start_s", "item"], ignore_index=True)
            .astype({"window_start_s": np.int64, "item": np.int64,
                     "n": np.int64})
        )
        pd.testing.assert_frame_equal(
            got[["key", "window_start_s", "item", "n"]], exp
        )
        assert got["within_bound"].all()
    finally:
        shutil.rmtree(out, ignore_errors=True)


# -- Bottom-k streaming sample state kind ------------------------------------


def _bk_expected(fix: str, size_s: int, k: int) -> pd.DataFrame:
    """Exact batch bottom-k by splitmix64(user_id) per (key, window)."""
    from raystat.dataops.pairs import splitmix64

    fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
    df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
    df["w"] = (df["ts_us"] // 1_000_000 // size_s) * size_s
    df = df.drop_duplicates(["event_type", "w", "user_id"])
    hv = splitmix64(df["user_id"].to_numpy().astype(np.uint64))
    df = df.assign(hv=hv)
    rows = []
    for (kk, w), g in df.groupby(["event_type", "w"]):
        g = g.sort_values(["hv", "user_id"]).head(k)
        for r_i, u in enumerate(g["user_id"], 1):
            rows.append({"key": kk, "window_start_s": int(w),
                         "item": int(u), "rank": r_i})
    return pd.DataFrame(rows).sort_values(
        ["key", "window_start_s", "rank"], ignore_index=True
    ).astype({"window_start_s": np.int64, "item": np.int64,
              "rank": np.int64})


def test_bottomk_streamed_sample_equals_batch(ray_session):
    """Streaming bottom-k sample == the batch bottom-k over the same
    rows (idempotent min-union), and a re-run is identical."""
    from raystat.streaming.sketch import BottomKStreamDriver

    fix = events_stream_fixture(SF, n_epochs=4)
    outs = []
    try:
        for _ in range(2):
            out = tempfile.mkdtemp(prefix="rs_bk_")
            outs.append(out)
            BottomKStreamDriver(
                fix, out, window_size_s=WEEK, allowed_lateness_s=LATENESS,
                k=5, n_partitions=4,
            ).run()
        a, b = (
            BottomKStreamDriver(fix, o, window_size_s=WEEK)
            .sink.read_all().to_pandas()
            .sort_values(["key", "window_start_s", "rank"], ignore_index=True)
            for o in outs
        )
        pd.testing.assert_frame_equal(a, b)
        pd.testing.assert_frame_equal(a, _bk_expected(fix, WEEK, 5))
    finally:
        for o in outs:
            shutil.rmtree(o, ignore_errors=True)


def test_bottomk_crash_resume_exactly_once(ray_session):
    from raystat.streaming.sketch import BottomKStreamDriver

    fix = events_stream_fixture(SF, n_epochs=4)
    out1 = tempfile.mkdtemp(prefix="rs_bk_")
    out2 = tempfile.mkdtemp(prefix="rs_bk_")
    try:
        kw = dict(window_size_s=WEEK, allowed_lateness_s=LATENESS,
                  k=5, n_partitions=4)
        ref = BottomKStreamDriver(fix, out1, **kw)
        ref.run()
        cols = ["key", "window_start_s", "item", "rank"]
        expected = ref.result_table().to_pandas().sort_values(
            ["key", "window_start_s", "rank"], ignore_index=True
        )[cols]
        d1 = BottomKStreamDriver(fix, out2, **kw)
        d1.run(stop_after_epoch=1)
        d2 = BottomKStreamDriver(fix, out2, **kw)
        d2.run(resume=True)
        got = d2.result_table().to_pandas().sort_values(
            ["key", "window_start_s", "rank"], ignore_index=True
        )[cols]
        pd.testing.assert_frame_equal(got, expected)
    finally:
        shutil.rmtree(out1, ignore_errors=True)
        shutil.rmtree(out2, ignore_errors=True)


def test_bottomk_hopping_windows_cover_both(ray_session):
    """Hopping mode: each event's user feeds BOTH covering windows;
    per-window samples equal the batch bottom-k over the expanded
    incidence."""
    from raystat.dataops.pairs import splitmix64
    from raystat.streaming.sketch import BottomKStreamDriver

    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_bk_hop_")
    try:
        size, hop = 2 * 86400, 86400
        drv = BottomKStreamDriver(
            fix, out, window_size_s=size, hop_s=hop,
            allowed_lateness_s=LATENESS, k=5, n_partitions=4,
        )
        drv.run()
        got = drv.result_table().to_pandas().sort_values(
            ["key", "window_start_s", "rank"], ignore_index=True
        )
        fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
        df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
        ts_s = df["ts_us"] // 1_000_000
        parts = []
        for off in range(size // hop):
            w = ((ts_s - off * hop) // size) * size + off * hop
            d = df.assign(window_start_s=w)
            parts.append(d[w + size > ts_s])
        inc = (
            pd.concat(parts)
            .drop_duplicates(["event_type", "window_start_s", "user_id"])
        )
        hv = splitmix64(inc["user_id"].to_numpy().astype(np.uint64))
        inc = inc.assign(hv=hv)
        rows = []
        for (kk, w), g in inc.groupby(["event_type", "window_start_s"]):
            g = g.sort_values(["hv", "user_id"]).head(5)
            for r_i, u in enumerate(g["user_id"], 1):
                rows.append({"key": kk, "window_start_s": int(w),
                             "item": int(u), "rank": r_i})
        exp = pd.DataFrame(rows).sort_values(
            ["key", "window_start_s", "rank"], ignore_index=True
        ).astype({"window_start_s": np.int64, "item": np.int64,
                  "rank": np.int64})
        pd.testing.assert_frame_equal(
            got[["key", "window_start_s", "item", "rank"]], exp
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_bottomk_session_crash_resume_and_determinism(ray_session):
    """Session bottom-k: with several batches per epoch, a re-run
    commits byte-identical epochs, and crash/resume reproduces the
    reference run (idempotent min-union makes overlapping fragment
    merges safe)."""
    from raystat.streaming.sketch import BottomKStreamDriver
    from tests.util import manifest_digests

    fix = events_stream_fixture(SF, n_epochs=4)
    outs = []
    try:
        for _ in range(2):
            out = tempfile.mkdtemp(prefix="rs_bks_")
            outs.append(out)
            BottomKStreamDriver(
                fix, out, session_gap_s=_SESS_GAP,
                allowed_lateness_s=LATENESS, k=5, n_partitions=4, batch_size=48,
            ).run()
        digests = [manifest_digests(os.path.join(o, "bottomk")) for o in outs]
        assert digests[0] and digests[0] == digests[1]
        cols = ["key", "session_start_us", "session_end_us", "item", "rank"]
        a, b = (
            BottomKStreamDriver(fix, o, session_gap_s=_SESS_GAP)
            .sink.read_all().to_pandas()
            .sort_values(["key", "session_start_us", "rank"],
                         ignore_index=True)[cols]
            for o in outs
        )
        pd.testing.assert_frame_equal(a, b)

        out2 = tempfile.mkdtemp(prefix="rs_bks_")
        outs.append(out2)
        kw = dict(session_gap_s=_SESS_GAP, allowed_lateness_s=LATENESS,
                  k=5, n_partitions=4)
        d1 = BottomKStreamDriver(fix, out2, **kw)
        d1.run(stop_after_epoch=1)
        d2 = BottomKStreamDriver(fix, out2, **kw)
        d2.run(resume=True)
        got = d2.result_table().to_pandas().sort_values(
            ["key", "session_start_us", "rank"], ignore_index=True
        )[cols]
        pd.testing.assert_frame_equal(got, a)
    finally:
        for o in outs:
            shutil.rmtree(o, ignore_errors=True)


_ROUTER_KW = {"KllRouter": {"k": 8}, "CmsRouter": {"probe_mod": 1},
              "BottomKRouter": {"k": 4}, "KllSessionRouter": {"k": 8},
              "BottomKSessionRouter": {"k": 4}}


@pytest.mark.parametrize(
    "router",
    [
        "HllRouter", "KllRouter", "MgRouter", "CmsRouter", "BottomKRouter",
        "HllSessionRouter", "KllSessionRouter", "MgSessionRouter", "BottomKSessionRouter",
    ],
)
def test_all_late_batch_is_counted_not_routed(router):
    """A straggler batch whose every row is at or before the watermark
    yields no partial and counts each row as late, in the window and
    the session frame alike."""
    from raystat.streaming import sketch

    wm = 10**6  # s; every row sits at or before the watermark
    batch = pa.table({
        "k": pa.array(["a", "b", "a"], pa.string()),
        "v": pa.array([1, 2, 3], pa.int64()),
        "ts_us": pa.array([wm * 10**6 - 7200 * 10**6, wm * 10**6 - 5, wm * 10**6],
                          pa.int64()),
    })
    if "Session" in router:
        frame = dict(gap_s=60, watermark_s=wm)
    else:
        frame = dict(window_size_s=3600, hop_s=3600, watermark_s=wm + 3600)  # windows closed
    r = getattr(sketch, router)([], 2, "k", "v", "ts_us", **frame, **_ROUTER_KW.get(router, {}))
    book = r(batch).to_pylist()[0]
    assert book["late_dropped"] == batch.num_rows == book["rows_in"]
    assert book["partial_rows"] == 0 and book["partial"] == b""


def test_sketch_router_rejects_an_unknown_keyword():
    from raystat.streaming import sketch

    with pytest.raises(TypeError):
        sketch.KllRouter([], 1, "k", "v", "ts_us", window_size_s=3600, hop_s=3600,
                         watermark_s=0, kk=8)


@pytest.mark.parametrize(
    "router",
    [
        "HllRouter", "KllRouter", "MgRouter", "CmsRouter", "BottomKRouter",
        "BottomKSessionRouter",
    ],
)
def test_null_key_fails_loudly(router):
    """Every sketch router dictionary-encodes its key through one
    helper that rejects nulls by name (a null used to become a garbage
    int64 code and silently mis-group rows)."""
    from raystat.streaming import sketch

    batch = pa.table(
        {
            "k": pa.array(["a", None, "b", "a"], pa.string()),
            "v": pa.array([1, 2, 3, 4], pa.int64()),
            "ts_us": pa.array([10**12 + i for i in range(4)], pa.int64()),
        }
    )
    window = dict(window_size_s=3600, hop_s=3600, watermark_s=-(2**40))
    extra = {
        "HllRouter": {}, "KllRouter": {"k": 8}, "MgRouter": {},
        "CmsRouter": {"probe_mod": 1}, "BottomKRouter": {"k": 4},
    }
    if router == "BottomKSessionRouter":
        r = sketch.BottomKSessionRouter(
            [], 1, "k", "v", "ts_us", gap_s=60, watermark_s=-(2**40), k=4
        )
    else:
        r = getattr(sketch, router)([], 1, "k", "v", "ts_us", **window, **extra[router])
    with pytest.raises(ValueError, match="key column 'k' contains nulls"):
        r(batch)
