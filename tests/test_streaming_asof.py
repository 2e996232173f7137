"""Streaming temporal (as-of) join: watermark-final matches equal the
batch ASOF LEFT JOIN, dominated rights are pruned without changing any
match, late-but-admissible rights still win, and crash/resume
reproduces the uninterrupted run exactly-once."""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from raystat.streaming.asof import (
    AsofJoinConfig,
    AsofStreamDriver,
    events_asof_fixture,
)

SF = "/root/testdata/sf0.001"
BIG_LATENESS = 200 * 3600


def _stream_fixture(rows_per_epoch) -> str:
    """rows_per_epoch[e] = [(user_id, ts_us, side, event_id, value, pv)]."""
    root = tempfile.mkdtemp(prefix="rs_sasof_fix_")
    for e, rows in enumerate(rows_per_epoch):
        d = os.path.join(root, f"arrival={e}")
        os.makedirs(d)
        pq.write_table(
            pa.table(
                {
                    "user_id": pa.array([r[0] for r in rows], pa.int64()),
                    "ts_us": pa.array([r[1] for r in rows], pa.int64()),
                    "_side": pa.array([r[2] for r in rows], pa.int8()),
                    "event_id": pa.array([r[3] for r in rows], pa.int64()),
                    "value": pa.array([r[4] for r in rows], pa.float64()),
                    "pv": pa.array([r[5] for r in rows], pa.float64()),
                }
            ),
            os.path.join(d, "part-0.parquet"),
        )
    return root


def _run(fix: str, lateness_s: int = BIG_LATENESS, n_partitions: int = 4):
    out = tempfile.mkdtemp(prefix="rs_sasof_out_")
    try:
        cfg = AsofJoinConfig(
            allowed_lateness_s=lateness_s, n_partitions=n_partitions
        )
        drv = AsofStreamDriver(fix, out, cfg).prepare()
        m = drv.run()
        res = drv.result_table().to_pandas().sort_values(
            "event_id", ignore_index=True
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return res, m


def _batch_oracle(sf_dir: str) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{sf_dir}/events.parquet')"
    )
    return con.sql(
        """WITH l AS (SELECT event_id, user_id, value FROM events
                      WHERE event_type IN ('click','view')),
             r AS (SELECT user_id, ts, value AS pv FROM events
                   WHERE event_type = 'purchase'),
             le AS (SELECT event_id, user_id, ts, value FROM events
                    WHERE event_type IN ('click','view'))
           SELECT le.event_id, coalesce(r.pv, -1.0) AS purchase_value
           FROM le ASOF LEFT JOIN r
             ON le.user_id = r.user_id AND le.ts >= r.ts
           ORDER BY event_id"""
    ).df()


def test_streamed_matches_equal_batch_asof(ray_session):
    fix = events_asof_fixture(SF, n_epochs=4)
    res, m = _run(fix)
    want = _batch_oracle(SF)
    assert len(res) == len(want)
    got_pv = res["pv"].fillna(-1.0).to_numpy()
    np.testing.assert_allclose(got_pv, want["purchase_value"].to_numpy())
    # dominated-right pruning actually fired (bounded state, not history)
    sm = m["final"]["state_metrics"]
    assert sum(p["right_retired"] for p in sm) > 0


def test_late_admissible_right_still_wins(ray_session):
    """A right row arriving one epoch late (but >= the watermark in
    force) must still beat an older right for lefts emitted later."""
    s = 1_000_000
    rows = [
        [(7, 10 * s, 0, -1, np.nan, 1.0)],                  # old purchase
        [(7, 100 * s, 0, -1, np.nan, 2.0),                   # newer purchase
         (7, 150 * s, 1, 500, 9.0, np.nan)],                 # left
        [(7, 200 * s, 1, 501, 9.5, np.nan)],                 # later left
    ]
    fix = _stream_fixture(rows)
    try:
        res, _ = _run(fix, lateness_s=1_000_000)
        got = dict(zip(res["event_id"], res["pv"]))
        assert got[500] == 2.0 and got[501] == 2.0
    finally:
        shutil.rmtree(fix, ignore_errors=True)


def test_left_without_match_emits_null(ray_session):
    s = 1_000_000
    rows = [
        [(1, 50 * s, 1, 600, 3.0, np.nan)],   # left, user 1: no purchase
        [(2, 60 * s, 0, -1, np.nan, 4.0)],    # purchase for OTHER user
        [(1, 70 * s, 1, 601, 3.5, np.nan)],
    ]
    fix = _stream_fixture(rows)
    try:
        res, _ = _run(fix, lateness_s=1_000_000)
        assert sorted(res["event_id"]) == [600, 601]
        assert res["pv"].isna().all()
    finally:
        shutil.rmtree(fix, ignore_errors=True)


def test_crash_resume_equals_uninterrupted(ray_session):
    fix = events_asof_fixture(SF, n_epochs=4)
    out_a = tempfile.mkdtemp(prefix="rs_sasof_a_")
    out_b = tempfile.mkdtemp(prefix="rs_sasof_b_")
    cfg = lambda: AsofJoinConfig(  # noqa: E731
        allowed_lateness_s=BIG_LATENESS, n_partitions=4
    )
    try:
        full = AsofStreamDriver(fix, out_a, cfg()).prepare()
        full.run()
        want = full.result_table().to_pandas().sort_values(
            ["event_id"], ignore_index=True
        )
        d1 = AsofStreamDriver(fix, out_b, cfg()).prepare()
        d1.run(stop_after_epoch=1)
        d2 = AsofStreamDriver(fix, out_b, cfg())
        d2.run(resume=True)
        got = d2.result_table().to_pandas().sort_values(
            ["event_id"], ignore_index=True
        )
        pd.testing.assert_frame_equal(got, want)
    finally:
        shutil.rmtree(out_a, ignore_errors=True)
        shutil.rmtree(out_b, ignore_errors=True)


def test_state_bound_latest_per_key_only(ray_session):
    """After the stream drains, at most ONE right per key remains
    at-or-below the final pre-flush watermark."""
    s = 1_000_000
    # 10 purchases for one user across epochs, lefts trailing
    rows = [
        [(3, (10 + i) * s, 0, -1, np.nan, float(i)) for i in range(5)],
        [(3, (20 + i) * s, 0, -1, np.nan, float(5 + i)) for i in range(5)],
        [(3, 100 * s, 1, 700, 1.0, np.nan)],
        [(3, 200 * s, 1, 701, 2.0, np.nan)],
    ]
    fix = _stream_fixture(rows)
    try:
        res, m = _run(fix, lateness_s=1_000_000)
        got = dict(zip(res["event_id"], res["pv"]))
        assert got[700] == 9.0 and got[701] == 9.0  # latest purchase wins
        sm = m["final"]["state_metrics"]
        assert sum(p["right_retired"] for p in sm) == 9  # all but the latest
    finally:
        shutil.rmtree(fix, ignore_errors=True)
