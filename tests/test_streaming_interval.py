"""Streaming interval join: equality with the batch kernel over the
full input (late arrivals inside lateness), bounded right-side state,
and crash/resume exactly-once."""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raystat.dataops.interval_join import interval_join_frames
from raystat.streaming.interval import (
    IntervalJoinConfig,
    IntervalStreamDriver,
    events_interval_fixture,
)

SF = "/root/testdata/sf0.001"
# One arrival epoch covers ~176h of event time and the deterministic
# late subset arrives exactly one epoch behind, so 200h of allowed
# lateness keeps every row live (zero drops) while still letting the
# watermark advance enough for pairs to emit progressively.
LATENESS = 200 * 3600


def _cfg(**kw):
    base = dict(
        by="user_id", on="ts_us",
        right_cols=("touch_id", "touch_ts_us"),
        before_s=7200, after_s=0,
        allowed_lateness_s=LATENESS, n_partitions=4,
    )
    base.update(kw)
    return IntervalJoinConfig(**base)


def _batch_expected(fix: str, cfg: IntervalJoinConfig) -> pd.DataFrame:
    """The batch kernel over ALL fixture rows at once."""
    files = []
    for d in sorted(os.listdir(fix)):
        if d.startswith("arrival="):
            p = os.path.join(fix, d)
            files += [os.path.join(p, f) for f in sorted(os.listdir(p))]
    df = pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()
    return interval_join_frames(
        df, by=cfg.by, on=cfg.on, right_cols=list(cfg.right_cols),
        before=cfg.before_us, after=cfg.after_us,
    )


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(
        ["purchase_id", "touch_id"], ignore_index=True
    )[["purchase_id", "touch_id", "user_id", "ts_us", "touch_ts_us"]].astype("int64")


def test_streaming_equals_batch(ray_session):
    fix = events_interval_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_ivj_")
    try:
        cfg = _cfg()
        drv = IntervalStreamDriver(fix, out, cfg)
        m = drv.run()
        got = drv.result_table().to_pandas()
        exp = _batch_expected(fix, cfg)
        assert len(got) == len(exp) > 0
        pd.testing.assert_frame_equal(_norm(got), _norm(exp))
        # zero late drops at this lateness
        assert sum(e["late_dropped"] for k, e in m["epochs"].items() if k != "final") == 0
        # pairs arrive across multiple epochs, not all in the tail flush
        per_epoch = [
            pq.read_table(p).num_rows
            for p in drv.sink.committed_paths()
        ]
        assert sum(1 for n in per_epoch if n > 0) >= 2
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_right_state_retires(ray_session):
    """Buffered right rows stay bounded by the WITHIN horizon — the
    driver never accumulates the whole right stream."""
    fix = events_interval_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_ivj_")
    try:
        # small lateness: watermark tracks the head closely, so rights
        # behind (before + lateness) of the head must retire
        cfg = _cfg(allowed_lateness_s=7200)
        drv = IntervalStreamDriver(fix, out, cfg)
        m = drv.run()
        stats = m["epochs"]["final"]["state_metrics"]
        assert sum(s["right_retired"] for s in stats) > 0
        total_right_in = sum(s["partial_rows_in"] for s in stats)
        peak_buffered = sum(s["right_buffered"] for s in stats)
        assert peak_buffered < total_right_in
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_crash_resume_exactly_once(ray_session):
    fix = events_interval_fixture(SF, n_epochs=4)
    out1 = tempfile.mkdtemp(prefix="rs_ivj_")
    out2 = tempfile.mkdtemp(prefix="rs_ivj_")
    try:
        cfg = _cfg()
        ref = IntervalStreamDriver(fix, out1, cfg)
        ref.run()
        expected = _norm(ref.result_table().to_pandas())

        # crash after epoch 1, then resume with a FRESH driver
        d1 = IntervalStreamDriver(fix, out2, cfg)
        d1.run(stop_after_epoch=1)
        d2 = IntervalStreamDriver(fix, out2, cfg)
        d2.run(resume=True)
        got = _norm(d2.result_table().to_pandas())
        pd.testing.assert_frame_equal(got, expected)
    finally:
        shutil.rmtree(out1, ignore_errors=True)
        shutil.rmtree(out2, ignore_errors=True)


def test_late_row_within_lateness_still_pairs(ray_session):
    """A right row arriving an epoch late (but inside lateness) still
    pairs with its left row: the fixture's event_id%20 late subset is
    covered by the batch-equality test; here a hand-built stream pins
    the mechanism."""
    root = tempfile.mkdtemp(prefix="rs_ivj_fix_")
    out = tempfile.mkdtemp(prefix="rs_ivj_")
    try:
        H = 3_600_000_000  # 1h in us
        def row(uid, ts, side, pid, tid):
            return {
                "user_id": uid, "ts_us": ts, "_side": side,
                "purchase_id": pid, "touch_id": tid,
                "touch_ts_us": ts if side == 0 else -1,
            }
        # epoch 0: the touch's LEFT partner... purchase at 10h
        e0 = [row(1, 10 * H, 1, 100, -1), row(2, 11 * H, 0, -1, 201)]
        # epoch 1: a touch EARLIER than the purchase (late arrival)
        e1 = [row(1, 9 * H, 0, -1, 200), row(2, 12 * H, 1, 101, -1)]
        for e, rows in enumerate([e0, e1]):
            d = os.path.join(root, f"arrival={e}")
            os.makedirs(d)
            pq.write_table(
                pa.Table.from_pylist(rows), os.path.join(d, "part-0.parquet")
            )
        cfg = _cfg(before_s=7200, after_s=0, allowed_lateness_s=10 * 3600,
                   n_partitions=2)
        drv = IntervalStreamDriver(root, out, cfg)
        drv.run()
        got = drv.result_table().to_pandas()
        pairs = set(zip(got["purchase_id"], got["touch_id"]))
        assert pairs == {(100, 200), (101, 201)}
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
