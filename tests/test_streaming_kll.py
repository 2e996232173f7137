"""Streaming windowed KLL quantiles: estimates land in exact rank
brackets, small windows are exact (no compaction), output is
deterministic across runs (canonical merge order), and crash/resume
reproduces the uninterrupted run exactly."""

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

from raystat.streaming.sketch import KllStreamDriver, events_stream_fixture
from tests.util import manifest_digests

SF = "/root/testdata/sf0.001"
WEEK = 7 * 86400
LATENESS = 200 * 3600


def _exact_windowed(fix: str, size_s: int, qs=(0.45, 0.5, 0.55, 0.85, 0.9, 0.95)):
    fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
    df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
    df["window_start_s"] = (df["ts_us"] // 1_000_000 // size_s) * size_s
    rows = []
    for (k, w), g in df.groupby(["event_type", "window_start_s"]):
        v = np.sort(g["value"].to_numpy().astype(np.float64))
        r = {"key": k, "window_start_s": int(w), "n": v.size}
        for q in qs:
            # quantile_disc / KLL selection rule: smallest value whose
            # cumulative count reaches ceil(q*n)
            i = max(int(np.ceil(q * v.size)) - 1, 0)
            r[f"q{int(q*100)}"] = v[i]
        rows.append(r)
    return pd.DataFrame(rows)


def _run(out: str, n_partitions: int = 4, batch_size: int | None = None) -> pd.DataFrame:
    fix = events_stream_fixture(SF, n_epochs=4)
    drv = KllStreamDriver(
        fix, out, key="event_type", value="value", ts_col="ts_us",
        window_size_s=WEEK, allowed_lateness_s=LATENESS,
        n_partitions=n_partitions, batch_size=batch_size,
    )
    drv.run()
    return drv.result_table().to_pandas().sort_values(
        ["key", "window_start_s"], ignore_index=True
    )


def test_estimates_in_exact_brackets(ray_session):
    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_kll_")
    try:
        got = _run(out)
        exact = _exact_windowed(fix, WEEK)
        m = pd.merge(exact, got, on=["key", "window_start_s"])
        assert len(m) == len(exact) == len(got)
        assert (m["n_x"] == m["n_y"]).all()
        assert ((m["p50"] >= m["q45"]) & (m["p50"] <= m["q55"])).all()
        assert ((m["p90"] >= m["q85"]) & (m["p90"] <= m["q95"])).all()
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_small_windows_exact(ray_session):
    """Below the compaction threshold the sketch holds every value, so
    the estimate IS the exact quantile_disc answer."""
    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_kll_")
    try:
        got = _run(out)
        exact = _exact_windowed(fix, WEEK)
        m = pd.merge(exact, got, on=["key", "window_start_s"])
        small = m[m["n_x"] < 130]  # base level cap: no compaction yet
        if len(small):
            np.testing.assert_array_equal(
                small["p50"].to_numpy(), small["q50"].to_numpy()
            )
            np.testing.assert_array_equal(
                small["p90"].to_numpy(), small["q90"].to_numpy()
            )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_deterministic_across_runs(ray_session):
    """Several batches per epoch (batch_size 48 on ~250-row epochs):
    the driver routes partials in batch-key order and the actors merge
    canonically, so two runs commit byte-identical epochs."""
    out_a = tempfile.mkdtemp(prefix="rs_kll_a_")
    out_b = tempfile.mkdtemp(prefix="rs_kll_b_")
    try:
        pd.testing.assert_frame_equal(_run(out_a, batch_size=48), _run(out_b, batch_size=48))
        digests = [manifest_digests(os.path.join(o, "quantiles")) for o in (out_a, out_b)]
        assert digests[0] and digests[0] == digests[1]
    finally:
        shutil.rmtree(out_a, ignore_errors=True)
        shutil.rmtree(out_b, ignore_errors=True)


GAP_S = 7200


def _exact_sessions(fix: str, gap_s: int = GAP_S):
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
            v = np.sort(gg["value"].to_numpy().astype(np.float64))
            r = {
                "key": k,
                "session_start_us": int(gg["ts_us"].min()),
                "session_end_us": int(gg["ts_us"].max()),
                "n": int(v.size),
            }
            for q in (0.45, 0.5, 0.55, 0.85, 0.9, 0.95):
                r[f"q{int(q*100)}"] = v[max(int(np.ceil(q * v.size)) - 1, 0)]
            rows.append(r)
    return pd.DataFrame(rows)


def _run_sessions(out: str, n_partitions: int = 4,
                  batch_size: int | None = None) -> pd.DataFrame:
    fix = events_stream_fixture(SF, n_epochs=4)
    drv = KllStreamDriver(
        fix, out, key="event_type", value="value", ts_col="ts_us",
        session_gap_s=GAP_S, allowed_lateness_s=LATENESS,
        n_partitions=n_partitions, batch_size=batch_size,
    )
    drv.run()
    return drv.result_table().to_pandas().sort_values(
        ["key", "session_start_us"], ignore_index=True
    )


def test_session_boundaries_and_brackets(ray_session):
    """Session-window KLL: gap-merged boundaries must EQUAL batch
    sessionization exactly (fragments merged across epoch and batch
    splits), row counts per session are exact, and the p50/p90
    estimates land in the exact rank brackets."""
    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_kllsess_")
    try:
        got = _run_sessions(out)
        exact = _exact_sessions(fix)
        m = pd.merge(
            exact, got, on=["key", "session_start_us", "session_end_us"]
        )
        assert len(m) == len(exact) == len(got)
        assert (m["n_x"] == m["n_y"]).all()
        assert ((m["p50"] >= m["q45"]) & (m["p50"] <= m["q55"])).all()
        assert ((m["p90"] >= m["q85"]) & (m["p90"] <= m["q95"])).all()
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_session_deterministic_across_runs(ray_session):
    """Canonical fragment merge order -> identical estimates and
    byte-identical epochs run to run, with several batches per epoch."""
    out_a = tempfile.mkdtemp(prefix="rs_kllsess_a_")
    out_b = tempfile.mkdtemp(prefix="rs_kllsess_b_")
    try:
        pd.testing.assert_frame_equal(
            _run_sessions(out_a, batch_size=48), _run_sessions(out_b, batch_size=48)
        )
        digests = [manifest_digests(os.path.join(o, "quantiles")) for o in (out_a, out_b)]
        assert digests[0] and digests[0] == digests[1]
    finally:
        shutil.rmtree(out_a, ignore_errors=True)
        shutil.rmtree(out_b, ignore_errors=True)


@pytest.mark.parametrize("stop_after", [1])
def test_session_crash_resume_exactly_once(ray_session, stop_after):
    """Kill after epoch N, resume from checkpoint: the committed
    session rows equal the uninterrupted run's exactly (open-session
    KLL blobs snapshot/restore, replay merges canonically)."""
    fix = events_stream_fixture(SF, n_epochs=4)
    out_a = tempfile.mkdtemp(prefix="rs_kllsess_a_")
    out_b = tempfile.mkdtemp(prefix="rs_kllsess_b_")

    def mk(out):
        return KllStreamDriver(
            fix, out, key="event_type", value="value", ts_col="ts_us",
            session_gap_s=GAP_S, allowed_lateness_s=LATENESS, n_partitions=4,
        )

    try:
        ref = mk(out_a)
        ref.run()
        d1 = mk(out_b)
        d1.run(stop_after_epoch=stop_after)
        d2 = mk(out_b)
        d2.run(resume=True)
        pd.testing.assert_frame_equal(
            d2.result_table().to_pandas().sort_values(
                ["key", "session_start_us"], ignore_index=True
            ),
            ref.result_table().to_pandas().sort_values(
                ["key", "session_start_us"], ignore_index=True
            ),
        )
    finally:
        shutil.rmtree(out_a, ignore_errors=True)
        shutil.rmtree(out_b, ignore_errors=True)


@pytest.mark.parametrize("stop_after", [0, 2])
def test_crash_resume_exactly_once(ray_session, stop_after):
    fix = events_stream_fixture(SF, n_epochs=4)
    out_a = tempfile.mkdtemp(prefix="rs_kll_a_")
    out_b = tempfile.mkdtemp(prefix="rs_kll_b_")

    def mk(out):
        return KllStreamDriver(
            fix, out, key="event_type", value="value", ts_col="ts_us",
            window_size_s=WEEK, allowed_lateness_s=LATENESS, n_partitions=4,
        )

    try:
        ref = mk(out_a)
        ref.run()
        d1 = mk(out_b)
        d1.run(stop_after_epoch=stop_after)
        d2 = mk(out_b)
        d2.run(resume=True)
        pd.testing.assert_frame_equal(
            d2.result_table().to_pandas().sort_values(
                ["key", "window_start_s"], ignore_index=True
            ),
            ref.result_table().to_pandas().sort_values(
                ["key", "window_start_s"], ignore_index=True
            ),
        )
    finally:
        shutil.rmtree(out_a, ignore_errors=True)
        shutil.rmtree(out_b, ignore_errors=True)
