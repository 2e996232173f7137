"""Streaming CEP (deadline-bounded funnel): streamed verdicts equal
the batch funnel kernel over the full input, funnels emit exactly once
(tombstones survive later events for the key), late events drop, dead
buffered state prunes, and crash/resume is exactly-once."""

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

from raystat.dataops.cep import funnel_frame
from raystat.streaming.cep import CepStreamDriver
from raystat.streaming.sketch import events_stream_fixture

SF = "/root/testdata/sf0.001"
DAY = 86400
LATENESS = 200 * 3600  # > the fixture's one-epoch arrival lag: zero drops
NO = np.int64(np.iinfo(np.int64).max)
STAGES = ["view", "click", "purchase"]


def _batch_expected(fix: str, within_us: int) -> pd.DataFrame:
    """Batch-kernel oracle over ALL fixture rows (ignoring arrival)."""
    fs = sorted(glob.glob(os.path.join(fix, "arrival=*", "*.parquet")))
    df = pa.concat_tables([pq.read_table(f) for f in fs]).to_pandas()
    df = df[df["event_type"].isin(STAGES)]
    df["stage"] = df["event_type"].map({s: i for i, s in enumerate(STAGES)})
    ff = funnel_frame(
        pa.Table.from_pandas(df, preserve_index=False), key="user_id", ts="ts_us",
        type_col="stage", stages=[0, 1, 2], within_us=within_us,
    ).to_pandas()
    ff = ff[ff["t_0"] != NO]
    out = pd.DataFrame(
        {
            "key": ff["user_id"].to_numpy(),
            "stages_reached": (
                np.stack([ff[f"t_{i}"].to_numpy() for i in range(3)]) != NO
            ).sum(axis=0).astype(np.int64),
            "t0_us": ff["t_0"].to_numpy().astype(np.int64),
        }
    )
    return out.sort_values("key", ignore_index=True)


def _norm(t: pa.Table) -> pd.DataFrame:
    return t.to_pandas().sort_values("key", ignore_index=True)[
        ["key", "stages_reached", "t0_us"]
    ]


def _write_stream(root: str, epochs: list[dict]) -> None:
    for e, cols in enumerate(epochs):
        d = os.path.join(root, f"arrival={e}")
        os.makedirs(d)
        pq.write_table(pa.table(cols), os.path.join(d, "part-0.parquet"))


def test_streamed_equals_batch_funnel(ray_session):
    fix = events_stream_fixture(SF, n_epochs=4)
    out = tempfile.mkdtemp(prefix="rs_cep_")
    try:
        drv = CepStreamDriver(
            fix, out, key="user_id", type_col="event_type", ts_col="ts_us",
            stages=STAGES, within_us=2 * DAY * 1_000_000,
            allowed_lateness_s=LATENESS, n_partitions=4,
        )
        m = drv.run()
        got = _norm(drv.result_table())
        exp = _batch_expected(fix, 2 * DAY * 1_000_000)
        pd.testing.assert_frame_equal(got, exp)
        assert sum(e["late_dropped"] for e in m["epochs"].values()) == 0
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_progressive_emission_and_tombstones(ray_session):
    """A funnel whose deadline passes mid-stream emits BEFORE the
    final flush, exactly once, and later events for the key are
    ignored (including a would-be better chain)."""
    root = tempfile.mkdtemp(prefix="rs_cep_fix_")
    out = tempfile.mkdtemp(prefix="rs_cep_")
    us = 1_000_000
    try:
        _write_stream(
            root,
            [
                {  # epoch 0: key 1 completes; key 2 only stage-0
                    "u": pa.array([1, 1, 1, 2], pa.int64()),
                    "ts_us": pa.array(
                        [100 * us, 200 * us, 300 * us, 150 * us], pa.int64()
                    ),
                    "et": pa.array(["view", "click", "purchase", "view"]),
                },
                {  # epoch 1: watermark jumps far past key 1's deadline
                    "u": pa.array([3], pa.int64()),
                    "ts_us": pa.array([100_000 * us], pa.int64()),
                    "et": pa.array(["view"]),
                },
                {  # epoch 2: late-epoch events for the DONE key 1
                    "u": pa.array([1, 1], pa.int64()),
                    "ts_us": pa.array([200_000 * us, 200_001 * us], pa.int64()),
                    "et": pa.array(["view", "click"]),
                },
            ],
        )
        drv = CepStreamDriver(
            root, out, key="u", type_col="et", ts_col="ts_us",
            stages=STAGES, within_us=1000 * us,
            allowed_lateness_s=0, n_partitions=2,
        )
        drv.run()
        got = _norm(drv.result_table())
        exp = pd.DataFrame(
            {
                "key": np.array([1, 2, 3], dtype=np.int64),
                "stages_reached": np.array([3, 1, 1], dtype=np.int64),
                "t0_us": np.array([100 * us, 150 * us, 100_000 * us], dtype=np.int64),
            }
        )
        pd.testing.assert_frame_equal(got, exp)
        # keys 1 and 2 became final at epoch 1 (wm=100000 > t0+1000)
        per_epoch = {
            e: pq.read_table(p).num_rows
            for e, p in zip(drv.sink.committed_epochs(), drv.sink.committed_paths())
        }
        assert per_epoch[1] == 2, per_epoch
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)


def test_late_events_drop(ray_session):
    """An event at-or-below the watermark is dropped and counted; a
    key whose only stage-0 was late never emits."""
    root = tempfile.mkdtemp(prefix="rs_cep_fix_")
    out = tempfile.mkdtemp(prefix="rs_cep_")
    us = 1_000_000
    try:
        _write_stream(
            root,
            [
                {
                    "u": pa.array([9], pa.int64()),
                    "ts_us": pa.array([10_000 * us], pa.int64()),
                    "et": pa.array(["view"]),
                },
                {  # ts 500 <= wm 10000: late; the later click is live
                    "u": pa.array([7, 7], pa.int64()),
                    "ts_us": pa.array([500 * us, 20_000 * us], pa.int64()),
                    "et": pa.array(["view", "click"]),
                },
            ],
        )
        drv = CepStreamDriver(
            root, out, key="u", type_col="et", ts_col="ts_us",
            stages=STAGES, within_us=1000 * us,
            allowed_lateness_s=0, n_partitions=2,
        )
        m = drv.run()
        got = _norm(drv.result_table())
        assert got["key"].tolist() == [9]
        assert m["epochs"]["1"]["late_dropped"] == 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)


def test_dead_state_prunes(ray_session):
    """Buffered rows for keys with no stage-0 retire once the
    watermark passes them (a future stage-0 can no longer precede
    them), so state is bounded by the deadline horizon."""
    root = tempfile.mkdtemp(prefix="rs_cep_fix_")
    out = tempfile.mkdtemp(prefix="rs_cep_")
    us = 1_000_000
    try:
        _write_stream(
            root,
            [
                {  # clicks with no view for key 5
                    "u": pa.array([5, 5], pa.int64()),
                    "ts_us": pa.array([100 * us, 200 * us], pa.int64()),
                    "et": pa.array(["click", "click"]),
                },
                {
                    "u": pa.array([6], pa.int64()),
                    "ts_us": pa.array([50_000 * us], pa.int64()),
                    "et": pa.array(["view"]),
                },
            ],
        )
        drv = CepStreamDriver(
            root, out, key="u", type_col="et", ts_col="ts_us",
            stages=STAGES, within_us=1000 * us,
            allowed_lateness_s=0, n_partitions=2,
        )
        m = drv.run()
        state = m["final"]["state_metrics"]
        assert sum(p["rows_pruned"] for p in state) == 2
        assert sum(p["buffered_rows"] for p in state) == 0
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)


def test_cli_cep_driver(ray_session, tmp_path, capsys):
    """python -m raystat --driver cep: the ray-job-submit surface runs
    the CEP stream and prints the metrics JSON."""
    import glob
    import json

    from raystat.cli import main

    fix = events_stream_fixture(SF, n_epochs=4)
    out = str(tmp_path / "cli_cep")
    rc = main(
        ["--driver", "cep", "--input", fix, "--out", out,
         "--key", "user_id", "--value", "event_type",
         "--within", str(2 * DAY), "--lateness", str(LATENESS),
         "--partitions", "4"]
    )
    assert rc == 0
    m = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m["committed"], "no epochs committed"
    assert glob.glob(os.path.join(out, "funnel", "epoch=*", "*.parquet"))


@pytest.mark.parametrize("stop_after", [0, 1, 2])
def test_crash_resume_exactly_once(ray_session, stop_after):
    fix = events_stream_fixture(SF, n_epochs=4)
    within = 2 * DAY * 1_000_000
    out_a = tempfile.mkdtemp(prefix="rs_cep_a_")
    out_b = tempfile.mkdtemp(prefix="rs_cep_b_")
    try:
        ref = CepStreamDriver(
            fix, out_a, key="user_id", type_col="event_type", ts_col="ts_us",
            stages=STAGES, within_us=within,
            allowed_lateness_s=LATENESS, n_partitions=4,
        )
        ref.run()
        d1 = CepStreamDriver(
            fix, out_b, key="user_id", type_col="event_type", ts_col="ts_us",
            stages=STAGES, within_us=within,
            allowed_lateness_s=LATENESS, n_partitions=4,
        )
        d1.run(stop_after_epoch=stop_after)
        d2 = CepStreamDriver(
            fix, out_b, key="user_id", type_col="event_type", ts_col="ts_us",
            stages=STAGES, within_us=within,
            allowed_lateness_s=LATENESS, n_partitions=4,
        )
        d2.run(resume=True)
        pd.testing.assert_frame_equal(
            _norm(d2.result_table()), _norm(ref.result_table())
        )
    finally:
        shutil.rmtree(out_a, ignore_errors=True)
        shutil.rmtree(out_b, ignore_errors=True)


def test_subsecond_events_above_watermark_admitted(ray_session):
    """The router's late-drop is microsecond-granular: an event with
    ts_us in (wm_s*1e6, (wm_s+1)*1e6) sits ABOVE the watermark and
    must be admitted — the documented contract drops ts <= watermark
    only (second-truncated comparison used to drop up to 1s of
    in-lateness events)."""
    root = tempfile.mkdtemp(prefix="rs_cep_fix_")
    out = tempfile.mkdtemp(prefix="rs_cep_")
    us = 1_000_000
    try:
        _write_stream(
            root,
            [
                {  # epoch 0 drives wm to 10_000s (lateness 0)
                    "u": pa.array([9], pa.int64()),
                    "ts_us": pa.array([10_000 * us], pa.int64()),
                    "et": pa.array(["view"]),
                },
                {  # 10_000.5s and 10_000.7s: above wm by <1s -> LIVE
                    "u": pa.array([7, 7], pa.int64()),
                    "ts_us": pa.array(
                        [10_000 * us + 500_000, 10_000 * us + 700_000],
                        pa.int64(),
                    ),
                    "et": pa.array(["view", "click"]),
                },
            ],
        )
        drv = CepStreamDriver(
            root, out, key="u", type_col="et", ts_col="ts_us",
            stages=STAGES, within_us=10 * us,
            allowed_lateness_s=0, n_partitions=2,
        )
        m = drv.run()
        got = _norm(drv.result_table())
        assert got["key"].tolist() == [7, 9]
        assert int(got.loc[got["key"] == 7, "stages_reached"].iloc[0]) == 2
        assert m["epochs"]["1"]["late_dropped"] == 0
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
