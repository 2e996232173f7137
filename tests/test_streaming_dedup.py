"""Streaming exact dedup: survivor set equals the first-(arrival,
doc_id) rule, echo copies arriving EARLIER than their original win
(the rule is first-arrival, not min-id), crash/resume reproduces the
uninterrupted run exactly-once, and finite retention bounds state with
observable evictions + re-emissions (never silent recall loss)."""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from raystat.streaming.dedup import DedupStreamDriver, docs_stream_fixture

SF = "/root/testdata/sf0.001"


def _stream_fixture(rows_per_epoch: list[list[tuple[int, str]]]) -> str:
    """Ad-hoc arrival fixture: rows_per_epoch[e] = [(doc_id, text)]."""
    root = tempfile.mkdtemp(prefix="rs_sdedup_fix_")
    for e, rows in enumerate(rows_per_epoch):
        d = os.path.join(root, f"arrival={e}")
        os.makedirs(d)
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "text": pa.array([r[1] for r in rows], pa.string()),
                }
            ),
            os.path.join(d, "part-0.parquet"),
        )
    return root


def _run(fix: str, **kw) -> tuple[pd.DataFrame, dict]:
    out = tempfile.mkdtemp(prefix="rs_sdedup_out_")
    try:
        drv = DedupStreamDriver(fix, out, **kw).prepare()
        m = drv.run()
        res = drv.result_table().to_pandas().sort_values(
            "doc_id", ignore_index=True
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return res, m


def _brute_first_arrival(rows_per_epoch) -> list[int]:
    seen, win = set(), []
    for rows in rows_per_epoch:
        # within an epoch: min doc_id per text among that epoch's rows
        first: dict[str, int] = {}
        for did, txt in sorted(rows):
            first.setdefault(txt, did)
        for txt, did in sorted(first.items(), key=lambda kv: kv[1]):
            if txt not in seen:
                seen.add(txt)
                win.append(did)
    return sorted(win)


def test_survivors_match_first_arrival_rule(ray_session):
    rows = [
        [(10, "aa"), (11, "bb"), (12, "aa")],        # in-epoch dup: 12 loses
        [(20, "cc"), (21, "aa")],                     # cross-epoch dup
        [(30, "dd"), (31, "bb"), (5, "cc")],          # 5 < 20 but arrives later
        [(40, "aa"), (41, "ee")],
    ]
    fix = _stream_fixture(rows)
    try:
        res, m = _run(fix, n_partitions=4)
        assert res["doc_id"].tolist() == _brute_first_arrival(rows)
        sm = m["epochs"]["final"]["state_metrics"]
        assert sum(p["winners"] for p in sm) == 5
        # 5 dropped copies total (12, 21, 31, 5, 40), split between the
        # router's local combiner and the actors' seen-set
        local = sum(
            v["local_dropped"] for k, v in m["epochs"].items() if k != "final"
        )
        assert local + sum(p["dup_dropped"] for p in sm) == 5
        assert all(p["evicted"] == 0 for p in sm)
    finally:
        shutil.rmtree(fix, ignore_errors=True)


def test_echo_arriving_first_wins(ray_session):
    """A later-id copy in an EARLIER epoch beats the small-id original:
    first-arrival semantics, not global min-id."""
    rows = [[(999, "xx")], [(1, "xx")]]
    fix = _stream_fixture(rows)
    try:
        res, _ = _run(fix, n_partitions=2)
        assert res["doc_id"].tolist() == [999]
        assert res["epoch"].tolist() == [0]
    finally:
        shutil.rmtree(fix, ignore_errors=True)


def test_crash_resume_equals_uninterrupted(ray_session):
    fix = docs_stream_fixture(SF, n_epochs=4)
    out_a = tempfile.mkdtemp(prefix="rs_sdedup_a_")
    out_b = tempfile.mkdtemp(prefix="rs_sdedup_b_")
    try:
        full = DedupStreamDriver(fix, out_a, n_partitions=4).prepare()
        full.run()
        want = full.result_table().to_pandas().sort_values(
            "doc_id", ignore_index=True
        )

        # crash after epoch 1, resume with a FRESH driver + actors
        d1 = DedupStreamDriver(fix, out_b, n_partitions=4).prepare()
        d1.run(stop_after_epoch=1)
        d2 = DedupStreamDriver(fix, out_b, n_partitions=4)
        d2.run(resume=True)
        got = d2.result_table().to_pandas().sort_values(
            "doc_id", ignore_index=True
        )
        pd.testing.assert_frame_equal(got, want)
    finally:
        shutil.rmtree(out_a, ignore_errors=True)
        shutil.rmtree(out_b, ignore_errors=True)


def test_retention_evicts_and_reemits_observably(ray_session):
    """retention=1: a dup separated by >1 idle epoch re-emits (state
    was evicted) and the eviction count is surfaced; retention=None on
    the same stream emits exactly one winner per text."""
    rows = [
        [(1, "aa"), (2, "bb")],
        [(10, "cc")],
        [(20, "dd")],
        [(30, "aa")],  # "aa" evicted after epoch 2 under retention=1
    ]
    fix = _stream_fixture(rows)
    try:
        exact, me = _run(fix, n_partitions=2, retention_epochs=None)
        assert exact["doc_id"].tolist() == [1, 2, 10, 20]

        lossy, ml = _run(fix, n_partitions=2, retention_epochs=1)
        assert lossy["doc_id"].tolist() == [1, 2, 10, 20, 30]  # re-emission
        sm = ml["epochs"]["final"]["state_metrics"]
        assert sum(p["evicted"] for p in sm) > 0
        assert all(p["evicted"] == 0 for p in me["epochs"]["final"]["state_metrics"])
    finally:
        shutil.rmtree(fix, ignore_errors=True)


def test_state_is_hashes_only_and_bounded(ray_session):
    """State size equals the live distinct-hash count (16 B/doc order),
    and under retention it stays below the distinct total."""
    rows = [[(i * 10 + e, f"t{e}-{i}") for i in range(50)] for e in range(4)]
    fix = _stream_fixture(rows)
    try:
        _, me = _run(fix, n_partitions=4)
        assert sum(p["state_size"] for p in me["epochs"]["final"]["state_metrics"]) == 200
        _, ml = _run(fix, n_partitions=4, retention_epochs=1)
        assert sum(p["state_size"] for p in ml["epochs"]["final"]["state_metrics"]) == 50
    finally:
        shutil.rmtree(fix, ignore_errors=True)


def test_restore_leaves_ingest_barrier_fresh(ray_session):
    """A restored partition keeps the checkpointed seen set and its
    cumulative metrics (winners/evictions stay cumulative)."""
    from raystat.streaming.dedup import _SeenSet
    from raystat.streaming.state import KeyedPartition

    ck = tempfile.mkdtemp(prefix="rs_sdedup_ck_")
    try:
        a = KeyedPartition(0, _SeenSet, None)
        t = pa.table(
            {"content_hash": pa.array([11, 22], pa.int64()),
             "doc_id": pa.array([1, 2], pa.int64())}
        )
        a.ingest(t)
        a.ingest(t)
        a.close(0)
        a.snapshot(ck, 0)

        b = KeyedPartition(0, _SeenSet, None)
        assert b.restore(ck) == 2  # 2 seen hashes
        m = b.get_metrics()
        assert m["winners"] == 2, "cumulative metrics must carry over"
        assert m["state_size"] == 2
    finally:
        shutil.rmtree(ck, ignore_errors=True)


def test_cli_dedup_requires_text_col():
    """--driver dedup without --text-col fails fast instead of silently
    hashing the sketch drivers' --value default column."""
    import pytest

    from raystat.cli import main

    with pytest.raises(SystemExit):
        main(["--driver", "dedup", "--input", "/tmp/x", "--out", "/tmp/y"])
