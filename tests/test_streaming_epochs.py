"""The shared epoch loop (``EpochDriverBase``) across streaming kinds:
with several batches per epoch, two runs of a driver over its pytest
fixture commit byte-identical epochs (same manifest sha256), because
the driver routes each epoch's partials in batch-key order whatever
order the batches finish in.  KLL (windows and sessions) and bottom-k
sessions check the same property in their own modules.  The pipelined
loop (epoch e+1's stage runs during epoch e's tail) stops, resumes and
fails at the same epochs as a serial one.  P logical partitions share
min(P, CPU slots) state hosts, and a killed host fails the run, whose
resume then commits what an uninterrupted run commits."""

from __future__ import annotations

import shutil
import tempfile

import pytest

from tests.util import manifest_digests

WEEK = 7 * 86400
LATENESS = 200 * 3600  # > the fixtures' one-epoch arrival lag
BATCH = 48  # the fixtures' epochs hold ~140-250 rows: several batches each


def _driver(kind: str, sf: str, out: str):
    from raystat.streaming.asof import AsofJoinConfig, AsofStreamDriver, events_asof_fixture
    from raystat.streaming.cep import CepStreamDriver
    from raystat.streaming.dedup import DedupStreamDriver, docs_stream_fixture
    from raystat.streaming.interval import (
        IntervalJoinConfig,
        IntervalStreamDriver,
        events_interval_fixture,
    )
    from raystat.streaming.sketch import (
        BottomKStreamDriver,
        CmsStreamDriver,
        HllStreamDriver,
        KllStreamDriver,
        MgStreamDriver,
        events_stream_fixture,
    )

    sketch = dict(window_size_s=WEEK, allowed_lateness_s=LATENESS, n_partitions=4,
                  batch_size=BATCH)
    if kind == "stream":
        return _equivalence_driver("stream_batch500", sf, out)
    if kind == "stream-join":  # grace 1: checkpoints hold pending join rows
        from raystat.fixtures import epoch_len_us, metadata_rows, write_stream_fixture
        from raystat.streaming import StreamConfig, StreamDriver

        write_stream_fixture(TOKENS, n_rows=8000, n_epochs=4)
        return StreamDriver(TOKENS, out, StreamConfig(
            window_size_s=3600, allowed_lateness_s=epoch_len_us(4) // 4_000_000,
            n_partitions=3, passthrough=False, batch_size=500, join_grace_epochs=1,
        ), metadata=metadata_rows(4))
    if kind == "dedup":
        return DedupStreamDriver(docs_stream_fixture(sf, n_epochs=4), out,
                                 n_partitions=4, batch_size=BATCH)
    if kind == "interval":
        return IntervalStreamDriver(
            events_interval_fixture(sf, n_epochs=4), out,
            IntervalJoinConfig(allowed_lateness_s=LATENESS, n_partitions=4,
                               batch_size=BATCH),
        )
    if kind == "asof":
        return AsofStreamDriver(
            events_asof_fixture(sf, n_epochs=4), out,
            AsofJoinConfig(allowed_lateness_s=LATENESS, n_partitions=4,
                           batch_size=BATCH),
        )
    fix = events_stream_fixture(sf, n_epochs=4)
    if kind == "cep":
        return CepStreamDriver(
            fix, out, key="user_id", type_col="event_type",
            stages=["view", "click", "purchase"], within_us=2 * 86400 * 1_000_000,
            allowed_lateness_s=LATENESS, n_partitions=4, batch_size=BATCH,
        )
    cls = {"hll": HllStreamDriver, "mg": MgStreamDriver, "kll": KllStreamDriver,
           "cms": CmsStreamDriver, "bottomk": BottomKStreamDriver}[kind]
    return cls(fix, out, **sketch)


@pytest.mark.parametrize(
    "kind", ["hll", "mg", "cms", "bottomk", "cep", "dedup", "interval", "asof"]
)
def test_output_deterministic_across_runs(ray_session, sf_dir, kind):
    import ray

    digests, batches = [], []
    for _ in range(2):
        out = tempfile.mkdtemp(prefix=f"rs_det_{kind}_")
        try:
            drv = _driver(kind, sf_dir, out)
            m = drv.run()
            digests.append(manifest_digests(drv.sink.root))
            batches += [em["n_batches"] for em in m["epochs"].values()]
            for a in drv.actors:
                ray.kill(a)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    assert min(batches) >= 2, "each epoch should split into several batches"
    assert digests[0], "nothing committed"
    assert digests[0] == digests[1]


DRIVERS = ["stream", "hll", "mg", "kll", "cms", "bottomk", "cep", "dedup", "interval", "asof"]


@pytest.mark.parametrize("kind", DRIVERS)
def test_every_driver_times_its_kernel(ray_session, sf_dir, tmp_path, kind):
    """Every driver's router runs in the one router frame, which times
    its kernel: each epoch with rows reports ``sec_fn_sum > 0``.  Every
    driver's ``run()`` has one shape: per-epoch entries only under
    ``epochs``, the end-of-stream metrics under ``final``."""
    drv = _driver(kind, sf_dir, str(tmp_path / "out"))
    try:
        m = drv.run()
    finally:
        drv.cleanup()
    assert sorted(m["epochs"], key=int) == [str(e) for e in drv.arrival_epochs()]
    live = [em for em in m["epochs"].values() if em["rows_in"]]
    assert live and all(em["sec_fn_sum"] > 0 for em in live)
    assert m["final"]["epoch"] == drv.arrival_epochs()[-1] + 1
    assert len(m["final"]["state_metrics"]) == drv.n_partitions
    assert m["committed"] == drv.sink.committed_epochs()


@pytest.mark.parametrize("kind", ["mg", "cep", "dedup"])
def test_cleanup_kills_hosts_and_drops_checkpoints(ray_session, sf_dir, tmp_path, kind):
    """``cleanup()`` is the base driver's: the state hosts die and
    ``_checkpoints/`` goes; the committed output stays unless
    ``delete_output``."""
    import os
    import time

    import ray

    out = str(tmp_path / "out")
    drv = _driver(kind, sf_dir, out)
    drv.run(stop_after_epoch=0)
    hosts = list(drv.actors)
    assert os.path.isdir(os.path.join(out, "_checkpoints", "epoch-000000"))
    drv.cleanup()
    assert drv.actors is None
    assert not os.path.exists(os.path.join(out, "_checkpoints"))
    assert drv.sink.committed_epochs() == [0]
    for h in hosts:  # ray.kill is asynchronous: a call may still land before it
        deadline = time.monotonic() + 30
        with pytest.raises(ray.exceptions.RayActorError):
            while time.monotonic() < deadline:
                ray.get(h.get_metrics.remote(), timeout=30)
                time.sleep(0.1)
    drv.cleanup(delete_output=True)
    assert not os.path.exists(out)


def test_empty_epoch_file(ray_session, tmp_path):
    """An arrival epoch whose only file holds no rows yields no router
    rows; the epoch commits empty and the stream goes on."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from raystat.streaming.sketch import HllStreamDriver

    t = pa.table({
        "event_type": pa.array(["a", "b"]),
        "ts_us": pa.array([10**12, 10**12 + 5], pa.int64()),
        "user_id": pa.array([1, 2], pa.int64()),
    })
    for e, part in enumerate([t, t.slice(0, 0), t]):
        os.makedirs(tmp_path / "in" / f"arrival={e}")
        pq.write_table(part, tmp_path / "in" / f"arrival={e}" / "part-0.parquet")
    drv = HllStreamDriver(str(tmp_path / "in"), str(tmp_path / "out"), n_partitions=2)
    m = drv.run()
    assert [m["epochs"][str(e)]["rows_in"] for e in range(3)] == [2, 0, 2]
    assert m["epochs"]["1"]["ingest_calls"] == 0
    assert drv.sink.committed_epochs() == [0, 1, 2, 3]
    assert drv.result_table().num_rows == 2  # windows "a" and "b"


# -- pipelined epochs: epoch e+1's stage runs during epoch e's tail -----------

PIPELINED = ["StreamDriver", "MgStreamDriver"]


def _pipelined_driver(kind: str, src: str, out: str, n_partitions: int = 3, **mg):
    from raystat.fixtures import epoch_len_us
    from raystat.streaming import StreamConfig, StreamDriver
    from raystat.streaming.sketch import MgStreamDriver

    if kind == "StreamDriver":
        return StreamDriver(src, out, StreamConfig(
            window_size_s=3600, allowed_lateness_s=epoch_len_us(4) // 4_000_000,
            n_partitions=n_partitions, passthrough=False, batch_size=500,
        ))
    return MgStreamDriver(src, out, window_size_s=86400, allowed_lateness_s=3600,
                          n_partitions=n_partitions, batch_size=BATCH, **mg)


def _four_epochs(kind: str, sf: str, root) -> str:
    """The kind's 4-epoch stream: the token fixture cut to its first 4
    arrival epochs, or the events fixture."""
    import glob
    import os

    from raystat.fixtures import write_stream_fixture
    from raystat.streaming.sketch import events_stream_fixture

    if kind != "StreamDriver":
        return events_stream_fixture(sf, n_epochs=4)
    src = str(root / "tokens")
    write_stream_fixture(src, n_rows=4000, n_epochs=4)
    for d in glob.glob(os.path.join(src, "arrival=*")):
        if int(d.rsplit("=", 1)[1]) >= 4:
            shutil.rmtree(d)
    return src


def _two_epochs(root, null_epoch: int | None = None) -> str:
    """Two arrival epochs of 300 rows carrying both the token schema
    and (source, ts_us, user_id); ``null_epoch`` gets a null source."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raystat.extract import T0_US

    src = str(root / "two")
    for e in range(2):
        ids = np.arange(e * 300, (e + 1) * 300, dtype=np.int64)
        source = [None if e == null_epoch and i % 50 == 7 else f"s{i % 3}" for i in ids]
        t = pa.table({
            "doc_id": pa.array(np.char.add("doc-", np.char.zfill(ids.astype(str), 12))),
            "tokens": pa.array([[int(i) % 9, 3] for i in ids], pa.list_(pa.int32())),
            "n_tok": pa.array(np.full(len(ids), 2), pa.int32()),
            "source": pa.array(source, pa.string()),
            "ts_us": pa.array(T0_US + ids * 1_000_000),
            "user_id": pa.array(ids % 37),
        })
        os.makedirs(os.path.join(src, f"arrival={e}"))
        pq.write_table(t, os.path.join(src, f"arrival={e}", "part-0.parquet"))
    return src


def _record_epochs(drv) -> list:
    """Record every epoch ``drv._epoch_dataset`` is called for (from
    either thread)."""
    seen = []
    epoch_dataset = drv._epoch_dataset

    def recorded(epoch):
        seen.append(epoch)
        return epoch_dataset(epoch)

    drv._epoch_dataset = recorded
    return seen


def _stage_threads() -> list:
    import threading

    return [t for t in threading.enumerate() if t.name.startswith("raystat-stage")]


@pytest.mark.parametrize("kind", PIPELINED)
def test_stop_after_epoch_stages_no_further_and_resumes(ray_session, sf_dir, tmp_path, kind):
    """``run(stop_after_epoch=1)`` runs the stages of epochs 0 and 1
    only, once each.  A resume from checkpoint 0 (as after a crash
    between epoch 1's commit and its checkpoint) replays epoch 1 and
    commits what an uninterrupted run commits: had epoch 1's partials
    reached the actors before checkpoint 0, the replay would count them
    twice."""
    import os

    import ray

    src = _four_epochs(kind, sf_dir, tmp_path)
    full = _pipelined_driver(kind, src, str(tmp_path / "full"))
    seen_full = _record_epochs(full)
    m = full.run()
    assert sorted(seen_full) == [0, 1, 2, 3]
    assert sum(em["late_dropped"] for em in m["epochs"].values()) > 0
    out = str(tmp_path / "crash")
    d1 = _pipelined_driver(kind, src, out)
    seen = _record_epochs(d1)
    d1.run(stop_after_epoch=1)
    assert seen == [0, 1]
    assert d1.latest_checkpoint() == 1
    shutil.rmtree(d1._ckpt_dir(1))
    d2 = _pipelined_driver(kind, src, out)
    seen = _record_epochs(d2)
    d2.run(resume=True)
    assert sorted(seen) == [1, 2, 3]
    assert manifest_digests(d2.sink.root) == manifest_digests(full.sink.root)
    assert len(manifest_digests(full.sink.root)) == 5
    assert os.path.exists(d2._ckpt_dir(3))
    for a in full.actors + d1.actors + d2.actors:
        ray.kill(a)
    assert not _stage_threads()


@pytest.mark.parametrize("kind", PIPELINED)
def test_stage_error_raises_at_its_epoch(ray_session, tmp_path, kind):
    """Epoch 1's stage runs while epoch 0 commits and checkpoints; its
    error (a null key) still raises from ``run()`` at epoch 1, after
    epoch 0 is durable."""
    import ray

    src = _two_epochs(tmp_path, null_epoch=1)
    drv = _pipelined_driver(kind, src, str(tmp_path / "out"), key="source")
    with pytest.raises(Exception, match="key column 'source' contains nulls"):
        drv.run()
    assert drv.latest_checkpoint() == 0
    assert [n for n, _ in manifest_digests(drv.sink.root)] == ["epoch-000000.json"]
    assert not _stage_threads()
    for a in drv.actors:
        ray.kill(a)


@pytest.mark.parametrize("kind", PIPELINED)
def test_tail_error_waits_for_stage_in_flight(ray_session, tmp_path, kind):
    """An error in epoch 0's tail raises from ``run()``; the epoch-1
    stage it had started is finished and its thread gone."""
    import ray

    src = _two_epochs(tmp_path)
    drv = _pipelined_driver(kind, src, str(tmp_path / "out"), key="source")
    seen = _record_epochs(drv)

    def emit(epoch, watermark):
        raise RuntimeError(f"emit failed at epoch {epoch}")

    drv._emit = emit
    with pytest.raises(RuntimeError, match="emit failed at epoch 0"):
        drv.run()
    assert seen == [0, 1]
    assert not _stage_threads()
    assert drv.latest_checkpoint() is None
    for a in drv.actors:
        ray.kill(a)


# -- the stage's plain read tasks against a Ray Data read ---------------------

TOKENS = "/tmp/raystat_fixtures/stream_pytest"  # test_streaming's token fixture


def _equivalence_driver(kind: str, sf: str, out: str):
    from raystat.fixtures import epoch_len_us, jsonl_stream_from_parquet, write_stream_fixture
    from raystat.streaming import StreamConfig, StreamDriver
    from raystat.streaming.sketch import HllStreamDriver, KllStreamDriver, events_stream_fixture

    if kind.startswith("stream"):
        write_stream_fixture(TOKENS, n_rows=8000, n_epochs=4)
        src = TOKENS
        kw = dict(window_size_s=3600, allowed_lateness_s=epoch_len_us(4) // 4_000_000,
                  n_partitions=3, passthrough=False)
        if kind == "stream_batch500":
            kw["batch_size"] = 500
        if kind == "stream_json":
            src = jsonl_stream_from_parquet(TOKENS, TOKENS + "_jsonl")
            kw["file_format"] = "json"
        return StreamDriver(src, out, StreamConfig(**kw))
    if kind == "interval":  # its router carries every column, the partition's too
        return _driver("interval", sf, out)
    fix = events_stream_fixture(sf, n_epochs=4)
    if kind == "kll_batch48":
        return KllStreamDriver(fix, out, window_size_s=WEEK, allowed_lateness_s=LATENESS,
                               n_partitions=3, batch_size=BATCH)
    return HllStreamDriver(fix, out, session_gap_s=7200, allowed_lateness_s=LATENESS,
                           n_partitions=3, batch_size=BATCH)


def _ray_data_rows(drv, epoch: int, router):
    """``router`` over epoch ``epoch`` read by Ray Data in one read task."""
    import ray.data as rd

    from raystat.streaming.driver import _canonicalize_json_batch

    kw = {"batch_format": "pyarrow", "zero_copy_batch": True}
    # no hive partition column: the stage's reads add none
    read = {"override_num_blocks": 1, "partitioning": None}
    if getattr(getattr(drv, "cfg", None), "file_format", "parquet") == "json":
        ds = rd.read_json(drv._epoch_files(epoch, "jsonl"), **read)
        ds = ds.map_batches(_canonicalize_json_batch, **kw)
    else:
        ds = rd.read_parquet(drv._epoch_files(epoch, "parquet"), **read)
    if drv.batch_size:
        kw["batch_size"] = drv.batch_size
    return ds.map_batches(router, **kw).to_pandas()


def _stage_rows(drv, epoch: int, router):
    ds = drv._epoch_dataset(epoch)
    assert ds.tasks == 1  # the fixtures' epochs are far below one task's bytes
    return ds.map_batches(router, batch_size=drv.batch_size).to_pandas()


def _canon(book):
    """Router rows without their timings, in batch-key order."""
    book = book.drop(columns=["sec_fn", "sec_route"], errors="ignore")
    return book.sort_values(["batch_key", "partial"], ignore_index=True)


@pytest.mark.parametrize(
    "kind", ["stream", "stream_batch500", "stream_json", "kll_batch48",
             "hll_session_batch48", "interval"]
)
def test_stage_rows_equal_ray_data_read(ray_session, sf_dir, tmp_path, kind):
    """Every epoch's router rows from the stage's plain read tasks equal
    those of the same router over a one-task Ray Data read of the same
    files (JSON: read, then the canonical cast; no hive partition
    column), timings aside: same batches, same partials, same
    bookkeeping."""
    import pandas as pd

    drv = _equivalence_driver(kind, sf_dir, str(tmp_path / "out"))
    router = drv._router()
    n_batches = 0
    for e in drv.arrival_epochs():
        got, want = _stage_rows(drv, e, router), _ray_data_rows(drv, e, router)
        assert len(want)
        pd.testing.assert_frame_equal(_canon(got), _canon(want))
        n_batches += len(want)
    # several batches in some epoch; JSON gives one per read task
    assert n_batches > len(drv.arrival_epochs()) or kind == "stream_json"


def _events_epochs(root, parts: list[list[int]], null_epoch: int | None = None) -> str:
    """Events epochs (event_type, ts_us, user_id), one Parquet file per
    entry of ``parts[e]`` holding that many rows; ``null_epoch`` gets a
    null key."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = str(root / "events")
    for e, sizes in enumerate(parts):
        os.makedirs(os.path.join(src, f"arrival={e}"))
        for i, n in enumerate(sizes):
            key = [None if e == null_epoch and j == 1 else f"k{j % 3}" for j in range(n)]
            t = pa.table({
                "event_type": pa.array(key, pa.string()),
                "ts_us": pa.array(10**12 + e * 10**9 + np.arange(n, dtype=np.int64)),
                "user_id": pa.array(np.arange(n, dtype=np.int64) % 7),
            })
            pq.write_table(t, os.path.join(src, f"arrival={e}", f"part-{i}.parquet"))
    return src


def test_stage_zero_row_epoch_and_router_error(ray_session, tmp_path):
    """An epoch of zero-row files gives no router rows on either read
    and commits empty; a router error raises from ``run()`` at its
    epoch, as its own class with its own message, after the epochs
    before it are durable."""
    import ray

    from raystat.streaming.sketch import HllStreamDriver

    src = _events_epochs(tmp_path, [[5, 3], [0, 0], [4]])
    drv = HllStreamDriver(src, str(tmp_path / "out"), n_partitions=2)
    router = drv._router()
    assert len(_stage_rows(drv, 1, router)) == len(_ray_data_rows(drv, 1, router)) == 0
    m = drv.run()
    assert [m["epochs"][str(e)]["rows_in"] for e in range(3)] == [8, 0, 4]
    assert m["epochs"]["1"]["ingest_calls"] == 0
    assert drv.sink.committed_epochs() == [0, 1, 2, 3]
    for a in drv.actors:
        ray.kill(a)

    src = _events_epochs(tmp_path / "err", [[5], [0], [4], [6]], null_epoch=2)
    drv = HllStreamDriver(src, str(tmp_path / "err_out"), n_partitions=2)
    with pytest.raises(ValueError, match="key column 'event_type' contains nulls"):
        drv.run()
    assert drv.latest_checkpoint() == 1
    assert not _stage_threads()
    for a in drv.actors:
        ray.kill(a)


def test_parquet_batches_match_ray_data_reader(ray_session, tmp_path):
    """Files past ``READ_BATCH_ROWS`` rows and over several row groups
    split as Ray Data's Parquet reader splits them (no batch spans a
    row group); zero-row files give none."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from raystat.streaming.epochs import EpochRead, parquet_batches

    files = []
    for i, n in enumerate([25_000, 0, 3_000, 12_500]):
        f = str(tmp_path / f"part-{i}.parquet")
        pq.write_table(pa.table({"x": np.arange(n)}), f, row_group_size=12_000)
        files.append(f)

    def sizes(batch: pa.Table) -> pa.Table:
        return pa.table({"n": [batch.num_rows], "first": [batch["x"][0].as_py()]})

    got = EpochRead(files, parquet_batches, 1).map_batches(sizes).to_pandas()
    want = rd.read_parquet(files, override_num_blocks=1).map_batches(
        sizes, batch_format="pyarrow").to_pandas()
    assert got.to_dict("list") == want.to_dict("list")
    assert got["n"].tolist() == [10_000, 2_000, 10_000, 2_000, 1_000, 3_000,
                                 10_000, 2_000, 500]


def test_per_source_watermark_after_zero_row_epoch(ray_session, tmp_path):
    """A per-source watermark survives an epoch of zero-row files (it
    has no router rows to take source frontiers from)."""
    import os

    import pyarrow.parquet as pq
    import ray

    from raystat.streaming import StreamConfig, StreamDriver

    src = _two_epochs(tmp_path)
    empty = pq.read_table(os.path.join(src, "arrival=1", "part-0.parquet")).slice(0, 0)
    os.makedirs(os.path.join(src, "arrival=2"))
    pq.write_table(empty, os.path.join(src, "arrival=2", "part-0.parquet"))
    drv = StreamDriver(src, str(tmp_path / "out"), StreamConfig(
        n_partitions=2, passthrough=False, watermark_scope="per_source"))
    m = drv.run()
    assert [m["epochs"][str(e)]["rows_in"] for e in range(3)] == [300, 300, 0]
    assert drv.sink.committed_epochs() == [0, 1, 2, 3]
    for a in drv.actors:
        ray.kill(a)


# -- state hosts: P logical partitions in min(P, CPU slots) actors -------------


def _kill_all(*drivers) -> None:
    import ray

    for d in drivers:
        for a in d.actors or ():
            ray.kill(a)


@pytest.mark.parametrize("kind", PIPELINED)
def test_partitions_share_hosts_per_cpu_slot(ray_session, sf_dir, tmp_path, kind):
    """P=8 partitions in a 4-slot session run in 4 hosts of 2
    partitions: at most 4 ingests per epoch, yet one snapshot file and
    one final metrics dict per logical partition, and a host's metrics
    are its partitions' counters summed.  A fresh driver resuming from
    checkpoint 1 commits what the uninterrupted run commits."""
    import glob
    import os

    import ray

    assert ray.cluster_resources()["CPU"] == 4
    src = _four_epochs(kind, sf_dir, tmp_path)
    full = _pipelined_driver(kind, src, str(tmp_path / "full"), n_partitions=8)
    m = full.run()
    assert len(full.actors) == 4
    calls = [em["ingest_calls"] for em in m["epochs"].values()]
    assert max(calls) <= 4 and sum(calls) > 0
    assert [p["partition"] for p in m["final"]["state_metrics"]] == list(range(8))
    for e in full.arrival_epochs():
        snaps = glob.glob(os.path.join(full._ckpt_dir(e), "*-p*.parquet"))
        assert sorted(os.path.basename(f)[-13:] for f in snaps) == [
            f"p{p:04d}.parquet" for p in range(8)]
    host = ray.get(full.actors[1].get_metrics.remote())
    assert [p["partition"] for p in host["partitions"]] == [2, 3]
    assert host["partial_rows_in"] == sum(p["partial_rows_in"] for p in host["partitions"])

    out = str(tmp_path / "resumed")
    d1 = _pipelined_driver(kind, src, out, n_partitions=8)
    d1.run(stop_after_epoch=1)
    d2 = _pipelined_driver(kind, src, out, n_partitions=8)
    d2.run(resume=True)
    assert manifest_digests(d2.sink.root) == manifest_digests(full.sink.root)
    _kill_all(full, d1, d2)


def test_killed_host_fails_run_and_resume_is_exact(ray_session, sf_dir, tmp_path):
    """A state host killed in epoch 2, after the ingest barrier and
    before the close, fails ``run()``; a fresh driver's resume from
    checkpoint 1 replays epoch 2 and commits byte-identical manifests.
    MG's merge is not idempotent, so a partial ingested twice would
    show in its counts."""
    import ray

    src = _four_epochs("MgStreamDriver", sf_dir, tmp_path)
    mg = dict(n_partitions=8, capacity=8, top=3)
    full = _pipelined_driver("MgStreamDriver", src, str(tmp_path / "full"), **mg)
    full.run()

    out = str(tmp_path / "killed")
    drv = _pipelined_driver("MgStreamDriver", src, out, **mg)
    epochs, run_epoch, barrier = [], drv._run_epoch, drv._ingest_barrier

    def tracked_run_epoch(epoch):
        epochs.append(epoch)
        return run_epoch(epoch)

    def killing_barrier(book):
        n = barrier(book)
        if epochs[-1] == 2:
            ray.kill(drv.actors[1])
        return n

    drv._run_epoch, drv._ingest_barrier = tracked_run_epoch, killing_barrier
    with pytest.raises(ray.exceptions.RayActorError):
        drv.run()
    assert epochs == [0, 1, 2]
    assert drv.latest_checkpoint() == 1
    assert drv.sink.committed_epochs() == [0, 1]
    assert not _stage_threads()

    fresh = _pipelined_driver("MgStreamDriver", src, out, **mg)
    fresh.run(resume=True)
    assert manifest_digests(fresh.sink.root) == manifest_digests(full.sink.root)
    assert len(manifest_digests(full.sink.root)) == 5
    _kill_all(full, drv, fresh)


@pytest.mark.parametrize("kind", ["interval", "asof", "stream-join", "mg"])
def test_crash_between_commit_and_checkpoint_is_exact(ray_session, sf_dir, tmp_path, kind):
    """A crash after epoch 1's sink commit and before its checkpoint
    (``_checkpoint(1)`` raises): a fresh driver resumes from checkpoint
    0, replays epoch 1 (the sink skips the committed epoch) and commits
    the manifests an uninterrupted run commits; epoch 1's manifest is
    not rewritten.  Torn snapshot writes (garbage ``.tmp`` files beside
    checkpoint 0's files, and a checkpoint 1 holding nothing else) do
    not disturb the resume.  StreamDriver's checkpoint 0 holds pending
    metadata-join rows."""
    import json
    import os

    full = _driver(kind, sf_dir, str(tmp_path / "full"))
    full.run()

    drv = _driver(kind, sf_dir, str(tmp_path / "crashed"))
    checkpoint = drv._checkpoint

    def crashing_checkpoint(epoch):
        if epoch == 1:
            raise RuntimeError("crash before checkpoint 1")
        checkpoint(epoch)

    drv._checkpoint = crashing_checkpoint
    with pytest.raises(RuntimeError, match="crash before checkpoint 1"):
        drv.run()
    assert drv.sink.committed_epochs() == [0, 1]
    assert drv.latest_checkpoint() == 0
    if kind == "stream-join":
        from raystat.streaming.join import MetadataJoin

        with open(os.path.join(drv._ckpt_dir(0), "driver.json")) as f:
            assert MetadataJoin.from_state(json.load(f)["join"]).pending.num_rows
    for d in (drv._ckpt_dir(0), drv._ckpt_dir(1)):
        os.makedirs(d, exist_ok=True)
        for name in ("state-p0000.parquet.tmp", "driver.json.tmp"):
            with open(os.path.join(d, name), "wb") as f:
                f.write(b"\x00torn")
    m1 = drv.sink._manifest_path(1)
    with open(m1, "rb") as f:
        before = (f.read(), os.stat(m1).st_mtime_ns)

    fresh = _driver(kind, sf_dir, str(tmp_path / "crashed"))
    fresh.run(resume=True)
    assert manifest_digests(fresh.sink.root) == manifest_digests(full.sink.root)
    with open(m1, "rb") as f:
        assert (f.read(), os.stat(m1).st_mtime_ns) == before
    _kill_all(full, drv, fresh)


# the file of partition 1 each case deletes from the latest checkpoint
MISSING_SNAPSHOT = {
    "moments-window": "state-p0001.parquet",
    "moments-session": "state-p0001.parquet",
    "cep": "state-p0001.parquet",
    "dedup": "state-p0001.parquet",
    "interval": "state-p0001.parquet",
    "asof": "state-p0001.parquet",
}


@pytest.mark.parametrize("kind", list(MISSING_SNAPSHOT))
def test_resume_without_a_partition_snapshot_raises(ray_session, sf_dir, tmp_path, kind):
    """A checkpoint that lacks one partition's snapshot file fails the
    resume.  ``driver.json`` is written after every snapshot, so the
    missing file is a fault; resuming that partition on empty state
    would silently lose its state and break exactly-once."""
    import os

    from raystat.fixtures import epoch_len_us
    from raystat.streaming import StreamConfig, StreamDriver

    src = _four_epochs("StreamDriver", sf_dir, tmp_path) if kind.startswith("moments") else None

    def make():
        if src is None:
            return _driver(kind.split("-")[0], sf_dir, str(tmp_path / "out"))
        return StreamDriver(src, str(tmp_path / "out"), StreamConfig(
            window_size_s=3600, allowed_lateness_s=epoch_len_us(4) // 1_000_000,
            session_gap_s=1800 if kind.endswith("session") else None,
            n_partitions=3, passthrough=False,
        ))

    first = make()
    first.run(stop_after_epoch=1)
    os.remove(os.path.join(first._ckpt_dir(1), MISSING_SNAPSHOT[kind]))
    again = make()
    with pytest.raises(FileNotFoundError, match=MISSING_SNAPSHOT[kind]):
        again.run(resume=True)
    _kill_all(first, again)
