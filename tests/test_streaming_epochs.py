"""The shared epoch loop (``EpochDriverBase``) across streaming kinds:
with several batches per epoch, two runs of a driver over its pytest
fixture commit byte-identical epochs (same manifest sha256), because
the driver routes each epoch's partials in batch-key order whatever
order the batches finish in.  KLL (windows and sessions) and bottom-k
sessions check the same property in their own modules.  The pipelined
loop (epoch e+1's stage runs during epoch e's tail) stops, resumes and
fails at the same epochs as a serial one."""

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
        MgStreamDriver,
        events_stream_fixture,
    )

    sketch = dict(window_size_s=WEEK, allowed_lateness_s=LATENESS, n_partitions=4,
                  batch_size=BATCH)
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
    cls = {"hll": HllStreamDriver, "mg": MgStreamDriver, "cms": CmsStreamDriver,
           "bottomk": BottomKStreamDriver}[kind]
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
            batches += [em["n_batches"] for e, em in m["epochs"].items() if e != "final"]
            for a in drv.actors:
                ray.kill(a)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    assert min(batches) >= 2, "each epoch should split into several batches"
    assert digests[0], "nothing committed"
    assert digests[0] == digests[1]


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


def _pipelined_driver(kind: str, src: str, out: str, **mg):
    from raystat.fixtures import epoch_len_us
    from raystat.streaming import StreamConfig, StreamDriver
    from raystat.streaming.sketch import MgStreamDriver

    if kind == "StreamDriver":
        return StreamDriver(src, out, StreamConfig(
            window_size_s=3600, allowed_lateness_s=epoch_len_us(4) // 4_000_000,
            n_partitions=3, passthrough=False, batch_size=500,
        ))
    return MgStreamDriver(src, out, window_size_s=86400, allowed_lateness_s=3600,
                          n_partitions=3, batch_size=BATCH, **mg)


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
    assert sum(em["late_dropped"] for e, em in m["epochs"].items() if e != "final") > 0
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
