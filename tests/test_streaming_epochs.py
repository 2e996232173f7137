"""The shared epoch loop (``EpochDriverBase``) across streaming kinds:
with several batches per epoch, two runs of a driver over its pytest
fixture commit byte-identical epochs (same manifest sha256), because
the driver routes each epoch's partials in batch-key order whatever
order the batches finish in.  KLL (windows and sessions) and bottom-k
sessions check the same property in their own modules."""

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
