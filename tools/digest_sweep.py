"""Output-identity sweep over the streaming drivers.

Runs 31 driver configurations on the pytest fixtures (sf0.001 and the
synthetic token stream, also as JSONL) and on a wider token stream
whose epochs (about 7 MB, 8 files) plan 3 read tasks at 4 CPUs, and
writes, per configuration, the sha256 of
every committed sink epoch (from its manifest) and the per-epoch
``late_dropped`` counts.  The passthrough sink's manifests carry no
digest, so for it the sweep hashes its rows in ``doc_id`` order.

It imports only the public drivers and fixtures, so it runs against any
checkout given on ``PYTHONPATH``; a refactor keeps outputs when two
checkouts' files are identical:

    PYTHONPATH=/path/to/old python tools/digest_sweep.py old.json
    PYTHONPATH=/path/to/new python tools/digest_sweep.py new.json
    diff old.json new.json

It reads the sf0.001 test data the pytest suite reads (``SF``) and runs
a local Ray with 4 CPUs.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import sys
import tempfile

SF = os.path.expanduser("~/testdata/sf0.001")  # the pytest suite's sf0.001 tables
STREAM_FIXTURE = "/tmp/raystat_fixtures/stream_pytest"
N_ROWS, N_EPOCHS = 8000, 4
WIDE_FIXTURE = "/tmp/raystat_fixtures/stream_sweep_wide"
WIDE_ROWS = 120_000  # 8 files of ~0.9 MB per epoch
WEEK, GAP = 7 * 86400, 7200
LATE = 200 * 3600  # the sketch/join tests' lateness: nothing drops
TIGHT = 3600  # rows one arrival epoch late drop at the routers


def _configs():
    from raystat.fixtures import (
        epoch_len_us, jsonl_stream_from_parquet, metadata_rows, write_stream_fixture,
    )
    from raystat.streaming import (
        AsofJoinConfig, AsofStreamDriver, CepStreamDriver, DedupStreamDriver,
        HllStreamDriver, IntervalJoinConfig, IntervalStreamDriver, KllStreamDriver,
        MgStreamDriver, StreamConfig, StreamDriver,
    )
    from raystat.streaming.asof import events_asof_fixture
    from raystat.streaming.dedup import docs_stream_fixture
    from raystat.streaming.interval import events_interval_fixture
    from raystat.streaming.sketch import (
        BottomKStreamDriver, CmsStreamDriver, events_stream_fixture,
    )

    write_stream_fixture(STREAM_FIXTURE, n_rows=N_ROWS, n_epochs=N_EPOCHS)
    write_stream_fixture(WIDE_FIXTURE, n_rows=WIDE_ROWS, rows_per_block=WIDE_ROWS // 8,
                         n_epochs=N_EPOCHS)
    tok, ev = STREAM_FIXTURE, events_stream_fixture(SF, n_epochs=4)
    tok_json = jsonl_stream_from_parquet(tok, tok + "_jsonl")
    lat = epoch_len_us(N_EPOCHS) // 1_000_000

    def stream(src=tok, **kw):
        base = dict(window_size_s=3600, allowed_lateness_s=lat, n_partitions=8,
                    n_salts=4, passthrough=False, join_grace_epochs=1)
        base.update(kw)
        return lambda out: StreamDriver(src, out, StreamConfig(**base),
                                        metadata=metadata_rows(N_EPOCHS))

    def sketch(cls, **kw):
        kw = {"allowed_lateness_s": LATE, "n_partitions": 4, **kw}
        return lambda out: cls(ev, out, **kw)

    def cep(lateness):
        return lambda out: CepStreamDriver(
            ev, out, key="user_id", type_col="event_type", ts_col="ts_us",
            stages=["view", "click", "purchase"], within_us=2 * 86400 * 1_000_000,
            allowed_lateness_s=lateness, n_partitions=4)

    def interval(lateness):
        cfg = IntervalJoinConfig(by="user_id", on="ts_us",
                                 right_cols=("touch_id", "touch_ts_us"),
                                 before_s=7200, after_s=0,
                                 allowed_lateness_s=lateness, n_partitions=4)
        return lambda out: IntervalStreamDriver(
            events_interval_fixture(SF, n_epochs=4), out, cfg)

    def asof(lateness):
        cfg = AsofJoinConfig(allowed_lateness_s=lateness, n_partitions=4)
        return lambda out: AsofStreamDriver(events_asof_fixture(SF, n_epochs=4), out, cfg)

    docs = lambda: docs_stream_fixture(SF, n_epochs=4)  # noqa: E731
    return {
        "stream_tumbling": stream(),
        "stream_tumbling_batch500": stream(batch_size=500),
        "stream_hopping": stream(hop_s=1800),
        "stream_session": stream(session_gap_s=1800, n_salts=1),
        "stream_token_comoment": stream(token_stats=True, comoment_stats=True),
        "stream_passthrough_per_source_changes": stream(
            passthrough=True, watermark_scope="per_source", emit_changes=True),
        "stream_quarter_lateness": stream(allowed_lateness_s=lat // 4),
        "stream_json": stream(tok_json, file_format="json"),
        "stream_multitask": stream(WIDE_FIXTURE),
        "stream_multitask_batch4096": stream(WIDE_FIXTURE, batch_size=4096),
        "hll_tumbling": sketch(HllStreamDriver, window_size_s=WEEK),
        "hll_hopping": sketch(HllStreamDriver, window_size_s=2 * 86400, hop_s=86400),
        "hll_session": sketch(HllStreamDriver, session_gap_s=GAP),
        "mg_tumbling": sketch(MgStreamDriver, window_size_s=WEEK, top=5),
        "mg_session": sketch(MgStreamDriver, session_gap_s=GAP, top=5),
        "kll_tumbling": sketch(KllStreamDriver, window_size_s=WEEK),
        "kll_session": sketch(KllStreamDriver, session_gap_s=GAP),
        "bottomk_tumbling": sketch(BottomKStreamDriver, window_size_s=WEEK, k=5),
        "bottomk_session": sketch(BottomKStreamDriver, session_gap_s=GAP, k=5,
                                  batch_size=48),
        "cms_tumbling": sketch(CmsStreamDriver, window_size_s=WEEK, probe_mod=3),
        "cep": cep(LATE),
        "dedup": lambda out: DedupStreamDriver(docs(), out, n_partitions=4),
        "dedup_retention": lambda out: DedupStreamDriver(docs(), out, n_partitions=4,
                                                         retention_epochs=1),
        "interval": interval(LATE),
        "asof": asof(LATE),
        "hll_tight": sketch(HllStreamDriver, window_size_s=3600,
                            allowed_lateness_s=TIGHT),
        "mg_session_tight": sketch(MgStreamDriver, session_gap_s=GAP,
                                   allowed_lateness_s=TIGHT),
        "kll_tight": sketch(KllStreamDriver, window_size_s=3600,
                            allowed_lateness_s=TIGHT),
        "cep_tight": cep(TIGHT),
        "interval_tight": interval(TIGHT),
        "asof_tight": asof(TIGHT),
    }


def _row_digest(sink_root: str) -> str:
    """sha256 of a sink's committed rows in doc_id order (Arrow IPC)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(sink_root, "epoch=*", "*.parquet")))
    if not files:
        return ""
    t = pa.concat_tables([pq.read_table(f) for f in files], promote_options="default")
    t = t.sort_by([("doc_id", "ascending")])
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def _digests(out: str) -> dict:
    res = {}
    for mdir in sorted(glob.glob(os.path.join(out, "**", "_manifest"), recursive=True)):
        root = os.path.dirname(mdir)
        name = os.path.relpath(root, out)
        per = {}
        for f in sorted(glob.glob(os.path.join(mdir, "epoch-*.json"))):
            with open(f) as fh:
                m = json.load(fh)
            per[os.path.basename(f)] = m.get("sha256", m["rows"])
        if any(isinstance(v, int) for v in per.values()):  # dataset sink
            per["rows_sha256"] = _row_digest(root)
        res[name] = per
    return res


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    import logging

    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    result = {}
    for name, make in _configs().items():
        out = tempfile.mkdtemp(prefix=f"rs_sweep_{name}_")
        try:
            drv = make(out)
            m = drv.run()
            late = {e: v["late_dropped"] for e, v in m["epochs"].items()
                    if e != "final" and "late_dropped" in v}
            result[name] = {"late_dropped": late, "sinks": _digests(out)}
            for a in drv.actors or ():
                ray.kill(a)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        print(name, "ok", flush=True)
    with open(argv[0], "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
