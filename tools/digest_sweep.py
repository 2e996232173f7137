"""Output-identity sweep over the streaming drivers.

Runs 46 driver configurations on the pytest fixtures (sf0.001 and the
synthetic token stream, also as JSONL) and on a wider token stream
whose epochs (about 7 MB, 8 files) plan 3 read tasks at 4 CPUs, and
writes, per configuration, the sha256 of
every committed sink epoch (from its manifest) and the per-epoch
``late_dropped`` counts.  Six of them (``RESUMED``) rerun another
configuration as a crash and a resume: ``run(stop_after_epoch=1)``,
then a fresh driver's ``run(resume=True)`` on the same output, so their
entries equal their twin's when the snapshots restore the state
exactly.  Each configuration's wall time goes to stdout, not the
JSON.  For a passthrough (``kind: "dataset"``)
sink it records each epoch's row count and hashes the sink's rows in
``doc_id`` order: its part files depend on the number of read tasks,
and older checkouts record no digest for them.  For a table sink it
also hashes each committed epoch's rows (``epoch_rows_sha256``), so a
change of the file's schema metadata alone shows in the manifest
digest but not in the row digest.  Row digests are the sha256 of the
rows' Arrow IPC stream with the schema metadata stripped.

It imports only the public drivers and fixtures, so it runs against any
checkout given on ``PYTHONPATH``; a refactor keeps outputs when two
checkouts' files are identical:

    PYTHONPATH=/path/to/old python tools/digest_sweep.py old.json
    PYTHONPATH=/path/to/new python tools/digest_sweep.py new.json
    diff old.json new.json

It reads the sf0.001 test data the pytest suite reads (``SF``) and runs
a local Ray with ``--cpus`` CPUs (default 4).  The CPU count sets the
read tasks per epoch and the state hosts per driver (``min(partitions,
CPUs)``), so compare two checkouts at the same count:

    python tools/digest_sweep.py --cpus 1 out.json
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

SF = os.path.expanduser("~/testdata/sf0.001")  # the pytest suite's sf0.001 tables
STREAM_FIXTURE = "/tmp/raystat_fixtures/stream_pytest"
N_ROWS, N_EPOCHS = 8000, 4
WIDE_FIXTURE = "/tmp/raystat_fixtures/stream_sweep_wide"
WIDE_ROWS = 120_000  # 8 files of ~0.9 MB per epoch
WEEK, GAP = 7 * 86400, 7200
LATE = 200 * 3600  # the sketch/join tests' lateness: nothing drops
TIGHT = 3600  # rows one arrival epoch late drop at the routers
# configurations run as a stop after epoch 1 and a resume: name -> twin
RESUMED = {"cep_resumed": "cep", "dedup_retention_resumed": "dedup_retention",
           "interval_resumed": "interval", "asof_resumed": "asof",
           "stream_tumbling_resumed": "stream_tumbling",
           "stream_session_resumed": "stream_session"}


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
        # a hop that does not divide the window: 1-2 covering windows a row
        "stream_hopping_2400": stream(hop_s=2400),
        "stream_session": stream(session_gap_s=1800, n_salts=1),
        "stream_token_comoment": stream(token_stats=True, comoment_stats=True),
        "stream_passthrough_per_source_changes": stream(
            passthrough=True, watermark_scope="per_source", emit_changes=True),
        "stream_quarter_lateness": stream(allowed_lateness_s=lat // 4),
        "stream_json": stream(tok_json, file_format="json"),
        "stream_multitask": stream(WIDE_FIXTURE),
        "stream_multitask_batch4096": stream(WIDE_FIXTURE, batch_size=4096),
        "stream_session_passthrough_per_source": stream(
            session_gap_s=1800, n_salts=1, passthrough=True, watermark_scope="per_source"),
        "stream_unweighted": stream(weight_col=None,
                                    specs={"skew": "skewness", "kurt": "kurtosis"}),
        "stream_session_per_source_changes_tokens": stream(
            session_gap_s=1800, n_salts=1, watermark_scope="per_source",
            emit_changes=True, token_stats=True),
        # every salt of a source in one partition: the in-partition
        # cross-salt sum of 3+ salts, whose float order shows in the
        # token power sums (> 2**53)
        "stream_one_partition_4salts": stream(
            n_partitions=1, n_salts=4, batch_size=500, token_stats=True,
            emit_changes=True),
        "hll_tumbling": sketch(HllStreamDriver, window_size_s=WEEK),
        "hll_hopping": sketch(HllStreamDriver, window_size_s=2 * 86400, hop_s=86400),
        "hll_session": sketch(HllStreamDriver, session_gap_s=GAP),
        "mg_tumbling": sketch(MgStreamDriver, window_size_s=WEEK, top=5),
        "mg_hopping": sketch(MgStreamDriver, window_size_s=2 * 86400, hop_s=86400, top=5),
        "mg_session": sketch(MgStreamDriver, session_gap_s=GAP, top=5),
        "kll_tumbling": sketch(KllStreamDriver, window_size_s=WEEK),
        "kll_hopping": sketch(KllStreamDriver, window_size_s=2 * 86400, hop_s=86400),
        "kll_session": sketch(KllStreamDriver, session_gap_s=GAP),
        "bottomk_tumbling": sketch(BottomKStreamDriver, window_size_s=WEEK, k=5),
        # 2 h windows every hour under the tight lateness: a row's
        # earlier window may have closed while its later one is open
        "bottomk_hopping": sketch(BottomKStreamDriver, window_size_s=7200, hop_s=3600,
                                  k=5, allowed_lateness_s=TIGHT),
        "bottomk_session": sketch(BottomKStreamDriver, session_gap_s=GAP, k=5,
                                  batch_size=48),
        "cms_tumbling": sketch(CmsStreamDriver, window_size_s=WEEK, probe_mod=3),
        "cms_hopping": sketch(CmsStreamDriver, window_size_s=7200, hop_s=3600, probe_mod=3,
                              allowed_lateness_s=TIGHT),
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


def _ipc_sha256(files: list[str], sort_by: str | None = None) -> str:
    """sha256 of the rows of Parquet ``files`` (concatenated, optionally
    sorted) as an Arrow IPC stream, schema metadata stripped."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    if not files:
        return ""
    t = pa.concat_tables([pq.read_table(f) for f in files], promote_options="default")
    if sort_by:
        t = t.sort_by([(sort_by, "ascending")])
    t = t.replace_schema_metadata(None)
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def _digests(out: str) -> dict:
    res = {}
    for mdir in sorted(glob.glob(os.path.join(out, "**", "_manifest"), recursive=True)):
        root = os.path.dirname(mdir)
        name = os.path.relpath(root, out)
        per, rows = {}, {}
        for f in sorted(glob.glob(os.path.join(mdir, "epoch-*.json"))):
            with open(f) as fh:
                m = json.load(fh)
            dataset = m.get("kind") == "dataset"
            per[os.path.basename(f)] = m["rows"] if dataset else m["sha256"]
            if not dataset:
                epoch = os.path.basename(f)[len("epoch-"):-len(".json")]
                rows[os.path.basename(f)] = _ipc_sha256(
                    glob.glob(os.path.join(root, f"epoch={epoch}", "part-0.parquet")))
        if any(isinstance(v, int) for v in per.values()):  # dataset sink
            per["rows_sha256"] = _ipc_sha256(
                sorted(glob.glob(os.path.join(root, "epoch=*", "*.parquet"))), "doc_id")
        if rows:
            per["epoch_rows_sha256"] = rows
        res[name] = per
    return res


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="the JSON file to write")
    ap.add_argument("--cpus", type=int, default=4, help="local Ray CPUs (default 4)")
    args = ap.parse_args(argv)
    import logging

    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
                 logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    result = {}
    configs = _configs()
    for name in [*configs, *RESUMED]:
        make = configs[RESUMED.get(name, name)]
        out = tempfile.mkdtemp(prefix=f"rs_sweep_{name}_")
        t0 = time.monotonic()
        try:
            if name in RESUMED:
                first = make(out)
                first.run(stop_after_epoch=1)
                for a in first.actors or ():
                    ray.kill(a)
                drv = make(out)
                m = drv.run(resume=True)
            else:
                drv = make(out)
                m = drv.run()
            late = {e: v["late_dropped"] for e, v in m["epochs"].items()
                    if e != "final" and "late_dropped" in v}
            result[name] = {"late_dropped": late, "sinks": _digests(out)}
            for a in drv.actors or ():
                ray.kill(a)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        print(name, "ok", f"{time.monotonic() - t0:.2f}s", flush=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
