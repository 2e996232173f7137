"""The one epoch loop every streaming driver runs on: ``StreamDriver``
(moment state) and the sketch, CEP, dedup, interval-join and as-of
drivers all subclass :class:`EpochDriverBase`.

Per arrival epoch ``e`` (``input_dir/arrival=e/*.parquet``):

1. the stage: ``_epoch_dataset(e)``, an :class:`EpochRead` over the
   epoch's files, runs the side-effect-free router as plain Ray
   tasks, at most one per Ray CPU slot, each reading a contiguous
   slice of the files with pyarrow and calling the router on each
   batch (the batches a one-task Ray Data read gives, without its
   hive partition column ``arrival``, or ``batch_size``-row slices).
   The router comes from ``_router()``, built from the watermark in
   force.  Each batch returns one row (``state.Router``): its
   bookkeeping, its kernel time and its partial table as Arrow IPC;
2. ``_route_epoch``: the driver sums the bookkeeping and ``_advance``
   moves the watermark, which is all the next epoch's router depends
   on; it then starts epoch ``e+1``'s stage on a second thread, and
   ``_ingest_barrier`` routes epoch ``e``'s partials with at most one
   ``ingest`` per state host (``state.route_partials``), each carrying
   its owned partitions' slices, and waits on those calls: an error
   in any partition's ingest raises there;
3. ``_run_epoch``: ``_emit`` closes every partition, in pid order, at
   the watermark in force and commits what closed through the
   exactly-once sink;
4. ``_checkpoint(e)``: one snapshot file per logical partition plus
   ``driver.json`` (the clock, the committed epochs, the metrics).

The ``n_partitions`` logical partitions live in ``min(n_partitions,
CPU slots)`` ``state.PartitionHost`` actors (``self.actors``), each
owning a contiguous range of partition ids; ``_call`` runs a
partition method on every partition and returns the results in pid
order, so outputs and checkpoints do not depend on the host count.

So epoch ``e+1``'s read and partial kernel run while the driver
routes, closes, commits and checkpoints epoch ``e``.  The stage has no
side effects, and epoch ``e+1``'s partials reach the actors only in
``_run_epoch(e+1)``, after ``_checkpoint(e)``: the state, the outputs
and a resume are what the serial loop gives.  The depth is 1: epoch
``e+2``'s router needs epoch ``e+1``'s watermark.  ``run`` starts no
stage past ``stop_after_epoch`` or the last epoch, and waits for the
one in flight before it returns or raises.

``run(resume=True)`` restores the latest checkpoint and replays from
the next epoch; sinks skip epochs they already committed.

The driver contract: :class:`EpochDriverBase` owns the event-time
clock, the sink, the close-and-commit, the checkpoint and the
teardown, as the reference's engine owns stream time, grace and the
commit around a UDAF (PAPER.md §0).  The clock is one watermark in
microseconds, ``max(watermark, max event ts - lateness_us)`` after
each epoch, plus a frontier per source when the routers report
per-source maxima; ``_watermark()`` gives it in the unit the routers
and the kind take (whole seconds unless a driver says otherwise).  A
driver is only:

- ``_partition()``: its state kind (a ``state.Kind`` subclass) and
  the kind's arguments;
- ``_router()``: its per-batch kernel, a ``state.Router`` (the one
  router frame: it times the kernel, assigns each partial row its
  partition and returns the row ``state.partial_row`` builds);
- ``sink_name`` and ``sort_by`` (columns, or a function of the
  closed table);
- ``lateness_us``, set by its constructor.

``StreamDriver`` adds its metadata join and EMIT CHANGES (its own
``_emit``) and the passthrough (its own ``_run_epoch``); dedup closes
on the epoch rather than a watermark.  Every driver's partitions are
one class, ``state.KeyedPartition``, running the driver's kind:
``ingest``, ``close(arg)`` (what ``_emit`` calls), ``peek_state``,
``get_metrics``, and ``snapshot`` / ``restore`` of one
``state-pNNNN.parquet`` per partition that holds the state and its
counters.  A restore raises when a partition's snapshot is missing
from the checkpoint: ``driver.json`` is written after every snapshot,
so a missing file is a fault, and resuming on empty state would break
exactly-once.

The sketch, join and dedup fixtures write the arrival layout through
:func:`arrival_fixture`.
"""

from __future__ import annotations

import glob
import json
import os
import re
import shutil
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray

from raystat.streaming.sink import ExactlyOnceParquetSink
from raystat.streaming.state import END, NEG, cpu_slots, route_partials, start_hosts

# rows per Parquet read batch: the batch Ray Data's Parquet reader
# gives rows under 1.28 kB
READ_BATCH_ROWS = 10_000


def parquet_batches(files: list[str]):
    """The batches of Parquet ``files`` in order, as one Ray Data read
    task gives them: at most ``READ_BATCH_ROWS`` rows each, never
    spanning a row group.  Unlike Ray Data's reader, it adds no hive
    partition column (``arrival`` for ``arrival=N/*``): the epoch is
    the driver's, not a row's."""
    fmt, fs = pads.ParquetFileFormat(), pafs.LocalFileSystem()
    for path in files:
        frag = fmt.make_fragment(path, fs)
        for rb in frag.to_batches(batch_size=READ_BATCH_ROWS, use_threads=False):
            yield pa.Table.from_batches([rb])


@ray.remote
def _route_files(files: list[str], read, batch_size: int | None, router) -> pa.Table | None:
    """One read task of an epoch's stage: ``router`` over the non-empty
    batches ``read(files)`` yields, or, with a ``batch_size``, over
    their rows concatenated and cut into ``batch_size``-row batches
    (the last one short).  Returns the router rows (None if the files
    hold no rows)."""
    batches = [b for b in read(files) if b.num_rows]
    if batch_size and batches:
        rows = pa.concat_tables(batches)
        batches = [rows.slice(i, batch_size) for i in range(0, rows.num_rows, batch_size)]
    out = [router(b) for b in batches]
    return pa.concat_tables(out, promote_options="default") if out else None


class EpochRead:
    """One epoch's input for the stage: its files in sorted order, read
    by ``tasks`` plain Ray tasks, each over a contiguous slice of them
    with ``read(files)`` (``_route_files``).  It has the shape of the
    Ray Data Dataset calls the stage makes, which wrappers of
    ``_epoch_dataset`` (the benchmark's tracer) rely on:
    ``map_batches(router, batch_size=...)``, lazy, then
    ``to_pandas()``, which runs the tasks and returns their router rows
    in task order.  ``tables()`` yields each task's result as it is
    (the passthrough's kept rows)."""

    def __init__(self, files: list[str], read, tasks: int, router=None,
                 batch_size: int | None = None):
        self.files, self.read, self.tasks = files, read, tasks
        self.router, self.batch_size = router, batch_size

    def map_batches(self, router, batch_size: int | None = None) -> EpochRead:
        return EpochRead(self.files, self.read, self.tasks, router, batch_size)

    def tables(self):
        """Run the tasks; yield their results in task order, fetching
        one at a time (a task over zero-row files yields nothing)."""
        refs = [
            _route_files.remote(part.tolist(), self.read, self.batch_size, self.router)
            for part in np.array_split(self.files, self.tasks)
        ]
        for ref in refs:
            t = ray.get(ref)
            if t is not None:
                yield t

    def to_pandas(self) -> pd.DataFrame:
        tables = list(self.tables())
        if not tables:  # an epoch of zero-row files
            return pd.DataFrame()
        return pa.concat_tables(tables, promote_options="default").to_pandas()


class EpochDriverBase:
    """The driver contract (see the module docstring)."""

    # bookkeeping columns summed into each epoch's metrics
    book_sums = ("rows_in", "late_dropped", "partial_rows")
    sink_name = ""  # the sink's directory under out_dir
    sort_by = None  # the committed rows' sort columns, or a function of the table
    checkpointed = ()  # driver-side objects saved in driver.json (to_state / from_state)

    def __init__(self, input_dir: str, out_dir: str, n_partitions: int = 8,
                 batch_size: int | None = None):
        self.input_dir = input_dir
        self.out_dir = out_dir
        self.n_partitions = n_partitions
        self.batch_size = batch_size
        self.ckpt_root = os.path.join(out_dir, "_checkpoints")
        os.makedirs(self.ckpt_root, exist_ok=True)
        self.sink = ExactlyOnceParquetSink(out_dir, self.sink_name)
        # the clock: the watermark and each source's frontier (sources a
        # router reports per-source maxima for), in us
        self.lateness_us = 0
        self.watermark_us = NEG
        self.src_watermark: dict[str, int] = {}
        self.metrics: dict[str, dict] = {}
        self.final: dict | None = None
        self.actors: list | None = None  # the PartitionHost handles
        # set by run(): the stage thread, the epoch whose stage to start
        # next (None: none) and (epoch, future) of the stage in flight
        self._pool = self._next_epoch = self._prefetch = None

    # -- epochs -------------------------------------------------------------

    def arrival_epochs(self) -> list[int]:
        out = []
        for d in glob.glob(os.path.join(self.input_dir, "arrival=*")):
            m = re.search(r"arrival=(\d+)$", d)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def _epoch_files(self, epoch: int, ext: str) -> list[str]:
        return sorted(
            glob.glob(os.path.join(self.input_dir, f"arrival={epoch}", f"*.{ext}"))
        )

    @staticmethod
    def _read_tasks(files: list[str], block_bytes: int) -> int:
        """Read tasks per epoch = min(files, bytes / block bytes, CPU
        slots).  A task has a fixed cost (scheduling, a worker hop, its
        argument and result transfer) worth paying once per
        ``block_bytes`` of input, and more tasks than slots only queue
        (the rule ``state.start_hosts`` applies to state hosts)."""
        total_bytes = sum(os.path.getsize(f) for f in files)
        return int(min(max(1, total_bytes // block_bytes), len(files), cpu_slots()))

    def _epoch_dataset(self, epoch: int) -> EpochRead | None:
        files = self._epoch_files(epoch, "parquet")
        if not files:
            return None
        return EpochRead(files, parquet_batches, self._read_tasks(files, 2 * 1024 * 1024))

    def _ensure_actors(self):
        if self.actors is None:
            self.actors = start_hosts(self.n_partitions, *self._partition())

    def _call(self, method: str, *args) -> list:
        """Partition method ``method(*args)`` on every logical
        partition; the results in pid order."""
        per_host = ray.get([h.call.remote(method, *args) for h in self.actors])
        return [r for rs in per_host for r in rs]

    def prepare(self):
        """Provision the state hosts and wait until every host is live
        and has taken its first Arrow argument (``ready``; setup,
        excluded from throughput timing in bench)."""
        self._ensure_actors()
        # with a column: Ray deserializes a column-less table without
        # importing ray.data
        probe = pa.table({"ready": pa.array([], pa.int8())})
        ray.get([a.ready.remote(probe) for a in self.actors])
        return self

    def _stage(self, epoch: int, router) -> tuple[pd.DataFrame | None, float]:
        """Run ``router`` over epoch ``epoch``: its rows, one per batch
        (None for an epoch without files), and the seconds it took."""
        t0 = time.monotonic()
        ds = self._epoch_dataset(epoch)
        if ds is None:
            return None, 0.0
        book = ds.map_batches(router, batch_size=self.batch_size).to_pandas()
        return book, time.monotonic() - t0

    def _route_epoch(self, epoch: int) -> tuple[dict, pd.DataFrame | None]:
        """Take epoch ``epoch``'s router rows (started during the
        previous epoch, or run now), sum their bookkeeping and
        ``_advance``; start the next epoch's stage; route this epoch's
        partials to the actors.  Returns the epoch's metrics and the
        router rows (None for an epoch without files)."""
        pending, self._prefetch = self._prefetch, None
        if pending is not None:
            assert pending[0] == epoch, (pending[0], epoch)
            book, t_pipe = pending[1].result()
        else:
            book, t_pipe = self._stage(epoch, self._router())
        em = {c: 0 for c in self.book_sums}
        em.update(max_ts_us=-1, ingest_calls=0, sec_pipeline=round(t_pipe, 3),
                  sec_barrier=0.0)
        if book is not None and len(book):
            for c in self.book_sums:
                em[c] = int(book[c].sum())
            if "max_ts_us" in book:
                em["max_ts_us"] = int(book["max_ts_us"].max())
            em["n_batches"] = int(len(book))
            # in us: a light kernel (the joins' filter) sums below 1 ms an epoch
            em["sec_route_sum"] = round(float(book["sec_route"].sum()), 6)
            em["sec_fn_sum"] = round(float(book["sec_fn"].sum()), 6)
        self._advance(em, book)
        if self._next_epoch is not None:
            nxt = self._next_epoch
            self._prefetch = (nxt, self._pool.submit(self._stage, nxt, self._router()))
        if book is not None:
            t0 = time.monotonic()
            em["ingest_calls"] = self._ingest_barrier(book)
            em["sec_barrier"] = round(time.monotonic() - t0, 3)
        return em, book

    def _ingest_barrier(self, book: pd.DataFrame) -> int:
        """Route this epoch's partials (the router rows in ``book``) with
        one ingest per host and wait until every partition applied
        them; an ingest error raises here.  Required before closing
        windows for this epoch.  Returns the number of ingest calls."""
        refs = route_partials(book, self.actors, self.n_partitions)
        ray.get(refs)
        return len(refs)

    # -- the clock ------------------------------------------------------------

    def _advance(self, em: dict, book: pd.DataFrame | None) -> None:
        """Move the watermark past an epoch, from its summed bookkeeping
        ``em``: ``max(watermark, max event ts - lateness)``, and each
        source's frontier the same way from the routers' per-source
        maxima (``src_max_json``, a per-source watermark's books)."""
        if em["max_ts_us"] >= 0:
            self.watermark_us = max(self.watermark_us, em["max_ts_us"] - self.lateness_us)
        # an epoch of zero-row files has no router rows, so no frontiers
        if book is not None and "src_max_json" in book:
            for js in book["src_max_json"]:
                for src, m in json.loads(js or "{}").items():
                    wm = int(m) - self.lateness_us
                    self.src_watermark[src] = max(self.src_watermark.get(src, NEG), wm)

    def _watermark(self):
        """The watermark in force, as the routers and the close take it:
        whole seconds here (``(t - L) // 10**6 == t // 10**6 - L`` for
        a lateness L of whole seconds)."""
        return self.watermark_us // 1_000_000

    # -- close and commit ---------------------------------------------------

    def _run_epoch(self, epoch: int):
        """Route epoch ``epoch``, then close and commit what its
        watermark made final; returns its router rows."""
        em, book = self._route_epoch(epoch)
        t0 = time.monotonic()
        self._emit(epoch, self._watermark())
        em.update(sec_emit=round(time.monotonic() - t0, 3), watermark_us=self.watermark_us)
        self.metrics[str(epoch)] = em
        return book

    def _emit(self, epoch: int, wm) -> None:
        """Close every partition at ``wm`` and commit the rows they
        emit as epoch ``epoch`` (an empty table when nothing closed),
        sorted by ``sort_by``."""
        tables = [t for t in self._call("close", wm) if t.num_rows]
        if not tables:
            self.sink.commit(epoch, pa.table({}))
            return
        out = pa.concat_tables(tables, promote_options="default")
        sort_by = self.sort_by(out) if callable(self.sort_by) else self.sort_by
        self.sink.commit(epoch, out, sort_by=sort_by)

    # -- checkpoint / resume -------------------------------------------------

    def _driver_state(self) -> dict:
        return {"watermark_us": self.watermark_us, "src_watermark_us": self.src_watermark,
                "committed": self.sink.committed_epochs(),
                **{k: getattr(self, k).to_state() for k in self.checkpointed}}

    def _load_driver_state(self, state: dict) -> None:
        self.watermark_us = int(state["watermark_us"])
        self.src_watermark = {k: int(v) for k, v in state["src_watermark_us"].items()}
        for k in self.checkpointed:
            setattr(self, k, type(getattr(self, k)).from_state(state[k]))

    def _ckpt_dir(self, epoch: int) -> str:
        return os.path.join(self.ckpt_root, f"epoch-{epoch:06d}")

    def _checkpoint(self, epoch: int):
        d = self._ckpt_dir(epoch)
        os.makedirs(d, exist_ok=True)
        self._call("snapshot", d, epoch)
        state = {"epoch": epoch, "metrics": self.metrics, **self._driver_state()}
        tmp = os.path.join(d, "driver.json.tmp")
        with open(tmp, "w") as f:
            json.dump(state, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, os.path.join(d, "driver.json"))

    def latest_checkpoint(self) -> int | None:
        done = [
            int(m.group(1))
            for d in glob.glob(os.path.join(self.ckpt_root, "epoch-*"))
            if (m := re.search(r"epoch-(\d+)$", d))
            and os.path.exists(os.path.join(d, "driver.json"))
        ]
        return max(done) if done else None

    def _restore(self, epoch: int):
        d = self._ckpt_dir(epoch)
        with open(os.path.join(d, "driver.json")) as f:
            st = json.load(f)
        self.metrics = {str(k): v for k, v in st["metrics"].items()}
        self._load_driver_state(st)
        self._ensure_actors()
        self._call("restore", d)

    # -- main loop ------------------------------------------------------------

    def run(self, stop_after_epoch: int | None = None, resume: bool = False) -> dict:
        """Process all arrival epochs (optionally stopping early to
        simulate a crash).  Returns ``{"epochs": per-epoch metrics,
        "final": the end-of-stream metrics (None after an early stop),
        **driver state}``."""
        epochs = self.arrival_epochs()
        if not epochs:
            raise FileNotFoundError(f"no arrival=* dirs under {self.input_dir}")
        start = 0
        if resume:
            ck = self.latest_checkpoint()
            if ck is not None:
                self._restore(ck)
                start = ck + 1
        self._ensure_actors()
        todo = [x for x in epochs if x >= start]
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="raystat-stage")
        try:
            for i, e in enumerate(todo):
                stop = stop_after_epoch is not None and e >= stop_after_epoch
                self._next_epoch = None if stop or i + 1 == len(todo) else todo[i + 1]
                t0 = time.monotonic()
                self._run_epoch(e)
                self._checkpoint(e)
                self.metrics[str(e)]["sec_total"] = round(time.monotonic() - t0, 3)
                if stop:
                    return self._final_metrics()
            t0 = time.monotonic()
            self._finalize_stream(epochs[-1] + 1)
            self.tail_sec = round(time.monotonic() - t0, 3)
            return self._final_metrics()
        finally:
            # after an error, wait out the stage in flight; its result
            # goes unread, since the error ends the run
            self._pool.shutdown()
            self._pool = self._next_epoch = self._prefetch = None

    def _finalize_stream(self, final_epoch: int):
        """End of stream: close everything, then record the actors'
        metrics."""
        self._emit(final_epoch, END)
        self._record_final(final_epoch)

    def _record_final(self, final_epoch: int):
        self.final = {"epoch": final_epoch, "state_metrics": self._call("get_metrics")}

    def _final_metrics(self) -> dict:
        return {"epochs": self.metrics, "final": self.final, **self._driver_state()}

    def result_table(self) -> pa.Table:
        return self.sink.read_all()

    def cleanup(self, delete_output: bool = False) -> None:
        """Teardown (ksqlDB's ``DROP ... DELETE TOPIC``,
        AllUdafIT.java:461-498): kill the state hosts, drop the
        checkpoints and, with ``delete_output``, the sink output."""
        for a in self.actors or ():
            try:
                ray.kill(a)
            except Exception:
                pass
        self.actors = None
        shutil.rmtree(self.ckpt_root, ignore_errors=True)
        if delete_output:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    # -- the driver's own parts --------------------------------------------------

    def _partition(self) -> tuple:  # pragma: no cover - abstract
        """The state kind (a ``state.Kind`` subclass) and its
        constructor arguments."""
        raise NotImplementedError

    def _router(self):  # pragma: no cover - abstract
        """The epoch's ``map_batches`` callable (a ``state.Router``),
        built from the watermark in force (``_watermark()``, which it
        must copy: ``_advance`` moves it while the router runs)."""
        raise NotImplementedError


# -- fixtures -----------------------------------------------------------------


def arrival_fixture(out: str, params: dict, build) -> str:
    """Materialize an arrival-partitioned stream at ``out`` once:
    ``build()`` returns a table and each row's arrival epoch, and the
    rows of epoch e (for e < ``params["n_epochs"]``) go to
    ``arrival=e/part-0.parquet``.  Cached: ``params`` is recorded in
    ``_fixture.json`` and a fixture with the same record is reused.
    Returns ``out``."""
    done = os.path.join(out, "_fixture.json")
    if os.path.exists(done):
        try:
            with open(done) as f:
                if json.load(f) == params:
                    return out
        except Exception:
            pass
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(tmp)
    tbl, epoch = build()
    for e in range(params["n_epochs"]):
        d = os.path.join(tmp, f"arrival={e}")
        os.makedirs(d)
        pq.write_table(tbl.filter(pa.array(epoch == e)), os.path.join(d, "part-0.parquet"))
    with open(os.path.join(tmp, "_fixture.json"), "w") as f:
        json.dump(params, f)
    os.replace(tmp, out)
    return out


def events_fixture(sf_dir: str, n_epochs: int, root: str, name: str, version: int,
                   columns: list[str], rows) -> str:
    """The events table of ``sf_dir`` (its ``columns``) as an
    :func:`arrival_fixture` under ``root``: ``rows(t, ts_us)`` returns
    the stream's table and the mask (or slice) of the events it
    holds.  Arrival epoch = event-time quantile, except a
    deterministic 5% of rows (event_id % 20 == 0) arrive one epoch
    late (the last epoch's stay in it)."""

    def build():
        t = pq.read_table(os.path.join(sf_dir, "events.parquet"), columns=columns)
        ts_us = (t["ts"].to_numpy(zero_copy_only=False)
                 .astype("datetime64[us]").astype(np.int64))
        tbl, keep = rows(t, ts_us)
        eid, ts_us = t["event_id"].to_numpy(zero_copy_only=False)[keep], ts_us[keep]
        n = len(eid)
        order = np.argsort(ts_us, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        epoch = np.minimum((rank * n_epochs) // max(n, 1), n_epochs - 1)
        return tbl, np.minimum(epoch + ((eid % 20) == 0), n_epochs - 1)

    tag = sf_dir.strip("/").replace("/", "_")
    params = {"sf_dir": sf_dir, "n_epochs": n_epochs, "v": version}
    return arrival_fixture(os.path.join(root, f"{name}_{tag}_e{n_epochs}"), params, build)
