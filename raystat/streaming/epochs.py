"""The one epoch loop every streaming driver runs on: ``StreamDriver``
(moment state) and the sketch, CEP, dedup, interval-join and as-of
drivers all subclass :class:`EpochDriverBase`.

Per arrival epoch ``e`` (``input_dir/arrival=e/*.parquet``):

1. the stage: ``_epoch_dataset(e)``, an :class:`EpochRead` over the
   epoch's files, runs the side-effect-free router as plain Ray
   tasks, at most one per Ray CPU slot, each reading a contiguous
   slice of the files with pyarrow and calling the router on each
   batch (the batches a one-task Ray Data read gives, or
   ``batch_size``-row slices).  The router comes from ``_router()``,
   built from the driver state as it stands.  Each batch returns one
   row (``state.partial_row``): its bookkeeping plus its partial table
   as Arrow IPC;
2. ``_route_epoch``: the driver sums the bookkeeping and ``_advance``
   moves its watermark, which is all the next epoch's router depends
   on; it then starts epoch ``e+1``'s stage on a second thread, and
   ``_ingest_barrier`` routes epoch ``e``'s partials with at most one
   ``ingest`` per state actor (``state.route_partials``) and waits on
   those calls: an actor error raises there;
3. ``_run_epoch``: ``_emit`` closes what the watermark passed and
   commits it through the exactly-once sink;
4. ``_checkpoint(e)``: actor snapshots plus ``_driver_state()``.

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

Subclasses provide ``_ensure_actors``, ``_router()``, ``_advance(em,
book)``, ``_emit`` and the ``_driver_state()`` /
``_load_driver_state(state)`` checkpoint payload, and set ``sink``;
the actors expose ``ingest / snapshot / restore / get_metrics`` and
the close method ``_emit`` calls.  Every sketch kind runs one actor
class, ``sketch.SketchPartition``, which takes the kind's merge and
finish; the moment, CEP, dedup and join drivers have their own.
"""

from __future__ import annotations

import glob
import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import ray

from raystat.streaming.state import route_partials

NEG = -(2**62)  # watermark before any event
END = 2**62  # end-of-stream watermark: every window closes
# rows per Parquet read batch: the batch Ray Data's Parquet reader
# gives rows under 1.28 kB
READ_BATCH_ROWS = 10_000


def with_partitions(table: pa.Table, path: str) -> pa.Table:
    """``table`` read from ``path`` plus a string column for each
    ``key=value`` directory of the path it lacks (hive partitioning, as
    Ray Data's readers add it: ``arrival`` for ``arrival=N/*``)."""
    for d in os.path.dirname(path).split("/"):
        if d.count("=") == 1:
            key, value = d.split("=")
            if key not in table.column_names:
                table = table.append_column(key, pa.repeat(value, table.num_rows))
    return table


def parquet_batches(files: list[str]):
    """The batches of Parquet ``files`` in order, as one Ray Data read
    task gives them: at most ``READ_BATCH_ROWS`` rows each, never
    spanning a row group, with the path's partition columns."""
    fmt, fs = pads.ParquetFileFormat(), pafs.LocalFileSystem()
    for path in files:
        frag = fmt.make_fragment(path, fs)
        for rb in frag.to_batches(batch_size=READ_BATCH_ROWS, use_threads=False):
            yield with_partitions(pa.Table.from_batches([rb]), path)


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
    in task order."""

    def __init__(self, files: list[str], read, tasks: int, router=None,
                 batch_size: int | None = None):
        self.files, self.read, self.tasks = files, read, tasks
        self.router, self.batch_size = router, batch_size

    def map_batches(self, router, batch_size: int | None = None) -> EpochRead:
        return EpochRead(self.files, self.read, self.tasks, router, batch_size)

    def to_pandas(self) -> pd.DataFrame:
        refs = [
            _route_files.remote(part.tolist(), self.read, self.batch_size, self.router)
            for part in np.array_split(self.files, self.tasks)
        ]
        tables = [t for t in ray.get(refs) if t is not None]
        if not tables:  # an epoch of zero-row files
            return pd.DataFrame()
        return pa.concat_tables(tables, promote_options="default").to_pandas()


class EpochDriverBase:
    # bookkeeping columns summed into each epoch's metrics
    book_sums = ("rows_in", "late_dropped", "partial_rows")
    wm_attr = "watermark_s"  # the watermark ``_run_epoch`` closes with

    def __init__(self, input_dir: str, out_dir: str, n_partitions: int = 8,
                 batch_size: int | None = None):
        self.input_dir = input_dir
        self.out_dir = out_dir
        self.n_partitions = n_partitions
        self.batch_size = batch_size
        self.ckpt_root = os.path.join(out_dir, "_checkpoints")
        os.makedirs(self.ckpt_root, exist_ok=True)
        self.metrics: dict[str, dict] = {}
        self.actors: list | None = None
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
        ``block_bytes`` of input, and more tasks than slots only
        queue."""
        total_bytes = sum(os.path.getsize(f) for f in files)
        slots = int(ray.cluster_resources().get("CPU", 1))
        return int(min(max(1, total_bytes // block_bytes), len(files), slots))

    def _epoch_dataset(self, epoch: int) -> EpochRead | None:
        files = self._epoch_files(epoch, "parquet")
        if not files:
            return None
        return EpochRead(files, parquet_batches, self._read_tasks(files, 2 * 1024 * 1024))

    def prepare(self):
        """Provision the state-actor pool and wait until every actor is
        live and has taken its first Arrow argument (``ready``; setup,
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
            em["sec_route_sum"] = round(float(book["sec_route"].sum()), 3)
            if "sec_fn" in book:
                em["sec_fn_sum"] = round(float(book["sec_fn"].sum()), 3)
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
        one ingest per partition and wait until every actor applied
        them; an ingest error raises here.  Required before closing
        windows for this epoch.  Returns the number of ingest calls."""
        refs = route_partials(book, self.actors)
        ray.get(refs)
        return len(refs)

    def _commit_closed(self, epoch: int, close: str, *args, sort_by=None) -> None:
        """Call actor method ``close(*args)`` on every actor and commit
        the non-empty results as epoch ``epoch`` (an empty table when
        nothing closed).  ``sort_by`` may be a function of the table."""
        tables = [
            t for t in ray.get([getattr(a, close).remote(*args) for a in self.actors])
            if t is not None and t.num_rows
        ]
        if not tables:
            self.sink.commit(epoch, pa.table({}))
            return
        out = pa.concat_tables(tables, promote_options="default")
        self.sink.commit(epoch, out, sort_by=sort_by(out) if callable(sort_by) else sort_by)

    # -- checkpoint / resume -------------------------------------------------

    def _ckpt_dir(self, epoch: int) -> str:
        return os.path.join(self.ckpt_root, f"epoch-{epoch:06d}")

    def _checkpoint(self, epoch: int):
        d = self._ckpt_dir(epoch)
        os.makedirs(d, exist_ok=True)
        ray.get([a.snapshot.remote(d, epoch) for a in self.actors])
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
        ray.get([a.restore.remote(d) for a in self.actors])

    # -- main loop ------------------------------------------------------------

    def run(self, stop_after_epoch: int | None = None, resume: bool = False) -> dict:
        """Process all arrival epochs (optionally stopping early to
        simulate a crash); returns the final metrics dict."""
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
        self.metrics["final"] = {
            "epoch": final_epoch,
            "state_metrics": ray.get([a.get_metrics.remote() for a in self.actors]),
        }

    def _final_metrics(self) -> dict:
        return {"epochs": self.metrics, **self._driver_state()}

    def result_table(self) -> pa.Table:
        return self.sink.read_all()

    # -- subclass hooks --------------------------------------------------------

    def _ensure_actors(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _router(self):  # pragma: no cover - abstract
        """The epoch's ``map_batches`` callable, built from the driver
        state as it stands (it must copy what ``_advance`` mutates)."""
        raise NotImplementedError

    def _advance(self, em: dict, book: pd.DataFrame | None) -> None:
        """Move the watermark past an epoch, from its summed
        bookkeeping ``em`` and its router rows ``book``."""

    def _run_epoch(self, epoch: int):
        em, _ = self._route_epoch(epoch)
        wm = getattr(self, self.wm_attr)
        self._emit(epoch, wm)
        em[self.wm_attr] = wm
        self.metrics[str(epoch)] = em

    def _emit(self, epoch: int, watermark: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def _driver_state(self) -> dict:
        return {}

    def _load_driver_state(self, state: dict) -> None:
        pass
