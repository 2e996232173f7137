"""The one epoch loop every streaming driver runs on: ``StreamDriver``
(moment state) and the sketch, CEP, dedup, interval-join and as-of
drivers all subclass :class:`EpochDriverBase`.

Per arrival epoch ``e`` (``input_dir/arrival=e/*.parquet``):

1. the stage: ``_epoch_dataset(e)``, a lazy Dataset over the epoch's
   files with at most one read task per Ray CPU slot, and one
   side-effect-free ``map_batches(router)`` over it, which Ray fuses
   with the read.  The router comes from ``_router()``, built from the
   driver state as it stands.  Each batch returns one row
   (``state.partial_row``): its bookkeeping plus its partial table as
   Arrow IPC;
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

import pandas as pd
import pyarrow as pa
import ray

from raystat.streaming.state import route_partials

NEG = -(2**62)  # watermark before any event
END = 2**62  # end-of-stream watermark: every window closes


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
        slots).  Each Ray Data task costs ~35 ms, so more tasks than
        slots only queue (a fused read+count of 11 epochs at Ray
        num_cpus=1 on a 1-vCPU host: 7.5 s at 16 tasks per epoch, 3.0 s
        at 1); the default planner would split tiny epochs into
        ctx.read_op_min_num_blocks (200) slivers.  More blocks than
        files would insert a SplitBlocks op that breaks the
        read->router fusion.  That fusion holds only while the router's
        map_batches carries no task-level remote arg (retry or CPU
        settings, ...) and no batch_size: otherwise decoded blocks
        round-trip through the object store."""
        total_bytes = sum(os.path.getsize(f) for f in files)
        slots = int(ray.cluster_resources().get("CPU", 1))
        return int(min(max(1, total_bytes // block_bytes), len(files), slots))

    def _epoch_dataset(self, epoch: int):
        import ray.data as rd

        files = self._epoch_files(epoch, "parquet")
        if not files:
            return None
        return rd.read_parquet(
            files, override_num_blocks=self._read_tasks(files, 2 * 1024 * 1024)
        )

    def prepare(self):
        """Provision the state-actor pool and wait until every actor is
        live (setup; excluded from throughput timing in bench)."""
        self._ensure_actors()
        ray.get([a.get_metrics.remote() for a in self.actors])
        return self

    def _stage(self, epoch: int, router) -> tuple[pd.DataFrame | None, float]:
        """Run ``router`` over epoch ``epoch``: its rows, one per batch
        (None for an epoch without files), and the seconds it took."""
        t0 = time.monotonic()
        ds = self._epoch_dataset(epoch)
        if ds is None:
            return None, 0.0
        # zero_copy_batch: routers never mutate their input batch, so Ray
        # must not copy its buffers.  No task-level remote args: the
        # stage has no side effects, so Ray's default retries are safe.
        kwargs = {"batch_format": "pyarrow", "zero_copy_batch": True}
        if self.batch_size:
            kwargs["batch_size"] = self.batch_size
        return ds.map_batches(router, **kwargs).to_pandas(), time.monotonic() - t0

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
