"""STREAMING CEP — stateful ordered-pattern (funnel) matching through
the engine's epoch/watermark/checkpoint conventions.  The north rule
names the target a "structured-streaming / CEP engine"; the batch
funnel kernel (raystat/dataops/cep.py) covers the bounded form, and
this driver runs the SAME semantics statefully over an unbounded
arrival stream: per key, the earliest strict-order chain of stage
events with every later stage within ``within_us`` of the stage-0
match (the deadline-bounded funnel — the only funnel form whose
verdict becomes FINAL under a watermark).

Finality argument (why the deadline is load-bearing): the engine's
watermark contract drops any arriving event with ``ts <= watermark``,
so every event still to arrive has ``ts > watermark``.  A key's chain
is confined to ``[t0, t0 + within]`` where ``t0`` is its earliest
stage-0 match; once ``t0 + within <= watermark`` (which implies
``t0 < watermark``, so no earlier stage-0 can still arrive), every
event that could influence the verdict has either arrived or is
permanently inadmissible — the funnel emits exactly once and its key
is tombstoned.  Without a deadline the verdict is never final before
end-of-stream, which is why the unbounded form stays batch-only.

State is bounded by the deadline horizon, not the stream: a key's
buffered events retire wholesale when its funnel emits (at watermark
``t0 + within``), and events of keys with no stage-0 match prune as
soon as the watermark passes them (a future stage-0 has
``t0 > watermark >= ts``, and strict order needs ``ts > t0``).  The
tombstone set grows O(emitted keys) — the same cardinality as the
batch output itself.

Dataflow per epoch: the epoch stage's router filters stage events, drops
late rows and returns the ``(key, ts_us, stage)`` rows, which the
driver key-hash-routes to the owning state actor (wire =
stage-matching rows only — CEP is irreducibly row-wise, there is no
sum-mergeable partial for "earliest chain"); actors evaluate ripe
keys at epoch end with the SAME vectorized ``funnel_frame`` kernel the
batch path uses (one factorize + segmented minimum per stage across
all ripe keys at once — no per-key Python), and completed funnels
commit exactly-once.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from raystat.dataops.cep import funnel_frame
from raystat.streaming.epochs import END, NEG, EpochDriverBase
from raystat.streaming.sink import ExactlyOnceParquetSink
from raystat.streaming.state import (
    PendingIngest,
    key_partition,
    partial_row,
    write_parquet_atomic,
)

__all__ = ["CepStreamDriver"]

_NO = np.int64(np.iinfo(np.int64).max)


@ray.remote(num_cpus=0)
class CepStatePartition(PendingIngest):
    """Funnel state for one key-hash partition: a buffer of
    ``(key, ts_us, stage)`` events awaiting a verdict, plus the
    tombstone set of keys whose funnel already emitted.  All imports
    are at module scope (strict by-value-pickling driver context)."""

    def __init__(self, pid: int, n_stages: int, within_us: int):
        self.pid = pid
        self.n_stages = int(n_stages)
        self.within_us = int(within_us)
        self.pending: list[pa.Table] = []
        self.buf: pd.DataFrame | None = None  # key, ts_us, stage
        self.done: set = set()
        self.metrics = {
            "partial_rows_in": 0, "ingests": 0, "funnels_emitted": 0,
            "rows_pruned": 0,
        }

    def _consolidate(self) -> None:
        if not self.pending:
            return
        new = pa.concat_tables(self.pending).to_pandas()
        self.pending = []
        if self.done:
            new = new[~new["key"].isin(self.done)]
        if self.buf is not None and len(self.buf):
            new = pd.concat([self.buf, new], ignore_index=True)
        self.buf = new.reset_index(drop=True)

    def close_funnels(self, watermark_us: int) -> pa.Table | None:
        """Emit every key whose verdict is final at this watermark:
        earliest stage-0 match ``t0`` with ``t0 + within <= wm``.
        Prunes dead buffered rows; returns None when nothing emits."""
        self._consolidate()
        b = self.buf
        if b is None or not len(b):
            return None
        wm = int(watermark_us)
        s0 = b[b["stage"] == 0]
        out = None
        if len(s0):
            t0 = s0.groupby("key", sort=False)["ts_us"].min()
            ripe = t0.index[t0.to_numpy() + self.within_us <= wm]
            if len(ripe):
                m = b["key"].isin(ripe).to_numpy()
                ff = funnel_frame(
                    b[m], key="key", ts="ts_us", type_col="stage",
                    stages=list(range(self.n_stages)),
                    within_us=self.within_us,
                )
                tcols = np.stack(
                    [ff[f"t_{i}"].to_numpy() for i in range(self.n_stages)]
                )
                out = pa.table(
                    {
                        "key": pa.array(ff["key"].to_numpy()),
                        "stages_reached": pa.array(
                            (tcols != _NO).sum(axis=0).astype(np.int64)
                        ),
                        "t0_us": pa.array(ff["t_0"].to_numpy(), pa.int64()),
                    }
                )
                self.done.update(ff["key"].tolist())
                self.metrics["funnels_emitted"] += len(ff)
                b = b[~m]
            # keys holding a live (un-ripe) stage-0 keep all their rows;
            # everything else at-or-below the watermark is dead (a future
            # stage-0 must have t0 > wm >= ts, and strict order needs
            # ts > t0)
            live = set(t0.index) - self.done
        else:
            live = set()
        dead = (~b["key"].isin(live)).to_numpy() & (
            b["ts_us"].to_numpy() <= wm
        )
        if dead.any():
            self.metrics["rows_pruned"] += int(dead.sum())
            b = b[~dead]
        self.buf = b.reset_index(drop=True)
        return out

    def get_metrics(self) -> dict:
        buffered = (self.buf.shape[0] if self.buf is not None else 0) + sum(
            t.num_rows for t in self.pending
        )
        return {
            "partition": self.pid, **self.metrics,
            "buffered_rows": buffered, "tombstones": len(self.done),
        }

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"cep-p{self.pid:04d}.parquet")
        df = self.buf if self.buf is not None else pd.DataFrame(
            {"key": pd.Series(dtype=object),
             "ts_us": pd.Series(dtype=np.int64),
             "stage": pd.Series(dtype=np.int64)}
        )
        t = pa.Table.from_pandas(df, preserve_index=False)
        dt = pa.table({"key": pa.array(sorted(self.done))}) if self.done else (
            pa.table({"key": pa.array([], t.schema.field("key").type)})
        )
        for p, tbl in ((path, t), (path.replace(".parquet", ".done.parquet"), dt)):
            write_parquet_atomic(tbl, p)
        return path

    def restore(self, ckpt_dir: str) -> int:
        path = os.path.join(ckpt_dir, f"cep-p{self.pid:04d}.parquet")
        self.pending = []
        self.buf = None
        self.done = set()
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            self.buf = t.to_pandas()
        dp = path.replace(".parquet", ".done.parquet")
        if os.path.exists(dp):
            self.done = set(pq.read_table(dp)["key"].to_pylist())
        return t.num_rows


class CepRouter:
    """Filter stage: stage-event extraction (``index_in`` on the stage
    list) and late-row drop against the epoch-start watermark; returns
    the surviving ``(key, ts_us, stage)`` rows as data
    (:func:`partial_row`), owned by their key's hash partition, with
    the smallest event ts as batch key."""

    def __init__(self, actors: list, n_partitions: int, key: str, type_col: str,
                 ts_col: str, stages: list, watermark_us: int):
        self.P = n_partitions
        self.key = key
        self.type_col = type_col
        self.ts_col = ts_col
        self.stages = list(stages)
        # microsecond watermark, like the interval/asof routers: the
        # documented contract is "drops ts <= watermark", so an event
        # with ts_us in (wm_s*1e6, (wm_s+1)*1e6) must be ADMITTED —
        # second-granularity comparison would drop it.
        self.wm = int(watermark_us)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows_in = batch.num_rows
        ts_us = batch[self.ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # index_in yields null for non-stage events; fold to -1
        stage = pc.fill_null(
            pc.index_in(batch[self.type_col], value_set=pa.array(self.stages)),
            -1,
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        is_stage = stage >= 0
        keep = is_stage & (ts_us > self.wm)
        idx = np.flatnonzero(keep)
        tbl = part = None
        if idx.size:
            keys = batch[self.key].take(pa.array(idx))
            part = key_partition(keys, self.P, self.key)
            tbl = pa.table(
                {
                    "key": keys,
                    "ts_us": pa.array(ts_us[idx], pa.int64()),
                    "stage": pa.array(stage[idx], pa.int64()),
                }
            )
        return partial_row(
            tbl, part, int(ts_us.min()) if rows_in else -1,
            max_ts_us=int(ts_us.max()) if rows_in else -1,
            late_dropped=int((is_stage & ~keep).sum()), rows_in=rows_in,
        )


class CepStreamDriver(EpochDriverBase):
    """Epoch loop for streaming deadline-bounded funnels: read
    arrival=N -> stage filter + route -> barrier -> advance watermark
    -> emit final verdicts -> exactly-once commit -> checkpoint.
    Output: one row per key that matched stage 0, with the number of
    stages its earliest deadline-bounded chain reached."""

    def __init__(self, input_dir: str, out_dir: str, *, key: str,
                 type_col: str, stages: list, within_us: int,
                 ts_col: str = "ts_us", allowed_lateness_s: int = 3600,
                 n_partitions: int = 8, batch_size: int | None = None):
        super().__init__(input_dir, out_dir, n_partitions, batch_size)
        if len(stages) < 2:
            raise ValueError("a funnel needs at least 2 stages")
        self.key = key
        self.type_col = type_col
        self.ts_col = ts_col
        self.stages = list(stages)
        self.within_us = int(within_us)
        self.lateness_s = int(allowed_lateness_s)
        self.sink = ExactlyOnceParquetSink(out_dir, "funnel")
        self.watermark_s = NEG

    def _ensure_actors(self):
        if self.actors is None:
            self.actors = [
                CepStatePartition.remote(p, len(self.stages), self.within_us)
                for p in range(self.n_partitions)
            ]

    def _driver_state(self) -> dict:
        return {"watermark_s": self.watermark_s,
                "committed": self.sink.committed_epochs()}

    def _load_driver_state(self, state: dict) -> None:
        self.watermark_s = int(state["watermark_s"])

    def _router(self):
        return CepRouter(
            self.actors, self.n_partitions, self.key, self.type_col,
            self.ts_col, self.stages, self._wm_us(self.watermark_s),
        )

    def _advance(self, em: dict, book) -> None:
        if em["max_ts_us"] >= 0:
            self.watermark_s = max(
                self.watermark_s, em["max_ts_us"] // 1_000_000 - self.lateness_s
            )

    @staticmethod
    def _wm_us(watermark_s: int) -> int:
        # clamp before scaling so int64 actor-side compares never overflow
        return int(max(min(watermark_s * 1_000_000, END), NEG))

    def _emit(self, epoch: int, watermark_s: int):
        self._commit_closed(
            epoch, "close_funnels", self._wm_us(watermark_s), sort_by=["key"]
        )
