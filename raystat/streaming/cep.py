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
tombstones grow O(emitted keys) — the same cardinality as the batch
output itself.  Events and tombstones are rows of one Arrow table, the
``_Funnel`` kind's state in ``state.KeyedPartition``.

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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raystat.aggregate import encode_key
from raystat.dataops.cep import funnel_frame
from raystat.streaming.epochs import END, NEG, EpochDriverBase
from raystat.streaming.sink import ExactlyOnceParquetSink
from raystat.streaming.state import Kind, key_partition, partial_row

__all__ = ["CepStreamDriver"]

_NO = np.int64(np.iinfo(np.int64).max)


class _Funnel(Kind):
    """Funnel state for one key-hash partition, as
    ``state.KeyedPartition`` runs it: one ``(key, ts_us, stage)`` table
    holding the events awaiting a verdict, in ingest order, and a
    tombstone row (``stage`` -1, ``ts_us`` its funnel's ``t0``) for each
    key whose funnel already emitted.  ``merge`` drops the new events
    of tombstoned keys; ``close(watermark_us)`` emits every key whose
    verdict is final and prunes the events no future verdict can use.
    The key column's type follows the input."""

    wire = ["key", "ts_us", "stage"]

    def __init__(self, n_stages: int, within_us: int):
        super().__init__()
        self.n_stages = int(n_stages)
        self.within_us = int(within_us)
        self.metrics.update(funnels_emitted=0, rows_pruned=0)

    def merge(self, state: pa.Table, new: pa.Table) -> pa.Table:
        new = new.select(self.wire)
        if state.num_rows:
            done = state.filter(pc.less(state["stage"], 0))["key"].combine_chunks()
            new = new.filter(pc.invert(pc.is_in(new["key"], value_set=done)))
        return pa.concat_tables([state, new], promote_options="default")

    def close(self, state: pa.Table, watermark_us: int):
        """Emit every key whose verdict is final at this watermark:
        earliest stage-0 match ``t0`` with ``t0 + within <= wm``; its
        events leave and a tombstone takes their place.  Events of keys
        without a live stage-0 prune once at or below the watermark."""
        if not state.num_rows:
            return pa.table({}), state
        wm = int(watermark_us)
        stage = state["stage"].to_numpy()
        done = stage < 0
        ev, stage = state.filter(pa.array(~done)), stage[~done]
        codes, _ = encode_key(ev["key"], "key")
        ts = ev["ts_us"].to_numpy()
        t0 = np.full(int(codes.max(initial=-1)) + 1, _NO)
        np.minimum.at(t0, codes[stage == 0], ts[stage == 0])
        has0 = t0 != _NO
        ripe = has0 & (np.where(has0, t0, 0) + self.within_us <= wm)
        m = ripe[codes]
        out, tombs = pa.table({}), []
        if m.any():
            ff = funnel_frame(
                ev.filter(pa.array(m)).to_pandas(), key="key", ts="ts_us",
                type_col="stage", stages=list(range(self.n_stages)),
                within_us=self.within_us,
            )
            tcols = np.stack([ff[f"t_{i}"].to_numpy() for i in range(self.n_stages)])
            out = pa.table({
                "key": pa.array(ff["key"].to_numpy()),
                "stages_reached": pa.array((tcols != _NO).sum(axis=0).astype(np.int64)),
                "t0_us": pa.array(ff["t_0"].to_numpy(), pa.int64()),
            })
            tombs = [pa.table({
                "key": pa.array(ff["key"].to_numpy(), ev.schema.field("key").type),
                "ts_us": pa.array(ff["t_0"].to_numpy(), pa.int64()),
                "stage": pa.array(np.full(len(ff), -1), pa.int64()),
            })]
            self.metrics["funnels_emitted"] += len(ff)
        # keys holding a live (un-ripe) stage-0 keep all their rows;
        # everything else at-or-below the watermark is dead (a future
        # stage-0 must have t0 > wm >= ts, and strict order needs
        # ts > t0)
        dead = ~m & ~(has0 & ~ripe)[codes] & (ts <= wm)
        self.metrics["rows_pruned"] += int(dead.sum())
        kept = ev.filter(pa.array(~m & ~dead))
        return out, pa.concat_tables([kept, state.filter(pa.array(done)), *tombs])

    def gauges(self, state: pa.Table) -> dict:
        done = int((state["stage"].to_numpy() < 0).sum()) if state.num_rows else 0
        return {"buffered_rows": state.num_rows - done, "tombstones": done}


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

    def _partition(self) -> tuple:
        return _Funnel, len(self.stages), self.within_us

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
            epoch, "close", self._wm_us(watermark_s), sort_by=["key"]
        )
