"""STREAMING stream-stream interval join (ksqlDB ``JOIN ... WITHIN``)
— the stateful, watermark-driven counterpart of the batch
``dataops.interval_join`` operator, running through the same
engine conventions as the windowed-aggregate driver: arrival-epoch
micro-batches, key-hash-partitioned state actors, an ingest barrier,
event-time watermarks with allowed lateness, per-epoch checkpoints,
and an exactly-once pair sink.

Semantics: emit every (left, right) pair with equal ``by`` key and
``left.on - before <= right.on <= left.on + after`` (inclusive).  A
left row becomes EMITTABLE once the watermark passes ``left.on +
after`` — at that point every matching right row has arrived (the
watermark guarantee), so each left row emits its complete pair set
exactly once and retires.  Right rows retire when no retained or
future left row can still reach them (``right.on + before`` falls
below both the watermark and the oldest retained left row).

State per partition is therefore bounded by the rows whose event time
lies within ``before + after + allowed_lateness`` of the stream head —
the same bound ksqlDB's WITHIN grace puts on its join state — NOT by
stream length.  The only shuffle is the one key-hash route of both
sides; pair expansion happens inside the owning partition.

Rows are pre-tagged (``_side``: 1 = left, 0 = right) on a unified
schema, mirroring how the batch operator's tagged union ships both
sides through one exchange.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from raystat.dataops.interval_join import interval_join_frames
from raystat.streaming.epochs import NEG, EpochDriverBase, events_fixture
from raystat.streaming.sink import ExactlyOnceParquetSink
from raystat.streaming.state import (
    PendingIngest,
    key_partition,
    partial_row,
    write_parquet_atomic,
)

__all__ = [
    "IntervalJoinConfig",
    "IntervalStreamDriver",
    "events_interval_fixture",
]


@dataclass
class IntervalJoinConfig:
    by: str = "user_id"
    on: str = "ts_us"  # int64 microseconds (fixture-normalized)
    right_cols: tuple = ("touch_id", "touch_ts_us")
    before_s: int = 7200
    after_s: int = 0
    allowed_lateness_s: int = 3600
    n_partitions: int = 8
    batch_size: int | None = None

    @property
    def before_us(self) -> int:
        return int(self.before_s) * 1_000_000

    @property
    def after_us(self) -> int:
        return int(self.after_s) * 1_000_000


class TaggedJoinPartition(PendingIngest):
    """Join state for one key-hash partition: buffered rows of BOTH
    sides on the unified tagged schema (``_side`` 1 = left, 0 =
    right).  ``ingest`` only appends (O(1) hot path); the join's emit
    method sweeps once per epoch over the watermark-ready lefts and the
    buffered rights.  A subclass names its snapshot file (``name``)
    and its emitted-rows metric (``emitted``)."""

    rows_metric = "rows_in"
    name = emitted = ""

    def __init__(self, pid: int, by: str, on: str, right_cols: list[str]):
        self.pid = pid
        self.by = by
        self.on = on
        self.right_cols = list(right_cols)
        self.pending: list[pa.Table] = []
        self.state: pd.DataFrame | None = None  # unified schema + _side
        self.metrics = {
            "rows_in": 0, "ingests": 0, self.emitted: 0,
            "left_buffered": 0, "right_buffered": 0, "right_retired": 0,
        }

    def _consolidate(self) -> None:
        if self.pending:
            new = pa.concat_tables(self.pending, promote_options="default").to_pandas()
            self.pending = []
            new[self.on] = new[self.on].astype(np.int64)
            self.state = (
                new if self.state is None or not len(self.state)
                else pd.concat([self.state, new], ignore_index=True)
            )

    def get_metrics(self) -> dict:
        return {"partition": self.pid, **self.metrics}

    # -- checkpoint ---------------------------------------------------------

    def _path(self, ckpt_dir: str) -> str:
        return os.path.join(ckpt_dir, f"{self.name}-p{self.pid:04d}.parquet")

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = self._path(ckpt_dir)
        df = self.state if self.state is not None else pd.DataFrame()
        write_parquet_atomic(pa.Table.from_pandas(df, preserve_index=False), path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        """Rebuild buffers from the snapshot (metrics start fresh); a
        checkpoint without this partition's snapshot raises."""
        t = pq.read_table(self._path(ckpt_dir))
        self.pending = []
        self.state = None
        if t.num_rows:
            df = t.to_pandas()
            df[self.on] = df[self.on].astype(np.int64)
            self.state = df
        return t.num_rows


class IntervalJoinPartition(TaggedJoinPartition):
    """Interval-join state: ``emit_pairs`` is a single vectorized
    ``interval_join_frames`` call over (newly-emittable lefts x all
    buffered rights)."""

    name, emitted = "ivj", "pairs_emitted"

    def __init__(self, pid: int, by: str, on: str, right_cols: list[str],
                 before_us: int, after_us: int):
        super().__init__(pid, by, on, right_cols)
        self.before_us = int(before_us)
        self.after_us = int(after_us)

    def emit_pairs(self, watermark_us: int) -> pa.Table:
        """Pairs for every left row whose ``on + after`` is now below
        the watermark; retires those lefts and any unreachable rights."""
        self._consolidate()
        df = self.state
        empty = pa.table({})
        if df is None or not len(df):
            return empty
        side = df["_side"].to_numpy()
        ts = df[self.on].to_numpy()
        is_left = side == 1
        ready = is_left & (ts + self.after_us < watermark_us)

        out = empty
        if ready.any():
            cand = df[ready | ~is_left]
            pairs = interval_join_frames(
                cand, by=self.by, on=self.on, right_cols=self.right_cols,
                before=self.before_us, after=self.after_us,
            )
            self.metrics["pairs_emitted"] += len(pairs)
            if len(pairs):
                out = pa.Table.from_pandas(pairs, preserve_index=False)

        # retire emitted lefts; retire rights no retained-or-future left reaches
        keep_left = is_left & ~ready
        left_min = int(ts[keep_left].min()) if keep_left.any() else watermark_us
        reach = min(int(watermark_us), left_min)
        keep_right = (~is_left) & (ts + self.before_us >= reach)
        self.metrics["right_retired"] += int((~is_left).sum() - keep_right.sum())
        self.state = df[keep_left | keep_right].reset_index(drop=True)
        self.metrics["left_buffered"] = int(keep_left.sum())
        self.metrics["right_buffered"] = int(keep_right.sum())
        return out


class IntervalRouter:
    """Late-drop stage shared by the interval and as-of joins: drops
    rows older than the watermark in force at ingest and returns the
    rest as data (:func:`partial_row`), each row owned by its ``by``
    key's hash partition, with the smallest event ts as batch key; the
    driver routes them to the partitions' hosts."""

    def __init__(self, actors: list, n_partitions: int, by: str, on: str,
                 watermark_us: int):
        self.P = n_partitions
        self.by = by
        self.on = on
        self.wm = int(watermark_us)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows_in = batch.num_rows
        ts = batch[self.on].to_numpy(zero_copy_only=False).astype(np.int64)
        live = ts >= self.wm
        late = int(rows_in - live.sum())
        tbl = part = None
        if live.any():
            tbl = batch.filter(pa.array(live)) if late else batch
            part = key_partition(tbl[self.by], self.P, self.by)
        return partial_row(
            tbl, part, int(ts.min()) if rows_in else -1,
            max_ts_us=int(ts.max()) if rows_in else -1, late_dropped=late,
            rows_in=rows_in,
        )


class TaggedJoinDriver(EpochDriverBase):
    """Epoch loop shared by the stream-stream joins over the unified
    tagged schema: read arrival=N → late-drop (``IntervalRouter``) →
    route + barrier → advance the microsecond watermark → ``_emit``
    what became final → exactly-once commit → checkpoint.  Crash/resume
    replays the failed epoch from the last checkpoint; committed epochs
    re-commit as no-ops."""

    wm_attr = "watermark_us"

    def __init__(self, input_dir: str, out_dir: str, cfg, sink_name: str):
        super().__init__(input_dir, out_dir, cfg.n_partitions, cfg.batch_size)
        self.cfg = cfg
        self.sink = ExactlyOnceParquetSink(out_dir, sink_name)
        self.watermark_us = NEG

    def _driver_state(self) -> dict:
        return {"watermark_us": self.watermark_us,
                "committed": self.sink.committed_epochs()}

    def _load_driver_state(self, state: dict) -> None:
        self.watermark_us = int(state["watermark_us"])

    def _router(self):
        c = self.cfg
        return IntervalRouter(self.actors, c.n_partitions, c.by, c.on, self.watermark_us)

    def _advance(self, em: dict, book) -> None:
        if em["max_ts_us"] >= 0:
            self.watermark_us = max(
                self.watermark_us,
                em["max_ts_us"] - int(self.cfg.allowed_lateness_s) * 1_000_000,
            )


class IntervalStreamDriver(TaggedJoinDriver):
    """The streaming interval join: emits every (left, right) pair once
    the watermark passes ``left.on + after``."""

    def __init__(self, input_dir: str, out_dir: str, cfg: IntervalJoinConfig | None = None):
        super().__init__(input_dir, out_dir, cfg or IntervalJoinConfig(), "pairs")

    def _partition(self) -> tuple:
        c = self.cfg
        return (IntervalJoinPartition, c.by, c.on, list(c.right_cols),
                c.before_us, c.after_us)

    def _emit(self, epoch: int, watermark_us: int):
        self._commit_closed(
            epoch, "emit_pairs", watermark_us,
            sort_by=lambda t: [c for c in t.column_names if not c.startswith("_")],
        )


# -- fixture ------------------------------------------------------------------


def tagged_events_fixture(sf_dir: str, n_epochs: int, root: str, name: str,
                          left: tuple, right: tuple, columns: list[str],
                          side_cols) -> str:
    """The events table as an arrival-partitioned tagged two-sided
    stream: events of the types ``left`` are the LEFT side (``_side``
    1), those of ``right`` the RIGHT (0), on the unified schema
    ``(user_id, ts_us, _side, *side_cols)``; ``side_cols(kept, eid,
    side, ts_us)`` builds the side columns from the kept events, their
    event ids, sides and times.  Arrival epochs
    as ``epochs.events_fixture`` gives them (the 5% late subset arrives
    inside the drivers' allowed lateness, so results still equal the
    batch join)."""

    def rows(t: pa.Table, ts_us: np.ndarray):
        ev = t["event_type"].to_numpy(zero_copy_only=False)
        is_left = np.isin(ev, left)
        keep = is_left | np.isin(ev, right)
        kept, side, ts_us = t.filter(pa.array(keep)), is_left[keep].astype(np.int8), ts_us[keep]
        eid = kept["event_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": pa.array(kept["user_id"].to_numpy(zero_copy_only=False), pa.int64()),
            "ts_us": pa.array(ts_us, pa.int64()),
            "_side": pa.array(side, pa.int8()),
            **side_cols(kept, eid, side, ts_us),
        }), keep

    return events_fixture(sf_dir, n_epochs, root, name, 1, columns, rows)


def events_interval_fixture(
    sf_dir: str,
    n_epochs: int = 4,
    root: str = "/tmp/raystat_fixtures",
) -> str:
    """Materialize the events table as an arrival-partitioned tagged
    two-sided stream for the interval join: purchases are the LEFT
    side, click/view touches the RIGHT, on the unified schema
    ``(user_id, ts_us, _side, purchase_id, touch_id, touch_ts_us)``
    (:func:`tagged_events_fixture`).  Cached per sf_dir; returns the
    fixture dir."""

    def side_cols(kept, eid, side, ts_us):
        return {
            "purchase_id": pa.array(np.where(side == 1, eid, -1), pa.int64()),
            "touch_id": pa.array(np.where(side == 0, eid, -1), pa.int64()),
            "touch_ts_us": pa.array(np.where(side == 0, ts_us, -1), pa.int64()),
        }

    return tagged_events_fixture(sf_dir, n_epochs, root, "events_ivj", ("purchase",),
                                 ("click", "view"), ["event_id", "ts", "user_id", "event_type"],
                                 side_cols)
