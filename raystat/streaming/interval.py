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
sides through one exchange.  Both sides' buffered rows are one Arrow
table on that schema, the state of an ``IntervalJoin`` kind in
``state.KeyedPartition``.  Its close hands the ready rows, as Arrow, to
the batch operator's kernel (``interval_join_frames``): the streamed
pairs are the batch join over the same kept rows, with no pandas
round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raystat.dataops.interval_join import interval_join_frames
from raystat.streaming.epochs import EpochDriverBase, events_fixture
from raystat.streaming.state import Kind, Router, event_book, key_partition

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


class TaggedJoin(Kind):
    """Join state for one key-hash partition, as ``state.KeyedPartition``
    runs it: the buffered rows of BOTH sides on the unified tagged
    schema (``_side`` 1 = left, 0 = right) as one table, whose columns
    follow the input.  ``merge`` only appends; the join's ``close``
    sweeps once per epoch over the watermark-ready lefts and the
    buffered rights.  A subclass names its emitted-rows metric
    (``emitted``)."""

    emitted = ""

    def __init__(self, by: str, on: str, right_cols: list[str]):
        super().__init__()
        self.by = by
        self.on = on
        self.right_cols = list(right_cols)
        self.wire = [by, on, "_side"]
        self.metrics.update({self.emitted: 0, "left_buffered": 0, "right_buffered": 0,
                             "right_retired": 0})

    def merge(self, state: pa.Table, new: pa.Table) -> pa.Table:
        new = new.set_column(new.schema.get_field_index(self.on), self.on,
                             pc.cast(new[self.on], pa.int64()))
        return pa.concat_tables([state, new], promote_options="default")

    def _join_ready(self, state: pa.Table, ready: np.ndarray, is_left: np.ndarray, kernel,
                    **kw) -> pa.Table:
        """``kernel`` (the batch join's Arrow kernel over one tagged
        table) on the ready lefts and every buffered right; its rows
        counted and returned."""
        if not ready.any():
            return pa.table({})
        rows = kernel(state.filter(pa.array(ready | ~is_left)), by=self.by, on=self.on,
                      right_cols=self.right_cols, **kw)
        self.metrics[self.emitted] += rows.num_rows
        return rows if rows.num_rows else pa.table({})


class IntervalJoin(TaggedJoin):
    """Interval-join state: ``close`` is a single vectorized
    ``interval_join_frames`` call over (newly-emittable lefts x all
    buffered rights)."""

    emitted = "pairs_emitted"

    def __init__(self, by: str, on: str, right_cols: list[str], before_us: int,
                 after_us: int):
        super().__init__(by, on, right_cols)
        self.before_us = int(before_us)
        self.after_us = int(after_us)

    def close(self, state: pa.Table, watermark_us: int):
        """Pairs for every left row whose ``on + after`` is now below
        the watermark; retires those lefts and any unreachable rights."""
        if not state.num_rows:
            return pa.table({}), state
        is_left = state["_side"].to_numpy() == 1
        ts = state[self.on].to_numpy()
        ready = is_left & (ts + self.after_us < watermark_us)
        out = self._join_ready(state, ready, is_left, interval_join_frames,
                               before=self.before_us, after=self.after_us)

        # retire emitted lefts; retire rights no retained-or-future left reaches
        keep_left = is_left & ~ready
        left_min = int(ts[keep_left].min()) if keep_left.any() else watermark_us
        reach = min(int(watermark_us), left_min)
        keep_right = (~is_left) & (ts + self.before_us >= reach)
        self.metrics["right_retired"] += int((~is_left).sum() - keep_right.sum())
        self.metrics["left_buffered"] = int(keep_left.sum())
        self.metrics["right_buffered"] = int(keep_right.sum())
        return out, state.filter(pa.array(keep_left | keep_right))


class IntervalRouter(Router):
    """Late-drop kernel shared by the interval and as-of joins, in the
    ``state.Router`` frame: keeps the rows at or after the watermark in
    force at ingest (``ts >= watermark``), each owned by its ``by``
    key's hash partition, with the smallest event ts as batch key."""

    def __init__(self, actors: list, n_partitions: int, by: str, on: str,
                 watermark_us: int):
        super().__init__(actors, n_partitions)
        self.by = by
        self.on = on
        self.wm = int(watermark_us)

    def partial_fn(self, batch: pa.Table):
        ts = batch[self.on].to_numpy(zero_copy_only=False).astype(np.int64)
        live = ts >= self.wm
        late = int(ts.size - live.sum())
        tbl = batch.filter(pa.array(live)) if late else batch
        return tbl, event_book(ts, late_dropped=late)

    def partition(self, partial: pa.Table) -> np.ndarray:
        return key_partition(partial[self.by], self.P, self.by)


class TaggedJoinDriver(EpochDriverBase):
    """The stream-stream joins over the unified tagged schema, on the
    ``EpochDriverBase`` contract: read arrival=N → late-drop
    (``IntervalRouter``) → route + barrier → advance the watermark →
    close what became final → exactly-once commit → checkpoint.  Their
    routers and kinds take the watermark in microseconds.
    Crash/resume replays the failed epoch from the last checkpoint;
    committed epochs re-commit as no-ops."""

    def __init__(self, input_dir: str, out_dir: str, cfg):
        super().__init__(input_dir, out_dir, cfg.n_partitions, cfg.batch_size)
        self.cfg = cfg
        self.lateness_us = int(cfg.allowed_lateness_s) * 1_000_000

    def _watermark(self) -> int:
        return self.watermark_us

    def _router(self):
        c = self.cfg
        return IntervalRouter(self.actors, c.n_partitions, c.by, c.on, self._watermark())


class IntervalStreamDriver(TaggedJoinDriver):
    """The streaming interval join: emits every (left, right) pair once
    the watermark passes ``left.on + after``."""

    sink_name = "pairs"

    def __init__(self, input_dir: str, out_dir: str, cfg: IntervalJoinConfig | None = None):
        super().__init__(input_dir, out_dir, cfg or IntervalJoinConfig())

    def _partition(self) -> tuple:
        c = self.cfg
        return IntervalJoin, c.by, c.on, list(c.right_cols), c.before_us, c.after_us

    @staticmethod
    def sort_by(t: pa.Table) -> list[str]:
        """Every output column but the side tag."""
        return [c for c in t.column_names if not c.startswith("_")]


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
