"""STREAMING as-of (temporal) join — the stateful, watermark-driven
counterpart of the batch ``dataops.asof.asof_join`` operator (ksqlDB
stream-table temporal semantics / Flink temporal join), the eighth
state kind on the engine's epoch/watermark/checkpoint conventions.

Semantics: for every LEFT row, attach the LATEST right row with equal
``by`` key and ``right.on <= left.on``.  A left row becomes EMITTABLE
once the watermark passes its own event time (STRICT: any future
right row survives late-drop only with ``on >= watermark > left.on``,
so it cannot change the match) — each left emits exactly once,
watermark-final, through the exactly-once sink.

Bounded state (the property that makes this the 100-TB shape): per
key the partition retains ONLY (a) right rows ahead of the watermark
and (b) the single LATEST right row at-or-below it — every older
right row is dominated for all future lefts (their event times are
>= watermark >= the kept row's time).  Buffered lefts are bounded by
the allowed-lateness horizon.  State is therefore O(keys + in-flight
rows), independent of stream length — the Flink temporal-table-state
bound, not a full history.

The router (shared with the interval join) late-drops both sides and
the driver key-hash routes them in their one shuffle; the buffered
rows of both sides are one Arrow table (an ``AsofJoin`` kind's state
in ``state.KeyedPartition``), and its close is a single vectorized
``asof_join_frames`` sweep over (ready lefts x buffered rights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from raystat.aggregate import encode_key
from raystat.dataops.asof import asof_join_frames
from raystat.streaming.interval import TaggedJoin, TaggedJoinDriver, tagged_events_fixture

__all__ = ["AsofJoinConfig", "AsofStreamDriver", "events_asof_fixture"]


@dataclass
class AsofJoinConfig:
    by: str = "user_id"
    on: str = "ts_us"  # int64 microseconds
    right_cols: tuple = ("pv",)
    allowed_lateness_s: int = 3600
    n_partitions: int = 8
    batch_size: int | None = None


class AsofJoin(TaggedJoin):
    """Temporal-join state for one key-hash partition: ``close``
    resolves every watermark-ready left in one vectorized as-of sweep
    and prunes dominated rights."""

    emitted = "matches_emitted"

    def close(self, state: pa.Table, watermark_us: int):
        """Matches for every left row with ``on < watermark`` (strict:
        surviving future rights have on >= watermark, so the latest-
        at-or-before right is final); retires emitted lefts and every
        per-key right row dominated by a newer one at-or-below the
        watermark."""
        if not state.num_rows:
            return pa.table({}), state
        is_left = state["_side"].to_numpy() == 1
        ts = state[self.on].to_numpy()
        ready = is_left & (ts < watermark_us)
        out = self._join_ready(state, ready, is_left, asof_join_frames)

        # retire emitted lefts; prune dominated rights: per key keep
        # all rights ahead of the watermark + the latest at-or-below
        keep = is_left & ~ready  # retained lefts
        right_idx = np.flatnonzero(~is_left)
        if right_idx.size:
            rts = ts[right_idx]
            ahead = rts >= watermark_us
            behind = np.flatnonzero(~ahead)
            keep_r = np.zeros(right_idx.size, dtype=bool)
            keep_r[ahead] = True
            if behind.size:
                codes, _ = encode_key(state[self.by].take(pa.array(right_idx[behind])), self.by)
                order = np.lexsort((rts[behind], codes))
                cs = codes[order]
                last = np.ones(cs.size, dtype=bool)
                last[:-1] = cs[1:] != cs[:-1]
                keep_r[behind[order[last]]] = True
            self.metrics["right_retired"] += int(right_idx.size - keep_r.sum())
            keep[right_idx[keep_r]] = True
        self.metrics["left_buffered"] = int((is_left & ~ready).sum())
        self.metrics["right_buffered"] = int(keep[right_idx].sum() if right_idx.size else 0)
        return out, state.filter(pa.array(keep))


class AsofStreamDriver(TaggedJoinDriver):
    """The streaming temporal join: emits each left row's
    watermark-final match once the watermark passes its event time."""

    def __init__(self, input_dir: str, out_dir: str,
                 cfg: AsofJoinConfig | None = None):
        super().__init__(input_dir, out_dir, cfg or AsofJoinConfig(), "matches")

    def _partition(self) -> tuple:
        c = self.cfg
        return AsofJoin, c.by, c.on, list(c.right_cols)

    def _emit(self, epoch: int, watermark_us: int):
        self._commit_closed(
            epoch, "close", watermark_us, sort_by=[self.cfg.by, self.cfg.on]
        )


# -- fixture ------------------------------------------------------------------


def events_asof_fixture(
    sf_dir: str,
    n_epochs: int = 4,
    root: str = "/tmp/raystat_fixtures",
) -> str:
    """Materialize the events table as an arrival-partitioned tagged
    stream for the temporal join: click/view touches are the LEFT side
    (the batch asof_purchase_events shape), purchases the RIGHT, on
    the unified schema ``(user_id, ts_us, _side, event_id, value,
    pv)`` (``interval.tagged_events_fixture``), so the streamed match
    set equals the batch ASOF LEFT JOIN.  Cached per sf_dir."""

    def side_cols(kept, eid, side, ts_us):
        val = kept["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        return {
            "event_id": pa.array(np.where(side == 1, eid, -1), pa.int64()),
            "value": pa.array(np.where(side == 1, val, np.nan), pa.float64()),
            "pv": pa.array(np.where(side == 0, val, np.nan), pa.float64()),
        }

    return tagged_events_fixture(sf_dir, n_epochs, root, "events_asof", ("click", "view"),
                                 ("purchase",), ["event_id", "ts", "user_id", "event_type", "value"],
                                 side_cols)
