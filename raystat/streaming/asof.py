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
the driver key-hash routes them in their one shuffle; the
per-partition emit is a
single vectorized ``asof_join_frames`` sweep over (ready lefts x
buffered rights).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from raystat.dataops.asof import asof_join_frames
from raystat.streaming.interval import TaggedJoinDriver
from raystat.streaming.state import PendingIngest, write_parquet_atomic

__all__ = ["AsofJoinConfig", "AsofStreamDriver", "events_asof_fixture"]


@dataclass
class AsofJoinConfig:
    by: str = "user_id"
    on: str = "ts_us"  # int64 microseconds
    right_cols: tuple = ("pv",)
    allowed_lateness_s: int = 3600
    n_partitions: int = 8
    batch_size: int | None = None


class AsofJoinPartition(PendingIngest):
    """Temporal-join state for one key-hash partition on the unified
    tagged schema (_side 1 = left, 0 = right).  ``ingest`` appends;
    ``emit_matches`` resolves every watermark-ready left in one
    vectorized as-of sweep and prunes dominated rights."""

    rows_metric = "rows_in"

    def __init__(self, pid: int, by: str, on: str, right_cols: list[str]):
        self.pid = pid
        self.by = by
        self.on = on
        self.right_cols = list(right_cols)
        self.pending: list[pa.Table] = []
        self.state: pd.DataFrame | None = None
        self.metrics = {
            "rows_in": 0, "ingests": 0, "matches_emitted": 0,
            "left_buffered": 0, "right_buffered": 0, "right_retired": 0,
        }

    def _consolidate(self) -> None:
        if self.pending:
            new = pa.concat_tables(
                self.pending, promote_options="default"
            ).to_pandas()
            self.pending = []
            new[self.on] = new[self.on].astype(np.int64)
            self.state = (
                new if self.state is None or not len(self.state)
                else pd.concat([self.state, new], ignore_index=True)
            )

    def emit_matches(self, watermark_us: int) -> pa.Table:
        """Matches for every left row with ``on < watermark`` (strict:
        surviving future rights have on >= watermark, so the latest-
        at-or-before right is final); retires emitted lefts and every
        per-key right row dominated by a newer one at-or-below the
        watermark."""
        self._consolidate()
        df = self.state
        empty = pa.table({})
        if df is None or not len(df):
            return empty
        side = df["_side"].to_numpy()
        ts = df[self.on].to_numpy()
        is_left = side == 1
        ready = is_left & (ts < watermark_us)

        out = empty
        if ready.any():
            matches = asof_join_frames(
                df[ready | ~is_left],
                by=self.by, on=self.on, right_cols=self.right_cols,
            )
            self.metrics["matches_emitted"] += len(matches)
            if len(matches):
                out = pa.Table.from_pandas(matches, preserve_index=False)

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
                codes, _ = pd.factorize(
                    df[self.by].to_numpy()[right_idx[behind]]
                )
                order = np.lexsort((rts[behind], codes))
                cs = codes[order]
                last = np.ones(cs.size, dtype=bool)
                last[:-1] = cs[1:] != cs[:-1]
                keep_r[behind[order[last]]] = True
            self.metrics["right_retired"] += int(right_idx.size - keep_r.sum())
            keep[right_idx[keep_r]] = True
        self.state = df[keep].reset_index(drop=True)
        self.metrics["left_buffered"] = int((is_left & ~ready).sum())
        self.metrics["right_buffered"] = int(
            keep[right_idx].sum() if right_idx.size else 0
        )
        return out

    def get_metrics(self) -> dict:
        return {"partition": self.pid, **self.metrics}

    # -- checkpoint ---------------------------------------------------------

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        self._consolidate()
        path = os.path.join(ckpt_dir, f"asof-p{self.pid:04d}.parquet")
        df = self.state if self.state is not None else pd.DataFrame()
        write_parquet_atomic(pa.Table.from_pandas(df, preserve_index=False), path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        path = os.path.join(ckpt_dir, f"asof-p{self.pid:04d}.parquet")
        self.pending = []
        self.state = None
        if not os.path.exists(path):
            return 0
        t = pq.read_table(path)
        if t.num_rows:
            df = t.to_pandas()
            df[self.on] = df[self.on].astype(np.int64)
            self.state = df
        return t.num_rows


class AsofStreamDriver(TaggedJoinDriver):
    """The streaming temporal join: emits each left row's
    watermark-final match once the watermark passes its event time."""

    def __init__(self, input_dir: str, out_dir: str,
                 cfg: AsofJoinConfig | None = None):
        super().__init__(input_dir, out_dir, cfg or AsofJoinConfig(), "matches")

    def _partition(self) -> tuple:
        c = self.cfg
        return AsofJoinPartition, c.by, c.on, list(c.right_cols)

    def _emit(self, epoch: int, watermark_us: int):
        self._commit_closed(
            epoch, "emit_matches", watermark_us, sort_by=[self.cfg.by, self.cfg.on]
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
    pv)``.  Arrival epoch = event-time quantile; the deterministic 5%
    late subset (event_id % 20 == 0) arrives one epoch behind — inside
    the driver's allowed lateness, so the streamed match set equals
    the batch ASOF LEFT JOIN.  Cached per sf_dir."""
    tag = sf_dir.strip("/").replace("/", "_")
    out = os.path.join(root, f"events_asof_{tag}_e{n_epochs}")
    done = os.path.join(out, "_fixture.json")
    params = {"sf_dir": sf_dir, "n_epochs": n_epochs, "v": 1}
    if os.path.exists(done):
        try:
            with open(done) as f:
                if json.load(f) == params:
                    return out
        except Exception:
            pass
    import shutil

    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(tmp)
    t = pq.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    ev_type = t["event_type"].to_numpy(zero_copy_only=False)
    is_left = np.isin(ev_type, ("click", "view"))
    is_right = ev_type == "purchase"
    keep = is_left | is_right
    eid = t["event_id"].to_numpy(zero_copy_only=False)[keep]
    uid = t["user_id"].to_numpy(zero_copy_only=False)[keep]
    val = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)[keep]
    ts_us = (
        t["ts"].to_numpy(zero_copy_only=False)
        .astype("datetime64[us]").astype(np.int64)[keep]
    )
    side = is_left[keep].astype(np.int8)
    n = len(eid)
    order = np.argsort(ts_us, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    epoch = np.minimum((rank * n_epochs) // max(n, 1), n_epochs - 1)
    late = (eid % 20) == 0
    epoch = np.minimum(epoch + late, n_epochs - 1)
    tbl = pa.table(
        {
            "user_id": pa.array(uid, pa.int64()),
            "ts_us": pa.array(ts_us, pa.int64()),
            "_side": pa.array(side, pa.int8()),
            "event_id": pa.array(np.where(side == 1, eid, -1), pa.int64()),
            "value": pa.array(np.where(side == 1, val, np.nan), pa.float64()),
            "pv": pa.array(np.where(side == 0, val, np.nan), pa.float64()),
        }
    )
    for e in range(n_epochs):
        d = os.path.join(tmp, f"arrival={e}")
        os.makedirs(d)
        pq.write_table(
            tbl.filter(pa.array(epoch == e)), os.path.join(d, "part-0.parquet")
        )
    with open(os.path.join(tmp, "_fixture.json"), "w") as f:
        json.dump(params, f)
    os.replace(tmp, out)
    return out
