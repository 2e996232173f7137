"""Stateful stream-stream join of window aggregates against a
late-arriving source-metadata stream (BASELINE.json:north_star; no
counterpart exists in the reference repo — SURVEY.md §2.2 last row).

Semantics (ksqlDB-style left join with grace): a closed window's
aggregate row joins ``source -> quality`` metadata if already known;
otherwise it is buffered until the metadata arrives (emitted in that
epoch) or until ``grace_epochs`` epochs pass, after which it is emitted
with null ``quality`` (left-outer after grace).  The end-of-stream
close flushes every buffered row the same way.

The buffered rows are one Arrow table with a ``_deadline`` column (the
last epoch that may still join them); the checkpoint keeps it as an
Arrow IPC stream, so a resume restores the rows with their types.

Scaling note: metadata is per-source (small side) so this state is
O(sources) and lives beside the driver; at larger key cardinality the
same class shards into the hash-partitioned moment state partitions,
co-partitioned on ``source`` — the shuffle key is already the join key,
so no second shuffle would be needed.
"""

from __future__ import annotations

import base64

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["MetadataJoin"]


class MetadataJoin:
    def __init__(self, grace_epochs: int = 2):
        self.grace = grace_epochs
        self.meta: dict[str, float] = {}
        self.pending: pa.Table | None = None  # buffered rows + _deadline
        self.metrics = {"joined": 0, "buffered": 0, "expired_null": 0}

    def update(self, sources: list[str], qualities: list[float]) -> None:
        for s, q in zip(sources, qualities):
            self.meta[s] = float(q)

    def process(self, t: pa.Table, epoch: int, flush: bool = False) -> pa.Table:
        """Join this epoch's closed-window rows ``t`` and the buffered
        rows against the metadata known so far.  Returns the rows
        emitted this epoch, the buffered ones first, with ``quality``
        appended: the rows with metadata, and with null ``quality`` the
        rows whose grace ran out, or every other row with ``flush`` (the
        end of the stream)."""
        deadline = np.full(t.num_rows, epoch + self.grace, dtype=np.int64)
        t = t.append_column("_deadline", pa.array(deadline))
        if self.pending is not None:
            t = pa.concat_tables([self.pending, t])
        known = pa.array(list(self.meta), pa.string())
        q = pc.take(pa.array(list(self.meta.values()), pa.float64()),
                    pc.index_in(t["source"], value_set=known))
        have = q.is_valid().to_numpy(zero_copy_only=False)
        expired = ~have & (flush | (t["_deadline"].to_numpy() <= epoch))
        emit = pa.array(have | expired)
        self.metrics["joined"] += int(have.sum())
        self.metrics["expired_null"] += int(expired.sum())
        self.pending = t.filter(pc.invert(emit))
        self.metrics["buffered"] = self.pending.num_rows
        return t.filter(emit).drop_columns(["_deadline"]).append_column("quality", q.filter(emit))

    # -- checkpoint --------------------------------------------------------

    def to_state(self) -> dict:
        pending = None
        if self.pending is not None:
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, self.pending.schema) as w:
                w.write_table(self.pending)
            pending = base64.b64encode(sink.getvalue().to_pybytes()).decode("ascii")
        return {
            "grace": self.grace,
            "meta": {k: float(v) for k, v in self.meta.items()},
            "pending": pending,  # Arrow IPC stream, base64
            "metrics": self.metrics,
        }

    @classmethod
    def from_state(cls, st: dict) -> "MetadataJoin":
        j = cls(st["grace"])
        j.meta = dict(st["meta"])
        if st["pending"] is not None:
            j.pending = pa.ipc.open_stream(base64.b64decode(st["pending"])).read_all()
        j.metrics = dict(st["metrics"])
        return j
