"""Stateful stream-stream join of window aggregates against a
late-arriving source-metadata stream (BASELINE.json:north_star; no
counterpart exists in the reference repo — SURVEY.md §2.2 last row).

Semantics (ksqlDB-style left join with grace): a closed window's
aggregate row joins ``source -> quality`` metadata if already known;
otherwise it is buffered until the metadata arrives (emitted in that
epoch) or until ``grace_epochs`` epochs pass, after which it is emitted
with null ``quality`` (left-outer after grace).

Scaling note: metadata is per-source (small side) so this state is
O(sources) and lives beside the driver; at larger key cardinality the
same class shards into the hash-partitioned moment state partitions,
co-partitioned on ``source`` — the shuffle key is already the join key,
so no second shuffle would be needed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["MetadataJoin"]


class MetadataJoin:
    def __init__(self, grace_epochs: int = 2):
        self.grace = grace_epochs
        self.meta: dict[str, float] = {}
        # buffered aggregate rows + _deadline column (vectorized state;
        # per-row Python only at checkpoint serialization)
        self.pending: pd.DataFrame = pd.DataFrame()
        self.metrics = {"joined": 0, "buffered": 0, "expired_null": 0}

    def update(self, sources: list[str], qualities: list[float]) -> None:
        for s, q in zip(sources, qualities):
            self.meta[s] = float(q)

    def process(self, df: pd.DataFrame, epoch: int) -> pd.DataFrame:
        """Join this epoch's closed-window rows + re-check the pending
        buffer; returns all rows emittable this epoch.  Fully
        vectorized: map + boolean masks, no row loop."""
        if len(df):
            df = df.copy()
            df["_deadline"] = epoch + self.grace
            cand = (
                pd.concat([self.pending, df], ignore_index=True)
                if len(self.pending)
                else df
            )
        else:
            cand = self.pending
        if not len(cand):
            self.metrics["buffered"] = 0
            return pd.DataFrame()
        q = cand["source"].map(self.meta)
        have = q.notna().to_numpy()
        expired = (~have) & (cand["_deadline"].to_numpy() <= epoch)
        emit = have | expired
        out = cand[emit].copy()
        out["quality"] = q[emit]
        self.metrics["joined"] += int(have.sum())
        self.metrics["expired_null"] += int(expired.sum())
        self.pending = cand[~emit].reset_index(drop=True)
        self.metrics["buffered"] = len(self.pending)
        return out.drop(columns=["_deadline"]).reset_index(drop=True)

    def flush_all(self) -> pd.DataFrame:
        """End of stream: emit everything left, null quality where
        metadata never arrived."""
        if not len(self.pending):
            return pd.DataFrame()
        out = self.pending.copy()
        out["quality"] = out["source"].map(self.meta).astype(float)
        self.pending = pd.DataFrame()
        return out.drop(columns=["_deadline"]).reset_index(drop=True)

    # -- checkpoint --------------------------------------------------------

    def to_state(self) -> dict:
        def py(v):  # numpy scalars -> exact native types for JSON
            return v.item() if hasattr(v, "item") else v

        return {
            "grace": self.grace,
            "meta": {k: float(v) for k, v in self.meta.items()},
            "pending": [
                {k: py(v) for k, v in r.items()}
                for r in self.pending.to_dict("records")
            ],
            "metrics": self.metrics,
        }

    @classmethod
    def from_state(cls, st: dict) -> "MetadataJoin":
        j = cls(st["grace"])
        j.meta = dict(st["meta"])
        j.pending = pd.DataFrame(list(st["pending"]))
        j.metrics = dict(st["metrics"])
        return j
