"""STREAMING exact deduplication — first-occurrence-wins over an
arrival-epoch stream, through the engine's epoch/checkpoint/
exactly-once conventions.  The LLM-data crux (dedup) crossed with the
streaming tier: at ingest time a 100-TB crawl is deduped as it
ARRIVES, not in a batch pass after the fact.

Semantics: a document survives iff its content hash has not been seen
in any earlier epoch; within its first epoch the min doc_id copy wins
(deterministic, so the whole run is replayable).  With
``retention_epochs=None`` the seen-set is exact and the survivor set
equals the batch rule "first (arrival, doc_id) per text" — the SQL
twin (queries.py: streaming_dedup_documents).  With a finite
``retention_epochs`` the state is BOUNDED: hashes idle longer than the
retention are evicted (the Flink/Spark dropDuplicates-with-watermark
tradeoff) and a later copy re-emits; evictions land in ``metrics`` so
the recall loss is observable, never silent — the same honesty
contract as the capped LSH pair generators (dedup_overflow_metrics).

Scale shape: rows never shuffle — the router computes md5-64 content
hashes per batch, pre-groups to (hash, min doc_id) (a local combiner:
per-batch duplicate copies collapse before any network hop), and the
driver routes ONLY (hash, doc_id) pairs to the owning state partition by
hash.  The state (the ``_SeenSet`` kind in ``state.KeyedPartition``) is
one Arrow table of (hash, last_seen) int64 rows, O(distinct
hashes / partitions) of them (16 B per distinct doc; bounded further by
retention); an epoch's pairs wait in it as rows with a null
``last_seen`` until its close resolves them with one lexsort — no
Python loops, no text in state or transit.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raystat.dataops.dedup import _md5_64_col
from raystat.streaming.epochs import EpochDriverBase, arrival_fixture
from raystat.streaming.state import Kind, Router

__all__ = ["DedupStreamDriver", "docs_stream_fixture"]


class _SeenSet(Kind):
    """Seen-hash state for one hash partition, as
    ``state.KeyedPartition`` runs it: one ``(hash, last_seen)`` row per
    seen content hash, sorted by hash, ``last_seen`` the last epoch
    that observed it.  ``merge`` appends the epoch's ``(content_hash,
    doc_id)`` partials as ``(hash, doc_id)`` rows with a null
    ``last_seen`` (the ``doc_id`` column exists only while such rows
    do); ``close(epoch)`` resolves them in one lexsort + searchsorted
    against the seen rows and evicts hashes idle past the retention."""

    wire = ["content_hash", "doc_id"]
    schema = pa.schema([("hash", pa.int64()), ("last_seen", pa.int64())])

    def __init__(self, retention_epochs: int | None):
        super().__init__()
        self.retention = retention_epochs
        self.metrics.update(winners=0, dup_dropped=0, evicted=0)

    def merge(self, state: pa.Table, new: pa.Table) -> pa.Table:
        new = new.select(self.wire).rename_columns(["hash", "doc_id"])
        return pa.concat_tables([state, new], promote_options="default")

    def close(self, state: pa.Table, epoch: int):
        """Resolve this epoch: winners = min-doc_id row of each hash
        NOT in the seen set; refresh last_seen of every hash observed;
        evict hashes idle past the retention."""
        pending = pc.is_null(state["last_seen"])
        new, old = state.filter(pending), state.filter(pc.invert(pending))
        h = new["hash"].to_numpy().astype(np.int64)
        d = new["doc_id"].to_numpy().astype(np.int64) if "doc_id" in new.column_names else h
        seen = old["hash"].to_numpy().astype(np.int64)  # sorted
        last_seen = old["last_seen"].to_numpy().astype(np.int64)
        if h.size:
            # min doc_id per hash: lexsort then first row of each run
            order = np.lexsort((d, h))
            hs, ds = h[order], d[order]
            first = np.ones(hs.size, dtype=bool)
            first[1:] = hs[1:] != hs[:-1]
            uh, ud = hs[first], ds[first]
            self.metrics["dup_dropped"] += int(h.size - uh.size)
        else:
            uh = ud = np.zeros(0, dtype=np.int64)

        if seen.size:
            pos_c = np.minimum(np.searchsorted(seen, uh), seen.size - 1)
            known = seen[pos_c] == uh
        else:
            pos_c = np.zeros(uh.size, dtype=np.int64)
            known = np.zeros(uh.size, dtype=bool)
        # refresh last_seen of re-observed hashes (keeps hot dups alive)
        if seen.size and known.any():
            last_seen[pos_c[known]] = epoch
            self.metrics["dup_dropped"] += int(known.sum())
        fresh = ~known
        win_h, win_d = uh[fresh], ud[fresh]
        self.metrics["winners"] += int(win_h.size)

        # merge winners into the sorted seen set
        if win_h.size:
            seen = np.concatenate([seen, win_h])
            last = np.concatenate([last_seen, np.full(win_h.size, epoch)])
            order = np.argsort(seen, kind="stable")
            seen, last_seen = seen[order], last[order]

        if self.retention is not None and seen.size:
            keep = last_seen > epoch - int(self.retention)
            self.metrics["evicted"] += int(seen.size - int(keep.sum()))
            seen, last_seen = seen[keep], last_seen[keep]

        emitted = pa.table(
            {"doc_id": pa.array(win_d), "content_hash": pa.array(win_h),
             "epoch": pa.array(np.full(win_d.size, epoch, dtype=np.int64))}
        )
        return emitted, pa.table({"hash": seen, "last_seen": last_seen})

    def gauges(self, state: pa.Table) -> dict:
        return {"state_size": state.num_rows - state["last_seen"].null_count}


class DedupRouter(Router):
    """Hash + combine kernel, in the ``state.Router`` frame: md5-64
    content hash per batch and a local min-doc_id combiner per hash;
    only the (hash, doc_id) pairs leave the read stage, owned by
    partition ``hash mod P``, with the smallest doc id as batch key.
    Documents carry no event time: the bookkeeping has none."""

    def __init__(self, actors: list, n_partitions: int, text_col: str,
                 id_col: str):
        super().__init__(actors, n_partitions)
        self.text_col = text_col
        self.id_col = id_col

    def partial_fn(self, batch: pa.Table):
        rows_in = batch.num_rows
        d = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = _md5_64_col(batch[self.text_col])
        # local combiner: min doc_id per hash inside the batch
        order = np.lexsort((d, h))
        hs, ds = h[order], d[order]
        first = np.ones(hs.size, dtype=bool)
        first[1:] = hs[1:] != hs[:-1]
        hs, ds = hs[first], ds[first]
        tbl = pa.table({"content_hash": pa.array(hs), "doc_id": pa.array(ds)})
        return tbl, {"rows_in": rows_in, "batch_key": int(d.min()) if rows_in else -1,
                     "local_dropped": int(rows_in - hs.size)}

    def partition(self, partial: pa.Table) -> np.ndarray:
        h = partial["content_hash"].to_numpy()
        return (h.astype(np.uint64) % np.uint64(self.P)).astype(np.int64)


class DedupStreamDriver(EpochDriverBase):
    """Streaming exact dedup, on the ``EpochDriverBase`` contract: read
    arrival=N → hash + local combine → route + barrier → resolve
    winners per partition → exactly-once commit → checkpoint.  Its
    clock never moves (documents carry no event time): each epoch
    closes on itself.  ``retention_epochs=None`` keeps the survivor set
    exact; a finite retention bounds state."""

    book_sums = ("rows_in", "local_dropped", "partial_rows")
    sink_name = "winners"
    sort_by = ["doc_id"]

    def __init__(self, input_dir: str, out_dir: str, *,
                 text_col: str = "text", id_col: str = "doc_id",
                 retention_epochs: int | None = None,
                 n_partitions: int = 8, batch_size: int | None = None):
        super().__init__(input_dir, out_dir, n_partitions, batch_size)
        self.text_col = text_col
        self.id_col = id_col
        self.retention = retention_epochs

    def _partition(self) -> tuple:
        return _SeenSet, self.retention

    def _router(self):
        return DedupRouter(self.actors, self.n_partitions, self.text_col, self.id_col)

    def _emit(self, epoch: int, wm) -> None:
        super()._emit(epoch, epoch)  # no event time: an epoch closes on itself

    def _finalize_stream(self, final_epoch: int):
        # every epoch resolved its winners when it ran: nothing to close
        self._record_final(final_epoch)


# -- fixture ------------------------------------------------------------------


def docs_stream_fixture(
    sf_dir: str,
    n_epochs: int = 4,
    root: str = "/tmp/raystat_fixtures",
) -> str:
    """Materialize the documents table as an arrival-partitioned
    stream for the dedup driver.  The sf documents table has NO exact
    duplicate texts, so the fixture plants them: every doc_id%10==3
    document is echoed as (doc_id + 1_000_001, same text).  Arrival
    epoch = doc_id % n_epochs for every row — deterministic and
    SQL-reproducible — so an echo arrives one epoch AFTER its original
    (offset ≡ 1 mod 4), except originals in the last epoch, whose echo
    wraps to epoch 0 and arrives FIRST: the echo (larger id) wins
    there, pinning that the rule is first-ARRIVAL, not min-id.  Cached
    per sf_dir; returns the fixture dir."""

    def build():
        t = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        echo_sel = did % 10 == 3
        echo = pa.table(
            {
                "doc_id": pa.array(did[echo_sel] + 1_000_001),
                "text": t["text"].filter(pa.array(echo_sel)),
            }
        )
        t = pa.concat_tables([t, echo])
        return t, t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64) % n_epochs

    tag = sf_dir.strip("/").replace("/", "_")
    return arrival_fixture(os.path.join(root, f"docs_str_{tag}_e{n_epochs}"),
                           {"sf_dir": sf_dir, "n_epochs": n_epochs, "v": 3}, build)
