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
hash.  Actor state is O(distinct hashes / partitions) int64s (16 B per
distinct doc; bounded further by retention), merged per epoch with one
lexsort — no Python loops, no text in state or transit.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from raystat.dataops.dedup import _md5_64_col
from raystat.streaming.epochs import EpochDriverBase, arrival_fixture
from raystat.streaming.sink import ExactlyOnceParquetSink
from raystat.streaming.state import PendingIngest, partial_row, write_parquet_atomic

__all__ = ["DedupStreamDriver", "docs_stream_fixture"]


def _empty_pending() -> pa.Table:
    return pa.table(
        {"content_hash": pa.array([], pa.int64()),
         "doc_id": pa.array([], pa.int64())}
    )


class DedupStatePartition(PendingIngest):
    """Seen-hash state for one hash partition: sorted int64 hash array
    + last-seen epoch per hash.  ``ingest`` appends (hash, doc_id)
    partials; ``close_epoch`` resolves the epoch's winners in one
    lexsort + searchsorted against the seen set."""

    rows_metric = "rows_in"

    def __init__(self, pid: int, retention_epochs: int | None):
        self.pid = pid
        self.retention = retention_epochs
        self.pending: list[pa.Table] = []
        self.seen = np.zeros(0, dtype=np.int64)  # sorted
        self.last_seen = np.zeros(0, dtype=np.int64)  # aligned epochs
        self.metrics = {
            "rows_in": 0, "ingests": 0, "winners": 0,
            "dup_dropped": 0, "evicted": 0,
        }

    def close_epoch(self, epoch: int) -> pa.Table:
        """Resolve this epoch: winners = min-doc_id row of each hash
        NOT in the seen set; refresh last_seen of every hash observed;
        evict hashes idle past the retention."""
        if self.pending:
            new = pa.concat_tables(self.pending)
            self.pending = []
        else:
            new = _empty_pending()
        h = new["content_hash"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = new["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
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

        if self.seen.size:
            pos_c = np.minimum(np.searchsorted(self.seen, uh), self.seen.size - 1)
            known = self.seen[pos_c] == uh
        else:
            pos_c = np.zeros(uh.size, dtype=np.int64)
            known = np.zeros(uh.size, dtype=bool)
        # refresh last_seen of re-observed hashes (keeps hot dups alive)
        if self.seen.size and known.any():
            self.last_seen[pos_c[known]] = epoch
            self.metrics["dup_dropped"] += int(known.sum())
        fresh = ~known
        win_h, win_d = uh[fresh], ud[fresh]
        self.metrics["winners"] += int(win_h.size)

        # merge winners into the sorted seen set
        if win_h.size:
            seen = np.concatenate([self.seen, win_h])
            last = np.concatenate([self.last_seen, np.full(win_h.size, epoch)])
            order = np.argsort(seen, kind="stable")
            self.seen, self.last_seen = seen[order], last[order]

        if self.retention is not None and self.seen.size:
            keep = self.last_seen > epoch - int(self.retention)
            self.metrics["evicted"] += int(self.seen.size - int(keep.sum()))
            self.seen, self.last_seen = self.seen[keep], self.last_seen[keep]

        return pa.table(
            {"doc_id": pa.array(win_d), "content_hash": pa.array(win_h),
             "epoch": pa.array(np.full(win_d.size, epoch, dtype=np.int64))}
        )

    def get_metrics(self) -> dict:
        return {"partition": self.pid, "state_size": int(self.seen.size),
                **self.metrics}

    def snapshot(self, ckpt_dir: str, epoch: int) -> str:
        os.makedirs(ckpt_dir, exist_ok=True)
        path = os.path.join(ckpt_dir, f"dedup-p{self.pid:04d}.parquet")
        t = pa.table(
            {"seen": pa.array(self.seen), "last_seen": pa.array(self.last_seen)}
        )
        t = t.replace_schema_metadata({b"metrics": json.dumps(self.metrics).encode()})
        write_parquet_atomic(t, path)
        return path

    def restore(self, ckpt_dir: str) -> int:
        """Rebuild the seen set and the metrics from the snapshot; a
        checkpoint without this partition's snapshot raises."""
        t = pq.read_table(os.path.join(ckpt_dir, f"dedup-p{self.pid:04d}.parquet"))
        self.pending = []
        self.seen = t["seen"].to_numpy(zero_copy_only=False).astype(np.int64).copy()
        self.last_seen = (
            t["last_seen"].to_numpy(zero_copy_only=False).astype(np.int64).copy()
        )
        md = t.schema.metadata or {}
        if b"metrics" in md:
            self.metrics.update(json.loads(md[b"metrics"].decode()))
        return int(self.seen.size)


class DedupRouter:
    """Hash + combine stage: md5-64 content hash per batch and a local
    min-doc_id combiner per hash; only the (hash, doc_id) pairs leave
    the read stage, as data (:func:`partial_row`) owned by partition
    ``hash mod P``, with the smallest doc id as batch key."""

    def __init__(self, actors: list, n_partitions: int, text_col: str,
                 id_col: str):
        self.P = n_partitions
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows_in = batch.num_rows
        tbl = part = None
        local_dropped = 0
        d = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if rows_in:
            h = _md5_64_col(batch[self.text_col])
            # local combiner: min doc_id per hash inside the batch
            order = np.lexsort((d, h))
            hs, ds = h[order], d[order]
            first = np.ones(hs.size, dtype=bool)
            first[1:] = hs[1:] != hs[:-1]
            hs, ds = hs[first], ds[first]
            local_dropped = int(rows_in - hs.size)
            part = (hs.astype(np.uint64) % np.uint64(self.P)).astype(np.int64)
            tbl = pa.table({"content_hash": pa.array(hs), "doc_id": pa.array(ds)})
        return partial_row(
            tbl, part, int(d.min()) if rows_in else -1,
            rows_in=rows_in, local_dropped=local_dropped,
        )


class DedupStreamDriver(EpochDriverBase):
    """Epoch loop for streaming exact dedup: read arrival=N → hash +
    local combine → route + barrier → resolve winners per partition →
    exactly-once commit → checkpoint.  ``retention_epochs=None`` keeps
    the survivor set exact; a finite retention bounds state."""

    book_sums = ("rows_in", "local_dropped", "partial_rows")

    def __init__(self, input_dir: str, out_dir: str, *,
                 text_col: str = "text", id_col: str = "doc_id",
                 retention_epochs: int | None = None,
                 n_partitions: int = 8, batch_size: int | None = None):
        super().__init__(input_dir, out_dir, n_partitions, batch_size)
        self.text_col = text_col
        self.id_col = id_col
        self.retention = retention_epochs
        self.sink = ExactlyOnceParquetSink(out_dir, "winners")

    def _partition(self) -> tuple:
        return DedupStatePartition, self.retention

    def _driver_state(self) -> dict:
        return {"committed": self.sink.committed_epochs()}

    def _router(self):
        return DedupRouter(self.actors, self.n_partitions, self.text_col, self.id_col)

    def _run_epoch(self, epoch: int):
        em, _ = self._route_epoch(epoch)
        self._emit(epoch)
        self.metrics[str(epoch)] = em

    def _emit(self, epoch: int):
        self._commit_closed(epoch, "close_epoch", epoch, sort_by=["doc_id"])

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
