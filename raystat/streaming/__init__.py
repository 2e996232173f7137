"""Streaming layer: epoch-driven event-time processing with watermarks,
hash-partitioned stateful actor state stores, a stateful join against a
late-arriving metadata stream, exactly-once Parquet commits, and
per-partition checkpointing (SURVEY.md §3.2, §4.2).

Ten drivers run on one driver contract (``epochs.EpochDriverBase``),
which owns the epoch loop, the event-time clock, the sink, the
close-and-commit, the checkpoint and the teardown: each epoch's
side-effect-free router stage (kernels under the one ``state.Router``
frame) returns its partials as data and the driver routes them to the
logical state partitions, hosted in ``min(partitions, CPU slots)``
``state.PartitionHost`` actors, with one ``ingest`` per host.  A driver
is its state kind, its router, its sink name and its sort order.
Their state kinds: sum-mergeable moment state
(`StreamDriver`), stream-stream interval-join row buffers
(`IntervalStreamDriver`), idempotent max-merge HLL register state
(`HllStreamDriver`), bounded Misra-Gries heavy-hitter summaries
(`MgStreamDriver`), CEP funnel match state with tombstones
(`CepStreamDriver`), per-window KLL quantile sketches
(`KllStreamDriver`), Count-Min counter arrays with exact probe counts
(`CmsStreamDriver`), bottom-k min-union samples
(`BottomKStreamDriver`), first-occurrence seen-hash dedup state with
optional retention-bounded eviction (`DedupStreamDriver`), and
temporal-join state with dominated-right pruning (`AsofStreamDriver`).
All eleven kinds share one partition class, ``state.KeyedPartition``,
over one Arrow state table: a kind (``state.Kind``) is its wire
columns, a merge and a close that returns what it emits and what it
retains.
"""

from raystat.streaming.asof import AsofJoinConfig, AsofStreamDriver
from raystat.streaming.cep import CepStreamDriver
from raystat.streaming.dedup import DedupStreamDriver
from raystat.streaming.driver import StreamConfig, StreamDriver
from raystat.streaming.interval import IntervalJoinConfig, IntervalStreamDriver
from raystat.streaming.sink import ExactlyOnceParquetSink
from raystat.streaming.sketch import (
    HllStreamDriver,
    KllStreamDriver,
    MgStreamDriver,
)

__all__ = [
    "StreamConfig",
    "StreamDriver",
    "ExactlyOnceParquetSink",
    "IntervalJoinConfig",
    "IntervalStreamDriver",
    "HllStreamDriver",
    "MgStreamDriver",
    "KllStreamDriver",
    "CepStreamDriver",
    "DedupStreamDriver",
    "AsofJoinConfig",
    "AsofStreamDriver",
]
