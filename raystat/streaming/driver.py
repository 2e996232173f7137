"""The streaming driver: epoch loop, watermarks, window close, join,
exactly-once commit, checkpoint/resume (SURVEY.md §3.2 trace).

Input layout: ``input_dir/arrival={e}/*.parquet`` — each arrival epoch
is a group of Parquet files of token rows (the sandbox stand-in for a
partitioned log; per-epoch file groups are what a streamed source
delivers).  Event time is derived from ``doc_id``
(:mod:`raystat.extract`), so the watermark is reproducible from the
input alone.

Per epoch ``e`` (the :class:`~raystat.streaming.epochs.EpochDriverBase`
loop, with this driver's stages):

1. read epoch ``e``'s files (Parquet, or JSONL cast to the canonical
   schema) in plain Ray tasks, at most one per CPU slot, each over a
   contiguous slice of the files
2. in the same tasks, the side-effect-free ``Router`` over each batch:
   derive event time, assign tumbling/hopping windows, drop+count rows
   whose window already closed (late beyond watermark), pre-aggregate
   power sums per ``(source, salt, window_start)`` and tag each
   partial row with its owning partition; each batch returns one row —
   bookkeeping (max event ts, late counts), its partial table as Arrow
   IPC and a batch key
3. advance watermark to ``max_event_ts - allowed_lateness`` (per
   source under ``watermark_scope="per_source"``), which is all the
   next epoch's Router needs, so epoch ``e+1``'s steps 1-2 start here
   on a second thread and run while the driver finishes epoch ``e``:
   it concatenates epoch ``e``'s partials in batch-key order, routes
   them to their owning StatePartition actors with one ``ingest`` per
   partition (the explicit salted hash shuffle) and waits for those
   calls (the barrier), then runs steps 4-7
4. actors pop state of windows with ``window_end <= watermark``;
   cross-salt merge (field-wise add) + vectorized finalize
5. join against the metadata stream state (grace-buffered left join)
6. commit via the exactly-once sink; optional exact per-row passthrough
   (same late-drop predicate, token arrays untouched)
7. checkpoint actor snapshots + driver state (watermark, join buffer,
   metrics) — resume replays from the next epoch; re-commits of
   already-manifested epochs are no-ops.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.json as pajson
import ray

from raystat.accumulators import canonical_sums_for, get_spec
from raystat.aggregate import encode_key, partial_sums
from raystat.extract import event_time_us_from_numeric, numeric_doc_id
from raystat.scratch import astype_f8, buf, tune_allocator
from raystat.streaming.epochs import END, NEG, EpochDriverBase, EpochRead, with_partitions
from raystat.streaming.join import MetadataJoin
from raystat.streaming.sink import ExactlyOnceParquetSink
from raystat.streaming.state import Router, SessionStatePartition, StatePartition

__all__ = ["StreamConfig", "StreamDriver"]


@dataclass
class StreamConfig:
    specs: dict[str, str] = field(
        default_factory=lambda: {
            "wavg": "weighted_average",
            "wstd": "stddev_weighted",
            "skew": "skewness",
            "kurt": "kurtosis",
        }
    )
    value_col: str = "n_tok"  # token-length statistics by default
    weight_col: str | None = "n_tok"  # weight for the weighted variants
    window_size_s: int = 3600
    hop_s: int | None = None  # None => tumbling; else hopping
    allowed_lateness_s: int = 1800
    session_gap_s: int | None = None  # set => SESSION windows (gap rule);
    #   window_size_s/hop_s are ignored; units of window_start/end are us
    n_partitions: int = 8  # state-store actors (fix >= max CPUs for N/4N runs)
    n_salts: int = 4  # salt buckets per source for skew spreading
    join_grace_epochs: int = 2
    batch_size: int | None = None
    passthrough: bool = False
    emit_changes: bool = False  # ksqlDB EMIT CHANGES: also commit the
    #   finalized value of every LIVE (not yet closed) window each epoch
    token_stats: bool = False  # also compute per-token-id moment stats
    #   (value = every token id in `tokens`); all window modes
    comoment_stats: bool = False  # also compute per-window BIVARIATE
    #   stats corr/cov(n_tok, row token sum) via the comoment registry;
    #   requires token_stats (reuses the per-row t_s1 sums); the extra
    #   state is two more sum columns — same wire/merge path
    tokens_col: str = "tokens"
    file_format: str = "parquet"  # or "json": newline-delimited JSON
    #   parts (the reference's Kafka topics are value_format='json';
    #   README.md:143, AllUdafIT.java:564) re-encoded per arrival dir
    watermark_scope: str = "global"  # or "per_source": each source
    #   advances its own event-time watermark (Flink-style per-key
    #   watermarking), so one fast source cannot force-drop a lagging
    #   source's events; "global" matches ksqlDB single-partition
    #   stream-time and is the default

    def __post_init__(self) -> None:
        if self.file_format not in ("parquet", "json"):
            raise ValueError(f"file_format {self.file_format!r}: parquet or json")
        # ksqlDB HOPPING requires advance <= size; the row-level late
        # predicate (k_last*step + size > watermark) also assumes every
        # hop-aligned window actually covers its row, which only holds
        # when hop_s <= window_size_s.
        if self.hop_s is not None and self.hop_s > self.window_size_s:
            raise ValueError(
                f"hop_s ({self.hop_s}) must be <= window_size_s "
                f"({self.window_size_s}) — ksqlDB hopping semantics"
            )
        if self.comoment_stats and not self.token_stats:
            raise ValueError("comoment_stats requires token_stats=True")
        if self.watermark_scope not in ("global", "per_source"):
            raise ValueError(
                f"watermark_scope {self.watermark_scope!r}: global or per_source"
            )


_CANON_TYPES = {
    "doc_id": pa.string(),
    "tokens": pa.list_(pa.int32()),
    "n_tok": pa.int32(),
    "source": pa.string(),
}


def _canonicalize_json_batch(batch: pa.Table) -> pa.Table:
    """Cast a JSON-read batch to the canonical stream schema (JSON
    integers parse as int64; tokens must be list<int32> so the
    passthrough sink's token arrays are byte-identical to the parquet
    path).  Unknown columns pass through untouched."""
    cols = []
    for name in batch.schema.names:
        col = batch[name]
        want = _CANON_TYPES.get(name)
        cols.append(col.cast(want) if want is not None and col.type != want else col)
    return pa.table(dict(zip(batch.schema.names, cols)))


def _json_batches(files: list[str]):
    """JSONL ``files`` (the reference's value_format='json') as one
    batch in the canonical schema, cast file by file: the batch one
    Ray Data task of a JSON read plus that cast gives (a map's outputs
    are merged into one block per task)."""
    opts = pajson.ReadOptions(use_threads=False)
    tables = [
        _canonicalize_json_batch(with_partitions(pajson.read_json(f, read_options=opts), f))
        for f in files if os.path.getsize(f)
    ]
    if tables:
        yield pa.concat_tables(tables, promote_options="default")


def _row_token_sums(batch: pa.Table, tokens_col: str, rows_in: int) -> dict[str, np.ndarray]:
    """Per-ROW token power sums (t_n, t_s1..t_s4) over the original
    batch rows.  Row-level sums compose additively into any window
    assignment (tumbling / hopping expansion / sessions) without
    re-touching the token arrays.

    The list layout is exploited directly: token values are contiguous
    per row, so each power sum is ``np.add.reduceat`` over the Arrow
    list OFFSETS — sequential reads of the value buffer only, no
    8-byte parent-index read per token per pass (vs bincount-by-
    list_parent_indices this removes ~40 B/token of DRAM traffic,
    which is what contends at 32 workers)."""
    if rows_in == 0:
        z = np.zeros(0, dtype=np.float64)
        return {c: z for c in ("t_n", "t_s1", "t_s2", "t_s3", "t_s4")}
    tok_col = batch[tokens_col]
    if isinstance(tok_col, pa.ChunkedArray):
        tok_col = tok_col.combine_chunks()
    if isinstance(tok_col, pa.ChunkedArray):  # single- or zero-chunk wrap
        tok_col = (
            tok_col.chunk(0)
            if tok_col.num_chunks
            else pa.array([], type=tok_col.type)
        )
    off = tok_col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = tok_col.values.to_numpy(zero_copy_only=False)
    lo, hi = int(off[0]), int(off[-1])
    nt = hi - lo
    flat = astype_f8("flat", vals[lo:hi])
    counts = off[1:] - off[:-1]
    idx = off[:-1] - lo
    empty = counts == 0
    has_empty = bool(empty.any())
    if has_empty:
        # reduceat misbehaves on zero-length segments (returns the
        # element at the start index — and a TRAILING empty segment's
        # clamped start index would truncate the preceding non-empty
        # segment).  Since empty segments have zero width, the starts
        # of the NON-empty segments alone still delimit every real
        # segment exactly: reduceat over those, scatter back by row.
        nonempty = ~empty
        idx_ne = idx[nonempty]

    def seg_sum(arr: np.ndarray) -> np.ndarray:
        if nt == 0:
            return np.zeros(rows_in, dtype=np.float64)
        if has_empty:
            s = np.zeros(rows_in, dtype=np.float64)
            s[nonempty] = np.add.reduceat(arr, idx_ne)
            return s
        return np.add.reduceat(arr, idx)

    tr: dict[str, np.ndarray] = {
        "t_n": counts.astype(np.float64),
        "t_s1": seg_sum(flat),
    }
    tp = buf("tpow", nt)
    np.copyto(tp, flat)
    for i in range(2, 5):
        np.multiply(tp, flat, out=tp)
        tr[f"t_s{i}"] = seg_sum(tp)
    return tr


def _src_max_json(src_vocab: pa.Array, ts_us: np.ndarray, src_code: np.ndarray) -> str:
    """Per-source max event ts of one batch as a JSON string (bounded
    by distinct sources per batch) — the per-source watermark's
    bookkeeping analogue of the scalar max_ts_us."""
    if ts_us.size == 0:
        return "{}"
    m = np.full(len(src_vocab), -1, dtype=np.int64)
    np.maximum.at(m, src_code, ts_us)
    return json.dumps({s: int(v) for s, v in zip(src_vocab.to_pylist(), m) if v >= 0})


def _partial_stage(
    cfg: StreamConfig, needed, u_order, w_order, watermark_s: int, src_wm=None
):
    """Fused per-batch extraction + windowing + late-drop + partial
    aggregation.  Group keys (source dictionary code, salt,
    window_start) are factorized through a dense composite integer key
    ``(src*S + salt)*W + win`` — when the key domain is small (the
    common case: sources x salts x open windows), every power sum is a
    direct ``np.bincount`` over the dense key with NO sort at all; a
    1-D ``np.unique`` fallback covers high-cardinality domains.  A row
    is counted late iff ALL its covering windows are closed (same unit
    as ``rows_in`` and the passthrough predicate)."""
    size_s = cfg.window_size_s
    hop_s = cfg.hop_s
    step = hop_s if hop_s is not None else size_s
    value_col, weight_col, n_salts = cfg.value_col, cfg.weight_col, cfg.n_salts
    token_stats = cfg.token_stats
    t_cols = ("t_n", "t_s1", "t_s2", "t_s3", "t_s4")
    # weight == value (e.g. n_tok-weighted token lengths): every
    # weighted sum is an unweighted power sum one order up — alias
    # instead of recomputing (sum w·x^i == u_s{i+1})
    alias_w = (
        weight_col is not None
        and weight_col == value_col
        and u_order >= w_order + 1
    )

    def empty_table() -> pa.Table:
        return pa.table(
            {
                "source": pa.array([], pa.string()),
                "salt": pa.array([], pa.int64()),
                "window_start": pa.array([], pa.int64()),
                **{
                    c: pa.array([], pa.int64() if c == "u_n" else pa.float64())
                    for c in needed
                },
            }
        )

    def fn(batch: pa.Table) -> tuple[pa.Table, dict]:
        tune_allocator()  # idempotent; needed under by-value pickling
        rows_in = batch.num_rows
        ids = numeric_doc_id(batch["doc_id"])
        ts_us = event_time_us_from_numeric(ids)
        max_ts = int(ts_us.max()) if rows_in else -1
        info = {
            "max_ts_us": max_ts, "rows_in": rows_in,
            "batch_key": int(ids.min()) if rows_in else -1,
        }
        ts_s = ts_us // 1_000_000
        src_code, src_vocab = encode_key(batch["source"], "source")
        # late iff the row's LATEST covering window is closed (tumbling:
        # its only window; hopping: window starting at (ts//hop)*hop)
        k_last = ts_s // step
        if src_wm is not None:
            # per-source watermark: each row checks its OWN source's
            # frontier (O(vocab) dict lookups per batch, then a gather)
            wm_arr = np.array(
                [src_wm.get(s, -(2**62)) for s in src_vocab.to_pylist()],
                dtype=np.int64,
            )
            row_keep = (k_last * step + size_s) > wm_arr[src_code]
            info["src_max_json"] = _src_max_json(src_vocab, ts_us, src_code)
        else:
            row_keep = (k_last * step + size_s) > watermark_s
        late_n = rows_in - int(row_keep.sum())
        info["late_dropped"] = late_n

        # BATCH-level salt: spreading a hot source's load over actors
        # only needs different BATCHES to route differently, not
        # different rows — a constant salt per batch (derived from the
        # data, deterministic under replay) shrinks the partial table
        # and the routing fan-out by n_salts while keeping the same
        # skew spreading across the stream.
        salt_b = int(ids[0]) % n_salts if rows_in else 0
        x = astype_f8("x", batch[value_col].to_numpy(zero_copy_only=False))
        w = (
            astype_f8("w", batch[weight_col].to_numpy(zero_copy_only=False))
            if weight_col is not None and not alias_w
            else None
        )
        tr = _row_token_sums(batch, cfg.tokens_col, rows_in) if token_stats else None
        if late_n:
            kept = np.flatnonzero(row_keep)
            ts_s, src_code, x, k_last = (
                ts_s[kept], src_code[kept], x[kept], k_last[kept]
            )
            w = w[kept] if w is not None else None
            if tr is not None:
                tr = {c: v[kept] for c, v in tr.items()}
        n_rows_kept = x.size
        if n_rows_kept == 0:
            return empty_table(), info

        if hop_s is None:
            ws = k_last * size_s
            row_of = None  # group rows == kept rows
            g_src, g_x, g_w = src_code, x, w
        else:
            # expand each row to its open covering windows
            k_min = (ts_s - size_s) // hop_s + 1
            counts = (k_last - k_min + 1).astype(np.int64)
            row_of = np.repeat(np.arange(n_rows_kept, dtype=np.int64), counts)
            offs = np.arange(row_of.size, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            ws = (np.repeat(k_min, counts) + offs) * hop_s
            # earlier covering windows may already be closed; the frontier
            # that closes them must match the one used for row_keep and
            # StatePartition.close_windows — per-source when src_wm is set,
            # else the global scalar (a lagging source's early windows stay
            # open under per-source watermarks even when the global frontier
            # has passed them).
            if src_wm is not None:
                win_open = (ws + size_s) > wm_arr[src_code][row_of]
            else:
                win_open = (ws + size_s) > watermark_s
            if not win_open.all():
                row_of, ws = row_of[win_open], ws[win_open]
            g_src = src_code[row_of]
            g_x = np.take(x, row_of)
            g_w = np.take(w, row_of) if w is not None else None
        m = ws.size

        # -- factorize (src, ws) via dense composite key (salt is batch-
        # constant, so it is not part of the group key) --------------------
        ws_min = int(ws.min())
        win_idx = (ws - ws_min) // step
        n_win = int(win_idx.max()) + 1
        n_src = len(src_vocab)
        D = n_src * n_win
        dense = buf("dense", m, np.int64)
        np.multiply(g_src, n_win, out=dense)
        np.add(dense, win_idx, out=dense)
        if D <= max(4 * m, 1 << 16):
            gidx, gdom = dense, D  # bincount straight over the dense key
            sel = None  # chosen below from the count vector
        else:  # high-cardinality: 1-D sort-based factorization
            kd, gidx = np.unique(dense, return_inverse=True)
            gdom, sel = kd.size, slice(None)

        sums: dict[str, np.ndarray] = {}

        def gsum(weights=None):
            s = np.bincount(gidx, weights=weights, minlength=gdom)
            return s if sel is None else s[sel]

        counts_g = np.bincount(gidx, minlength=gdom)
        if sel is None:
            nz = np.flatnonzero(counts_g)
            kd, sel = nz, nz
            counts_g = counts_g[sel]
        if u_order:
            sums["u_n"] = counts_g.astype(np.int64)
            sums["u_s1"] = gsum(g_x)
            pb = buf("pow", m)
            np.copyto(pb, g_x)
            for i in range(2, u_order + 1):
                np.multiply(pb, g_x, out=pb)
                sums[f"u_s{i}"] = gsum(pb)
        if w_order and alias_w:
            sums["w_sw"] = sums["u_s1"]
            sums["w_sv"] = sums["u_s2"]
            for i in range(2, w_order + 1):
                sums[f"w_s{i}"] = sums[f"u_s{i + 1}"]
        elif w_order:
            wp = buf("wpow", m)
            sums["w_sw"] = gsum(g_w)
            np.multiply(g_w, g_x, out=wp)
            sums["w_sv"] = gsum(wp)
            pb = buf("pow", m)
            np.copyto(pb, g_x)
            for i in range(2, w_order + 1):
                np.multiply(pb, g_x, out=pb)
                np.multiply(g_w, pb, out=wp)
                sums[f"w_s{i}"] = gsum(wp)
        if token_stats:
            for c in t_cols:
                v = tr[c] if row_of is None else np.take(tr[c], row_of)
                sums[c] = gsum(v)
        if "c_sxy" in needed:
            # bivariate sums: y = per-row token sum (t_s1 row-level)
            y = tr["t_s1"] if row_of is None else np.take(tr["t_s1"], row_of)
            sums["c_syy"] = gsum(y * y)
            sums["c_sxy"] = gsum(g_x * y)

        # decode keys from the composite integer
        u_src, u_win = np.divmod(kd, n_win)
        part = pa.table(
            {
                "source": src_vocab.take(pa.array(u_src, pa.int64())),
                "salt": pa.array(np.full(u_src.size, salt_b, dtype=np.int64)),
                "window_start": pa.array(ws_min + u_win * step),
                **{c: pa.array(sums[c]) for c in needed},
            }
        )
        return part, info

    return fn


def _session_partial_stage(
    cfg: StreamConfig, needed, u_order, w_order, watermark_s: int, src_wm=None
):
    """Within-batch partial sessions per source: sort by (source, ts),
    split runs at gap, aggregate power sums + min/max ts.  Late rows
    (ts <= watermark) are dropped: any such event could only extend an
    already-closed session (close rule: end + gap <= watermark)."""
    gap_us = int(cfg.session_gap_s) * 1_000_000
    value_col, weight_col = cfg.value_col, cfg.weight_col
    token_stats = cfg.token_stats

    def empty_part() -> pa.Table:
        cols = {"source": pa.array([], pa.string())}
        for c in needed:
            cols[c] = pa.array([], pa.int64() if c == "u_n" else pa.float64())
        cols["session_start_us"] = pa.array([], pa.int64())
        cols["session_end_us"] = pa.array([], pa.int64())
        return pa.table(cols)

    def fn(batch: pa.Table) -> tuple[pa.Table, dict]:
        """Same lexsort/segment machinery as the keyed partial stage:
        dictionary source codes, one lexsort by (source, ts), run
        breaks at gap, bincount power sums per segment — no pandas
        frame or per-group Python in the per-batch path."""
        rows_in = batch.num_rows
        ids = numeric_doc_id(batch["doc_id"])
        ts_us = event_time_us_from_numeric(ids)
        max_ts = int(ts_us.max()) if rows_in else -1
        src_code, src_vocab = encode_key(batch["source"], "source")
        if src_wm is not None:
            wm_arr = np.array(
                [src_wm.get(s, -(2**62)) for s in src_vocab.to_pylist()],
                dtype=np.int64,
            )
            keep = (ts_us // 1_000_000) > wm_arr[src_code]
            extra_info = {"src_max_json": _src_max_json(src_vocab, ts_us, src_code)}
        else:
            keep = (ts_us // 1_000_000) > watermark_s
            extra_info = {}
        late_n = rows_in - int(keep.sum())
        x = batch[value_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        w = (
            batch[weight_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
            if weight_col is not None
            else None
        )
        tr = _row_token_sums(batch, cfg.tokens_col, rows_in) if token_stats else None
        if late_n:
            kept = np.flatnonzero(keep)
            src_code, ts_us, x = src_code[kept], ts_us[kept], x[kept]
            w = w[kept] if w is not None else None
            if tr is not None:
                tr = {c: v[kept] for c, v in tr.items()}
        info = {
            "max_ts_us": max_ts, "late_dropped": late_n, "rows_in": rows_in,
            "batch_key": int(ids.min()) if rows_in else -1, **extra_info,
        }
        n = x.size
        if n == 0:
            return empty_part(), info

        order = np.lexsort((ts_us, src_code))
        sc, tv = src_code[order], ts_us[order]
        brk = np.ones(n, dtype=bool)
        brk[1:] = (sc[1:] != sc[:-1]) | ((tv[1:] - tv[:-1]) > gap_us)
        starts = np.flatnonzero(brk)
        seg = np.cumsum(brk) - 1  # segment index per sorted row
        nseg = starts.size

        def ssum(v: np.ndarray) -> np.ndarray:
            return np.bincount(seg, weights=v[order], minlength=nseg)

        sums: dict[str, np.ndarray] = {}
        if u_order:
            sums["u_n"] = np.bincount(seg, minlength=nseg).astype(np.int64)
            sums["u_s1"] = ssum(x)
            px = x
            for i in range(2, u_order + 1):
                px = px * x
                sums[f"u_s{i}"] = ssum(px)
        if w_order:
            sums["w_sw"] = ssum(w)
            sums["w_sv"] = ssum(w * x)
            px = x
            for i in range(2, w_order + 1):
                px = px * x
                sums[f"w_s{i}"] = ssum(w * px)
        if tr is not None:
            for c, v in tr.items():
                sums[c] = ssum(v)
        if "c_sxy" in needed:
            y = tr["t_s1"]
            sums["c_syy"] = ssum(y * y)
            sums["c_sxy"] = ssum(x * y)
        ends = np.append(starts[1:], n) - 1  # ts-sorted: last row = max ts
        part = pa.table(
            {
                "source": src_vocab.take(pa.array(sc[starts])),
                **{c: pa.array(sums[c]) for c in needed},
                "session_start_us": pa.array(tv[starts]),
                "session_end_us": pa.array(tv[ends]),
            }
        )
        return part, info

    return fn


class StreamDriver(EpochDriverBase):
    def __init__(
        self,
        input_dir: str,
        out_dir: str,
        cfg: StreamConfig | None = None,
        metadata: pa.Table | None = None,
    ):
        """``metadata``: optional (source, quality, arrival_epoch) table —
        the late-arriving side stream."""
        self.cfg = cfg or StreamConfig()
        super().__init__(input_dir, out_dir, self.cfg.n_partitions, self.cfg.batch_size)
        self.metadata = metadata
        self.resolved = {k: get_spec(v) for k, v in self.cfg.specs.items()}
        self.session_mode = self.cfg.session_gap_s is not None
        self.needed, self.u_order, self.w_order = canonical_sums_for(
            self.resolved.values()
        )
        self.token_outputs: dict[str, tuple] = {}
        if self.cfg.token_stats:
            # token-value statistics finalize from t_* sums through the
            # same registered finalizers (canonical columns remapped)
            self.needed = tuple(self.needed) + ("t_n", "t_s1", "t_s2", "t_s3", "t_s4")
            self.token_outputs = {
                "tok_mean": (get_spec("weighted_average"), ("t_s1", "t_n")),
                "tok_std": (get_spec("stddev_weighted"), ("t_s1", "t_n", "t_s2")),
                "tok_skew": (get_spec("skewness"), ("t_n", "t_s1", "t_s2", "t_s3")),
                "tok_kurt": (get_spec("kurtosis"), ("t_n", "t_s1", "t_s2", "t_s3", "t_s4")),
            }
        if self.cfg.comoment_stats:
            # bivariate corr/cov(x=n_tok, y=row token sum): needs the
            # unweighted x sums to order 2, y (== group-summed t_s1,
            # already in needed via token_stats), plus two new sum
            # columns — the comoment finalizers run through the same
            # remap path as the token outputs
            from raystat.comoments import get_comoment

            self.u_order = max(self.u_order, 2)
            for c in ("u_n", "u_s1", "u_s2"):
                if c not in self.needed:
                    self.needed = tuple(self.needed) + (c,)
            self.needed = tuple(self.needed) + ("c_syy", "c_sxy")
            co_cols = ("u_n", "u_s1", "t_s1", "u_s2", "c_syy", "c_sxy")
            self.token_outputs["len_tok_corr"] = (get_comoment("correlation"), co_cols)
            self.token_outputs["len_tok_cov"] = (get_comoment("covariance"), co_cols)
        self.sink = ExactlyOnceParquetSink(out_dir, "agg")
        self.pass_sink = (
            ExactlyOnceParquetSink(out_dir, "passthrough")
            if self.cfg.passthrough
            else None
        )
        self.changes_sink = (
            ExactlyOnceParquetSink(out_dir, "changes")
            if self.cfg.emit_changes
            else None
        )
        self.watermark_s = NEG
        self.per_source_wm = self.cfg.watermark_scope == "per_source"
        self.src_watermark: dict[str, int] = {}
        self.join = MetadataJoin(self.cfg.join_grace_epochs)

    def _ensure_actors(self):
        if self.actors is None:
            if self.session_mode:
                self.actors = [
                    SessionStatePartition.remote(
                        p, list(self.needed), self.cfg.session_gap_s
                    )
                    for p in range(self.cfg.n_partitions)
                ]
            else:
                self.actors = [
                    StatePartition.remote(p, list(self.needed), self.cfg.window_size_s)
                    for p in range(self.cfg.n_partitions)
                ]

    def _driver_state(self) -> dict:
        return {
            "watermark_s": self.watermark_s,
            "src_watermark": self.src_watermark,
            "join": self.join.to_state(),
        }

    def _load_driver_state(self, state: dict) -> None:
        self.watermark_s = state["watermark_s"]
        self.src_watermark = {
            k: int(v) for k, v in state.get("src_watermark", {}).items()
        }
        self.join = MetadataJoin.from_state(state["join"])

    def _epoch_dataset(self, epoch: int) -> EpochRead | None:
        if self.cfg.file_format == "parquet":
            return super()._epoch_dataset(epoch)
        files = self._epoch_files(epoch, "jsonl")
        if not files:
            return None
        return EpochRead(files, _json_batches, self._read_tasks(files, 8 * 1024 * 1024))

    def _watermark(self):
        """The watermark in force: the global scalar, or a frozen copy
        of the per-source frontier map."""
        return dict(self.src_watermark) if self.per_source_wm else self.watermark_s

    def _router(self):
        stage = _session_partial_stage if self.session_mode else _partial_stage
        fn = stage(
            self.cfg, self.needed, self.u_order, self.w_order, self.watermark_s,
            src_wm=self._watermark() if self.per_source_wm else None,
        )
        return Router(self.actors, self.cfg.n_partitions, fn)

    def _advance(self, em: dict, book: pd.DataFrame | None) -> None:
        if em["max_ts_us"] >= 0:
            self.watermark_s = max(
                self.watermark_s,
                em["max_ts_us"] // 1_000_000 - self.cfg.allowed_lateness_s,
            )
        # an epoch of zero-row files has no router rows, so no frontiers
        if self.per_source_wm and book is not None and len(book):
            for js in book["src_max_json"]:
                for src, m in json.loads(js or "{}").items():
                    wm = int(m) // 1_000_000 - self.cfg.allowed_lateness_s
                    if wm > self.src_watermark.get(src, NEG):
                        self.src_watermark[src] = wm

    def _run_epoch(self, epoch: int):
        # the passthrough drops what this epoch's router dropped: the
        # watermark before _advance
        wm_at_ingest = self._watermark()
        em, book = self._route_epoch(epoch)
        t0 = time.monotonic()
        self._emit(epoch, self._watermark())
        em["sec_emit"] = round(time.monotonic() - t0, 3)
        if self.pass_sink is not None and book is not None:
            self.pass_sink.commit_dataset(
                epoch, self._passthrough_ds(self._epoch_dataset(epoch), wm_at_ingest)
            )
        em["watermark_s"] = self.watermark_s
        self.metrics[str(epoch)] = em

    def _passthrough_ds(self, read: EpochRead, wm):
        """Exact per-row passthrough of an epoch's files (``read``) as
        a Ray Data Dataset (the passthrough sink writes a Dataset),
        with as many read tasks as the stage: same late-drop
        predicate as the aggregation path (the watermark in force at
        ingest — the global scalar, or the per-source frontier dict),
        token arrays byte-identical (pure Arrow filter, no rewrite).
        In hopping mode a row is kept iff ANY covering window is open,
        i.e. its LATEST window ((ts//hop)*hop + size) is open —
        matching _partial_stage's row_keep."""
        import ray.data as rd

        if self.cfg.file_format == "parquet":
            ds = rd.read_parquet(read.files, override_num_blocks=read.tasks)
        else:
            ds = rd.read_json(read.files, override_num_blocks=read.tasks).map_batches(
                _canonicalize_json_batch, batch_format="pyarrow", zero_copy_batch=True
            )
        size_s = self.cfg.window_size_s
        step = self.cfg.hop_s if self.cfg.hop_s is not None else size_s
        session = self.session_mode

        def keep(batch: pa.Table) -> pa.Table:
            ids = numeric_doc_id(batch["doc_id"])
            ts_s = event_time_us_from_numeric(ids) // 1_000_000
            if isinstance(wm, dict):
                wm_row = (
                    pd.Series(batch["source"].to_pylist())
                    .map(wm)
                    .fillna(-(2**62))
                    .to_numpy(np.int64)
                )
            else:
                wm_row = wm
            if session:
                return batch.filter(pa.array(ts_s > wm_row))
            last_end = (ts_s // step) * step + size_s
            return batch.filter(pa.array(last_end > wm_row))

        return ds.map_batches(keep, batch_format="pyarrow")

    def _ingest_metadata(self, epoch: int):
        if self.metadata is None:
            return
        mask = pa.compute.equal(self.metadata["arrival_epoch"], epoch)
        sub = self.metadata.filter(mask)
        if sub.num_rows:
            self.join.update(
                sub["source"].to_pylist(), sub["quality"].to_pylist()
            )

    def _close_and_finalize(self, watermark_s: int) -> pd.DataFrame:
        """Pop closed state from every actor, merge partials (cross-salt
        field-wise add for keyed windows; sessions arrive pre-merged),
        and evaluate every spec vectorized."""
        closed = ray.get([a.close_windows.remote(watermark_s) for a in self.actors])
        return self._finalize_tables(closed)

    def _finalize_tables(self, tables: list) -> pd.DataFrame:
        tbl = pa.concat_tables(tables)
        if not tbl.num_rows:
            return pd.DataFrame(
                columns=["source", "window_start", "window_end", *self.resolved,
                         *self.token_outputs, "n_rows"]
            )
        df = tbl.to_pandas()
        if self.session_mode:
            merged = df.rename(
                columns={"session_start_us": "window_start", "session_end_us": "window_end"}
            )
        else:
            merged = df.groupby(["source", "window_start"], as_index=False)[
                list(self.needed)
            ].sum()
            merged["window_end"] = merged["window_start"] + self.cfg.window_size_s
        cols = {c: merged[c].to_numpy() for c in self.needed}
        out = merged[["source", "window_start", "window_end"]].copy()
        for name, spec in self.resolved.items():
            out[name] = np.atleast_1d(spec.finalize_arrays(cols))
        for name, (spec, src_cols) in self.token_outputs.items():
            remap = dict(zip(spec.canonical, src_cols))
            out[name] = np.atleast_1d(
                spec.finalize_arrays({k: cols[v] for k, v in remap.items()})
            )
        out["n_rows"] = cols["u_n"].astype(np.int64) if "u_n" in cols else 0
        if self.session_mode:
            out["window_start"] = out["window_start"].astype(np.int64)
            out["window_end"] = out["window_end"].astype(np.int64)
        return out

    def _commit_emitted(self, epoch: int, emitted: pd.DataFrame):
        if len(emitted) == 0:
            emitted = pd.DataFrame(
                columns=[
                    "source", "window_start", "window_end", *self.resolved,
                    *self.token_outputs, "n_rows", "quality",
                ]
            )
        emitted["epoch"] = epoch
        self.sink.commit(
            epoch,
            pa.Table.from_pandas(emitted, preserve_index=False),
            sort_by=["source", "window_start"],
        )

    def _emit(self, epoch: int, watermark_s: int):
        self._ingest_metadata(epoch)
        out = self._close_and_finalize(watermark_s)
        self._commit_emitted(epoch, self.join.process(out, epoch))
        if self.changes_sink is not None:
            live = self._finalize_tables(
                ray.get([a.peek_state.remote() for a in self.actors])
            )
            live["epoch"] = epoch
            self.changes_sink.commit(
                epoch,
                pa.Table.from_pandas(live, preserve_index=False),
                sort_by=["source", "window_start"],
            )

    def _finalize_stream(self, final_epoch: int):
        out = self._close_and_finalize(END)
        emitted = self.join.process(out, final_epoch)
        tail = self.join.flush_all()
        if len(tail):
            emitted = pd.concat([emitted, tail], ignore_index=True)
        self._commit_emitted(final_epoch, emitted)
        self.final_metrics = {
            "epoch": final_epoch,
            "state_metrics": ray.get([a.get_metrics.remote() for a in self.actors]),
            "join_metrics": self.join.metrics,
        }

    def cleanup(self, delete_output: bool = False) -> None:
        """Engine-level teardown (the reference's
        ``DROP TABLE/STREAM ... DELETE TOPIC`` lifecycle,
        AllUdafIT.java:461-498): kill the state-actor pool, drop
        checkpoints, and — with ``delete_output=True`` (ksqlDB's
        DELETE TOPIC flag) — remove the committed sink output too."""
        import shutil

        if self.actors is not None:
            for a in self.actors:
                try:
                    ray.kill(a)
                except Exception:
                    pass
            self.actors = None
        shutil.rmtree(self.ckpt_root, ignore_errors=True)
        if delete_output:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def _final_metrics(self) -> dict:
        return {
            "epochs": self.metrics,
            "final": getattr(self, "final_metrics", None),
            "watermark_s": self.watermark_s,
            "committed": self.sink.committed_epochs(),
        }
