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
2. in the same tasks, the side-effect-free ``Router`` over each batch
   (:func:`_moment_stage`): derive event time, drop+count rows with a
   null value or weight, then the late rows (``state.late_rows``: a
   window row whose latest covering window closed, a session row at or
   before the watermark), expand the rest into their open windows
   (``state.covering_windows``) or split them into session fragments
   (``state.session_split``) — the window frame the sketch routers and
   the passthrough share — pre-aggregate power sums per ``(source,
   salt, window_start)`` or per fragment (``aggregate.power_sums`` over
   ``aggregate.dense_key``, the moment routines the batch partials
   run) and tag each partial row with its owning partition; each batch
   returns one row — bookkeeping (max event ts, late and null counts),
   its partial table as Arrow IPC and a batch key
3. advance watermark to ``max_event_ts - allowed_lateness`` (per
   source under ``watermark_scope="per_source"``), which is all the
   next epoch's Router needs, so epoch ``e+1``'s steps 1-2 start here
   on a second thread and run while the driver finishes epoch ``e``:
   it concatenates epoch ``e``'s partials in batch-key order, routes
   them to their owning state partitions (the explicit salted hash
   shuffle) with one ``ingest`` per state host, which carries the
   slices of the ``n_partitions / min(n_partitions, CPU slots)``
   partitions it hosts, and waits for those calls (the barrier), then
   runs steps 4-7
4. partitions (``state.KeyedPartition`` running the :class:`_Sums`
   kind) pop state of windows with ``window_end <= watermark`` and of
   sessions with ``end + gap <= watermark``, each salt's row as it is;
   the driver merges a window's salts once, across the partitions
   (field-wise add), then evaluates every statistic with the batch
   path's ``aggregate.finalize_kernel``, all in Arrow but for that
   merge's groupby-sum
5. join against the metadata stream state (grace-buffered left join,
   :class:`~raystat.streaming.join.MetadataJoin`, on Arrow tables); the
   end-of-stream close flushes its buffer with null ``quality``
6. commit via the exactly-once sink; optional exact per-row passthrough
   (the same ``state.late_rows``; null-value rows kept; token arrays
   untouched)
7. checkpoint partition snapshots (one file each) + driver state
   (watermark, join buffer, metrics) — resume replays from the next
   epoch; re-commits of already-manifested epochs are no-ops.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pajson

from raystat.accumulators import canonical_sums_for, get_spec
from raystat.aggregate import (
    dense_key, encode_key, finalize_kernel, power_sums, split_key, valid_xw_mask,
)
from raystat.extract import event_time_us_from_numeric, numeric_doc_id
from raystat.scratch import astype_f8, buf, tune_allocator
from raystat.streaming.epochs import END, EpochDriverBase, EpochRead
from raystat.streaming.join import MetadataJoin
from raystat.streaming.sink import ExactlyOnceParquetSink
from raystat.streaming.state import (
    GroupKind, Router, covering_windows, event_book, late_rows, session_split,
    source_watermarks,
)

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
    weight_col: str | None = "n_tok"  # weight for the weighted variants
    #   (the value is the row's token count, ``n_tok``)
    window_size_s: int = 3600
    hop_s: int | None = None  # None => tumbling; else hopping
    allowed_lateness_s: int = 1800
    session_gap_s: int | None = None  # set => SESSION windows (gap rule);
    #   window_size_s/hop_s are ignored; units of window_start/end are us
    n_partitions: int = 8  # logical state partitions, hosted in
    #   min(n_partitions, CPU slots) state actors (fix >= max CPUs for
    #   N/4N runs)
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
        _canonicalize_json_batch(pajson.read_json(f, read_options=opts))
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
    if isinstance(tok_col, pa.ChunkedArray):  # no copy of a one-chunk column
        tok_col = tok_col.chunk(0) if tok_col.num_chunks == 1 else tok_col.combine_chunks()
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


def _moment_stage(cfg: StreamConfig, needed, u_order, w_order, watermark):
    """``StreamDriver``'s per-batch kernel, for every window mode: one
    row extraction, the mode's grouping, then ``aggregate.power_sums``.
    ``watermark`` is the global scalar or the per-source frontier dict.

    Rows with a null value or weight are dropped first (``null_dropped``);
    then ``state.late_rows`` flags the late ones (``late_dropped``).
    Windows expand the rows into their open (row, window) pairs
    (``state.covering_windows``, any ``hop_s <= window_size_s``) and
    group them by (source code, window start) through the dense
    composite key ``src * W + win`` (``aggregate.dense_key``, the batch
    partials' key); every partial row carries the batch's salt.
    Sessions split the kept rows into fragments
    (``state.session_split``) bounded by their first and last event ts.
    Source codes encode the whole batch, late rows too."""
    session = cfg.session_gap_s is not None
    size_s = cfg.window_size_s
    step = cfg.hop_s or size_s
    weight_col, n_salts = cfg.weight_col, cfg.n_salts
    alias_w = weight_col == "n_tok" and u_order >= w_order + 1
    gap_us = int(cfg.session_gap_s or 0) * 1_000_000

    def fn(batch: pa.Table) -> tuple[pa.Table | None, dict]:
        tune_allocator()  # idempotent; needed under by-value pickling
        rows_in = batch.num_rows
        ids = numeric_doc_id(batch["doc_id"])
        ts_us = event_time_us_from_numeric(ids)
        src_code, src_vocab = encode_key(batch["source"], "source")
        wm = source_watermarks(batch["source"], watermark)
        info = event_book(ts_us, ids, null_dropped=0)
        if isinstance(watermark, dict):
            info["src_max_json"] = _src_max_json(src_vocab, ts_us, src_code)
        # BATCH-level salt: spreading a hot source's load over actors
        # only needs different BATCHES to route differently, not
        # different rows — a constant salt per batch (derived from the
        # data, deterministic under replay) shrinks the partial table
        # and the routing fan-out by n_salts while keeping the same
        # skew spreading across the stream.
        salt_b = int(ids[0]) % n_salts if rows_in else 0
        valid = valid_xw_mask(batch, ("n_tok", weight_col))
        if valid is not None:
            ok = np.flatnonzero(valid.to_numpy(zero_copy_only=False))
            info["null_dropped"] = rows_in - ok.size
            batch, ts_us, src_code = batch.take(ok), ts_us[ok], src_code[ok]
            wm = wm[ok] if np.ndim(wm) else wm
        x = astype_f8("x", batch["n_tok"].to_numpy(zero_copy_only=False))
        w = (
            astype_f8("w", batch[weight_col].to_numpy(zero_copy_only=False))
            if weight_col is not None and not alias_w
            else None
        )
        tr = _row_token_sums(batch, "tokens", x.size) if cfg.token_stats else None

        if session:
            late = late_rows(ts_us, wm)
            kept = np.flatnonzero(~late)
            order, gidx, starts = session_split(src_code[kept], ts_us[kept], gap_us)
            take, n_groups = kept[order], starts.size
        else:
            take, ws, late = covering_windows(ts_us, wm, size_s, step)
        info["late_dropped"] = int(late.sum())
        if not take.size:
            return None, info
        if not session:
            if take.size == x.size and not info["late_dropped"]:
                take = None  # every row one window: no gather
            # (source, window) as one dense composite key; the salt is
            # batch-constant, so not part of the group key
            ws_min = int(ws.min())
            n_win = int(ws.max() - ws_min) // step + 1
            gidx, n_groups, key = dense_key(src_code if take is None else src_code[take],
                                            len(src_vocab), (ws - ws_min) // step, n_win)
        present, sums = power_sums(gidx, n_groups, take, x, w, tr, needed,
                                   u_order, w_order, alias_w)
        if session:
            ts_k = ts_us[take]
            ends = np.append(starts[1:], take.size) - 1  # ts-sorted: last = max ts
            keys = {"source": src_vocab.take(pa.array(src_code[take][starts])),
                    "session_start_us": ts_k[starts], "session_end_us": ts_k[ends]}
        else:
            u_src, u_win = split_key(present, n_win, key)
            keys = {"source": src_vocab.take(pa.array(u_src, pa.int64())),
                    "salt": np.full(u_src.size, salt_b, dtype=np.int64),
                    "window_start": ws_min + u_win * step}
        return pa.table({**keys, **{c: pa.array(sums[c]) for c in needed}}), info

    return fn


class _Sums(GroupKind):
    """Moment state, as ``state.KeyedPartition`` runs it: float64
    power-sum columns ``sum_cols`` per ``(source, salt, window_start)``
    window or per ``(source, session_start_us, session_end_us)``
    session.  Sums merge by field-wise addition (the reference's
    ``merge()``), in a pinned order, since float sums depend on it:

    - windows: the new partials are summed per group with pandas
      (Kahan-compensated, in ingest order) and added to the state,
      missing groups filled with 0.0.  The state keeps its row order
      when the new groups are its groups in its order, and is
      otherwise ordered by group (pandas aligns two unequal indexes on
      their sorted union); that row order is the order of the
      cross-salt sum in ``StreamDriver._finalize_tables``;
    - sessions: each session's rows, old and new, in ``lexsort((start,
      gid))`` order (the state's rows before the new ones on a tie),
      through ``np.add.reduceat``.

    A close emits its groups' rows as they are: a window's salts, which
    may sit in several partitions, merge once, in the driver."""

    window_groups = ("source", "salt", "window_start")
    session_groups = ("source", "session_start_us", "session_end_us")

    def __init__(self, span_s: int, session: bool, sum_cols: list[str]):
        self.payload = {c: pa.float64() for c in sum_cols}
        super().__init__(span_s, session)

    def _values(self, t: pa.Table) -> np.ndarray:
        """The sum columns of ``t`` as one float64 (rows, columns) array."""
        return np.column_stack(
            [np.asarray(t[c].to_numpy(), dtype=np.float64) for c in self.payload_wire]
        )

    def merge_groups(self, state: pa.Table, new: pa.Table, gid: np.ndarray):
        ns = state.num_rows
        if self.session:
            start = np.concatenate([t["session_start_us"].to_numpy() for t in (state, new)])
            order = np.lexsort((start, gid))
            first = np.flatnonzero(np.diff(gid[order], prepend=-1))
            vals = np.concatenate([self._values(state), self._values(new)])[order]
            sums = np.add.reduceat(vals, first, axis=0)
            return gid[order][first], dict(zip(self.payload_wire, sums.T))
        sums = pd.DataFrame(self._values(new), columns=self.payload_wire)
        sums = sums.groupby(gid[ns:], sort=False).sum()
        if ns:
            old = pd.DataFrame(self._values(state), columns=self.payload_wire, index=gid[:ns])
            reorder = not old.index.equals(sums.index)
            sums = old.add(sums, fill_value=0.0)
            if reorder:
                both = pa.concat_tables([t.select(self.groups) for t in (state, new)])
                first = np.unique(gid, return_index=True)[1]
                keys = [(c, "ascending") for c in self.groups]
                sums = sums.loc[pc.sort_indices(both.take(first), sort_keys=keys).to_numpy()]
        return sums.index.to_numpy(), {c: sums[c].to_numpy() for c in self.payload_wire}


class StreamDriver(EpochDriverBase):
    book_sums = EpochDriverBase.book_sums + ("null_dropped",)
    sink_name = "agg"
    checkpointed = ("join",)  # the metadata join's buffer and metrics

    def __init__(self, input_dir: str, out_dir: str, cfg: StreamConfig | None = None,
                 metadata: pa.Table | None = None):
        """``metadata``: optional (source, quality, arrival_epoch) table —
        the late-arriving side stream."""
        cfg = self.cfg = cfg or StreamConfig()
        super().__init__(input_dir, out_dir, self.cfg.n_partitions, self.cfg.batch_size)
        self.metadata = metadata
        resolved = {k: get_spec(v) for k, v in self.cfg.specs.items()}
        self.session_mode = self.cfg.session_gap_s is not None
        self.needed, self.u_order, self.w_order = canonical_sums_for(resolved.values())
        extra: dict[str, tuple] = {}
        if self.cfg.token_stats:
            # token-value statistics finalize from t_* sums through the
            # same registered finalizers, fed the t_* columns
            self.needed = tuple(self.needed) + ("t_n", "t_s1", "t_s2", "t_s3", "t_s4")
            extra = {
                "tok_mean": (get_spec("weighted_average"), ("t_s1", "t_n")),
                "tok_std": (get_spec("stddev_weighted"), ("t_s1", "t_n", "t_s2")),
                "tok_skew": (get_spec("skewness"), ("t_n", "t_s1", "t_s2", "t_s3")),
                "tok_kurt": (get_spec("kurtosis"), ("t_n", "t_s1", "t_s2", "t_s3", "t_s4")),
            }
        if self.cfg.comoment_stats:
            # bivariate corr/cov(x=n_tok, y=row token sum): needs the
            # unweighted x sums to order 2, y (== group-summed t_s1,
            # already in needed via token_stats) and two more sums
            from raystat.comoments import get_comoment

            self.u_order = max(self.u_order, 2)
            for c in ("u_n", "u_s1", "u_s2"):
                if c not in self.needed:
                    self.needed = tuple(self.needed) + (c,)
            self.needed = tuple(self.needed) + ("c_syy", "c_sxy")
            co_cols = ("u_n", "u_s1", "t_s1", "u_s2", "c_syy", "c_sxy")
            extra["len_tok_corr"] = (get_comoment("correlation"), co_cols)
            extra["len_tok_cov"] = (get_comoment("covariance"), co_cols)
        # every output statistic, each spec reading its own sum columns
        outputs = {**resolved, **{k: replace(spec, canonical=cols)
                                  for k, (spec, cols) in extra.items()}}
        self.finalize = finalize_kernel(outputs, self.needed,
                                        ["source", "window_start", "window_end"])
        self.lateness_us = int(self.cfg.allowed_lateness_s) * 1_000_000
        self.pass_sink, self.changes_sink = (
            ExactlyOnceParquetSink(out_dir, name) if on else None
            for name, on in (("passthrough", cfg.passthrough), ("changes", cfg.emit_changes)))
        self.per_source_wm = self.cfg.watermark_scope == "per_source"
        self.join = MetadataJoin(self.cfg.join_grace_epochs)

    def _partition(self) -> tuple:
        span = self.cfg.session_gap_s if self.session_mode else self.cfg.window_size_s
        return _Sums, span, self.session_mode, list(self.needed)

    def _epoch_dataset(self, epoch: int) -> EpochRead | None:
        if self.cfg.file_format == "parquet":
            return super()._epoch_dataset(epoch)
        files = self._epoch_files(epoch, "jsonl")
        if not files:
            return None
        return EpochRead(files, _json_batches, self._read_tasks(files, 8 * 1024 * 1024))

    def _watermark(self):
        """The watermark in force, in seconds: the global scalar, or a
        copy of the per-source frontier map."""
        if self.per_source_wm:
            return {src: wm // 1_000_000 for src, wm in self.src_watermark.items()}
        return super()._watermark()

    def _router(self):
        fn = _moment_stage(self.cfg, self.needed, self.u_order, self.w_order, self._watermark())
        return Router(self.actors, self.cfg.n_partitions, fn)

    def _run_epoch(self, epoch: int):
        # the passthrough drops what this epoch's router dropped: the
        # watermark before _advance
        wm_at_ingest = self._watermark()
        book = super()._run_epoch(epoch)
        if self.pass_sink is not None and book is not None:
            self.pass_sink.commit_dataset(
                epoch, self._passthrough(self._epoch_dataset(epoch), wm_at_ingest)
            )
        return book

    def _passthrough(self, read: EpochRead, wm):
        """Exact per-row passthrough of an epoch's files (``read``): the
        kept rows of each read task, as Arrow tables in task order
        (the stage's read tasks, with ``keep`` as the router).  The
        aggregation path's late rule (``state.late_rows``) under the
        watermark in force at ingest (the global scalar, or the
        per-source frontier dict); rows with a null value are kept.
        Token arrays stay byte-identical (pure Arrow filter, no
        rewrite)."""
        cfg = self.cfg
        span = () if self.session_mode else (cfg.window_size_s, cfg.hop_s or cfg.window_size_s)

        def keep(batch: pa.Table) -> pa.Table:
            ts_us = event_time_us_from_numeric(numeric_doc_id(batch["doc_id"]))
            late = late_rows(ts_us, source_watermarks(batch["source"], wm), *span)
            return batch.filter(pa.array(~late))

        return read.map_batches(keep).tables()

    def _close_and_finalize(self, watermark_s) -> pa.Table:
        """Close every partition at ``watermark_s`` and finalize what
        closed (:meth:`_finalize_tables`)."""
        return self._finalize_tables(self._call("close", watermark_s))

    def _finalize_tables(self, tables: list) -> pa.Table:
        """The output rows of the groups in ``tables`` (one table per
        partition, in pid order): ``source``, ``window_start``,
        ``window_end``, one column per statistic and ``n_rows``.  A
        window's salts merge here, once: a pandas groupby-sum
        (Kahan-compensated, in pid order, then each partition's row
        order); sessions carry no salt.  Then ``aggregate.finalize_kernel``
        evaluates every statistic."""
        t = pa.concat_tables(tables)
        if self.session_mode:
            start, end = t["session_start_us"], t["session_end_us"]
        else:
            g = t.drop_columns(["salt"]).to_pandas().groupby(["source", "window_start"]).sum()
            t = pa.table({"source": pa.array(g.index.get_level_values(0), pa.string()),
                          **{c: g[c].to_numpy() for c in self.needed}})
            start = pa.array(g.index.get_level_values(1), pa.int64())
            end = pc.add(start, self.cfg.window_size_s)
        t = t.append_column("window_start", start).append_column("window_end", end)
        n_rows = t["u_n"].to_numpy().astype(np.int64) if "u_n" in self.needed else 0
        out = self.finalize(t)
        return out.append_column("n_rows", pa.array(np.broadcast_to(n_rows, t.num_rows)))

    def _emit(self, epoch: int, watermark_s):
        """Close and finalize at ``watermark_s``, join the metadata
        (arrived by ``epoch``) and commit; with ``emit_changes``, also
        commit every open group's current value.  The end-of-stream
        close (``END``) flushes the join's buffered rows."""
        end = watermark_s == END
        if self.metadata is not None:
            sub = self.metadata.filter(pc.equal(self.metadata["arrival_epoch"], epoch))
            self.join.update(sub["source"].to_pylist(), sub["quality"].to_pylist())
        out = [(self.sink, self.join.process(self._close_and_finalize(watermark_s), epoch,
                                             flush=end))]
        if self.changes_sink is not None and not end:
            out.append((self.changes_sink, self._finalize_tables(self._call("peek_state"))))
        for sink, t in out:
            stamp = pa.array(np.full(t.num_rows, epoch, dtype=np.int64))
            sink.commit(epoch, t.append_column("epoch", stamp), sort_by=["source", "window_start"])
