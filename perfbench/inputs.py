"""Seeded input generators, cached per (kind, seed, size).

The same seed always gives the same files.  Generation happens before
Ray starts and is never timed.  Each generator writes into a temp
directory and renames it into place, so a half-written input is never
reused.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_EPOCHS = 8  # arrival epochs of every stream input
EVENT_KEYS = 8  # events stream: distinct keys
ITEM_DOMAIN = 100_000  # events stream: item (user id) domain
EVENT_SPAN_S = N_EPOCHS * 6 * 3600  # events stream: 6 h of event time per epoch
TABLE_KEYS = 64  # batch table: distinct keys
TABLE_SPAN_S = 7 * 86400  # batch table: 7 days of event time
T0_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z


def _cached(root: str, build) -> str:
    """Run ``build(tmp_dir)`` once; later calls return the finished dir."""
    if os.path.exists(os.path.join(root, "_done")):
        return root
    tmp = root + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    open(os.path.join(tmp, "_done"), "w").close()
    os.replace(tmp, root)
    return root


def token_stream(work: str, seed: int, n_rows: int) -> str:
    """The engine's own seeded token stream, 8 arrival epochs, 16 part
    files (about 2% of rows one epoch late, 0.5% three epochs late)."""
    from raystat.fixtures import write_stream_fixture

    root = os.path.join(work, f"tokens-s{seed}-n{n_rows}")

    def build(tmp: str) -> None:
        write_stream_fixture(
            os.path.join(tmp, "stream"),
            n_rows=n_rows,
            rows_per_block=max(1, n_rows // 16),
            n_epochs=N_EPOCHS,
            seed=seed,
        )

    return os.path.join(_cached(root, build), "stream")


def _arrival(rank: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Arrival epoch by event-time rank; 2% of rows one epoch late and
    0.5% three epochs late (capped at the last epoch)."""
    epoch = (rank * N_EPOCHS) // max(n, 1)
    u = rng.random(n)
    epoch = epoch + (u < 0.02) + 3 * ((u >= 0.02) & (u < 0.025))
    return np.minimum(epoch, N_EPOCHS - 1)


def events_stream(work: str, seed: int, n_rows: int, files_per_epoch: int = 4) -> str:
    """Narrow events stream ``(event_type, user_id, ts_us)``: 8 keys, a
    100k-item domain, 48 h of event time, 8 arrival epochs of
    ``files_per_epoch`` parts each (the shape of the sketch scale probe)."""
    root = os.path.join(work, f"events-s{seed}-n{n_rows}")

    def build(tmp: str) -> None:
        rng = np.random.default_rng(seed)
        ts = T0_US + rng.integers(0, EVENT_SPAN_S * 1_000_000, n_rows, dtype=np.int64)
        keys = np.char.add("k", rng.integers(0, EVENT_KEYS, n_rows).astype(str))
        items = rng.integers(0, ITEM_DOMAIN, n_rows, dtype=np.int64)
        rank = np.empty(n_rows, dtype=np.int64)
        rank[np.argsort(ts, kind="stable")] = np.arange(n_rows)
        arrival = _arrival(rank, n_rows, rng)
        t = pa.table(
            {
                "event_type": pa.array(keys, pa.string()),
                "user_id": pa.array(items, pa.int64()),
                "ts_us": pa.array(ts, pa.int64()),
            }
        )
        for e in range(N_EPOCHS):
            sub = t.filter(pa.array(arrival == e))
            d = os.path.join(tmp, f"arrival={e}")
            os.makedirs(d)
            step = -(-sub.num_rows // files_per_epoch)
            for f in range(files_per_epoch):
                part = sub.slice(f * step, step)
                if part.num_rows:
                    pq.write_table(part, os.path.join(d, f"part-{f}.parquet"))

    return _cached(root, build)


def events_table(work: str, seed: int, n_rows: int, n_files: int = 4) -> list[str]:
    """Batch events table ``(key, ts, value, weight)``: 64 keys over 7
    days, lognormal values, uniform weights in [0.5, 2)."""
    root = os.path.join(work, f"table-s{seed}-n{n_rows}")

    def build(tmp: str) -> None:
        rng = np.random.default_rng(seed + 1)
        ts = np.sort(T0_US + rng.integers(0, TABLE_SPAN_S * 1_000_000, n_rows, dtype=np.int64))
        t = pa.table(
            {
                "key": pa.array(np.char.add("k", rng.integers(0, TABLE_KEYS, n_rows).astype(str))),
                "ts": pa.array(ts, pa.timestamp("us")),
                "value": pa.array(rng.lognormal(3.0, 1.0, n_rows)),
                "weight": pa.array(rng.uniform(0.5, 2.0, n_rows)),
            }
        )
        step = -(-n_rows // n_files)
        for f in range(n_files):
            pq.write_table(t.slice(f * step, step), os.path.join(tmp, f"part-{f}.parquet"))

    return sorted(glob.glob(os.path.join(_cached(root, build), "*.parquet")))


def input_files(root: str) -> list[str]:
    """Every parquet file of a stream input, in a stable order."""
    return sorted(glob.glob(os.path.join(root, "arrival=*", "*.parquet")))


def arrival_of(path: str) -> int:
    return int(os.path.basename(os.path.dirname(path)).split("=")[1])
