"""Streaming-sketch scale probe: wall time, throughput and WIRE VOLUME
for the four windowed sketch state kinds (HLL, MG, CMS, bottom-k) on a
20M-row / 100k-item-domain synthetic event stream — the regime where
items are near-distinct per batch, i.e. where the sparse
(key, window, item, n) partial shape degenerates and the fixed-size
wires (HLL registers, CMS counter blobs, bottom-k pair lists) have to
prove their point.

Fixture (deterministic, seed 42): N rows over 8 string keys and a
100k-item domain, 4 arrival epochs of monotone-ish event time (~60 ms
apart), one parquet file per epoch.  Each driver runs the full
epoch/watermark/exactly-once loop at 86400 s tumbling windows.

Usage:  python tools/sketch_scale_probe.py [n_rows] [out.json]
Writes one JSON record per driver: wall seconds, rows/s, emitted rows,
and partial rows routed through the actors (the wire).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def write_fixture(root: str, n_rows: int, n_epochs: int = 4,
                  files_per_epoch: int = 8) -> None:
    """Multiple part files per epoch: an epoch is read by at most one
    task per file, so a single-file epoch would serialize the router
    regardless of CPUs — real arrival directories have many parts."""
    rng = np.random.default_rng(42)
    per = n_rows // n_epochs
    base = 1_700_000_000_000_000
    for e in range(n_epochs):
        d = os.path.join(root, f"arrival={e}")
        os.makedirs(d, exist_ok=True)
        ts = base + (e * per + rng.permutation(per).astype(np.int64)) * 60_000
        t = pa.table(
            {
                "event_type": pa.array(
                    np.char.add("k", rng.integers(0, 8, per).astype("U1"))
                ),
                "user_id": pa.array(
                    rng.integers(0, 100_000, per).astype(np.int64)
                ),
                "ts_us": pa.array(ts),
            }
        )
        step = (per + files_per_epoch - 1) // files_per_epoch
        for f in range(files_per_epoch):
            part = t.slice(f * step, step)
            if part.num_rows:
                pq.write_table(
                    part, os.path.join(d, f"part-{f}.parquet"),
                    row_group_size=250_000,
                )


def main() -> int:
    import ray

    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000_000
    out_path = sys.argv[2] if len(sys.argv) > 2 else "SKETCH_SCALE_PROBE.json"
    fix = f"/tmp/raystat_sketch_probe_{n_rows}"
    if not os.path.exists(os.path.join(fix, "arrival=3")):
        write_fixture(fix, n_rows)
    if not ray.is_initialized():
        # the workers import raystat too, from any working directory
        old = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = REPO + (os.pathsep + old if old else "")
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from raystat.streaming.sketch import (
        BottomKStreamDriver,
        CmsStreamDriver,
        HllStreamDriver,
        MgStreamDriver,
    )

    common = dict(key="event_type", ts_col="ts_us", window_size_s=86400,
                  allowed_lateness_s=600, n_partitions=16,
                  batch_size=250_000)
    drivers = [
        ("hll", HllStreamDriver, dict(value="user_id")),
        ("mg", MgStreamDriver, dict(item="user_id", capacity=8192, top=10)),
        ("cms", CmsStreamDriver, dict(item="user_id", probe_mod=997)),
        ("bottomk", BottomKStreamDriver, dict(item="user_id", k=10)),
    ]
    results = {"n_rows": n_rows,
               "num_cpus": int(os.environ.get("RAY_GRAFT_CPUS", "32"))}
    for name, cls, kw in drivers:
        out = f"/tmp/raystat_sketch_probe_out_{name}"
        shutil.rmtree(out, ignore_errors=True)
        drv = cls(fix, out, **common, **kw)
        t0 = time.time()
        final = drv.run()["final"]
        wall = time.time() - t0
        emitted = drv.result_table().num_rows
        wire = sum(m["partial_rows_in"] for m in final["state_metrics"])
        rec = {"wall_s": round(wall, 2),
               "rows_per_sec": round(n_rows / wall),
               "emitted_rows": int(emitted),
               "wire_partial_rows": int(wire)}
        results[name] = rec
        print(name, rec, flush=True)
        shutil.rmtree(out, ignore_errors=True)
    with open(out_path, "w") as f:
        json.dump(results, f, indent=1)
    print("WROTE", out_path)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
