"""Test helpers: DuckDB oracle connection + frame comparison."""

from __future__ import annotations

import glob
import json
import os

import duckdb
import numpy as np
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def duck(sf_dir: str) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def to_pandas(obj) -> pd.DataFrame:
    try:
        import ray.data

        if isinstance(obj, ray.data.Dataset):
            return obj.to_pandas()
    except ImportError:
        pass
    if hasattr(obj, "to_pandas") and not isinstance(obj, pd.DataFrame):
        return obj.to_pandas()
    return obj


def assert_frames_close(got, expected, keys, rel=1e-9, abs_tol=1e-9):
    """Order-insensitive comparison: sort both by `keys`, compare
    numeric columns with tolerance (NaN == NaN), others exactly."""
    got, expected = to_pandas(got), to_pandas(expected)
    assert sorted(got.columns) == sorted(expected.columns), (
        f"columns differ: {sorted(got.columns)} vs {sorted(expected.columns)}"
    )
    got = got.sort_values(keys, ignore_index=True)[sorted(got.columns)]
    expected = expected.sort_values(keys, ignore_index=True)[sorted(expected.columns)]
    assert len(got) == len(expected), f"row counts {len(got)} vs {len(expected)}"
    for c in expected.columns:
        e, g = expected[c], got[c]
        if np.issubdtype(e.dtype, np.floating) or np.issubdtype(g.dtype, np.floating):
            e64 = e.astype(float).to_numpy()
            g64 = g.astype(float).to_numpy()
            ok = np.isclose(g64, e64, rtol=rel, atol=abs_tol, equal_nan=True)
            assert ok.all(), (
                f"column {c}: {int((~ok).sum())} mismatches, e.g. "
                f"{g64[~ok][:3]} vs {e64[~ok][:3]}"
            )
        else:
            pd.testing.assert_series_equal(
                g, e, check_dtype=False, check_names=False, obj=f"column {c}"
            )


def manifest_digests(sink_root: str) -> list[tuple[str, str]]:
    """(manifest name, sha256) of every committed epoch of one
    exactly-once sink, in epoch order."""
    out = []
    for f in sorted(glob.glob(os.path.join(sink_root, "_manifest", "epoch-*.json"))):
        with open(f) as fh:
            out.append((os.path.basename(f), json.load(fh)["sha256"]))
    return out
