"""Interval join (stream-stream WITHIN join): the vectorized
per-partition kernel vs a brute-force nested filter (property-tested),
inclusive-bound edges, the composite-overflow guard, and the
distributed path vs the kernel run on the whole input at once."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from raystat.dataops.interval_join import interval_join, interval_join_frames
from tests.util import to_pandas


def _interval_join_frames(df: pd.DataFrame, **kw) -> pd.DataFrame:
    """The Arrow kernel over a pandas frame, back as pandas."""
    return interval_join_frames(pa.Table.from_pandas(df, preserve_index=False), **kw).to_pandas()


def _frames(seed: int, nl: int, nr: int, n_keys: int, span: int = 10_000):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, n_keys, nl),
            "ts": rng.integers(0, span, nl).astype("int64"),
            "lid": np.arange(nl, dtype=np.int64),
            "_side": np.int8(1),
            "rid": np.nan,
        }
    )
    right = pd.DataFrame(
        {
            "k": rng.integers(0, n_keys, nr),
            "ts": rng.integers(0, span, nr).astype("int64"),
            "lid": np.nan,
            "_side": np.int8(0),
            "rid": np.arange(nr, dtype=np.float64),
        }
    )
    return left, right


def _brute(left, right, before, after):
    """O(nl x nr) reference: cross join per key, filter the interval."""
    m = left.drop(columns=["_side", "rid"]).merge(
        right[["k", "ts", "rid"]].rename(columns={"ts": "rts"}), on="k"
    )
    m = m[(m["rts"] >= m["ts"] - before) & (m["rts"] <= m["ts"] + after)]
    return m[["k", "ts", "lid", "rid"]].reset_index(drop=True)


def _norm(df):
    return (
        df.sort_values(["k", "lid", "rid"], kind="stable")
        .reset_index(drop=True)
        .astype({"rid": "float64", "lid": "float64"})
    )


@given(
    seed=st.integers(0, 2**31),
    before=st.integers(0, 3_000),
    after=st.integers(0, 3_000),
)
@settings(max_examples=60, deadline=None)
def test_frames_vs_bruteforce(seed, before, after):
    left, right = _frames(seed, nl=80, nr=120, n_keys=7)
    both = pd.concat([left, right], ignore_index=True)
    got = _interval_join_frames(
        both, by="k", on="ts", right_cols=["rid"], before=before, after=after
    )
    exp = _brute(left, right, before, after)
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(_norm(got[exp.columns]), _norm(exp))


def test_inclusive_bounds_exact_edges():
    # right rows exactly AT ts-before and ts+after must both match
    both = pd.DataFrame(
        {
            "k": [1, 1, 1, 1, 1],
            "ts": [100, 90, 110, 89, 111],
            "lid": [0.0, np.nan, np.nan, np.nan, np.nan],
            "_side": np.int8([1, 0, 0, 0, 0]),
            "rid": [np.nan, 0.0, 1.0, 2.0, 3.0],
        }
    )
    got = _interval_join_frames(
        both, by="k", on="ts", right_cols=["rid"], before=10, after=10
    )
    assert sorted(got["rid"].tolist()) == [0.0, 1.0]


def test_no_cross_key_matches():
    both = pd.DataFrame(
        {
            "k": [1, 2],
            "ts": [100, 100],
            "lid": [0.0, np.nan],
            "_side": np.int8([1, 0]),
            "rid": [np.nan, 0.0],
        }
    )
    got = _interval_join_frames(
        both, by="k", on="ts", right_cols=["rid"], before=10, after=10
    )
    assert len(got) == 0


def test_timestamp_dtype_and_timedelta_bounds():
    ts0 = np.datetime64("2026-01-01T00:00:00", "us")
    both = pd.DataFrame(
        {
            "k": [5, 5, 5],
            "ts": [ts0 + np.timedelta64(2, "h"), ts0, ts0 + np.timedelta64(3, "h")],
            "lid": [0.0, np.nan, np.nan],
            "_side": np.int8([1, 0, 0]),
            "rid": [np.nan, 0.0, 1.0],
        }
    )
    got = _interval_join_frames(
        both,
        by="k",
        on="ts",
        right_cols=["rid"],
        before=np.timedelta64(2, "h"),
        after=np.timedelta64(0, "s"),
    )
    # the touch 2h before matches (inclusive); the one 1h after does not
    assert got["rid"].tolist() == [0.0]


def test_overflow_guard_raises():
    both = pd.DataFrame(
        {
            "k": np.arange(1000, dtype=np.int64),
            "ts": np.linspace(0, 2**53, 1000).astype("int64"),
            "lid": 0.0,
            "_side": np.int8(1),
            "rid": np.nan,
        }
    )
    both.loc[0, "_side"] = 0
    with pytest.raises(ValueError, match="overflow"):
        _interval_join_frames(
            both, by="k", on="ts", right_cols=["rid"], before=1, after=1
        )


def test_distributed_matches_single_partition(ray_session):
    import ray.data as rd

    left, right = _frames(7, nl=400, nr=600, n_keys=23)
    lds = rd.from_pandas(left.drop(columns=["_side", "rid"]))
    rds = rd.from_pandas(right[["k", "ts", "rid"]])
    got = to_pandas(
        interval_join(
            lds, rds, by="k", on="ts", right_cols=["rid"],
            before=500, after=250, n_parts=8,
        )
    )
    exp = _brute(left, right, 500, 250)
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(_norm(got[exp.columns]), _norm(exp))
