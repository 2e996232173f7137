"""As-of join: the vectorized per-partition kernel vs pandas
merge_asof (property-tested), and the distributed path vs the kernel
run on the whole input at once."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from raystat.dataops.asof import asof_join, asof_join_frames
from tests.util import to_pandas


def _asof_join_frames(df: pd.DataFrame, **kw) -> pd.DataFrame:
    """The Arrow kernel over a pandas frame, back as pandas."""
    return asof_join_frames(pa.Table.from_pandas(df, preserve_index=False), **kw).to_pandas()


def _frames(seed: int, nl: int, nr: int, n_keys: int):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, n_keys, nl),
            "ts": rng.integers(0, 10_000, nl).astype("int64"),
            "lv": rng.normal(size=nl),
            "_side": np.int8(1),
            "rv": np.nan,
        }
    )
    right = pd.DataFrame(
        {
            "k": rng.integers(0, n_keys, nr),
            "ts": rng.integers(0, 10_000, nr).astype("int64"),
            "lv": np.nan,
            "_side": np.int8(0),
            "rv": rng.normal(size=nr),
        }
    )
    return left, right


def _pandas_oracle(left, right, tolerance=None):
    return pd.merge_asof(
        left.drop(columns=["_side", "rv"]).sort_values("ts", kind="stable"),
        right[["k", "ts", "rv"]].sort_values("ts", kind="stable"),
        on="ts",
        by="k",
        direction="backward",
        tolerance=tolerance,
    )


def _norm(df):
    return (
        df.sort_values(["k", "ts", "lv"], kind="stable")
        .reset_index(drop=True)
        .astype({"rv": "float64"})
    )


@given(
    seed=st.integers(0, 2**31),
    tol=st.one_of(st.none(), st.integers(1, 2_000)),
)
@settings(max_examples=25, deadline=None)
def test_kernel_matches_merge_asof(seed, tol):
    left, right = _frames(seed, nl=200, nr=80, n_keys=12)
    df = pd.concat([left, right], ignore_index=True)
    got = _asof_join_frames(df, by="k", on="ts", right_cols=["rv"], tolerance=tol)
    exp = _pandas_oracle(left, right, tolerance=tol)
    pd.testing.assert_frame_equal(
        _norm(got), _norm(exp)[_norm(got).columns], check_dtype=False
    )


def test_kernel_edge_cases():
    # no right rows at all -> every left row unmatched
    left, right = _frames(0, nl=50, nr=20, n_keys=5)
    df = pd.concat([left, right.iloc[:0]], ignore_index=True)
    got = _asof_join_frames(df, by="k", on="ts", right_cols=["rv"])
    assert len(got) == 50 and got["rv"].isna().all()
    # equal timestamps are INCLUSIVE (right row at ts == left ts matches)
    df = pd.DataFrame(
        {
            "k": [1, 1],
            "ts": [100, 100],
            "lv": [5.0, np.nan],
            "_side": np.int8([1, 0]),
            "rv": [np.nan, 9.0],
        }
    )
    got = _asof_join_frames(df, by="k", on="ts", right_cols=["rv"])
    assert got["rv"].tolist() == [9.0]


def test_distributed_asof_matches_kernel(ray_session):
    import ray.data as rd

    left, right = _frames(123, nl=2_000, nr=600, n_keys=40)
    lds = rd.from_pandas(left.drop(columns=["_side", "rv"])).repartition(8)
    rds = rd.from_pandas(
        right[["k", "ts", "rv"]]
    ).repartition(4)
    got = to_pandas(
        asof_join(lds, rds, by="k", on="ts", right_cols=["rv"], n_parts=16)
    )
    exp = _pandas_oracle(left, right)
    pd.testing.assert_frame_equal(
        _norm(got)[["k", "ts", "lv", "rv"]],
        _norm(exp)[["k", "ts", "lv", "rv"]],
        check_dtype=False,
    )


def test_distributed_asof_string_keys(ray_session):
    import ray.data as rd

    left, right = _frames(7, nl=400, nr=150, n_keys=9)
    left["k"] = "u" + left["k"].astype(str)
    right["k"] = "u" + right["k"].astype(str)
    lds = rd.from_pandas(left.drop(columns=["_side", "rv"]))
    rds = rd.from_pandas(right[["k", "ts", "rv"]])
    got = to_pandas(asof_join(lds, rds, by="k", on="ts", right_cols=["rv"], n_parts=8))
    exp = _pandas_oracle(left, right)
    pd.testing.assert_frame_equal(
        _norm(got)[["k", "ts", "lv", "rv"]],
        _norm(exp)[["k", "ts", "lv", "rv"]],
        check_dtype=False,
    )


def test_right_col_collision_raises(ray_session):
    import ray.data as rd

    left, right = _frames(1, nl=10, nr=5, n_keys=2)
    lds = rd.from_pandas(left.drop(columns=["_side"]))  # keeps 'rv'
    rds = rd.from_pandas(right[["k", "ts", "rv"]])
    with pytest.raises(ValueError, match="collide"):
        asof_join(lds, rds, by="k", on="ts", right_cols=["rv"])


def test_hash_join_matches_pandas(ray_session):
    import ray.data as rd

    from raystat.dataops.joins import hash_join

    rng = np.random.default_rng(4)
    left = pd.DataFrame(
        {"k": rng.integers(0, 50, 3_000), "a": rng.normal(size=3_000)}
    )
    right = pd.DataFrame(
        {"k": rng.integers(0, 80, 400), "b": rng.normal(size=400)}
    )
    for how in ("inner", "left"):
        got = (
            hash_join(
                rd.from_pandas(left).repartition(6),
                rd.from_pandas(right).repartition(3),
                on="k",
                n_parts=8,
                how=how,
            )
            .to_pandas()
            .sort_values(["k", "a", "b"], ignore_index=True)
        )
        exp = left.merge(right, on="k", how=how).sort_values(
            ["k", "a", "b"], ignore_index=True
        )
        pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=False)


def test_hash_join_column_collision(ray_session):
    import ray.data as rd

    from raystat.dataops.joins import hash_join

    df = pd.DataFrame({"k": [1], "x": [1.0]})
    with pytest.raises(ValueError, match="collision"):
        hash_join(rd.from_pandas(df), rd.from_pandas(df), on="k")


def test_joins_survive_hot_key(ray_session):
    """A single key holding half of both sides must not break the
    co-partitioned sweep (asof) or the per-partition hash join —
    output stays correct, only that partition's task grows."""
    import ray.data as rd

    from raystat.dataops.joins import hash_join

    rng = np.random.default_rng(13)
    nl, nr = 4_000, 1_000
    lk = np.where(rng.random(nl) < 0.5, 7, rng.integers(100, 150, nl))
    rk = np.where(rng.random(nr) < 0.5, 7, rng.integers(100, 150, nr))
    left = pd.DataFrame(
        {"k": lk, "ts": rng.integers(0, 10_000, nl).astype("int64"),
         "lv": rng.normal(size=nl)}
    )
    right = pd.DataFrame(
        {"k": rk, "ts": rng.integers(0, 10_000, nr).astype("int64"),
         "rv": rng.normal(size=nr)}
    )
    got = to_pandas(
        asof_join(
            rd.from_pandas(left).repartition(8),
            rd.from_pandas(right).repartition(4),
            by="k", on="ts", right_cols=["rv"], n_parts=16,
        )
    )
    exp = pd.merge_asof(
        left.sort_values("ts", kind="stable"),
        right.sort_values("ts", kind="stable"),
        on="ts", by="k", direction="backward",
    )
    key = ["k", "ts", "lv"]
    g = got.sort_values(key, kind="stable", ignore_index=True)
    e = exp.sort_values(key, kind="stable", ignore_index=True)
    pd.testing.assert_frame_equal(
        g[["k", "ts", "lv", "rv"]], e[["k", "ts", "lv", "rv"]], check_dtype=False
    )

    jg = (
        hash_join(
            rd.from_pandas(left[["k", "lv"]]).repartition(8),
            rd.from_pandas(right[["k", "rv"]]).repartition(4),
            on="k", n_parts=16,
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"], ignore_index=True)
    )
    je = left[["k", "lv"]].merge(right[["k", "rv"]], on="k").sort_values(
        ["k", "lv", "rv"], ignore_index=True
    )
    pd.testing.assert_frame_equal(jg[je.columns], je, check_dtype=False)


def test_hash_join_empty_side(ray_session):
    import ray.data as rd

    from raystat.dataops.joins import hash_join

    left = pd.DataFrame({"k": [1, 2, 3], "a": [1.0, 2.0, 3.0]})
    empty = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                          "b": pd.Series([], dtype="float64")})
    inner = hash_join(
        rd.from_pandas(left), rd.from_pandas(empty), on="k"
    ).to_pandas()
    assert len(inner) == 0
    lefty = hash_join(
        rd.from_pandas(left), rd.from_pandas(empty), on="k", how="left"
    ).to_pandas()
    assert len(lefty) == 3 and lefty["b"].isna().all()


def test_hash_join_inner_keeps_int_columns(ray_session):
    """An inner join's int payload columns stay int64: each side's
    columns are null on the other side's rows of the tagged union, so
    splitting the sides after a pandas conversion would float them."""
    import ray.data as rd

    from raystat.dataops.joins import hash_join

    left = pd.DataFrame({"k": [1, 2, 3], "a": [10, 20, 30]})
    right = pd.DataFrame({"k": [1, 2, 4], "b": [7, 8, 9]})
    got = hash_join(rd.from_pandas(left), rd.from_pandas(right), on="k").to_pandas()
    got = got.sort_values("k", ignore_index=True)
    exp = pd.DataFrame({"k": [1, 2], "a": [10, 20], "b": [7, 8]})
    pd.testing.assert_frame_equal(got[exp.columns], exp)
