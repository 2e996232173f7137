"""Batch grouped/windowed aggregation vs DuckDB oracles on the driver
testdata (sf0.001).  Mirrors the reference's end-to-end integration
layer (AllUdafIT.java:162-452) with SQL twins of the power-sum
formulas."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from raystat.aggregate import (
    grouped_moments, keyed_merge, session_kernel, session_moments, sum_kernel,
)
from raystat.comoments import grouped_comoments
from raystat.pipelines.queries import sql_corr, sql_cov, sql_wavg, sql_wcov, sql_wstd
from raystat.windows import Hopping, Tumbling
from tests.util import assert_frames_close, duck

SF = "/root/testdata/sf0.001"

WAVG = "sum(l_quantity*l_extendedprice)/sum(l_quantity)"
WVAR = f"(sum(l_quantity*l_extendedprice*l_extendedprice)/sum(l_quantity) - pow({WAVG},2))"


@pytest.fixture(scope="module")
def con():
    c = duck(SF)
    yield c
    c.close()


@pytest.fixture(scope="module")
def lineitem(ray_session):
    import ray.data as rd

    return rd.read_parquet(
        f"{SF}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"],
    )


@pytest.fixture(scope="module")
def events(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/events.parquet", columns=["event_type", "ts", "value"])


def test_weighted_grouped(lineitem, con):
    got = grouped_moments(
        lineitem,
        {
            "wavg": "weighted_average",
            "wstd": "stddev_weighted",
            "wskew": "skewness_weighted",
            "wkurt": "kurtosis_weighted",
        },
        ["l_returnflag"],
        value="l_extendedprice",
        weight="l_quantity",
    )
    expected = con.sql(f"""
        SELECT l_returnflag,
          {WAVG} AS wavg,
          sqrt(greatest({WVAR},0)) AS wstd,
          (sum(l_quantity*pow(l_extendedprice,3))/sum(l_quantity)
            - 3*({WAVG})*(sum(l_quantity*l_extendedprice*l_extendedprice)/sum(l_quantity))
            + 2*pow({WAVG},3)) / pow(greatest({WVAR},0), 1.5) AS wskew,
          (sum(l_quantity*pow(l_extendedprice,4))/sum(l_quantity)
            - 4*({WAVG})*(sum(l_quantity*pow(l_extendedprice,3))/sum(l_quantity))
            + 6*pow({WAVG},2)*(sum(l_quantity*l_extendedprice*l_extendedprice)/sum(l_quantity))
            - 3*pow({WAVG},4)) / pow({WVAR},2) AS wkurt
        FROM lineitem GROUP BY l_returnflag
    """).df()
    assert_frames_close(got, expected, ["l_returnflag"], rel=1e-9)


def test_unweighted_grouped(events, con):
    got = grouped_moments(
        events,
        {"skew": "skewness", "kurt": "kurtosis"},
        ["event_type"],
        value="value",
    )
    expected = con.sql("""
        SELECT event_type,
          CASE WHEN var_pop(value)=0 THEN 0.0 ELSE
            (sum(pow(value,3))/count(value) - 3*avg(value)*(sum(value*value)/count(value)) + 2*pow(avg(value),3))
            / pow(sum(value*value)/count(value) - pow(avg(value),2), 1.5) END AS skew,
          CASE WHEN var_pop(value)=0 THEN 0.0 ELSE
            (sum(pow(value,4))/count(value) - 4*avg(value)*(sum(pow(value,3))/count(value))
             + 6*pow(avg(value),2)*(sum(value*value)/count(value)) - 3*pow(avg(value),4))
            / pow(sum(value*value)/count(value) - pow(avg(value),2), 2) END AS kurt
        FROM events GROUP BY event_type
    """).df()
    assert_frames_close(got, expected, ["event_type"], rel=1e-7)


def test_tumbling_window(events, con):
    got = grouped_moments(
        events,
        {"wavg": "weighted_average", "wstd": "stddev_weighted"},
        ["event_type"],
        value="value",
        weight="value",
        window=Tumbling(86400),
        ts="ts",
    )
    wa = "sum(value*value)/sum(value)"
    expected = con.sql(f"""
        SELECT event_type,
          cast(floor(epoch(ts)/86400)*86400 as bigint) AS window_start,
          {wa} AS wavg,
          sqrt(greatest(sum(value*value*value)/sum(value) - pow({wa},2),0)) AS wstd
        FROM events GROUP BY event_type, window_start
    """).df()
    assert_frames_close(got, expected, ["event_type", "window_start"], rel=1e-9)


def test_hopping_window(events, con):
    got = grouped_moments(
        events,
        {"avg_v": "weighted_average"},
        ["event_type"],
        value="value",
        weight="value",
        window=Hopping(2 * 86400, 86400),
        ts="ts",
    )
    expected = con.sql("""
        SELECT event_type,
          (cast(floor(epoch(ts)/86400) as bigint) - k.i) * 86400 AS window_start,
          sum(value*value)/sum(value) AS avg_v
        FROM events CROSS JOIN (VALUES (0),(1)) k(i)
        WHERE (cast(floor(epoch(ts)/86400) as bigint) - k.i) * 86400 > epoch(ts) - 2*86400
        GROUP BY event_type, window_start
    """).df()
    assert_frames_close(got, expected, ["event_type", "window_start"], rel=1e-9)


def test_session_window(events, con):
    gap = 7200
    got = session_moments(
        events,
        {"wavg": "weighted_average"},
        ["event_type"],
        value="value",
        weight="value",
        ts="ts",
        gap_s=gap,
    )
    expected = con.sql(f"""
        WITH t AS (
          SELECT event_type, value, epoch_us(ts) AS tu,
                 lag(epoch_us(ts)) OVER (PARTITION BY event_type ORDER BY epoch_us(ts)) AS prev
          FROM events
        ), s AS (
          SELECT *, sum(CASE WHEN prev IS NULL OR tu - prev > cast({gap} as bigint)*1000000 THEN 1 ELSE 0 END)
                 OVER (PARTITION BY event_type ORDER BY tu ROWS UNBOUNDED PRECEDING) AS sess
          FROM t
        )
        SELECT event_type, min(tu) AS session_start_us, max(tu) AS session_end_us,
               sum(value*value)/sum(value) AS wavg
        FROM s GROUP BY event_type, sess
    """).df()
    assert_frames_close(
        got, expected, ["event_type", "session_start_us"], rel=1e-9
    )


def test_global_aggregate(lineitem, con):
    got = grouped_moments(
        lineitem, {"wavg": "weighted_average"}, None,
        value="l_extendedprice", weight="l_quantity",
    )
    expected = con.sql(f"SELECT {WAVG} AS wavg FROM lineitem").df()
    assert_frames_close(got, expected, ["wavg"], rel=1e-9)


def test_partial_batch_invariance(lineitem, con, ray_session):
    """Result is independent of batch slicing (merge associativity in
    the distributed setting)."""
    a = grouped_moments(
        lineitem, {"wstd": "stddev_weighted"}, ["l_returnflag"],
        value="l_extendedprice", weight="l_quantity", batch_size=128,
    ).to_pandas()
    b = grouped_moments(
        lineitem.repartition(7), {"wstd": "stddev_weighted"}, ["l_returnflag"],
        value="l_extendedprice", weight="l_quantity", batch_size=1024,
    ).to_pandas()
    assert_frames_close(a, b, ["l_returnflag"], rel=1e-9)


# -- the keyed exchange: sort on the group keys, Arrow kernel per block --


def _two_key_table() -> pa.Table:
    """500 (a, b) groups over four days of microsecond timestamps, about
    ten rows per group and day: a one-row group's naive power-sum
    variance is rounding noise in both engines, not a merge error."""
    n = 20000
    rng = np.random.default_rng(5)
    v = rng.uniform(0.0, 10.0, n)
    return pa.table({
        "a": rng.integers(0, 20, n),
        "b": pa.array([f"b{i}" for i in rng.integers(0, 25, n)]),
        "ts": pa.array(rng.integers(0, 4 * 86_400_000_000, n), pa.timestamp("us")),
        "v": v,
        "y": 0.5 * v + rng.normal(0.0, 1.0, n),
        "w": rng.uniform(1.0, 3.0, n),
    })


def _duck_table(t: pa.Table, sql: str):
    """Run ``sql`` in DuckDB over ``t`` registered as table ``t``."""
    import duckdb

    with duckdb.connect() as con:
        con.register("t", t)
        return con.sql(sql).df()


def test_keyed_merge_keeps_each_group_in_one_block(ray_session):
    import ray.data as rd

    t = _two_key_table()
    merged = keyed_merge(
        rd.from_arrow(t).repartition(8), ["a", "b"], sum_kernel(["a", "b"], ["v"])
    ).materialize()
    assert merged.num_blocks() >= 4
    got = merged.to_pandas()
    assert len(got) == 500 and not got.duplicated(["a", "b"]).any()
    expected = t.to_pandas().groupby(["a", "b"], as_index=False)["v"].sum()
    assert_frames_close(got, expected, ["a", "b"], rel=1e-9)


HOP = Hopping(2 * 86400, 86400)
HOP_SQL = """
    (cast(floor(epoch(ts)/86400) as bigint) - k.i) * 86400 AS window_start
    FROM t CROSS JOIN (VALUES (0),(1)) k(i)
    WHERE (cast(floor(epoch(ts)/86400) as bigint) - k.i) * 86400 > epoch(ts) - 2*86400
"""


@pytest.mark.parametrize("windowed", [True, False], ids=["hopping", "global"])
def test_grouped_moments_across_exchange_blocks(ray_session, windowed):
    import ray.data as rd

    t = _two_key_table()
    keys = ["a", "b"] if windowed else None
    got = grouped_moments(
        rd.from_arrow(t).repartition(8),
        {"wavg": "weighted_average", "wstd": "stddev_weighted"},
        keys, value="v", weight="w", window=HOP if windowed else None, batch_size=97,
    )
    stats = f"{sql_wavg('v', 'w')} AS wavg, {sql_wstd('v', 'w')} AS wstd"
    if windowed:
        sql = f"SELECT a, b, {stats}, {HOP_SQL} GROUP BY a, b, window_start"
        on = ["a", "b", "window_start"]
    else:
        sql, on = f"SELECT {stats} FROM t", ["wavg"]
    expected = _duck_table(t, sql)
    assert len(expected) > (1000 if windowed else 0)
    assert_frames_close(got, expected, on, rel=1e-9)


@pytest.mark.parametrize("windowed", [True, False], ids=["hopping", "global"])
def test_grouped_comoments_across_exchange_blocks(ray_session, windowed):
    import ray.data as rd

    t = _two_key_table()
    keys = ["a", "b"] if windowed else None
    got = grouped_comoments(
        rd.from_arrow(t).repartition(8),
        {"cov": "covariance", "corr": "correlation", "wcov": "covariance_weighted"},
        keys, x="v", y="y", weight="w", window=HOP if windowed else None,
    )
    stats = (f"{sql_cov('v', 'y')} AS cov, {sql_corr('v', 'y')} AS corr, "
             f"{sql_wcov('v', 'y', 'w')} AS wcov")
    if windowed:
        sql = f"SELECT a, b, {stats}, {HOP_SQL} GROUP BY a, b, window_start"
        on = ["a", "b", "window_start"]
    else:
        sql, on = f"SELECT {stats} FROM t", ["cov"]
    expected = _duck_table(t, sql)
    assert_frames_close(got, expected, on, rel=1e-9)


def _session_events() -> pa.Table:
    """Key A: one long session (every 50 s over 0..5000 s).  Key B:
    sessions {1000, 1030}, {1200, 1210}, {3000} that lie inside A's
    span, so A's running end passes B's next start.  Key C: random."""
    rng = np.random.default_rng(9)
    a = np.arange(0, 5001, 50)
    b = np.array([1000, 1030, 1200, 1210, 3000])
    c = np.sort(rng.integers(0, 6000, 120))
    sec = np.concatenate([a, b, c])
    key = np.array(["A"] * a.size + ["B"] * b.size + ["C"] * c.size)
    order = rng.permutation(sec.size)  # interleave keys within every batch
    return pa.table({
        "k": key[order],
        "ts": pa.array(sec[order] * 1_000_000, pa.timestamp("us")),
        "v": rng.uniform(1.0, 5.0, sec.size),
    })


def test_session_merge_interleaved_keys(ray_session):
    import ray.data as rd

    gap = 60
    t = _session_events()
    # 13-row input blocks: every session straddles several partial batches
    ds = rd.from_arrow([t.slice(i, 13) for i in range(0, t.num_rows, 13)])
    got = session_moments(
        ds, {"wavg": "weighted_average"}, ["k"], value="v", weight="v", ts="ts", gap_s=gap
    ).to_pandas()
    expected = _duck_table(t, f"""
        WITH r AS (
          SELECT k, v, epoch_us(ts) AS tu,
                 lag(epoch_us(ts)) OVER (PARTITION BY k ORDER BY epoch_us(ts)) AS prev
          FROM t
        ), s AS (
          SELECT *, sum(CASE WHEN prev IS NULL OR tu - prev > {gap}*1000000 THEN 1 ELSE 0 END)
                 OVER (PARTITION BY k ORDER BY tu ROWS UNBOUNDED PRECEDING) AS sess
          FROM r
        )
        SELECT k, min(tu) AS session_start_us, max(tu) AS session_end_us,
               {sql_wavg('v', 'v')} AS wavg
        FROM s GROUP BY k, sess
    """)
    assert_frames_close(got, expected, ["k", "session_start_us"], rel=1e-9)
    assert (got["k"] == "A").sum() == 1 and (got["k"] == "B").sum() == 3


def test_merge_runs_never_bridges_keys():
    """The batch session merge (the shared gap sweep): A's running end
    (5000 s) passes B's next start, and B's sessions must still split
    on B's own gaps."""
    s = 1_000_000
    t = pa.table({
        "k": ["B", "A", "B", "A", "B"],
        "u_n": [1, 1, 1, 1, 1],
        "session_start_us": [1200 * s, 0, 1000 * s, 4000 * s, 3000 * s],
        "session_end_us": [1210 * s, 5000 * s, 1030 * s, 4100 * s, 3000 * s],
    })
    out = session_kernel(["k"], ["u_n"], 60 * s)(t).to_pydict()
    assert out["k"] == ["A", "B", "B", "B"]
    assert out["session_start_us"] == [0, 1000 * s, 1200 * s, 3000 * s]
    assert out["session_end_us"] == [5000 * s, 1030 * s, 1210 * s, 3000 * s]
    assert out["u_n"] == [2, 1, 1, 1]


def test_session_merge_bridges_earlier_sessions(ray_session):
    """A later batch's fragment [50 s, 60 s] falls within the gap of two
    sessions an earlier batch closed apart ([0, 10] and [100, 110]), so
    the merge joins all three into one; key B's sessions stay apart."""
    import ray.data as rd

    s = 1_000_000
    t = pa.table({
        "k": ["A", "A", "B", "B", "A"],
        "u_n": [2, 2, 1, 1, 2],
        "session_start_us": [0, 100 * s, 0, 100 * s, 50 * s],
        "session_end_us": [10 * s, 110 * s, 0, 100 * s, 60 * s],
    })
    out = session_kernel(["k"], ["u_n"], 60 * s)(t).to_pydict()
    assert out == {"k": ["A", "B", "B"], "session_start_us": [0, 0, 100 * s],
                   "session_end_us": [110 * s, 0, 100 * s], "u_n": [6, 1, 1]}
    # the same through session_moments: the first block's sessions are
    # built apart, the second block's fragment bridges them
    sec = [[0, 10, 100, 110], [50, 60]]
    blocks = [pa.table({"k": ["A"] * len(b),
                        "ts": pa.array([x * s for x in b], pa.timestamp("us")),
                        "v": [float(x + 1) for x in b]}) for b in sec]
    got = session_moments(rd.from_arrow(blocks), {"wavg": "weighted_average"}, ["k"],
                          value="v", weight="v", gap_s=60).to_pandas()
    assert got["session_start_us"].tolist() == [0]
    assert got["session_end_us"].tolist() == [110 * s]
    v = np.array([1.0, 11.0, 101.0, 111.0, 51.0, 61.0])
    assert got["wavg"].tolist() == pytest.approx([(v * v).sum() / v.sum()], rel=1e-12)


def _null_table() -> pa.Table:
    """Five keys over two days; the value, the weight and y each have
    nulls on their own rows (y: every 6th row)."""
    n = 3000
    rng = np.random.default_rng(13)
    i = np.arange(n)
    v = rng.uniform(1.0, 9.0, n)
    return pa.table({
        "k": pa.array([f"k{j}" for j in i % 5]),
        "ts": pa.array(np.sort(rng.integers(0, 2 * 86_400_000_000, n)), pa.timestamp("us")),
        "v": pa.array(v, mask=(i % 7 == 2)),
        "w": pa.array(rng.uniform(1.0, 3.0, n), mask=(i % 11 == 4)),
        "y": pa.array(0.5 * v + rng.normal(0.0, 1.0, n), mask=(i % 6 == 1)),
    })


_NULL_CASES = {
    # all of a batch's rows have a null value; the other blocks do not
    "all_null_batch": lambda t: [t.slice(0, 1000),
                                 t.slice(1000, 500).set_column(
                                     2, "v", pa.nulls(500, pa.float64())),
                                 t.slice(1500)],
    "null_value": lambda t: [t.slice(i, 600) for i in range(0, t.num_rows, 600)],
    # the weight's nulls only: no null value
    "null_weight": lambda t: [t.set_column(2, "v", t["v"].fill_null(5.0))],
}


@pytest.mark.parametrize("case", [*_NULL_CASES, "zero_row_file"])
@pytest.mark.parametrize("op", ["tumbling", "session", "comoments"])
def test_batch_nulls_and_empty_input(ray_session, tmp_path, op, case):
    """Rows with a null value or weight (or y) are dropped before the
    sums, as DuckDB drops them on the same rows; a batch whose rows are
    all null and a zero-row file add nothing."""
    import pyarrow.parquet as pq
    import ray.data as rd

    t = _null_table()
    if case == "zero_row_file":
        files = [str(tmp_path / "a.parquet"), str(tmp_path / "empty.parquet")]
        pq.write_table(t, files[0])
        pq.write_table(t.slice(0, 0), files[1])
        ds = rd.read_parquet(files)
    else:
        blocks = _NULL_CASES[case](t)
        t = pa.concat_tables(blocks)
        ds = rd.from_arrow(blocks)
    where = "v IS NOT NULL AND w IS NOT NULL"
    if op == "tumbling":
        got = grouped_moments(ds, {"wavg": "weighted_average", "wstd": "stddev_weighted"},
                              ["k"], value="v", weight="w", window=Tumbling(3600))
        on = ["k", "window_start"]
        sql = f"""SELECT k, cast(floor(epoch(ts)/3600) as bigint)*3600 AS window_start,
                         {sql_wavg('v', 'w')} AS wavg, {sql_wstd('v', 'w')} AS wstd
                  FROM t WHERE {where} GROUP BY ALL"""
    elif op == "session":
        got = session_moments(ds, {"wavg": "weighted_average"}, ["k"],
                              value="v", weight="w", gap_s=600)
        on = ["k", "session_start_us"]
        sql = f"""WITH r AS (
                    SELECT k, v, w, epoch_us(ts) AS tu,
                           lag(epoch_us(ts)) OVER (PARTITION BY k ORDER BY epoch_us(ts)) AS prev
                    FROM t WHERE {where}
                  ), s AS (
                    SELECT *, sum(CASE WHEN prev IS NULL OR tu - prev > 600000000
                                       THEN 1 ELSE 0 END)
                           OVER (PARTITION BY k ORDER BY tu ROWS UNBOUNDED PRECEDING) AS sess
                    FROM r
                  )
                  SELECT k, min(tu) AS session_start_us, max(tu) AS session_end_us,
                         {sql_wavg('v', 'w')} AS wavg
                  FROM s GROUP BY k, sess"""
    else:
        got = grouped_comoments(ds, {"cov": "covariance", "wcov": "covariance_weighted"},
                                ["k"], x="v", y="y", weight="w")
        on = ["k"]
        sql = f"""SELECT k, {sql_cov('v', 'y')} AS cov, {sql_wcov('v', 'y', 'w')} AS wcov
                  FROM t WHERE {where} AND y IS NOT NULL GROUP BY k"""
    expected = _duck_table(t, sql)
    assert len(expected) >= 5
    assert_frames_close(got, expected, on, rel=1e-9)


def test_batch_zero_row_input(ray_session, tmp_path):
    """A dataset of one zero-row file: every batch operator returns no
    groups, as DuckDB does."""
    import pyarrow.parquet as pq
    import ray.data as rd

    f = str(tmp_path / "empty.parquet")
    pq.write_table(_null_table().slice(0, 0), f)
    runs = [
        grouped_moments(rd.read_parquet(f), {"wavg": "weighted_average"}, ["k"],
                        value="v", weight="w", window=Tumbling(3600)),
        session_moments(rd.read_parquet(f), {"wavg": "weighted_average"}, ["k"],
                        value="v", weight="w"),
        grouped_comoments(rd.read_parquet(f), {"cov": "covariance"}, ["k"], x="v", y="y"),
    ]
    for ds in runs:
        assert len(ds.to_pandas()) == 0


@pytest.mark.parametrize("op", ["grouped_moments", "session_moments", "grouped_comoments"])
def test_null_group_key_fails_loudly(ray_session, op):
    import ray.data as rd

    n = 800
    k = np.arange(n) % 5
    t = pa.table({
        "k": pa.array(k, mask=(np.arange(n) % 97 == 3)),
        "ts": pa.array(np.arange(n) * 1_000_000, pa.timestamp("us")),
        "v": np.linspace(1.0, 2.0, n),
    })
    ds = rd.from_arrow(t).repartition(8)
    run = {
        "grouped_moments": lambda: grouped_moments(
            ds, {"wavg": "weighted_average"}, ["k"], value="v", weight="v", batch_size=97),
        "session_moments": lambda: session_moments(
            ds, {"wavg": "weighted_average"}, ["k"], value="v", weight="v"),
        "grouped_comoments": lambda: grouped_comoments(
            ds, {"cov": "covariance"}, ["k"], x="v", y="v"),
    }[op]
    # raised in the partial kernel, before the exchange; Ray Data wraps
    # the worker's ValueError and keeps its message
    with pytest.raises(Exception, match="ValueError: group key column 'k' contains nulls"):
        run().to_pandas()
