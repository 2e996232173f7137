"""Run every driver-contract query against its DuckDB oracle at
sf0.001 — the same comparison the graft driver performs at sf0.01."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from tests.util import duck, to_pandas

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duck(SF)
    yield c
    c.close()


def _key_cols(df: pd.DataFrame) -> list[str]:
    """Sort keys: object/window columns, then integer columns as exact
    tie-breakers (block arrival order is nondeterministic, and sorting
    by a non-unique key alone leaves tie order unstable).  Float
    columns stay out — fp noise between Ray and DuckDB could reorder."""
    pref = [c for c in df.columns if df[c].dtype == object or "window" in c or "session" in c]
    ints = [
        c for c in df.columns
        if c not in pref and np.issubdtype(df[c].dtype, np.integer)
    ]
    return (pref + ints) or list(df.columns)


def _pairs():
    from raystat.pipelines.queries import QUERIES

    return [(q.name, q) for q in QUERIES if q.sql is not None]


@pytest.mark.parametrize("name,q", _pairs(), ids=[n for n, _ in _pairs()])
def test_query_matches_oracle(name, q, con, ray_session):
    got = to_pandas(q.fn(SF))
    exp = con.sql(q.sql).df()
    assert sorted(got.columns) == sorted(exp.columns), (
        f"{name}: {sorted(got.columns)} vs {sorted(exp.columns)}"
    )
    keys = _key_cols(exp)
    got = got.sort_values(keys, ignore_index=True)[sorted(got.columns)]
    exp = exp.sort_values(keys, ignore_index=True)[sorted(exp.columns)]
    assert len(got) == len(exp), f"{name}: rows {len(got)} vs {len(exp)}"
    for c in exp.columns:
        if np.issubdtype(exp[c].dtype, np.number) and np.issubdtype(
            np.asarray(got[c]).dtype, np.number
        ):
            np.testing.assert_allclose(
                got[c].astype(float),
                exp[c].astype(float),
                rtol=1e-6,
                atol=1e-9,
                err_msg=f"{name}.{c}",
            )
        else:
            assert got[c].tolist() == exp[c].tolist(), f"{name}.{c}"


MAY_BE_EMPTY = {  # pair queries can legitimately find no dups at small sf
    "minhash_dedup_pairs", "simhash_dedup_pairs", "embedding_lsh_pairs",
}


def test_rows_only_queries(ray_session):
    from raystat.pipelines.queries import QUERIES

    for q in QUERIES:
        if q.sql is None:
            out = to_pandas(q.fn(SF))
            if q.name not in MAY_BE_EMPTY:
                assert len(out) > 0, q.name


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    df = to_pandas(res)
    assert len(df) >= 0
    assert "source" in df.columns and "window_start" in df.columns
    # every queries() key with an oracle_sql twin
    qs, osql = e.queries(), e.oracle_sql()
    assert set(osql) <= set(qs)


def test_bloom_filter_primitives():
    """No false negatives ever (Bloom guarantee); false-positive rate
    at the decontamination sizing (128 bits/key, 8 probes) measured
    ~zero over 1M non-member probes."""
    import numpy as np

    from raystat.pipelines.queries import _bloom_build, _bloom_test

    rng = np.random.default_rng(11)
    keys = rng.integers(0, 2**62, size=20_000, dtype=np.int64)
    n_bits = keys.size * 128
    words = _bloom_build(keys, n_bits)
    assert _bloom_test(words, keys, n_bits).all()  # no false negatives
    probe = rng.integers(0, 2**62, size=1_000_000, dtype=np.int64)
    member = np.isin(probe, keys)
    fp = _bloom_test(words, probe[~member], n_bits).sum()
    assert fp == 0  # ~1e-9/probe at this sizing: zero expected


def test_props_stats_reads_the_top_level_k_only(ray_session, tmp_path):
    """``props_stats_events`` takes each object's top-level ``k`` as
    DuckDB's ``json_extract_string(props, '$.k')`` does: a nested
    ``{"x": {"k": 9}}`` and a string value holding ``"k":`` give no
    ``k``, a ``k`` after them still counts, and a null ``props`` row is
    counted with a null ``k``."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raystat.pipelines.queries import QUERIES, props_k

    props = ['{"k": 5}', '{"x": {"k": 9}}', '{"s": "\\"k\\": 7"}',
             '{"x": {"k": 9}, "k": 3}', '{"s": "\\"k\\": 1", "k": -2}', None,
             '{\n "k": 4\n}']
    events = pa.table({"event_type": ["a", "a", "b", "b", "c", "c", "a"], "props": props})
    pq.write_table(events, tmp_path / "events.parquet")
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    exp_k = con.sql("SELECT cast(json_extract_string(props, '$.k') as bigint) AS k "
                    "FROM events").df()["k"]
    assert props_k(events["props"]).to_pylist() == [5, None, None, 3, -2, None, 4]
    assert [None if pd.isna(k) else int(k) for k in exp_k] == [5, None, None, 3, -2, None, 4]

    q = next(q for q in QUERIES if q.name == "props_stats_events")
    got = to_pandas(q.fn(str(tmp_path))).sort_values("event_type", ignore_index=True)
    exp = con.sql(q.sql).df().sort_values("event_type", ignore_index=True)
    assert got["n"].tolist() == exp["n"].tolist() == [3, 2, 2]
    for c in ("sum_k", "min_k", "max_k"):
        assert got[c].astype(float).tolist() == exp[c].astype(float).tolist(), c
