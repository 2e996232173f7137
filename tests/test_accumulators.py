"""Conformance tests for the moment accumulators.

Ports every JUnit vector from the reference verbatim (FIXTURES.md §A):
A.1 aggregation-result vectors, A.2 edge cases, A.3 lifecycle
(aggregate/merge) vectors — at 1e-9 against independent NumPy oracles
and at the reference's own 1e-4 against its published constants.
No Ray needed here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raystat.accumulators import REGISTRY, get_spec
from tests import oracles

V6 = [3.0, 4.0, 7.0, 13.0, 16.0, 20.0]
W6 = [2.0, 1.0, 2.0, 1.0, 3.0, 1.0]
V10 = [3.0, 3.0, 4.0, 7.0, 7.0, 13.0, 16.0, 16.0, 16.0, 20.0]


def run_spec(name, values, weights=None, n_chunks=3):
    """Accumulate in chunks, merge, finalize — the full lifecycle."""
    spec = get_spec(name)
    state = spec.initialize()
    parts = np.array_split(np.asarray(values, float), n_chunks)
    wparts = (
        np.array_split(np.asarray(weights, float), n_chunks)
        if weights is not None
        else [None] * n_chunks
    )
    for v, w in zip(parts, wparts):
        state = spec.merge(state, spec.accumulate_batch(v, w))
    return spec.finalize(state)


# --- A.1: aggregation-result vectors (reference constants @1e-4) -----------

A1 = [
    # (id, spec, values, weights, ref_constant)  source cited in FIXTURES.md
    ("v1", "stddev_weighted", V6, W6, 6.0539),  # WeightedStdDevUdafTest.java:94-125
    ("v2", "skewness", V10, None, 0.075718),  # SkewnessUdafTest.java:106-120
    ("v4", "skewness_weighted", V6, W6, 0.075718),  # WeightedSkewnessUdafTest.java:97-128
    ("v5", "kurtosis", V10, None, 1.4400),  # KurtosisUdafTest.java:108-123
    ("v7", "kurtosis_weighted", V6, W6, 1.4400),  # WeightedKurtosisUdafTest.java:103-135
    ("v8", "weighted_average", V6, W6, 10.5),  # Σwx/Σw = 105/10
]


@pytest.mark.parametrize("vid,name,v,w,expected", A1, ids=[r[0] for r in A1])
def test_reference_constants(vid, name, v, w, expected):
    assert run_spec(name, v, w) == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize(
    "name,v,w",
    [
        ("stddev_weighted", V6, W6),
        ("skewness", V10, None),
        ("skewness_sample", V10, None),  # v3: commons-math3 oracle
        ("skewness_weighted", V6, W6),
        ("kurtosis", V10, None),
        ("kurtosis_sample", V10, None),  # v6: commons-math3 oracle
        ("kurtosis_weighted", V6, W6),
        ("weighted_average", V6, W6),
        # A.4 integration-suite datasets (AllUdafIT.java:162-452)
        ("stddev_weighted", [5.0, 2.0, 8.0], [2.0, 4.0, 1.0]),
        ("skewness", [4.0, 7.0, 13.0, 16.0, 20.0], None),
        ("skewness_sample", [4.0, 7.0, 13.0, 16.0, 20.0], None),
        ("skewness_weighted", [5.0, 2.0, 8.0], [2.0, 4.0, 1.0]),
        ("kurtosis", [14.0, 7.0, 13.0, 16.0, 20.0, 15.0], None),
        ("kurtosis_sample", [14.0, 7.0, 13.0, 16.0, 20.0, 15.0], None),
        ("kurtosis_weighted", [5.0, 2.0, 8.0, 4.0], [2.0, 4.0, 1.0, 2.0]),
    ],
)
def test_oracle_1e9(name, v, w):
    expected = oracles.evaluate(name, v, w)
    got = run_spec(name, v, w)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


# --- A.2: edge cases -------------------------------------------------------


@pytest.mark.parametrize(
    "eid,name,v,w,expected",
    [
        ("e1a", "stddev_weighted", [], [], 0.0),
        ("e1b", "stddev_weighted", [1.0, 2.0], [0.0, 0.0], 0.0),
        ("e2", "skewness", [], None, 0.0),
        ("e3", "skewness_sample", [1.0, 2.0], None, float("nan")),
        ("e4", "skewness", [1.0, 1.0, 1.0], None, 0.0),
        ("e5", "skewness_weighted", [1.0, 2.0], [0.0, 0.0], 0.0),
        ("e6", "skewness_weighted", [3.0, 3.0, 3.0], [2.0, 2.0, 2.0], 0.0),
        ("e7", "kurtosis", [], None, 0.0),
        ("e8", "kurtosis_sample", [1.0, 2.0, 3.0], None, float("nan")),
        ("e9", "kurtosis", [1.0, 1.0, 1.0, 1.0], None, 0.0),
        ("e10", "kurtosis_weighted", [1.0, 2.0], [0.0, 0.0], 0.0),
        ("e11", "kurtosis_weighted", [4.0, 4.0, 4.0], [1.0, 1.0, 1.0], 0.0),
        ("e12", "weighted_average", [], [], 0.0),
        ("e13", "skewness_sample", [5.0], None, float("nan")),
        ("e14", "kurtosis_sample", [5.0], None, float("nan")),
    ],
)
def test_edge_cases(eid, name, v, w, expected):
    got = run_spec(name, v, w, n_chunks=1)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert got == expected  # exact: guards return literal 0.0


# --- A.3: lifecycle vectors (aggregate/merge on explicit states) -----------


def S(name, *vals):
    spec = get_spec(name)
    return dict(zip(spec.fields, vals))


@pytest.mark.parametrize(
    "lid,name,state,event,expected",
    [
        # l1: WeightedStdDevUdafTest.java:71-88
        ("l1", "stddev_weighted", (10.0, 4.0, 20.0), (5.0, 2.0), (20.0, 6.0, 70.0)),
        # l3: SkewnessUdafTest.java:79-100
        ("l3", "skewness", (2, 6.0, 20.0, 70.0), (4.0, None), (3, 10.0, 36.0, 134.0)),
        # l5: WeightedSkewnessUdafTest.java:75-91
        ("l5", "skewness_weighted", (10.0, 4.0, 50.0, 250.0), (5.0, 2.0), (20.0, 6.0, 100.0, 500.0)),
        # l7: KurtosisUdafTest.java:84-102
        ("l7", "kurtosis", (2, 4.0, 10.0, 28.0, 82.0), (3.0, None), (3, 7.0, 19.0, 55.0, 163.0)),
        # l9: WeightedKurtosisUdafTest.java:79-97
        ("l9", "kurtosis_weighted", (10.0, 4.0, 30.0, 80.0, 150.0), (3.0, 2.0), (16.0, 6.0, 48.0, 134.0, 312.0)),
    ],
)
def test_aggregate_vectors(lid, name, state, event, expected):
    spec = get_spec(name)
    v, w = event
    got = spec.accumulate_batch([v], [w] if w is not None else None, state=S(name, *state))
    assert got == pytest.approx(S(name, *expected), rel=1e-12)


@pytest.mark.parametrize(
    "lid,name,a,b,expected",
    [
        # l2: WeightedStdDevUdafTest.java:131-151
        ("l2", "stddev_weighted", (10.0, 4.0, 20.0), (15.0, 5.0, 30.0), (25.0, 9.0, 50.0)),
        # l4: SkewnessUdafTest.java:199-218
        ("l4", "skewness", (2, 6.0, 20.0, 70.0), (1, 4.0, 16.0, 64.0), (3, 10.0, 36.0, 134.0)),
        # l6: WeightedSkewnessUdafTest.java:177-198
        ("l6", "skewness_weighted", (20.0, 6.0, 70.0, 280.0), (30.0, 8.0, 120.0, 480.0), (50.0, 14.0, 190.0, 760.0)),
        # l8: KurtosisUdafTest.java:212-235
        ("l8", "kurtosis", (2, 10.0, 50.0, 250.0, 1250.0), (3, 12.0, 50.0, 216.0, 962.0), (5, 22.0, 100.0, 466.0, 2212.0)),
        # l10: WeightedKurtosisUdafTest.java:176-199
        ("l10", "kurtosis_weighted", (10.0, 2.0, 40.0, 80.0, 160.0), (20.0, 3.0, 50.0, 90.0, 170.0), (30.0, 5.0, 90.0, 170.0, 330.0)),
    ],
)
def test_merge_vectors(lid, name, a, b, expected):
    spec = get_spec(name)
    assert spec.merge(S(name, *a), S(name, *b)) == S(name, *expected)


def test_initialize_all_zero():  # l11
    for name, spec in REGISTRY.items():
        state = spec.initialize()
        assert all(x == 0 for x in state.values()), name
        # finalize on zero state: 0.0 for population/weighted, NaN gates apply
        res = spec.finalize(state)
        assert res == 0.0 or math.isnan(res)


# --- property tests vs oracles + merge associativity -----------------------

vals = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=0, max_size=200
)


def _centered_var(v, w=None):
    v = np.asarray(v, float)
    if v.size == 0:
        return 0.0
    if w is None:
        w = np.ones_like(v)
    w = np.asarray(w, float)
    if w.sum() == 0:
        return 0.0
    mu = (w * v).sum() / w.sum()
    return float((w * (v - mu) ** 2).sum() / w.sum())


def _cond(v, w=None):
    """Conditioning of the raw power-sum formulation: E[x^2]/var.
    The m4-from-power-sums error amplifies ~cond^2 (m3 ~ cond^1.5), so
    at float64 a comparison at rel 1e-6 is only meaningful when
    cond^2 * 1e-16 << 1e-6 — e.g. v=[98, 99] has cond ~ 4e4 and the
    (reference-faithful) naive formulation legitimately diverges from
    the centered oracle at the 1e-6 level."""
    v = np.asarray(v, float)
    if v.size == 0:
        return np.inf
    if w is None:
        w = np.ones_like(v)
    w = np.asarray(w, float)
    var = _centered_var(v, w)
    if var == 0.0 or w.sum() == 0:
        return np.inf
    return float((w * v * v).sum() / w.sum() / var)


@settings(max_examples=60, deadline=None)
@given(v=vals, seed=st.integers(0, 2**31), n_chunks=st.integers(1, 7))
def test_property_unweighted(v, seed, n_chunks):
    # Ratio statistics (skew/kurt) are only compared on non-degenerate
    # variance: the reference's naive power-sum formulation (which we
    # replicate literally) is itself unstable when var ≈ 0, so the
    # centered oracle legitimately diverges there.
    stable = _centered_var(v) > 1e-2 and _cond(v) < 3e3
    for name in ("skewness", "skewness_sample", "kurtosis", "kurtosis_sample"):
        expected = oracles.evaluate(name, v)
        got = run_spec(name, v, n_chunks=min(n_chunks, max(1, len(v))))
        if math.isnan(expected):
            assert math.isnan(got), name
        elif stable:
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-6), name


@settings(max_examples=60, deadline=None)
@given(v=vals, seed=st.integers(0, 2**31), n_chunks=st.integers(1, 7))
def test_property_weighted(v, seed, n_chunks):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 10.0, size=len(v))
    stable = _centered_var(v, w) > 1e-2 and _cond(v, w) < 3e3
    # the naive power-sum variance cancels to ~eps*E[x^2] when the true
    # variance is 0 (e.g. v=[100,100]), so the stddev it yields has an
    # irreducible noise floor of ~sqrt(eps)*rms(v) — the tolerance must
    # carry that scale or exact-constant inputs fail spuriously
    msq = float((w * np.square(v)).sum() / w.sum()) if w.sum() > 0 else 0.0
    std_abs = 1e-6 + 4.0 * math.sqrt(np.finfo(float).eps * msq)
    for name in ("weighted_average", "stddev_weighted", "skewness_weighted", "kurtosis_weighted"):
        expected = oracles.evaluate(name, v, w)
        got = run_spec(name, v, w, n_chunks=min(n_chunks, max(1, len(v))))
        if math.isnan(expected):
            assert math.isnan(got), name
        elif name == "stddev_weighted":
            assert got == pytest.approx(expected, rel=1e-6, abs=std_abs), name
        elif stable or name == "weighted_average":
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-6), name


@settings(max_examples=40, deadline=None)
@given(v=vals, seed=st.integers(0, 2**31))
def test_merge_associativity(v, seed):
    """Any re-partitioning of the input yields the same state (within fp
    rounding) — the property that makes the shuffle layout irrelevant."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 10.0, size=len(v))
    for name in ("kurtosis", "kurtosis_weighted"):
        spec = get_spec(name)
        whole = spec.accumulate_batch(v, w if spec.weighted else None)
        k = rng.integers(1, 6)
        state = spec.initialize()
        for vi, wi in zip(
            np.array_split(np.asarray(v, float), k), np.array_split(w, k)
        ):
            state = spec.merge(state, spec.accumulate_batch(vi, wi if spec.weighted else None))
        for f in spec.fields:
            assert state[f] == pytest.approx(whole[f], rel=1e-9, abs=1e-9), (name, f)


def test_show_functions_reference_parity():
    """SHOW FUNCTIONS discovery (AllUdafIT.java:116-153): the registry
    must expose exactly the reference's five UDAF names
    (UdafMetadata.java:23-31) plus the documented extensions (sample
    factory variants and the derived weighted_average)."""
    from raystat.accumulators import (
        REFERENCE_FUNCTION_NAMES,
        show_functions,
    )

    rows = {r["name"]: r for r in show_functions()}
    assert REFERENCE_FUNCTION_NAMES <= set(rows)
    assert {r["name"] for r in show_functions() if r["reference"]} == (
        REFERENCE_FUNCTION_NAMES
    )
    from raystat.comoments import CO_REGISTRY

    extensions = set(rows) - REFERENCE_FUNCTION_NAMES
    assert extensions == {
        "weighted_average", "skewness_sample", "kurtosis_sample",
    } | set(CO_REGISTRY)
    # state-field metadata matches the reference's aggregateSchema structs
    assert rows["stddev_weighted"]["state_fields"] == [
        "SUM_VALUES", "SUM_WEIGHTS", "SUM_WEIGHT_SQUARES"
    ]
    assert rows["kurtosis"]["state_fields"] == [
        "COUNT", "SUM", "SUM_SQUARES", "SUM_CUBES", "SUM_QUARTIC"
    ]


def test_show_functions_describe_every_spec():
    """Every registered spec, comoments included, describes itself in
    one line and lists its parameters (the reference's
    @UdafDescription): a weighted one takes a weight, the bivariate
    ones take x and y."""
    from raystat.accumulators import REGISTRY, show_functions
    from raystat.comoments import CO_REGISTRY

    rows = show_functions()
    assert {r["name"] for r in rows} == set(REGISTRY) | set(CO_REGISTRY)
    for r in rows:
        d = r["description"]
        assert isinstance(d, str) and d.strip() and "\n" not in d, r["name"]
        first = ["x", "y"] if r["name"] in CO_REGISTRY else ["value"]
        assert r["params"] == first + (["weight"] if r["weighted"] else []), r["name"]
