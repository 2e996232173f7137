"""Mergeable moment accumulators — the UDAF conformance core.

Each :class:`AggregatorSpec` replicates one ksqlDB UDAF of the reference
repo *literally* (same state fields, same guard order, same naive
power-sum formulation — NOT Welford), so results match the reference's
JUnit vectors to 1e-9:

- ``stddev_weighted``   — reference ``WeightedStdDevUdaf.java:70-164``
- ``skewness``/``skewness_sample`` — ``SkewnessUdaf.java:91-207``
- ``skewness_weighted`` — ``WeightedSkewnessUdaf.java:74-186``
- ``kurtosis``/``kurtosis_sample`` — ``KurtosisUdaf.java:94-216``
- ``kurtosis_weighted`` — ``WeightedKurtosisUdaf.java:81-183``
- ``weighted_average``  — the mean subterm shared by all weighted UDAFs
  (``WeightedStdDevUdaf.java:135``), exposed as its own evaluator.

The four-method ksqlDB ``Udaf`` lifecycle maps to:

- ``initialize()``                 -> zeroed state dict
- ``aggregate(x, A)`` (per event)  -> ``accumulate_batch`` (vectorized
  over a whole Arrow/NumPy batch; power sums are order-insensitive)
- ``merge(A, B)``                  -> field-wise addition (all five
  reference UDAFs merge by addition, e.g. ``WeightedStdDevUdaf.java:152-163``)
- ``map(A)``                       -> ``finalize`` (non-destructive; may
  be called repeatedly on live state, EMIT CHANGES semantics)

Finalizers are vectorized: they accept scalar state or equal-length
NumPy arrays (one element per group) and return float64 result(s) —
this is what lets the engine finalize thousands of (key, window) groups
in one NumPy expression inside ``map_batches``.

Engine wiring: each spec names the *canonical* power-sum columns it
reads (``u_n u_s1..u_s4`` for unweighted, ``w_sw w_sv w_s2..w_s4`` for
weighted).  The grouped-aggregation engine computes the union of
canonical sums needed by all requested specs once per batch and each
spec finalizes from its slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "AggregatorSpec",
    "REGISTRY",
    "register",
    "get_spec",
    "UNWEIGHTED_SUMS",
    "WEIGHTED_SUMS",
    "canonical_sums_for",
]

# Canonical engine column names for the power sums, by increasing order.
#   u_n  = count            w_sw = sum(w)
#   u_s1 = sum(x)           w_sv = sum(w*x)
#   u_s2 = sum(x^2)         w_s2 = sum(w*x^2)
#   u_s3 = sum(x^3)         w_s3 = sum(w*x^3)
#   u_s4 = sum(x^4)         w_s4 = sum(w*x^4)
UNWEIGHTED_SUMS = ("u_n", "u_s1", "u_s2", "u_s3", "u_s4")
WEIGHTED_SUMS = ("w_sw", "w_sv", "w_s2", "w_s3", "w_s4")


def _f(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# Vectorized finalizers (literal transcriptions of the reference `map()`s).
# Guard order matters and is preserved via np.where layering: the LAST
# applied np.where corresponds to the FIRST guard in the reference code.
# ---------------------------------------------------------------------------


def _fin_weighted_average(sv, sw):
    """mean = SUM_VALUES/SUM_WEIGHTS; 0.0 when SUM_WEIGHTS == 0
    (guard per WeightedStdDevUdaf.java:130-132, mean per :135)."""
    sv, sw = _f(sv), _f(sw)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sv / sw
    return np.where(sw == 0.0, 0.0, out)


def _fin_stddev_weighted(sv, sw, s2):
    """WeightedStdDevUdaf.java:123-142."""
    sv, sw, s2 = _f(sv), _f(sw), _f(s2)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = sv / sw
        var = s2 / sw - mean * mean
        res = np.sqrt(np.maximum(var, 0.0))
    return np.where(sw == 0.0, 0.0, res)


def _make_fin_skewness(is_sample: bool):
    """SkewnessUdaf.java:154-189 (isSample per :81-83,168-171,183-186)."""

    def fin(n, s1, s2, s3):
        nf, s1, s2, s3 = _f(n), _f(s1), _f(s2), _f(s3)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = s1 / nf
            var = s2 / nf - mean * mean
            if is_sample:
                var = var * (nf / (nf - 1.0))
            m3 = s3 / nf - 3.0 * mean * (s2 / nf) + 2.0 * mean**3
            skew = m3 / np.maximum(var, 0.0) ** 1.5
            if is_sample:
                skew = skew * ((nf * nf) / ((nf - 1.0) * (nf - 2.0)))
        out = np.where(var == 0.0, 0.0, skew)
        if is_sample:
            out = np.where(nf < 3.0, np.nan, out)
        return np.where(nf == 0.0, 0.0, out)

    return fin


def _fin_skewness_weighted(sv, sw, s2, s3):
    """WeightedSkewnessUdaf.java:132-161."""
    sv, sw, s2, s3 = _f(sv), _f(sw), _f(s2), _f(s3)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = sv / sw
        var = s2 / sw - mean * mean
        m3 = s3 / sw - 3.0 * mean * (s2 / sw) + 2.0 * mean**3
        res = m3 / np.maximum(var, 0.0) ** 1.5
    out = np.where(var == 0.0, 0.0, res)
    return np.where(sw == 0.0, 0.0, out)


def _make_fin_kurtosis(is_sample: bool):
    """KurtosisUdaf.java:160-198 (sample correction per :189-195)."""

    def fin(n, s1, s2, s3, s4):
        nf, s1, s2, s3, s4 = _f(n), _f(s1), _f(s2), _f(s3), _f(s4)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = s1 / nf
            var = s2 / nf - mean * mean
            m4 = (
                s4 / nf
                - 4.0 * mean * (s3 / nf)
                + 6.0 * mean * mean * (s2 / nf)
                - 3.0 * mean**4
            )
            if is_sample:
                var = var * (nf / (nf - 1.0))
            kurt = m4 / (var * var)
            if is_sample:
                kurt = (
                    (nf * nf * (nf + 1.0)) / ((nf - 1.0) * (nf - 2.0) * (nf - 3.0))
                ) * kurt - (3.0 * (nf - 1.0) * (nf - 1.0)) / ((nf - 2.0) * (nf - 3.0))
        out = np.where(var == 0.0, 0.0, kurt)
        if is_sample:
            out = np.where(nf < 4.0, np.nan, out)
        return np.where(nf == 0.0, 0.0, out)

    return fin


def _fin_kurtosis_weighted(sv, sw, s2, s3, s4):
    """WeightedKurtosisUdaf.java:133-161 (var==0 checked before m4;
    same observable result as computing m4 first)."""
    sv, sw, s2, s3, s4 = _f(sv), _f(sw), _f(s2), _f(s3), _f(s4)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = sv / sw
        var = s2 / sw - mean * mean
        m4 = (
            s4 / sw
            - 4.0 * mean * (s3 / sw)
            + 6.0 * mean * mean * (s2 / sw)
            - 3.0 * mean**4
        )
        res = m4 / (var * var)
    out = np.where(var == 0.0, 0.0, res)
    return np.where(sw == 0.0, 0.0, out)


# ---------------------------------------------------------------------------
# Spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregatorSpec:
    """A mergeable statistics aggregator (one reference UDAF).

    ``fields`` are the reference's Connect-Struct field names (the wire
    format for partial aggregates); ``canonical`` are the engine's
    power-sum column names feeding ``finalize_fn`` in order;
    ``description`` is the one line ``show_functions`` prints (the
    reference's ``@UdafDescription``).
    """

    name: str
    weighted: bool
    fields: tuple[str, ...]
    canonical: tuple[str, ...]
    description: str
    finalize_fn: Callable[..., np.ndarray] = field(repr=False)
    order: int = 4  # highest power of x needed
    is_sample: bool = False

    @property
    def params(self) -> tuple[str, ...]:
        """The call's arguments, as ``show_functions`` lists them."""
        return ("value", "weight") if self.weighted else ("value",)

    # -- lifecycle ---------------------------------------------------------

    def initialize(self) -> dict[str, float]:
        """Zeroed state (ref: each UDAF's ``initialize()``, e.g.
        WeightedStdDevUdaf.java:79-84)."""
        return {f: (0 if f == "COUNT" else 0.0) for f in self.fields}

    def accumulate_batch(
        self, values, weights=None, state: dict | None = None
    ) -> dict[str, float]:
        """Vectorized ``aggregate()`` over a whole batch; returns a new
        state dict (ref update rules: WeightedStdDevUdaf.java:104-107,
        SkewnessUdaf.java:135-138, KurtosisUdaf.java:139-143, etc.)."""
        v = _f(values)
        part = {}
        if self.weighted:
            if weights is None:
                raise ValueError(f"{self.name} requires weights")
            w = _f(weights)
            if w.shape != v.shape:
                raise ValueError("values/weights length mismatch")
            names = iter(self.fields)
            part[next(names)] = float(np.sum(w * v))  # SUM_VALUES
            part[next(names)] = float(np.sum(w))  # SUM_WEIGHTS
            p = v
            for f_name in names:  # SUM_WEIGHT_{SQUARES,CUBES,QUARTIC}
                p = p * v
                part[f_name] = float(np.sum(w * p))
        else:
            names = iter(self.fields)
            part[next(names)] = int(v.size)  # COUNT
            part[next(names)] = float(np.sum(v))  # SUM
            p = v
            for f_name in names:  # SUM_{SQUARES,CUBES,QUARTIC}
                p = p * v
                part[f_name] = float(np.sum(p))
        if state is not None:
            part = self.merge(state, part)
        return part

    def merge(self, a: dict, b: dict) -> dict[str, float]:
        """Field-wise sum (ref: every UDAF's ``merge()``, e.g.
        KurtosisUdaf.java:208-215)."""
        return {f: a[f] + b[f] for f in self.fields}

    def finalize(self, state: dict):
        """Non-destructive ``map()``; scalar in, scalar out."""
        args = [state[f] for f in self.fields]
        return float(self.finalize_fn(*args))

    def finalize_arrays(self, cols: dict[str, np.ndarray]) -> np.ndarray:
        """Vectorized finalize from canonical power-sum columns
        (one element per group)."""
        return self.finalize_fn(*(cols[c] for c in self.canonical))


# ---------------------------------------------------------------------------
# Registry (the reference's @UdafDescription/@UdafFactory discovery surface,
# UdafMetadata.java:23-31 — here a plain dict; user UDAFs call register()).
# ---------------------------------------------------------------------------

REGISTRY: dict[str, AggregatorSpec] = {}


def register(spec: AggregatorSpec) -> AggregatorSpec:
    if spec.name in REGISTRY:
        raise ValueError(f"aggregator {spec.name!r} already registered")
    REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> AggregatorSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown aggregator {name!r}; registered: {sorted(REGISTRY)}"
        ) from None


# The reference's five registered UDAF names, discovered by annotation
# scan in its test utility (UdafMetadata.java:23-31; classes at
# WeightedStdDevUdaf.java:33, SkewnessUdaf.java:38,
# WeightedSkewnessUdaf.java:35, KurtosisUdaf.java:40,
# WeightedKurtosisUdaf.java:36).
REFERENCE_FUNCTION_NAMES = frozenset(
    {"stddev_weighted", "skewness", "skewness_weighted", "kurtosis",
     "kurtosis_weighted"}
)


def show_functions() -> list[dict]:
    """``SHOW FUNCTIONS`` parity (AllUdafIT.java:116-153): one metadata
    row per registered aggregate — name, a one-line description, the
    call's parameters, weighted?, accumulator state fields (the
    reference's aggregateSchema struct fields), and whether the name
    extends the reference surface."""
    from raystat.comoments import CO_REGISTRY

    specs = list(REGISTRY.values()) + list(CO_REGISTRY.values())
    return [
        {
            "name": s.name,
            "description": s.description,
            "params": list(s.params),
            "weighted": s.weighted,
            "state_fields": list(s.fields),
            "reference": s.name in REFERENCE_FUNCTION_NAMES,
        }
        for s in sorted(specs, key=lambda s: s.name)
    ]


register(
    AggregatorSpec(
        name="weighted_average",
        weighted=True,
        fields=("SUM_VALUES", "SUM_WEIGHTS"),
        canonical=("w_sv", "w_sw"),
        description="Weighted mean of value: SUM(weight*value) / SUM(weight).",
        finalize_fn=_fin_weighted_average,
        order=1,
    )
)
register(
    AggregatorSpec(
        name="stddev_weighted",
        weighted=True,
        fields=("SUM_VALUES", "SUM_WEIGHTS", "SUM_WEIGHT_SQUARES"),
        canonical=("w_sv", "w_sw", "w_s2"),
        description="Weighted population standard deviation of value.",
        finalize_fn=_fin_stddev_weighted,
        order=2,
    )
)
register(
    AggregatorSpec(
        name="skewness",
        weighted=False,
        fields=("COUNT", "SUM", "SUM_SQUARES", "SUM_CUBES"),
        canonical=("u_n", "u_s1", "u_s2", "u_s3"),
        description="Population skewness of value.",
        finalize_fn=_make_fin_skewness(False),
        order=3,
    )
)
register(
    AggregatorSpec(
        name="skewness_sample",
        weighted=False,
        fields=("COUNT", "SUM", "SUM_SQUARES", "SUM_CUBES"),
        canonical=("u_n", "u_s1", "u_s2", "u_s3"),
        description="Sample skewness of value (bias-corrected); NaN below 3 rows.",
        finalize_fn=_make_fin_skewness(True),
        order=3,
        is_sample=True,
    )
)
register(
    AggregatorSpec(
        name="skewness_weighted",
        weighted=True,
        fields=("SUM_VALUES", "SUM_WEIGHTS", "SUM_WEIGHT_SQUARES", "SUM_WEIGHT_CUBES"),
        canonical=("w_sv", "w_sw", "w_s2", "w_s3"),
        description="Weighted population skewness of value.",
        finalize_fn=_fin_skewness_weighted,
        order=3,
    )
)
register(
    AggregatorSpec(
        name="kurtosis",
        weighted=False,
        fields=("COUNT", "SUM", "SUM_SQUARES", "SUM_CUBES", "SUM_QUARTIC"),
        canonical=("u_n", "u_s1", "u_s2", "u_s3", "u_s4"),
        description="Population kurtosis of value (not excess kurtosis).",
        finalize_fn=_make_fin_kurtosis(False),
        order=4,
    )
)
register(
    AggregatorSpec(
        name="kurtosis_sample",
        weighted=False,
        fields=("COUNT", "SUM", "SUM_SQUARES", "SUM_CUBES", "SUM_QUARTIC"),
        canonical=("u_n", "u_s1", "u_s2", "u_s3", "u_s4"),
        description="Sample excess kurtosis of value (bias-corrected); NaN below 4 rows.",
        finalize_fn=_make_fin_kurtosis(True),
        order=4,
        is_sample=True,
    )
)
register(
    AggregatorSpec(
        name="kurtosis_weighted",
        weighted=True,
        fields=(
            "SUM_VALUES",
            "SUM_WEIGHTS",
            "SUM_WEIGHT_SQUARES",
            "SUM_WEIGHT_CUBES",
            "SUM_WEIGHT_QUARTIC",
        ),
        canonical=("w_sv", "w_sw", "w_s2", "w_s3", "w_s4"),
        description="Weighted population kurtosis of value (not excess kurtosis).",
        finalize_fn=_fin_kurtosis_weighted,
        order=4,
    )
)


def canonical_sums_for(specs) -> tuple[tuple[str, ...], int, int]:
    """Union of canonical power-sum columns needed by ``specs``.

    Returns (column names, max unweighted order, max weighted order);
    order 0 means "not needed".
    """
    u_order = max((s.order for s in specs if not s.weighted), default=0)
    w_order = max((s.order for s in specs if s.weighted), default=0)
    cols: list[str] = []
    if u_order:
        cols.extend(UNWEIGHTED_SUMS[: u_order + 1])
    if w_order:
        cols.extend(WEIGHTED_SUMS[: w_order + 1])
    return tuple(cols), u_order, w_order
