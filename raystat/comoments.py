"""Bivariate mergeable co-moment accumulators — covariance / correlation.

Extends the reference's univariate moment-UDAF family
(WeightedStdDevUdaf.java:70-164 and siblings) to PAIRS of columns with
the same four-method lifecycle and the same naive power-sum
formulation: the state is field-wise-addable sums, ``merge`` is
addition, ``map``/finalize is a closed-form expression over the sums.
Guard convention matches the reference's univariate UDAFs (zero
variance / zero weight-sum finalizes to 0.0, the convention of e.g.
WeightedStdDevUdaf.java:130-132).

State fields:

- unweighted: ``COUNT SUM_X SUM_Y SUM_XX SUM_YY SUM_XY``
  (canonical engine columns ``c_n c_sx c_sy c_sxx c_syy c_sxy``)
- weighted:   ``SUM_WEIGHTS SUM_WX SUM_WY SUM_WXX SUM_WYY SUM_WXY``
  (canonical ``cw_sw cw_sx cw_sy cw_sxx cw_syy cw_sxy``)

``grouped_comoments`` is the batch engine: per-batch grouped-bincount
partials over the batch moments' dense group key (the exchange moves
O(groups) rows of 6 float64 sums, never raw rows) ->
:func:`raystat.aggregate.keyed_merge` (sort exchange, then Arrow sums
per block) -> vectorized finalize — the exact shape of
:func:`raystat.aggregate.grouped_moments`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import pyarrow as pa

__all__ = [
    "CoMomentSpec",
    "CO_REGISTRY",
    "register_comoment",
    "get_comoment",
    "grouped_comoments",
]

UNWEIGHTED_CO_SUMS = ("c_n", "c_sx", "c_sy", "c_sxx", "c_syy", "c_sxy")
WEIGHTED_CO_SUMS = ("cw_sw", "cw_sx", "cw_sy", "cw_sxx", "cw_syy", "cw_sxy")


def _f(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# Vectorized finalizers (population moments from raw power sums; the
# np.where layering preserves guard order: last where == first guard).
# ---------------------------------------------------------------------------


def _fin_covariance(n, sx, sy, sxx, syy, sxy):
    """cov_pop = SXY/n - (SX/n)(SY/n); 0.0 when n == 0."""
    n, sx, sy, sxy = _f(n), _f(sx), _f(sy), _f(sxy)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sxy / n - (sx / n) * (sy / n)
    return np.where(n == 0.0, 0.0, out)


def _fin_covariance_sample(n, sx, sy, sxx, syy, sxy):
    """cov_samp = (SXY - SX*SY/n)/(n-1); 0.0 when n < 2."""
    n, sx, sy, sxy = _f(n), _f(sx), _f(sy), _f(sxy)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (sxy - sx * sy / n) / (n - 1.0)
    return np.where(n < 2.0, 0.0, out)


def _fin_correlation(n, sx, sy, sxx, syy, sxy):
    """Pearson r from power sums; 0.0 when either variance is 0
    (the reference's zero-variance convention) or n == 0."""
    n, sx, sy, sxx, syy, sxy = _f(n), _f(sx), _f(sy), _f(sxx), _f(syy), _f(sxy)
    with np.errstate(divide="ignore", invalid="ignore"):
        mx, my = sx / n, sy / n
        vx = sxx / n - mx * mx
        vy = syy / n - my * my
        cov = sxy / n - mx * my
        res = cov / np.sqrt(np.maximum(vx, 0.0) * np.maximum(vy, 0.0))
    out = np.where((vx == 0.0) | (vy == 0.0), 0.0, res)
    return np.where(n == 0.0, 0.0, out)


def _fin_covariance_weighted(sw, sx, sy, sxx, syy, sxy):
    """Weighted cov = SWXY/SW - (SWX/SW)(SWY/SW); 0.0 when SW == 0."""
    sw, sx, sy, sxy = _f(sw), _f(sx), _f(sy), _f(sxy)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sxy / sw - (sx / sw) * (sy / sw)
    return np.where(sw == 0.0, 0.0, out)


def _fin_correlation_weighted(sw, sx, sy, sxx, syy, sxy):
    sw, sx, sy, sxx, syy, sxy = _f(sw), _f(sx), _f(sy), _f(sxx), _f(syy), _f(sxy)
    with np.errstate(divide="ignore", invalid="ignore"):
        mx, my = sx / sw, sy / sw
        vx = sxx / sw - mx * mx
        vy = syy / sw - my * my
        cov = sxy / sw - mx * my
        res = cov / np.sqrt(np.maximum(vx, 0.0) * np.maximum(vy, 0.0))
    out = np.where((vx == 0.0) | (vy == 0.0), 0.0, res)
    return np.where(sw == 0.0, 0.0, out)


# ---------------------------------------------------------------------------
# Spec + registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoMomentSpec:
    """A mergeable bivariate aggregator with the ksqlDB Udaf lifecycle
    (initialize / aggregate / merge / map), vectorized like
    :class:`raystat.accumulators.AggregatorSpec`."""

    name: str
    weighted: bool
    fields: tuple[str, ...]
    canonical: tuple[str, ...]
    description: str
    finalize_fn: Callable[..., np.ndarray] = field(repr=False)

    @property
    def params(self) -> tuple[str, ...]:
        """The call's arguments, as ``show_functions`` lists them."""
        return ("x", "y", "weight") if self.weighted else ("x", "y")

    def initialize(self) -> dict[str, float]:
        return {f: (0 if f == "COUNT" else 0.0) for f in self.fields}

    def accumulate_batch(
        self, x, y, weights=None, state: dict | None = None
    ) -> dict[str, float]:
        xv, yv = _f(x), _f(y)
        if xv.shape != yv.shape:
            raise ValueError("x/y length mismatch")
        if self.weighted:
            if weights is None:
                raise ValueError(f"{self.name} requires weights")
            w = _f(weights)
            part = {
                "SUM_WEIGHTS": float(np.sum(w)),
                "SUM_WX": float(np.sum(w * xv)),
                "SUM_WY": float(np.sum(w * yv)),
                "SUM_WXX": float(np.sum(w * xv * xv)),
                "SUM_WYY": float(np.sum(w * yv * yv)),
                "SUM_WXY": float(np.sum(w * xv * yv)),
            }
        else:
            part = {
                "COUNT": int(xv.size),
                "SUM_X": float(np.sum(xv)),
                "SUM_Y": float(np.sum(yv)),
                "SUM_XX": float(np.sum(xv * xv)),
                "SUM_YY": float(np.sum(yv * yv)),
                "SUM_XY": float(np.sum(xv * yv)),
            }
        if state is not None:
            part = self.merge(state, part)
        return part

    def merge(self, a: dict, b: dict) -> dict[str, float]:
        return {f: a[f] + b[f] for f in self.fields}

    def finalize(self, state: dict):
        return float(self.finalize_fn(*(state[f] for f in self.fields)))

    def finalize_arrays(self, cols: dict[str, np.ndarray]) -> np.ndarray:
        return self.finalize_fn(*(cols[c] for c in self.canonical))


CO_REGISTRY: dict[str, CoMomentSpec] = {}


def register_comoment(spec: CoMomentSpec) -> CoMomentSpec:
    if spec.name in CO_REGISTRY:
        raise ValueError(f"comoment aggregator {spec.name!r} already registered")
    CO_REGISTRY[spec.name] = spec
    return spec


def get_comoment(name: str) -> CoMomentSpec:
    try:
        return CO_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown comoment aggregator {name!r}; registered: {sorted(CO_REGISTRY)}"
        ) from None


_UNW_FIELDS = ("COUNT", "SUM_X", "SUM_Y", "SUM_XX", "SUM_YY", "SUM_XY")
_W_FIELDS = ("SUM_WEIGHTS", "SUM_WX", "SUM_WY", "SUM_WXX", "SUM_WYY", "SUM_WXY")

for _name, _weighted, _fin, _description in (
    ("covariance", False, _fin_covariance, "Population covariance of x and y."),
    ("covariance_sample", False, _fin_covariance_sample,
     "Sample covariance of x and y; 0.0 below 2 rows."),
    ("correlation", False, _fin_correlation,
     "Pearson correlation of x and y; 0.0 when either has zero variance."),
    ("covariance_weighted", True, _fin_covariance_weighted,
     "Weighted population covariance of x and y."),
    ("correlation_weighted", True, _fin_correlation_weighted,
     "Weighted Pearson correlation of x and y; 0.0 when either has zero variance."),
):
    register_comoment(CoMomentSpec(
        name=_name, weighted=_weighted, fields=_W_FIELDS if _weighted else _UNW_FIELDS,
        canonical=WEIGHTED_CO_SUMS if _weighted else UNWEIGHTED_CO_SUMS,
        description=_description, finalize_fn=_fin,
    ))


# ---------------------------------------------------------------------------
# Batch engine
# ---------------------------------------------------------------------------


def _resolve(specs) -> dict[str, CoMomentSpec]:
    return {
        out: (get_comoment(s) if isinstance(s, str) else s)
        for out, s in specs.items()
    }


def grouped_comoments(
    ds,
    specs: Mapping[str, "CoMomentSpec | str"],
    keys: list[str] | None = None,
    *,
    x: str,
    y: str,
    weight: str | None = None,
    window=None,
    ts: str = "ts",
):
    """Grouped (optionally tumbling/hopping-windowed) bivariate
    statistics over a Dataset; same three-stage shape as
    :func:`raystat.aggregate.grouped_moments`."""
    from raystat.aggregate import (
        f8_column, finalize_kernel, group_sums, keyed_merge, partial_rows, sum_kernel,
        sum_table, table_groups,
    )

    resolved = _resolve(specs)
    if not resolved:
        raise ValueError("no aggregators requested")
    want_u = any(not s.weighted for s in resolved.values())
    want_w = any(s.weighted for s in resolved.values())
    if want_w and weight is None:
        raise ValueError("weighted comoment requested but weight column is None")
    # name-based check: isinstance breaks across by-value module copies
    if window is not None and type(window).__name__ not in ("Tumbling", "Hopping"):
        raise TypeError(f"unsupported window {window!r}")
    keys = list(keys or [])
    group_cols = keys + (["window_start"] if window is not None else [])
    out_group_cols = group_cols or ["_all"]
    needed: list[str] = []
    if want_u:
        needed += list(UNWEIGHTED_CO_SUMS)
    if want_w:
        needed += list(WEIGHTED_CO_SUMS)

    def partial(batch: pa.Table) -> pa.Table:
        # SQL bivariate-aggregate null semantics: drop rows where any input is null
        batch = partial_rows(batch, keys, window, ts, (x, y, weight))
        xv, yv = f8_column(batch, x), f8_column(batch, y)
        gidx, n_groups, values = table_groups(batch, group_cols)
        counts, present, gsum = group_sums(gidx, n_groups)
        prods = {"sx": xv, "sy": yv, "sxx": xv * xv, "syy": yv * yv, "sxy": xv * yv}
        sums: dict[str, np.ndarray] = {}
        if want_u:
            sums["c_n"] = counts[present]
            sums.update({f"c_{c}": gsum(v) for c, v in prods.items()})
        if want_w:
            w = f8_column(batch, weight)
            sums["cw_sw"] = gsum(w)
            sums.update({f"cw_{c}": gsum(w * v) for c, v in prods.items()})
        return sum_table(values(present), sums)

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = keyed_merge(partials, out_group_cols, sum_kernel(out_group_cols, needed))
    return agg.map_batches(finalize_kernel(resolved, needed, group_cols), batch_format="pyarrow")
