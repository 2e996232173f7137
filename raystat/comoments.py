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

``grouped_comoments`` is the batch engine: per-batch Arrow hash-agg
partials (the exchange moves O(groups) rows of 6 float64 sums, never
raw rows) -> :func:`raystat.aggregate.keyed_merge` (sort exchange,
then Arrow sums per block) -> vectorized finalize — the exact shape
of :func:`raystat.aggregate.grouped_moments`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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
    finalize_fn: Callable[..., np.ndarray] = field(repr=False)

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

register_comoment(
    CoMomentSpec(
        name="covariance",
        weighted=False,
        fields=_UNW_FIELDS,
        canonical=UNWEIGHTED_CO_SUMS,
        finalize_fn=_fin_covariance,
    )
)
register_comoment(
    CoMomentSpec(
        name="covariance_sample",
        weighted=False,
        fields=_UNW_FIELDS,
        canonical=UNWEIGHTED_CO_SUMS,
        finalize_fn=_fin_covariance_sample,
    )
)
register_comoment(
    CoMomentSpec(
        name="correlation",
        weighted=False,
        fields=_UNW_FIELDS,
        canonical=UNWEIGHTED_CO_SUMS,
        finalize_fn=_fin_correlation,
    )
)
register_comoment(
    CoMomentSpec(
        name="covariance_weighted",
        weighted=True,
        fields=_W_FIELDS,
        canonical=WEIGHTED_CO_SUMS,
        finalize_fn=_fin_covariance_weighted,
    )
)
register_comoment(
    CoMomentSpec(
        name="correlation_weighted",
        weighted=True,
        fields=_W_FIELDS,
        canonical=WEIGHTED_CO_SUMS,
        finalize_fn=_fin_correlation_weighted,
    )
)


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
    from raystat.aggregate import check_keys, finalize_kernel, keyed_merge, sum_kernel
    from raystat.scratch import tune_allocator
    from raystat.windows import Hopping, Tumbling, assign_windows

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
        tune_allocator()
        check_keys(batch, keys)
        if window is not None:
            batch, ws = assign_windows(batch, ts, window)
            batch = batch.append_column(
                "window_start", pa.array(ws, type=pa.int64())
            )
        # SQL bivariate-aggregate null semantics: drop rows where any input is null
        mask = None
        for col in ([x, y] + ([weight] if weight else [])):
            if batch[col].null_count:
                v = pc.is_valid(batch[col])
                mask = v if mask is None else pc.and_(mask, v)
        if mask is not None:
            batch = batch.filter(mask)
        xv = batch[x].cast(pa.float64()).to_numpy(zero_copy_only=False)
        yv = batch[y].cast(pa.float64()).to_numpy(zero_copy_only=False)
        arrays: dict[str, np.ndarray] = {}
        if want_u:
            arrays["c_n"] = np.ones(xv.size, dtype=np.int64)
            arrays["c_sx"] = xv
            arrays["c_sy"] = yv
            arrays["c_sxx"] = xv * xv
            arrays["c_syy"] = yv * yv
            arrays["c_sxy"] = xv * yv
        if want_w:
            w = batch[weight].cast(pa.float64()).to_numpy(zero_copy_only=False)
            arrays["cw_sw"] = w
            arrays["cw_sx"] = w * xv
            arrays["cw_sy"] = w * yv
            arrays["cw_sxx"] = w * xv * xv
            arrays["cw_syy"] = w * yv * yv
            arrays["cw_sxy"] = w * xv * yv
        if group_cols:
            data = {k: batch[k] for k in group_cols}
        else:
            data = {"_all": np.zeros(xv.size, dtype=np.int8)}
        data.update(arrays)
        return sum_kernel(out_group_cols, list(arrays))(pa.table(data))

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = keyed_merge(partials, out_group_cols, sum_kernel(out_group_cols, needed))
    return agg.map_batches(finalize_kernel(resolved, needed, group_cols), batch_format="pyarrow")
