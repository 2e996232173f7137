"""Mergeable quantile sketch for CONTINUOUS domains (KLL-style
compactor hierarchy, Karnin–Lall–Liberty 2016 — the standard public
algorithm, here with deterministic alternating compaction instead of
coin flips so replays are stable).

This is the scale path the exact-histogram quantiles
(raystat/dataops/quantiles.py) explicitly defer to when the value
domain is unbounded: state is O(k log(n/k)) float64s per group
regardless of row count; ``merge`` concatenates level-wise and
re-compacts, so per-batch partial sketches shuffle as small blobs —
the moment-partial shape again.

Error: rank error ~ O(1/k) with the deterministic compactor (each
level-``h`` compaction displaces ranks by at most 2^h, and at most
n/(k·2^h) compactions happen at level h).  k=200 keeps observed rank
error well under 2% at n=10^5 (pytest-verified); the driver query
gates at quantile brackets ±5%.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["KLL", "grouped_kll_quantiles"]


class KLL:
    """Deterministic KLL sketch over float64 values."""

    def __init__(self, k: int = 200):
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self._parity: list[int] = [0]
        self.n = 0

    # -- lifecycle -----------------------------------------------------

    def add(self, values) -> "KLL":
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return self
        self.n += int(v.size)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()
        return self

    def merge(self, other: "KLL") -> "KLL":
        if other.k != self.k:
            raise ValueError("cannot merge sketches with different k")
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
            self._parity.append(0)
        for h, arr in enumerate(other.levels):
            if arr.size:
                self.levels[h] = np.concatenate([self.levels[h], arr])
        self.n += other.n
        self._compress()
        return self

    def _cap(self, h: int) -> int:
        # geometrically decaying capacities, floor 8 (standard KLL shape)
        top = len(self.levels) - 1
        return max(8, int(self.k * (2.0 / 3.0) ** (top - h)))

    def _compress(self) -> None:
        h = 0
        while h < len(self.levels):
            arr = self.levels[h]
            if arr.size <= self._cap(h):
                h += 1
                continue
            arr = np.sort(arr, kind="stable")
            off = self._parity[h]
            self._parity[h] ^= 1  # deterministic alternation
            promoted = arr[off::2]
            keep_odd = arr.size % 2 == 1 and off == 0
            # with an odd count and offset 0 the last element has no
            # pair partner; keep it at this level to conserve mass
            if keep_odd:
                promoted, leftover = promoted[:-1], arr[-1:]
            else:
                leftover = np.empty(0, dtype=np.float64)
            self.levels[h] = leftover
            if h + 1 == len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
                self._parity.append(0)
            self.levels[h + 1] = np.concatenate([self.levels[h + 1], promoted])
            h += 1

    # -- query ----------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Smallest retained value whose estimated cumulative weight
        reaches ceil(q*n) (the quantile_disc selection rule)."""
        if self.n == 0:
            return float("nan")
        vals = np.concatenate(self.levels)
        wts = np.concatenate(
            [np.full(a.size, 2.0**h) for h, a in enumerate(self.levels)]
        )
        order = np.argsort(vals, kind="stable")
        vals, wts = vals[order], wts[order]
        c = np.cumsum(wts)
        total = c[-1]
        rank = np.ceil(q * total)
        i = int(np.searchsorted(c, rank, side="left"))
        return float(vals[min(i, vals.size - 1)])

    # -- wire format ------------------------------------------------------

    def to_bytes(self) -> bytes:
        lens = np.array([a.size for a in self.levels], dtype=np.int64)
        head = np.array([self.k, self.n, len(self.levels)], dtype=np.int64)
        return b"".join(
            [head.tobytes(), lens.tobytes()]
            + [a.tobytes() for a in self.levels]
        )

    @property
    def parity(self) -> int:
        """The compactors' alternation bits (bit h: level h), which
        ``to_bytes`` leaves out; ``from_bytes(b, parity)`` restores
        them, so the sketch goes on compacting as the original would."""
        return sum(p << h for h, p in enumerate(self._parity))

    @classmethod
    def from_bytes(cls, b: bytes, parity: int = 0) -> "KLL":
        head = np.frombuffer(b[:24], dtype=np.int64)
        k, n, nlev = int(head[0]), int(head[1]), int(head[2])
        lens = np.frombuffer(b[24 : 24 + 8 * nlev], dtype=np.int64)
        s = cls(k)
        s.n = n
        s.levels, s._parity = [], []
        off = 24 + 8 * nlev
        for h, ln in enumerate(lens):
            s.levels.append(
                np.frombuffer(b[off : off + 8 * int(ln)], dtype=np.float64).copy()
            )
            s._parity.append((parity >> h) & 1)
            off += 8 * int(ln)
        return s


def grouped_kll_quantiles(
    ds,
    key: str,
    value: str,
    qs: tuple[float, ...] = (0.5, 0.9),
    names: tuple[str, ...] = ("p50", "p90"),
    k: int = 200,
):
    """Approximate per-group quantiles of a continuous column:
    per-batch partial sketches (one blob per (key, batch)) -> one
    groupby merge -> estimates.  Returns (key, *names)."""

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch[key].to_numpy(zero_copy_only=False)
        vals = batch[value].to_numpy(zero_copy_only=False).astype(np.float64)
        codes, uniq = pd.factorize(keys)
        blobs = []
        for i in range(len(uniq)):
            blobs.append(KLL(k).add(vals[codes == i]).to_bytes())
        return pa.table({key: pa.array(uniq), "sk": pa.array(blobs, pa.binary())})

    def merge_estimate(g: pd.DataFrame) -> pd.DataFrame:
        acc = KLL(k)
        for b in g["sk"]:
            acc.merge(KLL.from_bytes(b))
        out = {key: [g[key].iloc[0]]}
        for q, nm in zip(qs, names):
            out[nm] = [acc.quantile(q)]
        return pd.DataFrame(out)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key)
        .map_groups(merge_estimate, batch_format="pandas")
    )
