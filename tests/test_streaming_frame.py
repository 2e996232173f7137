"""The window frame every stream router shares (``state.late_rows``,
``state.covering_windows``, ``state.session_split``) against brute
force."""

from __future__ import annotations

import numpy as np
import pytest

from raystat.streaming.state import NEG, covering_windows, late_rows, session_split

US = 1_000_000


def _brute_pairs(ts_us, wm, size_s, hop_s):
    """Every (row, window start) whose window covers the row and is
    open, rows in order, starts ascending; a row is late iff it has no
    open covering window."""
    pairs, late = [], []
    for r, t in enumerate(ts_us // US):
        w = wm[r] if np.ndim(wm) else wm
        starts = [k * hop_s for k in range(t // hop_s - size_s // hop_s - 1, t // hop_s + 1)
                  if k * hop_s <= t < k * hop_s + size_s]
        open_ = [s for s in starts if s + size_s > w]
        pairs += [(r, s) for s in open_]
        late.append(not open_)
    return pairs, np.array(late, dtype=bool)


@pytest.mark.parametrize("size_s, hop_s", [(3600, 3600), (7200, 3600), (3600, 1200),
                                           (3600, 2400)],
                         ids=["tumbling", "hop-divides", "hop-divides-3", "hop-not-divides"])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar-wm", "per-row-wm"])
def test_covering_windows_equal_brute_force(size_s, hop_s, per_row):
    rng = np.random.default_rng(size_s + hop_s + per_row)
    n = 400
    ts_us = rng.integers(10**15, 10**15 + 6 * 3600 * US, n)
    t0 = int(ts_us.min()) // US
    wm = rng.integers(t0, t0 + 6 * 3600, n) if per_row else t0 + 3 * 3600 + 17
    row_of, start, late = covering_windows(ts_us, wm, size_s, hop_s)
    pairs, exp_late = _brute_pairs(ts_us, wm, size_s, hop_s)
    assert list(zip(row_of.tolist(), start.tolist())) == pairs
    assert np.array_equal(late, exp_late)
    assert np.array_equal(late_rows(ts_us, wm, size_s, hop_s), exp_late)
    assert 0 < late.sum() < n
    # within each (window) group the pairs come in row order
    for s in np.unique(start):
        assert np.all(np.diff(row_of[start == s]) > 0)


def test_covering_windows_before_any_event():
    ts_us = np.array([5 * US, 7200 * US + 1], dtype=np.int64)
    row_of, start, late = covering_windows(ts_us, NEG, 7200, 3600)
    assert row_of.tolist() == [0, 0, 1, 1] and start.tolist() == [-3600, 0, 3600, 7200]
    assert not late.any()


def test_session_late_rule_is_microsecond_granular():
    wm = 1_704_083_126
    ts_us = np.array([wm * US - 1, wm * US, wm * US + 1, (wm + 1) * US - 1], dtype=np.int64)
    assert late_rows(ts_us, wm).tolist() == [True, True, False, False]
    assert late_rows(ts_us, np.full(4, wm - 1)).tolist() == [False] * 4
    assert not late_rows(ts_us, NEG).any()


def test_session_split_equals_python_loop():
    rng = np.random.default_rng(3)
    n, gap_us = 500, 40 * US
    codes = rng.integers(0, 6, n)
    ts_us = rng.integers(0, 3000, n) * US + rng.integers(0, 3, n)  # ties too
    order, frag, starts = session_split(codes, ts_us, gap_us)
    exp_order = sorted(range(n), key=lambda i: (codes[i], ts_us[i], i))
    exp_frag, exp_starts = [], []
    for pos, i in enumerate(exp_order):
        if not pos:
            new = True
        else:
            j = exp_order[pos - 1]
            new = codes[i] != codes[j] or ts_us[i] - ts_us[j] > gap_us
        if new:
            exp_starts.append(pos)
        exp_frag.append(len(exp_starts) - 1)
    assert order.tolist() == exp_order
    assert frag.tolist() == exp_frag
    assert starts.tolist() == exp_starts
    assert 10 < len(exp_starts) < n
