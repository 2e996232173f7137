"""Output checks.  Every oracle here recomputes the answer from the
generated input alone, with a different formulation from the engine:
centered two-pass moments instead of raw power sums, exact counts
instead of sketches, DuckDB instead of Ray Data.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench.inputs import arrival_of, input_files

NEG = -(2**62)
RTOL = 1e-9  # relative tolerance of the moment checks
# skewness and kurtosis from raw power sums legitimately drift from the
# centered oracle by ~1e-8 on small near-degenerate windows
HIGH_RTOL = 1e-6
HLL_SIGMAS = 5.0  # HLL estimates must fall within this many standard errors


# -- committed sink output ------------------------------------------------------


def read_sink(root: str) -> tuple[dict, pa.Table, list[str]]:
    """Read an exactly-once sink directory without the engine: returns
    ``({epoch: digest}, rows of every committed epoch, failures)``.
    A table commit's digest is the sha256 the manifest records, and the
    file on disk must still hash to it; a dataset commit's digest is
    its row count, which must match the files."""
    digests: dict[int, str] = {}
    tables: list[pa.Table] = []
    failures: list[str] = []
    for mf in sorted(glob.glob(os.path.join(root, "_manifest", "epoch-*.json"))):
        epoch = int(os.path.basename(mf)[len("epoch-") : -len(".json")])
        with open(mf) as f:
            entry = json.load(f)
        files = sorted(glob.glob(os.path.join(root, f"epoch={epoch:06d}", "*.parquet")))
        if entry.get("kind") == "table":
            with open(files[0], "rb") as f:
                got = hashlib.sha256(f.read()).hexdigest()
            if got != entry["sha256"]:
                failures.append(f"{root} epoch {epoch}: file sha256 != manifest")
                continue
            digests[epoch] = entry["sha256"]
        else:
            digests[epoch] = f"rows={entry['rows']}"
        parts = [pq.read_table(p) for p in files]
        parts = [p for p in parts if p.num_columns]
        if entry.get("kind") != "table" and sum(p.num_rows for p in parts) != entry["rows"]:
            failures.append(f"{root} epoch {epoch}: row count != manifest")
        tables.extend(parts)
    out = pa.concat_tables(tables, promote_options="default") if tables else pa.table({})
    return digests, out, failures


# -- numeric helpers -------------------------------------------------------------


def _close(got: np.ndarray, exp: np.ndarray, rtol: float = RTOL) -> np.ndarray:
    got = np.asarray(got, dtype=np.float64)
    exp = np.asarray(exp, dtype=np.float64)
    both_nan = np.isnan(got) & np.isnan(exp)
    tol = rtol * np.maximum(np.abs(got), np.abs(exp)) + rtol
    return both_nan | (np.abs(got - exp) <= tol)


def _mismatch(name: str, got, exp, rtol: float = RTOL) -> list[str]:
    ok = _close(got, exp, rtol)
    if ok.all():
        return []
    i = int(np.flatnonzero(~ok)[0])
    return [f"{name}: {int((~ok).sum())} of {ok.size} differ (first {got[i]!r} vs {exp[i]!r})"]


def centered_moments(gid: np.ndarray, x: np.ndarray, w: np.ndarray, n_groups: int):
    """Weighted mean, std, skewness and kurtosis per group, two-pass:
    the mean first, then moments of the centered values (zero
    variance gives zero skewness and kurtosis)."""
    sw = np.bincount(gid, w, n_groups)
    mu = np.bincount(gid, w * x, n_groups) / sw
    d = x - mu[gid]
    d2 = d * d
    var = np.bincount(gid, w * d2, n_groups) / sw
    m3 = np.bincount(gid, w * d2 * d, n_groups) / sw
    m4 = np.bincount(gid, w * d2 * d2, n_groups) / sw
    pos = var > 0
    safe = np.where(pos, var, 1.0)
    skew = np.where(pos, m3 / safe**1.5, 0.0)
    kurt = np.where(pos, m4 / (safe * safe), 0.0)
    return mu, np.sqrt(var), skew, kurt


# -- token stream ------------------------------------------------------------------


def load_token_stream(root: str) -> dict:
    """Every input row with its arrival epoch, event time and token list."""
    from raystat.extract import event_time_us_from_numeric, numeric_doc_id

    parts, arrivals = [], []
    for f in input_files(root):
        t = pq.read_table(f, columns=["doc_id", "tokens", "n_tok", "source"])
        parts.append(t)
        arrivals.append(np.full(t.num_rows, arrival_of(f), dtype=np.int64))
    t = pa.concat_tables(parts)
    tokens = t["tokens"].combine_chunks()
    off = tokens.offsets.to_numpy().astype(np.int64)
    ts_us = event_time_us_from_numeric(numeric_doc_id(t["doc_id"]))
    return {
        "source": t["source"].to_numpy(zero_copy_only=False),
        "n_tok": t["n_tok"].to_numpy().astype(np.float64),
        "arrival": np.concatenate(arrivals),
        "ts_us": ts_us,
        "tok_len": np.diff(off),
        "tok_vals": tokens.values.to_numpy()[off[0] : off[-1]].astype(np.float64),
    }


def kept_rows(stream: dict, lateness_s: int, window_s: int) -> np.ndarray:
    """Replay the watermark: a row arriving in epoch e is kept iff its
    tumbling window is still open (window_start + size > wm) under the
    watermark left by epochs < e."""
    ts_s = stream["ts_us"] // 1_000_000
    keep = np.zeros(ts_s.size, dtype=bool)
    wm = NEG
    for e in np.unique(stream["arrival"]):
        m = stream["arrival"] == e
        keep[m] = (ts_s[m] // window_s) * window_s + window_s > wm
        wm = max(wm, int(ts_s[m].max()) - lateness_s)
    return keep


def token_oracle(stream: dict, keep: np.ndarray, window_s: int) -> pd.DataFrame:
    """Expected rows of the token workload's aggregate sink: n_tok
    moments (weighted by n_tok for wavg/wstd), token-value moments and
    corr/cov(n_tok, row token sum), per (source, tumbling window)."""
    src = stream["source"][keep]
    ws = (stream["ts_us"][keep] // 1_000_000 // window_s) * window_s
    x = stream["n_tok"][keep]
    gid, uniq = pd.factorize(pd.MultiIndex.from_arrays([src, ws]), sort=True)
    out = pd.DataFrame(
        {"source": uniq.get_level_values(0), "window_start": uniq.get_level_values(1)}
    )
    g = len(out)
    ones = np.ones_like(x)
    out["wavg"], out["wstd"], _, _ = centered_moments(gid, x, x, g)
    _, _, out["skew"], out["kurt"] = centered_moments(gid, x, ones, g)
    tok_len = stream["tok_len"]
    row_start = np.concatenate(([0], np.cumsum(tok_len)[:-1]))
    # flattened token values of the kept rows, with their group ids
    sel = np.repeat(keep, tok_len)
    tv = stream["tok_vals"][sel]
    tg = np.repeat(gid, tok_len[keep])
    t = centered_moments(tg, tv, np.ones_like(tv), g)
    out["tok_mean"], out["tok_std"], out["tok_skew"], out["tok_kurt"] = t
    y = np.add.reduceat(stream["tok_vals"], row_start) if tv.size else np.zeros(0)
    y = np.where(tok_len > 0, y, 0.0)[keep]
    n = np.bincount(gid, minlength=g).astype(np.float64)
    mx, my = np.bincount(gid, x, g) / n, np.bincount(gid, y, g) / n
    dx, dy = x - mx[gid], y - my[gid]
    cov = np.bincount(gid, dx * dy, g) / n
    vx, vy = np.bincount(gid, dx * dx, g) / n, np.bincount(gid, dy * dy, g) / n
    den = np.sqrt(vx * vy)
    out["len_tok_cov"] = cov
    out["len_tok_corr"] = np.where(den > 0, cov / np.where(den > 0, den, 1.0), 0.0)
    out["n_rows"] = n.astype(np.int64)
    return out


def check_token_aggregates(got: pa.Table, exp: pd.DataFrame, meta: dict) -> list[str]:
    df = got.to_pandas()
    if df.duplicated(["source", "window_start"]).any():
        return ["aggregate sink: a (source, window) was emitted twice"]
    m = df.merge(exp, on=["source", "window_start"], how="outer", suffixes=("", "_exp"),
                 indicator=True)
    if not (m["_merge"] == "both").all():
        return [f"aggregate sink: {int((m['_merge'] != 'both').sum())} windows missing or extra"]
    fails = []
    if (m["n_rows"] != m["n_rows_exp"]).any():
        fails.append("n_rows differ")
    for c in ("wavg", "wstd", "skew", "kurt", "tok_mean", "tok_std", "tok_skew",
              "tok_kurt", "len_tok_corr", "len_tok_cov"):
        rtol = HIGH_RTOL if c.endswith(("skew", "kurt")) else RTOL
        fails += _mismatch(c, m[c].to_numpy(), m[f"{c}_exp"].to_numpy(), rtol)
    q = m["quality"].to_numpy(dtype=np.float64)
    want = m["source"].map(meta).to_numpy(dtype=np.float64)
    joined = ~np.isnan(q)
    if not joined.any() or (q[joined] != want[joined]).any():
        fails.append("joined quality differs from the metadata stream")
    return fails


# -- events stream (sketches) -------------------------------------------------------


def load_events(root: str) -> pd.DataFrame:
    frames = []
    for f in input_files(root):
        df = pq.read_table(f).to_pandas()
        df["arrival"] = arrival_of(f)
        frames.append(df)
    return pd.concat(frames, ignore_index=True)


def kept_pairs(ev: pd.DataFrame, size_s: int, hop_s: int, lateness_s: int) -> pd.DataFrame:
    """(key, window_start_s, item) for every row x covering window that
    was still open when the row arrived."""
    ts_s = ev["ts_us"].to_numpy() // 1_000_000
    arrival = ev["arrival"].to_numpy()
    wm_at = {}
    wm = NEG
    for e in np.unique(arrival):
        wm_at[int(e)] = wm
        wm = max(wm, int(ts_s[arrival == e].max()) - lateness_s)
    wm_row = ev["arrival"].map(wm_at).to_numpy(dtype=np.int64)
    frames = []
    for j in range(size_s // hop_s):
        w = (ts_s // hop_s) * hop_s - j * hop_s
        live = w + size_s > wm_row
        frames.append(
            pd.DataFrame(
                {
                    "key": ev["event_type"].to_numpy()[live],
                    "window_start_s": w[live],
                    "item": ev["user_id"].to_numpy()[live],
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def check_mg(got: pa.Table, pairs: pd.DataFrame, top: int) -> list[str]:
    """Every reported count lies in [exact - deficit, exact]; where the
    deficit is 0 the count is exact and the ranking is the exact top."""
    exact = pairs.groupby(["key", "window_start_s", "item"]).size().rename("exact").reset_index()
    df = got.to_pandas()
    windows = set(zip(exact["key"], exact["window_start_s"]))
    if set(zip(df["key"], df["window_start_s"])) != windows:
        return ["mg: closed windows differ from the input's windows"]
    m = df.merge(exact, on=["key", "window_start_s", "item"], how="left")
    e = m["exact"].fillna(0).to_numpy()
    n, d = m["n"].to_numpy(), m["mg_deficit"].to_numpy()
    if ((n > e) | (n < e - d)).any():
        return ["mg: a count falls outside [exact - deficit, exact]"]
    lossless = m[d == 0]
    want = exact.sort_values(["key", "window_start_s", "exact", "item"],
                             ascending=[True, True, False, True])
    want = want.assign(rank=want.groupby(["key", "window_start_s"]).cumcount() + 1)
    want = want[want["rank"] <= top]
    chk = lossless.merge(want, on=["key", "window_start_s", "rank"], how="left",
                         suffixes=("", "_w"))
    if (chk["item"] != chk["item_w"]).any() or (chk["n"] != chk["exact_w"]).any():
        return ["mg: lossless window's top items differ from the exact top"]
    return []


def check_hll(got: pa.Table, pairs: pd.DataFrame) -> list[str]:
    from raystat.dataops.sketches import _M

    exact = pairs.groupby(["key", "window_start_s"])["item"].nunique().rename("exact")
    df = got.to_pandas().set_index(["key", "window_start_s"])
    if set(df.index) != set(exact.index):
        return ["hll: closed windows differ from the input's windows"]
    e = exact.reindex(df.index).to_numpy(dtype=np.float64)
    err = np.abs(df["approx_distinct"].to_numpy() - e)
    if (err > HLL_SIGMAS * 1.04 / np.sqrt(_M) * e + 2.0).any():
        return ["hll: an estimate falls outside the sketch's error bound"]
    return []


# -- batch table (DuckDB twin) --------------------------------------------------------

_MOMENTS_SQL = """
sqrt(SUM(w * (v - mu) ^ 2) / sw) AS wstd,
CASE WHEN SUM(w * (v - mu) ^ 2) > 0
     THEN (SUM(w * (v - mu) ^ 3) / sw) / pow(SUM(w * (v - mu) ^ 2) / sw, 1.5) ELSE 0 END AS wskew,
CASE WHEN SUM(w * (v - mu) ^ 2) > 0
     THEN (SUM(w * (v - mu) ^ 4) / sw) / pow(SUM(w * (v - mu) ^ 2) / sw, 2) ELSE 0 END AS wkurt
"""


def duckdb_twin(files: list[str], gap_s: int) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Expected 1 h tumbling and session results, computed by DuckDB
    with centered two-pass weighted moments."""
    import duckdb

    con = duckdb.connect()
    try:
        lst = ", ".join(f"'{f}'" for f in files)
        con.sql(
            f"CREATE VIEW t AS SELECT key, epoch_us(ts) AS tu, value AS v, weight AS w "
            f"FROM read_parquet([{lst}])"
        )
        tumbling = con.sql(
            f"""
            WITH g AS (SELECT key, (tu // 3600000000) * 3600 AS window_start, v, w FROM t),
                 m AS (SELECT key, window_start, SUM(w * v) / SUM(w) AS mu, SUM(w) AS sw
                       FROM g GROUP BY ALL)
            SELECT key, window_start, mu AS wavg, {_MOMENTS_SQL}
            FROM g JOIN m USING (key, window_start) GROUP BY key, window_start, mu, sw
            """
        ).df()
        session = con.sql(
            f"""
            WITH b AS (SELECT *, CASE WHEN tu - lag(tu) OVER (PARTITION BY key ORDER BY tu)
                                      > {gap_s * 1_000_000} THEN 1 ELSE 0 END AS brk FROM t),
                 s AS (SELECT *, SUM(brk) OVER (PARTITION BY key ORDER BY tu
                                 ROWS UNBOUNDED PRECEDING) AS sid FROM b),
                 m AS (SELECT key, sid, MIN(tu) AS session_start_us, MAX(tu) AS session_end_us,
                              SUM(w * v) / SUM(w) AS mu, SUM(w) AS sw FROM s GROUP BY ALL)
            SELECT key, session_start_us, session_end_us, mu AS wavg, {_MOMENTS_SQL}
            FROM s JOIN m USING (key, sid)
            GROUP BY key, sid, session_start_us, session_end_us, mu, sw
            """
        ).df()
    finally:
        con.close()
    return tumbling, session


def check_batch(got: pd.DataFrame, exp: pd.DataFrame, on: list[str]) -> list[str]:
    """Groups whose variance is under 1% of the squared mean are
    near-degenerate (single rows, near-equal values): the engine's raw
    power sums, unstable there by design as in the reference, cannot
    carry the higher moments, so only the mean and a near-zero std are
    checked for them."""
    m = got.merge(exp, on=on, how="outer", suffixes=("", "_exp"), indicator=True)
    if not (m["_merge"] == "both").all():
        return [f"batch: {int((m['_merge'] != 'both').sum())} groups missing or extra"]
    mu = m["wavg_exp"].to_numpy()
    full = m["wstd_exp"].to_numpy() ** 2 > 1e-2 * mu**2
    fails = _mismatch("wavg", m["wavg"].to_numpy(), mu)
    for c in ("wstd", "wskew", "wkurt"):
        rtol = RTOL if c == "wstd" else HIGH_RTOL
        fails += _mismatch(c, m[c].to_numpy()[full], m[f"{c}_exp"].to_numpy()[full], rtol)
    if (np.abs(m["wstd"].to_numpy() - m["wstd_exp"].to_numpy())[~full] > 1e-6 * np.abs(mu[~full])).any():
        fails.append("wstd: a near-degenerate group's std is not near zero")
    return fails
