"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q      # from the repository root

- every workload, including ``events_sketch``, which ``BENCHMARK.json``
  does not list, prints every end-to-end metric (``--trace 0``) and
  every per-layer metric (``--trace 1``) named in ``BENCHMARK.json``,
  with its unit, and passes its output check;
- a corrupted sink file is caught, both a damaged file (its sha256 no
  longer matches the manifest) and a rewritten one with a consistent
  manifest (the oracle catches the changed value);
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import WORK, WORKLOAD_NAMES, start_ray, stop_ray  # noqa: E402

SMOKE = os.path.join(WORK, "smoke")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny",
           "--results", os.path.join(SMOKE, "results.jsonl")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_reported(workload, trace):
    bench = _bench()
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOAD_NAMES)
    p = _run(workload, trace)
    assert p.returncode == 0, p.stderr[-3000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, p.stderr[-3000:]
    want = bench["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())


@pytest.fixture(scope="module")
def tumbling_output():
    from perfbench.workloads import TokensTumbling

    shutil.rmtree(SMOKE + "-corrupt", ignore_errors=True)
    wl = TokensTumbling(os.path.join(WORK, "inputs"), 7, "tiny")
    start_ray()
    try:
        wl.rep(os.path.join(SMOKE + "-corrupt", "a"), traced=False)
    finally:
        stop_ray()
    out = os.path.join(SMOKE + "-corrupt", "a")
    assert wl.check(out) == []
    yield wl, out
    shutil.rmtree(SMOKE + "-corrupt", ignore_errors=True)


def _agg_file(out: str) -> str:
    files = [f for f in sorted(glob.glob(os.path.join(out, "agg", "epoch=*", "*.parquet")))
             if pq.read_metadata(f).num_rows]
    return files[len(files) // 2]


def test_damaged_sink_file_is_caught(tumbling_output):
    wl, out = tumbling_output
    path = _agg_file(out)
    data = bytearray(open(path, "rb").read())
    try:
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as f:
            f.write(data)
        assert any("sha256" in m for m in wl.check(out))
    finally:
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as f:
            f.write(data)
    assert wl.check(out) == []


def test_rewritten_sink_value_is_caught(tumbling_output):
    wl, out = tumbling_output
    path = _agg_file(out)
    epoch = int(os.path.basename(os.path.dirname(path)).split("=")[1])
    manifest = os.path.join(out, "agg", "_manifest", f"epoch-{epoch:06d}.json")
    t = pq.read_table(path)
    i = t.schema.get_field_index("wavg")
    pq.write_table(t.set_column(i, "wavg", pc.multiply(t["wavg"], 1.0 + 1e-6)), path)
    with open(manifest) as f:
        entry = json.load(f)
    with open(path, "rb") as f:
        entry["sha256"] = hashlib.sha256(f.read()).hexdigest()
    with open(manifest, "w") as f:
        json.dump(entry, f)
    assert any(m.startswith("wavg") for m in wl.check(out))


def test_bare_directory_fails_without_result():
    bare = os.path.join(SMOKE, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    try:
        p = _run("tokens_tumbling", 0, cwd=bare)
        assert p.returncode != 0
        assert '"metrics"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
