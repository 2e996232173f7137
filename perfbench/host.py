"""Host record and the memory sampler.

Neither is a gated metric except ``peak_rss_mb``.  The host record lets
a later comparison tell host drift from a regression: CPU count, load
average, the share of CPU time the hypervisor stole during the timed
loop, library versions and a substrate probe (single-process
pyarrow decode rate of one input file), taken in the same window as
the run.
"""

from __future__ import annotations

import os
import platform
import threading
import time

PAGE = os.sysconf("SC_PAGE_SIZE")
CLK_TCK = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    """What GNU ``nproc`` prints: OMP_NUM_THREADS caps the usable CPUs."""
    cpus = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(cpus, int(omp)) if omp.isdigit() and int(omp) > 0 else cpus


def decode_probe(path: str, min_s: float = 0.3) -> float:
    """MB/s of single-process ``pq.read_table`` on one file (page cache warm)."""
    import pyarrow.parquet as pq

    pq.read_table(path)
    size = os.path.getsize(path)
    n, t0 = 0, time.perf_counter()
    while True:
        pq.read_table(path, use_threads=False)
        n += 1
        dt = time.perf_counter() - t0
        if dt >= min_s:
            return n * size / dt / 1e6


def record(probe_file: str) -> dict:
    import numpy
    import pandas
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "machine": platform.machine(),
        "substrate_decode_mb_s": decode_probe(probe_file),
        "substrate_file_bytes": os.path.getsize(probe_file),
    }


def _parents() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        out[int(d)] = int(stat[stat.rfind(")") + 2 :].split()[1])
    return out


def descendants(root: int) -> set[int]:
    """Every live process below ``root`` in the process tree."""
    kids: dict[int, list[int]] = {}
    for pid, ppid in _parents().items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = set(), [root]
    while todo:
        new = kids.get(todo.pop(), ())
        out.update(new)
        todo.extend(new)
    return out


def _tree_rss(root: int) -> int:
    """Summed RSS (bytes) of ``root`` and all its descendants, from /proc."""
    total = 0
    for pid in descendants(root) | {root}:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * PAGE
        except OSError:
            pass
    return total


def cpu_ticks() -> tuple[int, int]:
    """(all, stolen) CPU ticks of the machine so far, from /proc/stat:
    the share stolen over an interval is time the hypervisor gave to
    other guests while this one wanted to run."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields[:8]), fields[7]  # user .. steal; guest time is inside user


class RssSampler:
    """Background thread sampling the summed RSS of this process tree."""

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            self.peak = max(self.peak, _tree_rss(me))
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak = max(self.peak, _tree_rss(os.getpid()))
        return False
