"""Per-worker scratch-buffer pool.

Fresh multi-MB numpy allocations are served by mmap and pay full
page-fault cost on every batch (measured ~100-500ms per ~12 MB in this
environment vs ~2ms compute into a reused buffer).  Worker processes
persist across map_batches tasks, so a process-wide pool amortizes the
faults to once per worker.  Buffers grow geometrically and are reused
by (name, dtype).

The pool is one per process, kept in ``sys.modules`` rather than in
this module's globals: when raystat is pickled by value
(``__ray_entry__``), cloudpickle ships the globals a function reaches,
and a pool among them would travel with every task (its buffers
inside) and be a fresh, task-private copy in each worker.  ``_POOL``
pickles as a call that fetches the loading process's pool.
"""

from __future__ import annotations

import sys
import types

import numpy as np

_ANCHOR = "raystat.scratch._process_pool"  # the sys.modules entry holding the pool


class _Pool(dict):
    """The process's buffers by (name, dtype str); pickles as a
    reference to the loading process's pool, never as its buffers."""

    def __reduce__(self):
        return _process_pool, ()


def _process_pool() -> _Pool:
    """This process's one pool, shared by every copy of this module it
    loads (imported, or unpickled by value with a function)."""
    anchor = sys.modules.get(_ANCHOR)
    if anchor is None:
        anchor = types.ModuleType(_ANCHOR)
        anchor.pool = _Pool()
        sys.modules[_ANCHOR] = anchor
    return anchor.pool


_POOL = _process_pool()
_TUNED = False


def tune_allocator() -> None:
    """Disable jemalloc dirty-page decay (idempotent, once per process).

    Fresh page faults cost ~100x their compute in this VM; Arrow's
    default decay returns every decoded batch's buffers to the OS, and
    at 32 workers the kernel fault path serializes — the difference
    between ~0.3 and >=0.8 scaling efficiency at 8->32 CPUs
    (BASELINE.md).  Called at raystat import AND from hot stage
    callables, because cloudpickle by-value shipping (``__ray_entry__``)
    reconstructs module globals without re-running import side effects."""
    global _TUNED
    if _TUNED:
        return
    _TUNED = True
    try:
        import pyarrow as pa

        if pa.default_memory_pool().backend_name == "jemalloc":
            pa.jemalloc_set_decay_ms(1_000_000_000)
    except Exception:
        pass  # non-jemalloc builds: nothing to tune


def buf(name: str, n: int, dtype=np.float64) -> np.ndarray:
    """A length-n view of a reusable buffer (contents undefined)."""
    key = (name, np.dtype(dtype).str)
    b = _POOL.get(key)
    # never hand out a read-only array (a zero-copy deserialized one is)
    if b is None or b.size < n or not b.flags.writeable:
        b = np.empty(int(n * 1.25) + 16, dtype=dtype)
        _POOL[key] = b
    return b[:n]


def astype_f8(name: str, arr: np.ndarray) -> np.ndarray:
    """arr cast to float64 into a pooled buffer."""
    if arr.dtype == np.float64:
        return arr
    out = buf(name, arr.size, np.float64)
    np.copyto(out, arr, casting="unsafe")
    return out
