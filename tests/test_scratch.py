"""The per-worker scratch-buffer pool."""

from __future__ import annotations

import numpy as np

from raystat import scratch


def test_buf_replaces_a_read_only_pooled_array():
    """When raystat is shipped by value, cloudpickle sends this module's
    pool with every function that calls ``buf``, and Ray's zero-copy
    deserialization hands the worker read-only arrays: ``buf`` must
    give a writable buffer, not the read-only one."""
    ro = np.zeros(32, dtype=np.int64)
    ro.flags.writeable = False
    key = ("test_read_only", ro.dtype.str)
    scratch._POOL[key] = ro
    try:
        b = scratch.buf("test_read_only", 16, np.int64)
        assert b.flags.writeable and b.size == 16 and not np.shares_memory(b, ro)
    finally:
        scratch._POOL.pop(key, None)
