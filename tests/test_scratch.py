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


def test_pool_stays_out_of_pickled_functions():
    """With raystat pickled by value, a function that reaches ``buf``
    pickles to the same size before and after the process filled its
    pool (the pool is not shipped), and two loads of one pickle in a
    process share that process's buffers."""
    from ray import cloudpickle

    import raystat
    from raystat.aggregate import dense_key

    by_value = "raystat" in cloudpickle.list_registry_pickle_by_value()
    if not by_value:
        cloudpickle.register_pickle_by_value(raystat)
    try:
        before = len(cloudpickle.dumps(dense_key))
        scratch.buf("test_pickled", 10**6, np.int64)
        blob = cloudpickle.dumps(dense_key)
        assert len(blob) <= before
        first, second = cloudpickle.loads(blob), cloudpickle.loads(blob)
        a = first.__globals__["buf"]("test_shared", 64, np.int64)
        b = second.__globals__["buf"]("test_shared", 64, np.int64)
        assert np.shares_memory(a, b)
        assert np.shares_memory(a, scratch.buf("test_shared", 64, np.int64))
    finally:
        if not by_value:
            cloudpickle.unregister_pickle_by_value(raystat)
        for key in [k for k in scratch._POOL if k[0].startswith("test_")]:
            del scratch._POOL[key]
