"""Time and allocation bounds shared by the hostile-bytes tests."""

import time
import tracemalloc
from contextlib import contextmanager

TIME_BOUND_S = 2.0
PEAK_BOUND_BYTES = 64 << 20


@contextmanager
def bounded():
    """Fail if the block takes over 2 s or allocates over 64 MiB at its peak."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert elapsed < TIME_BOUND_S, f"took {elapsed:.2f} s"
    assert peak < PEAK_BOUND_BYTES, f"allocated {peak / 2**20:.1f} MiB at peak"
