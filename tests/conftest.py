"""Shared fixtures for the tier-1 suite."""
import tracemalloc

import pytest


@pytest.fixture
def peak_buffers():
    """peak_buffers(unit_bytes, fn, *args): the peak of the memory that
    numpy and Python allocate while fn(*args) runs, its result included,
    in buffers of unit_bytes.  Counts allocations, not time."""

    def measure(unit_bytes, fn, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        return (peak - base) / unit_bytes

    return measure
