"""Shared fixtures for the tier-1 suite."""
import tracemalloc

import pytest

from privcause import scores


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


@pytest.fixture
def fresh_landmarks():
    """The landmark cache, emptied for the test and again after it, so
    that the test sees each factor built and keeps none built under a
    patched rule."""
    factor = scores._landmark_factor
    factor.cache_clear()
    yield factor
    factor.cache_clear()
