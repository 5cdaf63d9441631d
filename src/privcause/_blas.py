"""Single-threaded OpenBLAS for a block of work; a leaf module outside the
layers, like ``_arrays``.

numpy and scipy each bundle an OpenBLAS that starts one thread per core.
On a few cores, threading one decision's Cholesky and products costs more
than it saves, and in a process pool those threads compete with the
workers for the same cores.  The thread count is process-global, so
:func:`single_threaded_blas` is not meant for code that runs BLAS on
several Python threads at once.
"""
from __future__ import annotations

import ctypes
import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

__all__ = ["OpenBLAS", "openblas_libraries", "single_threaded_blas"]

# Wheel directories that hold the bundled shared libraries
_BUNDLES = ("numpy", "scipy")
# scipy-openblas entry points; the 64-bit-integer build adds the suffix
_SUFFIXES = ("64_", "")


@dataclass(frozen=True)
class OpenBLAS:
    """The thread-count entry points of one loaded OpenBLAS."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _controls(path: Path) -> OpenBLAS | None:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    for suffix in _SUFFIXES:
        try:
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return OpenBLAS(get, set_)
    return None


@functools.cache
def openblas_libraries() -> tuple[OpenBLAS, ...]:
    """Every OpenBLAS bundled under ``numpy.libs`` and ``scipy.libs``, looked
    up once, on first use; empty when there is none (another BLAS, or a
    build without bundled libraries)."""
    found = []
    for package in _BUNDLES:
        libs = Path(importlib.import_module(package).__file__).parent.with_name(f"{package}.libs")
        for path in sorted(libs.glob("*openblas*.so*")):
            if (controls := _controls(path)) is not None:
                found.append(controls)
    return tuple(found)


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the block with every bundled OpenBLAS on one thread, and give
    each library back its previous thread count on exit, also when the
    block raises.  Does nothing when no library is found."""
    libraries = openblas_libraries()
    previous = [lib.get_num_threads() for lib in libraries]
    for lib in libraries:
        lib.set_num_threads(1)
    try:
        yield
    finally:
        for lib, count in zip(libraries, previous):
            lib.set_num_threads(count)
