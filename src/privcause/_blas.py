"""The bundled OpenBLAS: single-threaded for a block of work, and the
Cholesky solve and product of the kernel ridge fit and the triangular
solve of the landmark features; a leaf module outside the layers, like
``_arrays``.

numpy and scipy each bundle an OpenBLAS that starts one thread per core.
On a few cores, threading one decision's Cholesky and products costs more
than it saves, and in a process pool those threads compete with the
workers for the same cores.  The thread count is process-global, so
:func:`single_threaded_blas` is not meant for code that runs BLAS on
several Python threads at once.

:func:`cholesky_routines` calls ``LAPACKE_dposv_work``, which factors
and solves in one call, ``cblas_dsymv`` and ``cblas_dtrsm`` of scipy's
bundle through ctypes: the library ``scipy.linalg`` calls, so every bit
is the same, without the cost of importing ``scipy.linalg``.  Where
scipy's bundle lacks them (scipy linked to another BLAS), they are
``scipy.linalg``'s ``dposv``, ``dsymv`` and ``dtrsm``, imported on first
use.  numpy's bundle is a different OpenBLAS build, whose results differ
in the last bits.

The landmark features Phi = k(v / h, Z) U^-1 are solved as the right-side
``dtrsm`` on Phi in column-major order, the n x r Fortran-order view that
:meth:`KernelSpec.features` fills as the transpose of an r x n C-order
block.  On one core of an Intel Xeon at n 1000, r 73, OpenBLAS runs that
solve at 15 GFlop/s, and the left-side solve that a row-major Phi needs
at 9 (a matrix product of those sizes runs at 47).  Both the bound
routine and its fallback take that one layout, in place, and refuse any
other buffer.
"""
from __future__ import annotations

import ctypes
import functools
import importlib.util
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from numpy.ctypeslib import ndpointer

__all__ = [
    "Cholesky",
    "OpenBLAS",
    "cholesky_routines",
    "openblas_libraries",
    "single_threaded_blas",
]

# Wheel directories that hold the bundled shared libraries
_BUNDLES = ("numpy", "scipy")
# The bundle whose Cholesky routines are bound: the one scipy.linalg calls
_CHOLESKY_BUNDLE = "scipy"
# scipy-openblas entry points; the 64-bit-integer build adds the suffix
_SUFFIXES = ("64_", "")
# CBLAS and LAPACKE enum values
_COL_MAJOR = 102
_TRANS = 112
_UPPER = 121
_LOWER = 122
_NON_UNIT = 131
_RIGHT = 142

_MATRIX = ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
_WRITABLE_MATRIX = ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
_VECTOR = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
_WRITABLE_VECTOR = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")


@dataclass(frozen=True)
class Cholesky:
    """Cholesky solve and product on a C-contiguous float64 n x n buffer,
    read as the column-major matrix its transpose is.

    ``solve(a, b)`` overwrites the lower triangle of that matrix (the
    buffer's upper triangle) with its Cholesky factor L and the C-contiguous
    vector b with the x of L L' x = b, and returns LAPACK's info: 0, or
    k > 0 when the k-th leading minor is not positive definite, and then b
    holds no solution.
    ``product(a, x)`` returns a new vector A x, A the symmetric matrix held
    in the other triangle, which the factorization leaves untouched.
    ``right_solve(u, b)`` overwrites the F-contiguous, writable m x r
    float64 buffer b with b U^-1, U the upper triangle of the C-contiguous
    r x r buffer u (the lower one is not read); each row of b is solved on
    its own.  Column-major, u holds U' and b is the matrix itself, so the
    call is the right-side solve with U' transposed, which runs faster
    than the left-side one a C-order b would need (module docstring).
    Any other b, such as a C-order one, is refused with a ValueError
    before any pointer is passed.
    """

    solve: Callable[[np.ndarray, np.ndarray], int]
    product: Callable[[np.ndarray, np.ndarray], np.ndarray]
    right_solve: Callable[[np.ndarray, np.ndarray], None]


@dataclass(frozen=True)
class OpenBLAS:
    """The thread-count entry points of one loaded OpenBLAS, and its
    Cholesky routines where they are bound."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    cholesky: Cholesky | None = None


def _bind_cholesky(lib: ctypes.CDLL, suffix: str) -> Cholesky | None:
    try:
        posv = getattr(lib, f"scipy_LAPACKE_dposv_work{suffix}")
        symv = getattr(lib, f"scipy_cblas_dsymv{suffix}")
        trsm = getattr(lib, f"scipy_cblas_dtrsm{suffix}")
    except AttributeError:
        return None
    # the layout and CBLAS enums are C ints in either build; sizes and
    # LAPACK's info have the width the suffix names
    integer = ctypes.c_int64 if suffix else ctypes.c_int
    posv.argtypes = [ctypes.c_int, ctypes.c_char, integer, integer, _WRITABLE_MATRIX, integer,
                     _WRITABLE_VECTOR, integer]
    posv.restype = integer
    symv.argtypes = [
        ctypes.c_int, ctypes.c_int, integer, ctypes.c_double, _MATRIX, integer,
        _VECTOR, integer, ctypes.c_double, _WRITABLE_VECTOR, integer,
    ]
    symv.restype = None
    # built with the binding, on first use, so that the import every
    # command pays for builds no type for it
    columns = ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS,WRITEABLE")
    trsm.argtypes = [
        ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int, integer, integer,
        ctypes.c_double, _MATRIX, integer, columns, integer,
    ]
    trsm.restype = None

    def solve(a: np.ndarray, b: np.ndarray) -> int:
        n = _size(a, b)
        return _checked(posv(_COL_MAJOR, b"L", n, 1, a, n, b, n))

    def product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        n = _size(a, x)
        out = np.zeros(n)
        symv(_COL_MAJOR, _UPPER, n, 1.0, a, n, x, 1, 0.0, out, 1)
        return out

    def right_solve(u: np.ndarray, b: np.ndarray) -> None:
        # column-major, u holds the lower triangular U', so b U^-1 is
        # b (U')'^-1: the right-side solve with U' transposed
        m, r = _right_sizes(u, b)
        trsm(_COL_MAJOR, _RIGHT, _LOWER, _TRANS, _NON_UNIT, m, r, 1.0, u, r, b, max(m, 1))

    return Cholesky(solve, product, right_solve)


def _size(a: np.ndarray, *vectors: np.ndarray) -> int:
    """n for an n x n matrix and vectors of length n; the shapes the native
    routines are told, checked before any pointer is passed."""
    n = a.shape[0]
    if a.shape != (n, n) or any(v.shape != (n,) for v in vectors):
        shapes = [a.shape, *(v.shape for v in vectors)]
        raise ValueError(f"need an n x n matrix and length-n vectors, got shapes {shapes}")
    return n


def _right_sizes(u: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """(m, r) for an r x r matrix u and an F-contiguous, writable m x r
    float64 buffer b, the one buffer either right_solve overwrites in
    place; checked before any pointer is passed."""
    r = _size(u)
    if not (b.ndim == 2 and b.shape[1] == r and b.dtype == np.float64 and b.flags.f_contiguous
            and b.flags.writeable):
        raise ValueError(
            f"need a Fortran-order, writable m x {r} float64 buffer, got shape {b.shape}, "
            f"dtype {b.dtype}, F-contiguous {b.flags.f_contiguous}, writable {b.flags.writeable}"
        )
    return b.shape


def _checked(info: int) -> int:
    """posv's info, with an illegal argument (info < 0) raised."""
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of posv")
    return info


def _scipy_solve(a: np.ndarray, b: np.ndarray) -> int:
    from scipy.linalg.lapack import dposv

    # a.T is the column-major matrix, factored in this buffer
    _, b[...], info = dposv(a.T, b, lower=1, overwrite_a=1)
    return _checked(info)


def _scipy_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    from scipy.linalg.blas import dsymv

    return dsymv(1.0, a.T, x, lower=0)


def _scipy_right_solve(u: np.ndarray, b: np.ndarray) -> None:
    from scipy.linalg.blas import dtrsm

    _right_sizes(u, b)
    # u.T is the column-major U', as in the bound call; b is already in
    # the layout dtrsm overwrites, so the solve is in place
    dtrsm(1.0, u.T, b, side=1, lower=1, trans_a=1, overwrite_b=1)


# The routines of whatever BLAS scipy.linalg is linked to
SCIPY_CHOLESKY = Cholesky(_scipy_solve, _scipy_product, _scipy_right_solve)


def _open(path: Path, package: str) -> OpenBLAS | None:
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
        cholesky = _bind_cholesky(lib, suffix) if package == _CHOLESKY_BUNDLE else None
        return OpenBLAS(get, set_, cholesky)
    return None


def _bundle_dir(package: str) -> Path | None:
    # find_spec, not an import: scipy's __init__ need not run for this
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return None
    return Path(spec.origin).parent.with_name(f"{package}.libs")


@functools.cache
def openblas_libraries() -> tuple[OpenBLAS, ...]:
    """Every OpenBLAS bundled under ``numpy.libs`` and ``scipy.libs``, looked
    up once, on first use; empty when there is none (another BLAS, or a
    build without bundled libraries)."""
    found = []
    for package in _BUNDLES:
        if (libs := _bundle_dir(package)) is None:
            continue
        for path in sorted(libs.glob("*openblas*.so*")):
            if (opened := _open(path, package)) is not None:
                found.append(opened)
    return tuple(found)


def cholesky_routines() -> Cholesky:
    """The bound routines of scipy's bundled OpenBLAS, or
    :data:`SCIPY_CHOLESKY` when :func:`openblas_libraries` bound none."""
    for lib in openblas_libraries():
        if lib.cholesky is not None:
            return lib.cholesky
    return SCIPY_CHOLESKY


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
