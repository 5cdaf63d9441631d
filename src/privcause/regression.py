"""Kernel ridge regression in dual form.

The fit minimizes  (lam/2) ||w||^2 + (1/n) sum_i (w . phi(x_i) - y_i)^2
over functions in the kernel's feature space.  Setting the gradient to
zero and writing w = sum_i alpha_i phi(x_i) gives the linear system

    (K + (n lam / 2) I) alpha = y

which is solved by Cholesky factorization.  Note the ridge term is
n*lam/2, not n*lam: the factor 2 from the squared loss cancels half of
it.  The test suite checks the dual solution against direct numerical
minimization of the primal objective.

On request, and from _LOW_RANK_MIN_SIZE training pairs on, the system is
solved through a greedy pivoted Cholesky factor K ~ F'F of rank r (Fine &
Scheinberg 2001; Harbrecht, Peters & Schneider 2012) and the Woodbury
identity, in O(n r^2) time and O(n r) memory.  A 1-D Gaussian Gram has a
small numerical rank (about 70 at bandwidth 0.08), so this beats the
O(n^3) solve for large n.  The solution is certified against the exact
system before it is returned; otherwise the exact solve runs.

Inputs must lie in [-1, 1]; out-of-range data is rejected rather than
clipped, because the perturbation bound below is only valid on that box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from ._arrays import as_vector
from ._blas import cholesky_routines
from .scores import KernelSpec

__all__ = [
    "FittedRegressor",
    "check_lam",
    "fit_krr",
    "predict",
    "residuals",
    "residual_perturbation_bound",
]

_DUAL_TOL = 1e-8
_JITTER = 1e-10
# The low-rank route: the training size from which it is tried (below it
# the exact solve is as fast; CHANGES.md has the measured curve), the
# largest rank it may reach as a share of n, and its two stopping rules.
# Pivoting stops when the trace of the remaining diagonal falls to
# _TRACE_TOL, or when its largest entry falls to _PIVOT_FLOOR: on tied
# inputs a trace rule alone picks pivots whose remaining diagonal is
# round-off, and their rows are noise.
_LOW_RANK_MIN_SIZE = 512
_RANK_CAP_DIVISOR = 4
_TRACE_TOL = 1e-12
_PIVOT_FLOOR = 1e-14


@dataclass(frozen=True)
class FittedRegressor:
    dual_coefficients: np.ndarray
    train_inputs: np.ndarray
    kernel: KernelSpec


def _check_box(arr: np.ndarray, name: str) -> None:
    if arr.size and float(np.max(np.abs(arr))) > 1.0 + 1e-12:
        raise ValueError(f"{name} must lie in [-1, 1]; rescale the data first")


def check_lam(lam: float) -> None:
    """The regularization rule of every fit and bound: lam in (0, 1]."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lam must lie in (0, 1], got {lam}")


def fit_krr(x_train, y_train, kernel: KernelSpec, lam: float, *, low_rank: bool = False) -> FittedRegressor:
    """Fit the dual-form kernel ridge regressor.

    Parameters
    ----------
    x_train, y_train : array-like, shape (n,)
        Training pairs, each coordinate in [-1, 1], n >= 1.
    kernel : KernelSpec
    lam : float
        Regularization weight in (0, 1].
    low_rank : bool
        Allow the low-rank solve (module docstring).  It is tried only from
        _LOW_RANK_MIN_SIZE pairs on, and its alpha is returned only when
        the rank stays within n/4 and the certificate of
        :func:`_low_rank_dual` holds; otherwise, and by default, alpha is
        the exact Cholesky solve.  Either way prediction is the exact
        k(x', X) alpha.  The pivots read the training pairs alone, but
        :func:`residual_perturbation_bound` is proved for the exact
        solution, so a fit that a training-side release reads is exact.
    """
    x = as_vector(x_train, "x_train")
    y = as_vector(y_train, "y_train")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 1:
        raise ValueError("need at least one training pair")
    check_lam(lam)
    _check_box(x, "x_train")
    _check_box(y, "y_train")

    n = x.size
    if low_rank and n >= _LOW_RANK_MIN_SIZE:
        alpha = _low_rank_dual(x, y, kernel, n * lam / 2.0)
        if alpha is not None:
            return FittedRegressor(alpha, x, kernel)
    # K + (n lam / 2) I, shifted in place; exactly symmetric, so the
    # column-major matrix this C-order buffer holds is the same one.  posv
    # (LAPACKE_dposv_work of scipy's bundled OpenBLAS, or scipy.linalg's)
    # factors its lower triangle in place and overwrites alpha with the
    # solution; dsymv checks it.  alpha outlives the system, so it is made
    # first: made after, it splits the heap space the freed system leaves,
    # and glibc grows the heap for the next n x n buffer.  No finiteness
    # scan: checked inputs and a finite bandwidth make every entry an exp
    # in [0, 1] plus a finite shift; a non-finite alpha fails the gap.
    routines = cholesky_routines()
    alpha = np.array(y)
    system = kernel.matrix(x, x)
    ridge = n * lam / 2.0
    system.flat[:: n + 1] += ridge
    diagonal = system.diagonal().copy()
    if (info := routines.solve(system, alpha)) > 0:
        # the failed factorization left the buffer half overwritten
        system = kernel.matrix(x, x)
        system.flat[:: n + 1] += ridge
        system.flat[:: n + 1] += _JITTER
        alpha[:] = y
        if (info := routines.solve(system, alpha)) > 0:
            raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    # the other triangle is untouched; with the unjittered diagonal back,
    # symv reads exactly the system that was posed
    system.flat[:: n + 1] = diagonal
    gap = float(np.max(np.abs(routines.product(system, alpha) - y)))
    # written so that a NaN gap fails too
    if not gap <= _DUAL_TOL:
        raise ArithmeticError(f"dual solve residual {gap:.3e} exceeds {_DUAL_TOL}")
    return FittedRegressor(alpha, x, kernel)


def _pivoted_cholesky(x: np.ndarray, kernel: KernelSpec, cap: int) -> tuple[np.ndarray, float] | None:
    """Rows F (r x n) of a greedy pivoted Cholesky factor K ~ F'F of the
    Gram of x, and the trace of the remaining diagonal of K - F'F; None
    when the stopping rules are not met by rank ``cap``.

    Each step takes the largest remaining diagonal entry as the pivot and
    writes its kernel column into the factor row with
    :meth:`KernelSpec.fill` (x is already checked); no other entry of K is
    formed.
    """
    n = x.size
    # every k(u, u) is exp(0 / -2h^2) = 1, as KernelSpec refuses an h whose
    # square underflows to 0
    remaining = np.ones(n)
    rows = np.empty((cap, n))
    for r in range(cap + 1):
        pivot = int(np.argmax(remaining))
        trace = float(remaining.sum())
        if remaining[pivot] <= _PIVOT_FLOOR or trace <= _TRACE_TOL:
            return rows[:r], trace
        if r < cap:
            row = kernel.fill(rows[r : r + 1], x[pivot : pivot + 1], x)[0]
            row -= rows[:r, pivot] @ rows[:r]
            row /= math.sqrt(remaining[pivot])
            remaining -= row * row
            remaining[pivot] = 0.0
    return None


def _low_rank_dual(x: np.ndarray, y: np.ndarray, kernel: KernelSpec, ridge: float) -> np.ndarray | None:
    """alpha of (K + ridge I) alpha = y through K ~ F'F, or None.

    Woodbury: alpha = (y - F' z) / ridge with (ridge I + F F') z = F y, one
    r x r solve on the bound posv.  K - F'F is positive semidefinite with
    trace tau, so ||(K - F'F) alpha||_inf <= tau ||alpha||_2, and alpha is
    returned only when

        (tau + n r eps) ||alpha||_2 + ||(F'F + ridge I) alpha - y||_inf <= _DUAL_TOL,

    which bounds the gap of the exact system by the tolerance fit_krr
    holds its own solve to; n r eps covers the round-off in tau.  None when
    the rank would pass n / _RANK_CAP_DIVISOR, the r x r factorization
    fails or the certificate does not hold (a NaN fails it too).
    """
    n = x.size
    factored = _pivoted_cholesky(x, kernel, n // _RANK_CAP_DIVISOR)
    if factored is None:
        return None
    rows, trace = factored
    r = rows.shape[0]
    system = rows @ rows.T
    system.flat[:: r + 1] += ridge
    z = rows @ y
    if cholesky_routines().solve(system, z) > 0:
        return None
    alpha = y - rows.T @ z
    alpha /= ridge
    gap = float(np.max(np.abs(rows.T @ (rows @ alpha) + ridge * alpha - y)))
    slack = trace + n * r * np.finfo(float).eps
    if not slack * float(np.linalg.norm(alpha)) + gap <= _DUAL_TOL:
        return None
    return alpha


def predict(model: FittedRegressor, x) -> np.ndarray:
    """Evaluate sum_i alpha_i k(x_train_i, x_j) at each query point."""
    xq = as_vector(x, "x")
    if xq.size == 0:
        return np.zeros(0)
    preds = model.kernel.matrix(xq, model.train_inputs) @ model.dual_coefficients
    bound = float(np.sum(np.abs(model.dual_coefficients))) + 1e-9
    if not float(np.max(np.abs(preds))) <= bound:
        raise AssertionError("prediction exceeded the sum-|alpha| envelope")
    return preds


def residuals(model: FittedRegressor, x_test, y_test) -> np.ndarray:
    """Held-out residuals y_test - prediction(x_test)."""
    xq = as_vector(x_test, "x_test")
    yq = as_vector(y_test, "y_test")
    if xq.size != yq.size:
        raise ValueError(f"length mismatch: {xq.size} vs {yq.size}")
    if xq.size < 1:
        raise ValueError("need at least one test pair")
    return yq - predict(model, xq)


def residual_perturbation_bound(n: int, lam: float) -> float:
    """Worst-case change of any held-out residual when one training pair
    is replaced by another in-range pair: 8 / (n lam^{3/2}).

    Valid for bounded kernels (k <= 1) on data in [-1, 1] with lam <= 1.
    Decreasing in both arguments.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    check_lam(lam)
    return 8.0 / (n * lam**1.5)
