"""Kernel ridge regression in dual form.

The fit minimizes  (lam/2) ||w||^2 + (1/n) sum_i (w . phi(x_i) - y_i)^2
over functions in the kernel's feature space.  Setting the gradient to
zero and writing w = sum_i alpha_i phi(x_i) gives the linear system

    (K + (n lam / 2) I) alpha = y

which is solved by Cholesky factorization.  Note the ridge term is
n*lam/2, not n*lam: the factor 2 from the squared loss cancels half of
it.  The test suite checks the dual solution against direct numerical
minimization of the primal objective.

On request, and wherever :meth:`KernelSpec.pivoted_cholesky` gives a
factor, the system is solved through that greedy pivoted Cholesky factor
K ~ F'F of rank r (Fine & Scheinberg 2001; Harbrecht, Peters & Schneider
2012) and the Woodbury identity, in O(n r^2) time and O(n r) memory.  A 1-D Gaussian Gram has a
small numerical rank (about 70 at bandwidth 0.08), so this beats the
O(n^3) solve for large n.  The solution is certified against the exact
system before it is returned; otherwise the exact solve runs.  Such a fit
predicts through its r pivots (the Nystrom predictor of Williams & Seeger
2001), each point certified against the exact k(x', X) alpha.

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
# float64's machine epsilon, np.finfo(float).eps
_EPS = 2.0**-52


@dataclass(frozen=True)
class FittedRegressor:
    """The dual coefficients alpha of a fit on the training inputs, and
    what a low-rank fit predicts through (None for an exact fit): the r
    pivot inputs x_P, the upper triangular U = F[:, P] of its factor
    (:meth:`KernelSpec.pivoted_cholesky`), the weights F alpha, and
    sqrt(tau) ||alpha||_2, the part of each point's error bound that does
    not depend on the point."""

    dual_coefficients: np.ndarray
    train_inputs: np.ndarray
    kernel: KernelSpec
    pivots: tuple[np.ndarray, np.ndarray, np.ndarray, float] | None = None


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
        Allow the low-rank solve (module docstring).  Its fit is returned
        only when :meth:`KernelSpec.pivoted_cholesky` gives a factor and
        the certificate of :func:`_low_rank_fit` holds; otherwise, and by
        default, alpha is the exact Cholesky solve.  A low-rank fit keeps
        its pivots, and :func:`predict` goes through them wherever its
        per-point certificate holds; an exact fit predicts the exact
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
    ridge = n * lam / 2.0
    if low_rank:
        fitted = _low_rank_fit(x, y, kernel, ridge)
        if fitted is not None:
            return fitted
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


def _low_rank_fit(x: np.ndarray, y: np.ndarray, kernel: KernelSpec, ridge: float) -> FittedRegressor | None:
    """The fit of (K + ridge I) alpha = y through K ~ F'F, or None.

    Woodbury: alpha = (y - F' z) / ridge with (ridge I + F F') z = F y, one
    r x r solve on the bound posv.  K - F'F is positive semidefinite with
    trace tau, so ||(K - F'F) alpha||_inf <= tau ||alpha||_2, and the fit is
    returned only when

        tau ||alpha||_2 + ||(F'F + ridge I) alpha - y||_inf <= _DUAL_TOL,

    which bounds the gap of the exact system by the tolerance fit_krr
    holds its own solve to; tau comes padded for its round-off.  None when
    there is no factor, the r x r factorization fails or the certificate
    does not hold (a NaN fails it too).
    """
    factored = kernel.pivoted_cholesky(x)
    if factored is None:
        return None
    rows, pivots, trace = factored
    r = rows.shape[0]
    system = rows @ rows.T
    system.flat[:: r + 1] += ridge
    z = rows @ y
    if cholesky_routines().solve(system, z) > 0:
        return None
    alpha = y - rows.T @ z
    alpha /= ridge
    gap = float(np.max(np.abs(rows.T @ (rows @ alpha) + ridge * alpha - y)))
    norm = float(np.linalg.norm(alpha))
    if not trace * norm + gap <= _DUAL_TOL:
        return None
    # take() copies U = F[:, P] C-contiguous, as the triangular solve needs
    predictor = (x[pivots], rows.take(pivots, axis=1), rows @ alpha, math.sqrt(trace) * norm)
    return FittedRegressor(alpha, x, kernel, predictor)


def predict(model: FittedRegressor, x) -> np.ndarray:
    """Evaluate sum_i alpha_i k(x_train_i, x_j) at each query point.

    A low-rank fit predicts through its pivots: with U = F[:, P] and
    beta = U^-1 F alpha, f~(x') = k(x', P) beta, evaluated as
    phi(x') . (F alpha) with phi(x')' = k(x', P) U^-1 from one triangular
    solve, O(m r^2) for m points and no m x n matrix.  The same phi gives
    the remaining diagonal d = 1 - ||phi(x')||^2 at x'; K - F'F stays
    positive semidefinite on X and x' together, so

        |f~(x') - k(x', X) alpha| <= sqrt(d) sqrt(tau) ||alpha||_2,

    with d padded by r eps for round-off (tau comes padded).  A point
    whose bound passes the tolerance the fit is held to is predicted
    exactly, on its own, so which route one point takes never changes
    another's prediction.  An exact fit predicts k(x', X) alpha.
    """
    xq = as_vector(x, "x")
    if xq.size == 0:
        return np.zeros(0)
    alpha = model.dual_coefficients
    if model.pivots is None:
        preds = model.kernel.matrix(xq, model.train_inputs) @ alpha
    else:
        preds = _pivot_predict(model, xq)
    bound = float(np.sum(np.abs(alpha))) + 1e-9
    if not float(np.max(np.abs(preds))) <= bound:
        raise AssertionError("prediction exceeded the sum-|alpha| envelope")
    return preds


def _pivot_predict(model: FittedRegressor, xq: np.ndarray) -> np.ndarray:
    """The pivot prediction of :func:`predict`, with the exact one for each
    point whose certificate fails."""
    inputs, factor, weights, scale = model.pivots
    r = inputs.size
    phi = model.kernel.fill(np.empty((xq.size, r)), xq, inputs)
    cholesky_routines().right_solve(factor, phi)
    preds = phi @ weights
    remaining = np.maximum(1.0 - np.einsum("ij,ij->i", phi, phi), 0.0) + r * _EPS
    # written so that a NaN bound fails too
    for j in np.flatnonzero(~(np.sqrt(remaining) * scale <= _DUAL_TOL)):
        row = model.kernel.fill(np.empty((1, model.train_inputs.size)), xq[j : j + 1], model.train_inputs)
        preds[j] = row[0] @ model.dual_coefficients
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
