"""Kernel ridge regression in dual form.

The fit minimizes  (lam/2) ||w||^2 + (1/n) sum_i (w . phi(x_i) - y_i)^2
over functions in the kernel's feature space.  Setting the gradient to
zero and writing w = sum_i alpha_i phi(x_i) gives the linear system

    (K + (n lam / 2) I) alpha = y

which is solved by Cholesky factorization.  Note the ridge term is
n*lam/2, not n*lam: the factor 2 from the squared loss cancels half of
it.  The test suite checks the dual solution against direct numerical
minimization of the primal objective.

On request, the system is solved through the landmark factor of
:meth:`KernelSpec.landmarks` for the public box [-1, 1]: r landmarks Z
pivoted on a grid that covers the box, not on the data, with
k(Z, Z) = U'U at unit bandwidth, cached once per ceil(1 / h).  The
features Phi = k_1(X / h, Z) U^-1 of the training inputs
(:meth:`KernelSpec.features`, the Nystrom method of Williams & Seeger
2001) give K ~ Phi Phi', and the Woodbury identity solves the system in
O(n r^2) time and O(n r) memory.  The route is decided from (h, n)
before any kernel column is built: it is taken when the landmark rank r
is at most n / RANK_CAP_DIVISOR, and a floor on r read from h alone
rules out a bandwidth too small for the cap without building its grid
factor.  A 1-D Gaussian has a small rank on the box (73 at bandwidth
0.08, 27 at 0.3).  Timed on one thread, fit plus prediction takes at
most three quarters of the exact solve's time at n = 4r and at most
half of it from 350 points on, at both bandwidths (CHANGES.md has the
curve), so the route needs no size floor of its own.  The solution is
certified against the exact system before it is returned; otherwise the
exact solve runs.  Such a fit predicts through its landmarks, each point
certified against the exact k(x', X) alpha.

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


@dataclass(frozen=True)
class FittedRegressor:
    """The dual coefficients alpha of a fit on the training inputs, and
    what a low-rank fit predicts through (None for an exact fit): the r
    landmarks Z, in units of the bandwidth, and the upper triangular U of
    their factor (:meth:`KernelSpec.landmarks` for the box [-1, 1]), the
    weights Phi' alpha, and sqrt(tau) ||alpha||_2, the part of each
    point's error bound that does not depend on the point.  The landmarks
    are pivoted on the public grid, not on the training inputs."""

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
        Allow the landmark solve (module docstring).  Its fit is returned
        only when :meth:`KernelSpec.landmarks` gives a factor for n points
        and the certificate of :func:`_low_rank_fit` holds; otherwise, and
        by default, alpha is the exact Cholesky solve.  A low-rank fit
        keeps its landmarks, and :func:`predict` goes through them
        wherever its per-point certificate holds; an exact fit predicts
        the exact k(x', X) alpha.  The landmarks read no data and the
        features read the training pairs alone, but
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
    """The fit of (K + ridge I) alpha = y through K ~ Phi Phi', or None.

    Phi are the n x r features of x through the landmark factor of the box
    [-1, 1] (:meth:`KernelSpec.features`).  Woodbury: alpha = (y - Phi z) /
    ridge with (ridge I + Phi'Phi) z = Phi'y, one r x r solve on the bound
    posv.  K - Phi Phi' is positive semidefinite with trace at most tau,
    the sum of the features' padded remaining diagonal, so
    ||(K - Phi Phi') alpha||_inf <= tau ||alpha||_2, and the fit is
    returned only when

        tau ||alpha||_2 + ||(Phi Phi' + ridge I) alpha - y||_inf <= _DUAL_TOL,

    which bounds the gap of the exact system by the tolerance fit_krr
    holds its own solve to.  None when there are no landmarks for n
    points, the r x r factorization fails or the certificate does not
    hold (a NaN fails it too).
    """
    landmarks = kernel.landmarks(1.0, x.size)
    if landmarks is None:
        return None
    features, remaining = kernel.features(x, landmarks)
    trace = float(remaining.sum())
    r = features.shape[1]
    system = features.T @ features
    system.flat[:: r + 1] += ridge
    z = features.T @ y
    if cholesky_routines().solve(system, z) > 0:
        return None
    alpha = y - features @ z
    alpha /= ridge
    weights = features.T @ alpha
    gap = float(np.max(np.abs(features @ weights + ridge * alpha - y)))
    norm = float(np.linalg.norm(alpha))
    if not trace * norm + gap <= _DUAL_TOL:
        return None
    return FittedRegressor(alpha, x, kernel, (*landmarks, weights, math.sqrt(trace) * norm))


def predict(model: FittedRegressor, x) -> np.ndarray:
    """Evaluate sum_i alpha_i k(x_train_i, x_j) at each query point.

    A low-rank fit predicts through its landmarks Z: with beta = U^-1
    Phi' alpha, f~(x') = k_1(x' / h, Z) beta, evaluated as
    phi(x') . (Phi' alpha) with the features phi(x') of
    :meth:`KernelSpec.features`, O(m r^2) for m points and no m x n
    matrix.  They give the remaining diagonal d at x', padded for
    round-off; K - Phi Phi' stays positive semidefinite on X and x'
    together, so

        |f~(x') - k(x', X) alpha| <= sqrt(d) sqrt(tau) ||alpha||_2.

    A point whose bound passes the tolerance the fit is held to, as one
    outside the landmarks' grid can, is predicted exactly, on its own, so
    which route one point takes never changes another's prediction.  An
    exact fit predicts k(x', X) alpha.
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
    phi, remaining = model.kernel.features(xq, (inputs, factor))
    preds = phi @ weights
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
