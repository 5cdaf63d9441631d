"""Kernel ridge fits against direct minimization of the primal objective."""
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from oracles import count_calls, factor_calls, primal_fit
from privcause import _blas, regression, scores
from privcause.data_io import SamplePairs, SplitData
from privcause.experiments import _error_site
from privcause.inference import anm_infer_detailed
from privcause.regression import (
    FittedRegressor,
    fit_krr,
    predict,
    residual_perturbation_bound,
    residuals,
)
from privcause.scores import KernelSpec, ScoreKind


def test_single_point_closed_form():
    # K = [[1]], so (1 + lam/2) alpha = y
    model = fit_krr([0.0], [0.9], KernelSpec(1.0), 1.0)
    assert model.dual_coefficients[0] == pytest.approx(0.6, abs=1e-12)
    assert predict(model, [0.0])[0] == pytest.approx(0.6, abs=1e-12)


def test_dual_matches_primal_minimizer():
    rng = np.random.default_rng(19)
    kernel = KernelSpec(0.6)
    for _ in range(12):
        n = int(rng.integers(2, 9))
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        lam = float(rng.uniform(0.2, 1.0))
        dual = fit_krr(x, y, kernel, lam)
        prim = primal_fit(x, y, kernel, lam)
        grid = np.linspace(-1, 1, 17)
        assert np.max(np.abs(predict(dual, grid) - predict(prim, grid))) < 1e-6


def test_residuals_shrink_with_regularization():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 60)
    y = np.clip(x**3 + 0.05 * rng.uniform(-1, 1, 60), -1, 1)
    kernel = KernelSpec(0.3)
    loose = fit_krr(x, y, kernel, 1.0)
    tight = fit_krr(x, y, kernel, 1e-3)
    x_eval = np.linspace(-0.9, 0.9, 40)
    y_eval = x_eval**3
    assert np.mean(residuals(tight, x_eval, y_eval) ** 2) < np.mean(
        residuals(loose, x_eval, y_eval) ** 2
    )


def test_duplicate_inputs_stay_solvable():
    # the gram matrix is singular here; the ridge keeps the system PD
    x = np.array([0.5, 0.5, 0.5, -0.2])
    y = np.array([0.1, 0.3, 0.2, -0.4])
    model = fit_krr(x, y, KernelSpec(0.5), 0.3)
    assert np.all(np.isfinite(model.dual_coefficients))


def test_prediction_envelope():
    rng = np.random.default_rng(23)
    x = rng.uniform(-1, 1, 30)
    y = rng.uniform(-1, 1, 30)
    model = fit_krr(x, y, KernelSpec(0.4), 0.5)
    preds = predict(model, np.linspace(-1, 1, 101))
    assert np.max(np.abs(preds)) <= np.sum(np.abs(model.dual_coefficients)) + 1e-9


def with_routines(monkeypatch, **changes):
    """Make fit_krr call the active Cholesky routines with some replaced."""
    routines = replace(_blas.cholesky_routines(), **changes)
    monkeypatch.setattr(regression, "cholesky_routines", lambda: routines)
    return routines


def solve_then_write(solution):
    """A solve that factors and solves as usual, then overwrites the
    solution with ``solution``."""
    posv = _blas.cholesky_routines().solve

    def solve(a, b):
        info = posv(a, b)
        b[:] = solution
        return info

    return solve


def test_fit_rejects_a_nan_dual_solution(monkeypatch):
    # the system is factored as usual; only the solution is NaN
    with_routines(monkeypatch, solve=solve_then_write(np.nan))
    x = np.linspace(-1, 1, 20)
    with pytest.raises(ArithmeticError):
        fit_krr(x, np.sin(x), KernelSpec(0.3), 0.1)


def test_predict_rejects_nan_predictions():
    x = np.linspace(-1, 1, 20)
    model = FittedRegressor(np.full(x.size, np.nan), x, KernelSpec(0.3))
    with pytest.raises(AssertionError):
        predict(model, x)


def test_perturbation_bound_values():
    assert residual_perturbation_bound(100, 0.25) == pytest.approx(0.64)
    assert residual_perturbation_bound(8, 1.0) == pytest.approx(1.0)
    assert residual_perturbation_bound(1000, 1.0) == pytest.approx(0.008)


def test_perturbation_bound_monotone():
    grid = [(n, lam) for n in (10, 100, 1000) for lam in (0.25, 0.5, 1.0)]
    vals = [residual_perturbation_bound(n, lam) for n, lam in grid]
    for (n1, l1), v1 in zip(grid, vals):
        for (n2, l2), v2 in zip(grid, vals):
            if n2 >= n1 and l2 >= l1:
                assert v2 <= v1 + 1e-15


def test_argument_validation():
    k = KernelSpec(1.0)
    with pytest.raises(ValueError):
        fit_krr([1.5], [0.0], k, 0.5)  # out of the unit box
    with pytest.raises(ValueError):
        fit_krr([0.0], [0.0], k, 0.0)
    with pytest.raises(ValueError):
        fit_krr([0.0], [0.0], k, 1.5)
    with pytest.raises(ValueError):
        fit_krr([0.0, 0.1], [0.0], k, 0.5)
    with pytest.raises(ValueError, match="at least one training pair"):
        fit_krr([], [], k, 0.5)
    model = fit_krr([0.0], [0.5], k, 0.5)
    with pytest.raises(ValueError):
        residuals(model, [0.0, 0.1], [0.0])
    with pytest.raises(ValueError, match="at least one test pair"):
        residuals(model, [], [])
    with pytest.raises(ValueError, match="n must be at least 1"):
        residual_perturbation_bound(0, 0.5)
    empty = predict(model, [])
    assert empty.shape == (0,) and empty.dtype == float


def reference_dual(x, y, kernel, lam, jitter=0.0):
    """The dual solve written as (K + (n lam / 2) I) alpha = y, textbook style;
    a nonzero ``jitter`` is added to the diagonal after the ridge."""
    n = x.size
    d = x[:, None] - x[None, :]
    gram = np.exp(-(d * d) / (2.0 * kernel.bandwidth**2))
    system = gram + (n * lam / 2.0) * np.eye(n)
    if jitter:
        system = system + jitter * np.eye(n)
    return cho_solve(cho_factor(system, lower=True), y)


def test_fit_is_bitwise_the_textbook_system():
    rng = np.random.default_rng(29)
    kernel = KernelSpec(0.3)
    for n in (2, 3, 5, 64, 100, 257, 1000):
        for kind in ("continuous", "tied", "integer"):
            x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            if kind == "tied":
                x, y = np.round(x, 2), np.round(y, 2)
            elif kind == "integer":
                x, y = rng.integers(-2, 3, n) / 2.0, rng.integers(-2, 3, n) / 2.0
            for lam in (0.02, 0.5):
                got = fit_krr(x, y, kernel, lam).dual_coefficients
                assert np.array_equal(got, reference_dual(x, y, kernel, lam)), (n, kind, lam)


def test_fit_krr_peak_memory(peak_buffers):
    rng = np.random.default_rng(31)
    x, y = rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 400)
    # the system is factored in the buffer the Gram build returns
    assert peak_buffers(400 * 400 * 8, fit_krr, x, y, KernelSpec(0.3), 0.1) <= 1.2


# Fits and residuals in both directions at n = 1000, in a fresh interpreter;
# prints the peak resident set in kB after the first fit and at the end.
# VmHWM, not ru_maxrss, which keeps the launching process's peak over exec.
_REUSE_PROBE = """
import numpy as np
from privcause.regression import fit_krr, residuals
from privcause.scores import KernelSpec
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
rng, kernel = np.random.default_rng(5), KernelSpec(0.08)
x, y = rng.uniform(-1, 1, 1000), rng.uniform(-1, 1, 1000)
forward = fit_krr(x, y, kernel, 0.02)
first = peak()
for _ in range(3):
    backward = fit_krr(y, x, kernel, 0.02)
    r_y = residuals(forward, x, y)
    r_x = residuals(backward, y, x)
    forward = fit_krr(x, y, kernel, 0.02)
print(first, peak())
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc; the heap it checks is glibc's")
def test_repeated_fits_reuse_one_system_buffer():
    # a vector that outlives the n x n system but is allocated after it
    # splits the space the freed system leaves, and the next n x n buffer
    # then grows the peak by one more buffer (8 MB here)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _REUSE_PROBE], env=env, capture_output=True, text=True, check=True)
    first, last = map(int, out.stdout.split())
    assert last - first < 1000 * 1000 * 8 / 2 / 1024


def failing_solve(monkeypatch, failures):
    """Routines whose first ``failures`` solves overwrite their triangle
    and then report a non-positive-definite minor; returns the list of
    factored buffers."""
    posv, calls = _blas.cholesky_routines().solve, []

    def solve(a, b):
        calls.append(a)
        info = posv(a, b)
        return 1 if len(calls) <= failures else info

    with_routines(monkeypatch, solve=solve)
    return calls


def test_retry_after_a_failed_factorization_is_the_jittered_textbook_solve(monkeypatch):
    # the first factorization overwrites its triangle before it fails, so
    # the retry must not reuse that buffer
    calls = failing_solve(monkeypatch, 1)
    rng = np.random.default_rng(37)
    kernel = KernelSpec(0.3)
    for n in (1, 5, 257):
        x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        calls.clear()
        got = fit_krr(x, y, kernel, 0.02).dual_coefficients
        assert len(calls) == 2 and calls[0] is not calls[1]
        expected = reference_dual(x, y, kernel, 0.02, jitter=regression._JITTER)
        assert np.array_equal(got, expected), n


def test_a_factorization_that_fails_twice_raises_linalgerror(monkeypatch):
    # the class scipy.linalg raised, reported at the fit's stage
    calls = failing_solve(monkeypatch, 2)
    x = np.linspace(-1, 1, 20)
    with pytest.raises(np.linalg.LinAlgError) as raised:
        fit_krr(x, np.sin(x), KernelSpec(0.3), 0.1)
    assert len(calls) == 2
    assert _error_site(raised.value) == "LinAlgError in regression.fit_krr"


def test_dual_gap_reads_the_posed_system(monkeypatch):
    x = np.linspace(-1, 1, 20)
    y = np.sin(x)
    kernel = KernelSpec(0.3)
    wrong = reference_dual(x, y, kernel, 0.1)
    wrong[7] += 1e-6
    # factored in place as usual, so the gap must read the other triangle
    with_routines(monkeypatch, solve=solve_then_write(wrong))
    with pytest.raises(ArithmeticError):
        fit_krr(x, y, kernel, 0.1)


def test_bundled_routines_are_bitwise_the_scipy_fallback(monkeypatch):
    if _blas.cholesky_routines() is _blas.SCIPY_CHOLESKY:
        pytest.skip("scipy bundles no OpenBLAS with the Cholesky routines here")
    rng = np.random.default_rng(41)
    kernel = KernelSpec(0.3)
    cases = []
    for n in (1, 2, 5, 257, 1000):
        for kind in ("continuous", "tied", "integer", "strided"):
            x, y = rng.uniform(-1, 1, 2 * n), rng.uniform(-1, 1, 2 * n)
            if kind == "tied":
                x, y = np.round(x, 2), np.round(y, 2)
            elif kind == "integer":
                x, y = rng.integers(-2, 3, 2 * n) / 2.0, rng.integers(-2, 3, 2 * n) / 2.0
            # strided views are handed over as they are; the rest is cut to n
            x, y = (x[::2], y[::2]) if kind == "strided" else (x[:n], y[:n])
            for lam in (0.02, 0.5):
                cases.append(((n, kind, lam), x, y, lam))
    bundled = [fit_krr(x, y, kernel, lam).dual_coefficients for _, x, y, lam in cases]
    monkeypatch.setattr(_blas, "openblas_libraries", lambda: ())
    assert _blas.cholesky_routines() is _blas.SCIPY_CHOLESKY
    for (label, x, y, lam), got in zip(cases, bundled):
        assert np.array_equal(got, fit_krr(x, y, kernel, lam).dual_coefficients), label


@pytest.mark.parametrize("entry", [(3, 11), (11, 3), (6, 6)])
def test_a_nan_in_the_gram_is_not_returned_as_a_model(entry, monkeypatch):
    # with no finiteness scan, a NaN in the triangle posv reads reaches
    # alpha (or fails the factorization, a LinAlgError, where LAPACK checks
    # the pivots for NaN) and a NaN in the other triangle reaches the gap
    build = KernelSpec.matrix

    def poisoned(self, u, v):
        gram = build(self, u, v)
        gram[entry] = np.nan
        return gram

    monkeypatch.setattr(KernelSpec, "matrix", poisoned)
    x = np.linspace(-1, 1, 20)
    with pytest.raises((ArithmeticError, ValueError)):
        fit_krr(x, np.sin(x), KernelSpec(0.3), 0.1)


def grid_inputs(kind, n, rng):
    """n pairs of one of the input kinds the low-rank route is checked on."""
    x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    if kind == "tied":
        x, y = np.round(x, 2), np.round(y, 2)
    elif kind == "integer":
        x, y = rng.integers(-2, 3, n) / 2.0, rng.integers(-2, 3, n) / 2.0
    elif kind == "equal":
        x = np.full(n, 0.25)
    return x, y


# the smallest fit that takes the landmark route at every bandwidth of
# these tests: RANK_CAP_DIVISOR times the rank at 0.08, the narrowest
ROUTE_SIZE = scores.RANK_CAP_DIVISOR * KernelSpec(0.08).landmarks(1.0, 10**6)[0].size


def fill_shapes(monkeypatch):
    """The shape of every buffer KernelSpec.fill writes during the test."""
    shapes, fill = [], KernelSpec.fill

    def recording_fill(self, out, u, v):
        shapes.append(out.shape)
        return fill(self, out, u, v)

    monkeypatch.setattr(KernelSpec, "fill", recording_fill)
    return shapes


def low_rank_attempts(monkeypatch):
    """One entry per low-rank attempt: the rank of the landmark factor its
    fit came from, or None where it fell back."""
    attempts = []
    fit = regression._low_rank_fit

    def recording_fit(*args):
        fitted = fit(*args)
        attempts.append(None if fitted is None else fitted.pivots[0].size)
        return fitted

    monkeypatch.setattr(regression, "_low_rank_fit", recording_fit)
    return attempts


@pytest.mark.parametrize("n", [ROUTE_SIZE, 1000, 2000])
def test_low_rank_fit_predicts_as_the_exact_fit(n, monkeypatch):
    # every case takes the route through the cached landmarks of its
    # bandwidth, whatever the inputs, at a rank below the n/4 cap, and its
    # held-out residuals are those of the exact solve to 1e-10
    # on single-threaded BLAS, as every decision fits: on a busy machine
    # the default thread count made the larger cases many times slower
    attempts = low_rank_attempts(monkeypatch)
    rng = np.random.default_rng(43)
    worst = 0.0
    with _blas.single_threaded_blas():
        for kind in ("continuous", "tied", "integer", "equal"):
            x, y = grid_inputs(kind, n, rng)
            x_eval, y_eval = grid_inputs(kind, 200, rng)
            for bandwidth in (0.08, 0.3, 1.0):
                kernel = KernelSpec(bandwidth)
                landmarks = kernel.landmarks(1.0, n)
                for lam in (1e-3, 0.02, 1.0):
                    attempts.clear()
                    fast = fit_krr(x, y, kernel, lam, low_rank=True)
                    assert len(attempts) == 1 and attempts[0] is not None, (kind, bandwidth, lam)
                    assert all(a is b for a, b in zip(fast.pivots[:2], landmarks))
                    assert attempts[0] <= n // scores.RANK_CAP_DIVISOR
                    exact = fit_krr(x, y, kernel, lam)
                    gap = np.max(np.abs(residuals(fast, x_eval, y_eval) - residuals(exact, x_eval, y_eval)))
                    assert gap <= 1e-10, (kind, bandwidth, lam, gap)
                    worst = max(worst, gap)
    assert worst > 0.0  # the route ran, and it is not the exact solve


def test_low_rank_pivot_columns_are_filled_in_place(monkeypatch, fresh_landmarks):
    # each landmark column is written straight into its factor row on the
    # grid, and the features into one r x n buffer, whose transpose is the
    # n x r Fortran-order Phi; the unit diagonal needs no kernel call: the
    # fit builds no Gram block through the checked KernelSpec.matrix
    attempts = low_rank_attempts(monkeypatch)
    grams = count_calls(monkeypatch, KernelSpec, "matrix")
    shapes = fill_shapes(monkeypatch)
    x, y = grid_inputs("continuous", 1000, np.random.default_rng(43))
    fit_krr(x, y, KernelSpec(0.08), 0.02, low_rank=True)
    r = attempts[0]
    assert r is not None and r > 0
    assert grams == {"matrix": 0}
    grid = 2 * scores.LANDMARK_STEPS * math.ceil(1 / 0.08) + 1
    assert shapes == [(1, grid)] * r + [(r, 1000)]


def test_low_rank_fit_forms_no_n_by_n_matrix(peak_buffers):
    rng = np.random.default_rng(47)
    x, y = rng.uniform(-1, 1, 1000), rng.uniform(-1, 1, 1000)
    # the factor's rows are allocated up to the n/4 cap
    fit = lambda: fit_krr(x, y, KernelSpec(0.08), 0.02, low_rank=True)
    assert peak_buffers(1000 * 1000 * 8, fit) <= 0.3


def test_below_the_minimum_size_no_pivot_is_computed(monkeypatch, fresh_landmarks):
    # below RANK_CAP_DIVISOR times the rank floor 4L + 1, L = ceil(1 / h),
    # no landmark is built; below RANK_CAP_DIVISOR times the rank the
    # cached landmarks are refused; either way the fit is the textbook
    # solve, bit for bit
    attempts = low_rank_attempts(monkeypatch)
    factors = factor_calls(monkeypatch)
    features = count_calls(monkeypatch, KernelSpec, "features")
    rng = np.random.default_rng(53)
    kernel = KernelSpec(0.3)
    floor = scores.RANK_CAP_DIVISOR * (4 * math.ceil(1 / 0.3) + 1)
    for n in (1, 5, floor - 1):
        x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        got = fit_krr(x, y, kernel, 0.02, low_rank=True).dual_coefficients
        assert np.array_equal(got, reference_dual(x, y, kernel, 0.02)), n
    assert fresh_landmarks.cache_info().currsize == 0
    rank = kernel.landmarks(1.0, 10**6)[0].size
    x, y = rng.uniform(-1, 1, (2, scores.RANK_CAP_DIVISOR * rank - 1))
    got = fit_krr(x, y, kernel, 0.02, low_rank=True).dual_coefficients
    assert np.array_equal(got, reference_dual(x, y, kernel, 0.02))
    # each fit tried the route and got no landmarks, the first three with
    # no kernel column filled and the last from the cache; no feature was
    # computed
    assert attempts == [None] * 4
    assert factors == [(0, False)] * 3 + [(rank, True), (0, False)]
    assert features == {"features": 0}


def test_the_landmark_factor_reads_no_data(fresh_landmarks):
    # training sets of any size and spread at one bandwidth fit through
    # the very same cached (Z, U), built once, under the key L = ceil(1 / h)
    # alone; another bandwidth with the same L shares it, and one with
    # another L builds its own, once
    rng = np.random.default_rng(79)
    fits = []
    cases = ((0.08, 600, 1.0), (0.3, 600, 1.0), (0.08, 900, 0.5), (0.3, 400, 0.2), (0.26, 500, 1.0))
    for bandwidth, n, spread in cases:
        x = rng.uniform(-spread, spread, n)
        fits.append(fit_krr(x, np.sin(3 * x), KernelSpec(bandwidth), 0.02, low_rank=True))
    for first, second in ((0, 2), (1, 3), (1, 4)):
        assert all(a is b for a, b in zip(fits[first].pivots[:2], fits[second].pivots[:2]))
    assert fits[0].pivots[0] is not fits[1].pivots[0]
    info = fresh_landmarks.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    # U'U is the landmarks' unit-bandwidth Gram matrix, and the shared
    # arrays are read-only
    inputs, factor = fits[0].pivots[:2]
    upper = np.triu(factor)
    assert np.allclose(upper.T @ upper, KernelSpec(1.0).matrix(inputs, inputs), rtol=0.0, atol=1e-12)
    assert not (inputs.flags.writeable or factor.flags.writeable)


def test_a_bandwidth_too_small_for_the_cap_fills_no_column(monkeypatch, fresh_landmarks):
    # at bandwidth 0.01 the rank floor alone passes the n/4 cap: the fit is
    # the exact one, bit for bit, and it fills no landmark or data pivot
    # column, only the n x n Gram matrix of the exact solve
    rng = np.random.default_rng(83)
    x, y = rng.uniform(-1, 1, (2, 1000))
    kernel = KernelSpec(0.01)
    exact = fit_krr(x, y, kernel, 0.02)
    shapes = fill_shapes(monkeypatch)
    model = fit_krr(x, y, kernel, 0.02, low_rank=True)
    assert model.pivots is None
    assert np.array_equal(model.dual_coefficients, exact.dual_coefficients)
    assert shapes == [(1000, 1000)]
    assert fresh_landmarks.cache_info().currsize == 0


def fallback_cases():
    rng = np.random.default_rng(59)
    for n in (ROUTE_SIZE, 1000):
        x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        yield n, x, y


def test_a_rank_past_the_cap_falls_back_to_the_exact_fit(monkeypatch):
    # bandwidth 0.01 puts the numerical rank above n/4
    attempts = low_rank_attempts(monkeypatch)
    kernel = KernelSpec(0.01)
    for n, x, y in fallback_cases():
        attempts.clear()
        got = fit_krr(x, y, kernel, 0.02, low_rank=True).dual_coefficients
        assert attempts == [None]
        assert np.array_equal(got, fit_krr(x, y, kernel, 0.02).dual_coefficients), n


def test_a_failed_certificate_falls_back_to_the_exact_fit(monkeypatch, fresh_landmarks):
    kernel = KernelSpec(0.3)
    exact = {n: fit_krr(x, y, kernel, 0.02).dual_coefficients for n, x, y in fallback_cases()}
    attempts = low_rank_attempts(monkeypatch)
    posv = _blas.cholesky_routines().solve
    rank = kernel.landmarks(1.0, 10**6)[0].size

    def nudged_small_solve(a, b):
        # the r x r solve of the Woodbury step comes back slightly wrong
        info = posv(a, b)
        if a.shape[0] == rank:
            b[0] += 1e-6
        return info

    with monkeypatch.context() as patched:
        with_routines(patched, solve=nudged_small_solve)
        for n, x, y in fallback_cases():
            attempts.clear()
            got = fit_krr(x, y, kernel, 0.02, low_rank=True).dual_coefficients
            assert attempts == [None] and np.array_equal(got, exact[n]), n
    # pivoting stopped early leaves a trace the certificate does not cover
    monkeypatch.setattr(scores, "_PIVOT_FLOOR", 0.5)
    fresh_landmarks.cache_clear()
    for n, x, y in fallback_cases():
        attempts.clear()
        got = fit_krr(x, y, kernel, 0.02, low_rank=True).dual_coefficients
        assert attempts == [None] and np.array_equal(got, exact[n]), n


def pivot_bounds(model, xq):
    """Each query point's bound sqrt(d) sqrt(tau) ||alpha||_2 on the error
    of a low-rank fit's landmark prediction, with the remaining diagonal d
    from scipy's triangular solve, padded as the fit pads it, and tau the
    sum of d over the training inputs, padded as the fit pads it."""
    x, (inputs, factor, _, _) = model.train_inputs, model.pivots
    r, eps, h = inputs.size, np.finfo(float).eps, model.kernel.bandwidth

    def remaining(points):
        phi = solve_triangular(factor, KernelSpec(1.0).matrix(points / h, inputs).T, trans=1)
        return np.maximum(1.0 - np.sum(phi * phi, axis=0), 0.0)

    trace = float(np.sum(remaining(x))) + x.size * r * eps
    d = remaining(xq) + r * eps
    return np.sqrt(d) * math.sqrt(trace) * np.linalg.norm(model.dual_coefficients)


def exact_prediction(model, xq):
    return model.kernel.matrix(xq, model.train_inputs) @ model.dual_coefficients


@pytest.mark.parametrize("n", [ROUTE_SIZE, 1000, 2000])
def test_pivot_prediction_is_within_each_points_certificate(n):
    # on the grid of the low-rank fit's own test, every held-out point is
    # certified, and its pivot prediction is within its bound of the
    # exact k(x', X) alpha
    rng = np.random.default_rng(43)
    worst = 0.0
    with _blas.single_threaded_blas():
        for kind in ("continuous", "tied", "integer", "equal"):
            x, y = grid_inputs(kind, n, rng)
            x_eval = grid_inputs(kind, 200, rng)[0]
            for bandwidth in (0.08, 0.3, 1.0):
                for lam in (1e-3, 0.02, 1.0):
                    model = fit_krr(x, y, KernelSpec(bandwidth), lam, low_rank=True)
                    bounds = pivot_bounds(model, x_eval)
                    assert np.all(bounds <= regression._DUAL_TOL), (kind, bandwidth, lam)
                    error = np.abs(predict(model, x_eval) - exact_prediction(model, x_eval))
                    assert np.all(error <= bounds), (kind, bandwidth, lam, np.max(error / bounds))
                    worst = max(worst, float(error.max()))
    assert worst > 0.0  # the pivots predicted, not the exact route


def exact_rows(monkeypatch, n):
    """The query points of every 1 x n kernel row filled, the exact
    prediction of one point."""
    points, fill = [], KernelSpec.fill

    def recording_fill(self, out, u, v):
        if out.shape == (1, n):
            points.append(float(u[0]))
        return fill(self, out, u, v)

    monkeypatch.setattr(KernelSpec, "fill", recording_fill)
    return points


def test_a_point_the_pivots_cannot_certify_alone_is_predicted_exactly(monkeypatch):
    # the landmarks cover [-1.04, 1.04], so at bandwidth 0.08 the remaining
    # diagonal at 1.5 or -1.3, outside the box, is near 1 and its bound
    # fails; that point alone is predicted exactly, and the others keep
    # their bits
    rng = np.random.default_rng(67)
    x = rng.uniform(-1, 1, 1000)
    model = fit_krr(x, np.sin(3 * x), KernelSpec(0.08), 0.02, low_rank=True)
    assert model.pivots is not None
    xq = rng.uniform(-1, 1, 200)
    points = exact_rows(monkeypatch, x.size)
    inside = predict(model, xq)
    assert points == []
    for j, value in ((17, 1.5), (199, -1.3)):
        moved = xq.copy()
        moved[j] = value
        points.clear()
        got = predict(model, moved)
        assert points == [value]
        assert pivot_bounds(model, moved[j : j + 1])[0] > regression._DUAL_TOL
        assert got[j] == model.kernel.matrix(moved[j : j + 1], x)[0] @ model.dual_coefficients
        others = np.arange(xq.size) != j
        assert np.array_equal(got[others], inside[others]), j


def test_a_held_out_substitution_moves_only_its_own_residual(monkeypatch):
    # at --target test the fits are low-rank and the held-out half is the
    # protected one: replacing one held-out pair leaves every other
    # residual's bits alone, whichever route that pair and the others take
    rng = np.random.default_rng(71)
    x = rng.uniform(-1, 1, 1000)
    train = SamplePairs(x, np.clip(x**3 + 0.1 * rng.uniform(-1, 1, x.size), -1, 1), id="gap|train")
    x_test = rng.uniform(-1.5, 1.5, 300)
    test = SamplePairs(x_test, np.clip(x_test**3 + 0.1 * rng.uniform(-1, 1, 300), -1, 1), id="gap|test")
    points = exact_rows(monkeypatch, x.size)
    kernel = KernelSpec(0.08)
    base = anm_infer_detailed(SplitData(train, test), ScoreKind.KENDALL_TAU, kernel, 0.02)
    assert points  # held-out x outside [-1, 1], beyond the landmarks, are predicted exactly
    inside, outside = np.flatnonzero(np.abs(x_test) < 0.9)[0], np.flatnonzero(x_test > 1.2)[0]
    cases = ((inside, (1.4, 0.8)), (outside, (0.0, 0.05)), (inside, (-0.3, -0.1)), (inside, (0.2, -1.4)))
    for j, (new_x, new_y) in cases:
        xs, ys = x_test.copy(), test.y.copy()
        xs[j], ys[j] = new_x, new_y
        moved = SplitData(train, SamplePairs(xs, ys, id="gap|moved"))
        report = anm_infer_detailed(moved, ScoreKind.KENDALL_TAU, kernel, 0.02)
        others = np.arange(xs.size) != j
        assert np.array_equal(report.residuals_y[others], base.residuals_y[others]), j
        assert np.array_equal(report.residuals_x[others], base.residuals_x[others]), j
