"""The audit engines themselves: fast paths vs naive recomputation."""
import numpy as np
import pytest

from privcause.audits import (
    laplace_ratio_audit,
    mc_four_score_rate,
    mc_two_score_rate,
    residual_shift_max,
    substitution_audit,
    substitution_audit_naive,
)
from privcause.inference import utility_four_score, utility_two_score
from privcause.privacy import derive_rng, laplace_sample
from privcause.privacy import test_sensitivity as held_out_sensitivity
from privcause.regression import residual_perturbation_bound
from privcause.scores import KernelSpec, ScoreKind, UnsupportedScoreError


def test_fast_audit_matches_naive_recomputation():
    rng = np.random.default_rng(17)
    kernels = (KernelSpec(0.5), KernelSpec(0.5))
    for kind in (ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC):
        for _ in range(4):
            m = int(rng.integers(5, 14))
            a = rng.uniform(-1, 1, m)
            b = np.tanh(2 * a) + 0.3 * rng.uniform(-1, 1, m)
            cand = np.linspace(-1, 1, 7)
            fast = substitution_audit(kind, a, b, cand, kernels=kernels)
            slow = substitution_audit_naive(kind, a, b, cand, kernels=kernels)
            assert fast == pytest.approx(slow, abs=1e-12)


def test_kendall_bound_is_attained_on_correlated_inputs():
    # monotone-ish pairs put every concordant pair at stake, so one
    # substitution can move tau by the full 4/m; uniform pairs reach ~0.78 of it
    rng = derive_rng(0, "audit", "kendall", 10, 0)
    a = rng.uniform(-1.0, 1.0, 10)
    b = np.clip(np.tanh(3.0 * a) + 0.3 * rng.uniform(-1.0, 1.0, 10), -1.0, 1.0)
    kernels = (KernelSpec(0.5), KernelSpec(0.5))
    worst = substitution_audit(ScoreKind.KENDALL_TAU, a, b, np.linspace(-1, 1, 50), kernels=kernels)
    bound = held_out_sensitivity(ScoreKind.KENDALL_TAU, 10)
    assert bound == pytest.approx(0.4, rel=1e-12)
    assert worst == pytest.approx(bound, rel=1e-12)


def test_audit_argument_validation():
    a = np.linspace(-1, 1, 8)
    with pytest.raises(ValueError):
        substitution_audit(ScoreKind.HSIC, a, a, [0.0])  # kernels missing
    with pytest.raises(ValueError):
        substitution_audit(ScoreKind.KENDALL_TAU, a, a, [])
    with pytest.raises(UnsupportedScoreError):
        substitution_audit(ScoreKind.IQR, a, a, [0.0])


def test_residual_shift_stays_under_bound():
    rng = np.random.default_rng(29)
    n, lam = 60, 0.5
    x_tr = rng.uniform(-1, 1, n)
    y_tr = rng.uniform(-1, 1, n)
    x_ev = rng.uniform(-1, 1, 20)
    corners = [(u, v) for u in (-1.0, 0.0, 1.0) for v in (-1.0, 0.0, 1.0)]
    worst = max(
        residual_shift_max(x_tr, y_tr, x_ev, KernelSpec(1.0), lam, i, corners)
        for i in (0, n // 2, n - 1)
    )
    assert worst <= residual_perturbation_bound(n, lam)
    with pytest.raises(ValueError):
        residual_shift_max(x_tr, y_tr, x_ev, KernelSpec(1.0), lam, n, corners)


def test_ratio_audit_accepts_identical_mechanisms():
    scale = 0.04
    a = laplace_sample(scale, derive_rng(51, "a"), size=200_000)
    b = 0.001 + laplace_sample(scale, derive_rng(51, "b"), size=200_000)
    # one substitution moved the statistic by less than the sensitivity,
    # so the output distributions must stay e^eps-close
    result = laplace_ratio_audit(a, b, epsilon=1.0)
    assert result.max_excess <= 0.0


def test_ratio_audit_flags_blatant_violation():
    a = laplace_sample(1.0, derive_rng(52, "a"), size=200_000)
    b = 5.0 + laplace_sample(1.0, derive_rng(52, "b"), size=200_000)
    result = laplace_ratio_audit(a, b, epsilon=1.0)
    assert result.max_excess > 0.0
    with pytest.raises(ValueError):
        laplace_ratio_audit(a[:10], b[:10], epsilon=1.0)


def test_mc_rates_track_closed_forms():
    draws = 200_000
    got2 = mc_two_score_rate(0.1, 0.1, draws, derive_rng(53, "two"))
    assert got2 == pytest.approx(utility_two_score(0.1, 0.1), abs=0.005)
    got4 = mc_four_score_rate(0.1, 0.1, draws, derive_rng(53, "four"))
    assert got4 == pytest.approx(utility_four_score(0.1, 0.1), abs=0.005)
