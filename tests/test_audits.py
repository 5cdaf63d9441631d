"""The audit engines themselves: fast paths vs naive recomputation."""
import numpy as np
import pytest

from privcause._arrays import double_center_in_place, paired
from privcause.audits import (
    laplace_ratio_audit,
    mc_four_score_rate,
    mc_two_score_rate,
    residual_shift_max,
    substitution_audit,
)
from privcause.inference import utility_four_score, utility_two_score
from privcause.privacy import derive_rng, laplace_sample
from privcause.privacy import test_sensitivity as held_out_sensitivity
from privcause.regression import residual_perturbation_bound
from privcause.scores import (
    KernelSpec,
    ScoreKind,
    UnsupportedScoreError,
    hsic,
    kendall_tau,
    spearman_rho,
)


def reference_substitution_audit(kind, a, b, candidates, kernels=None):
    """Recompute the score for every single-substitution variant."""
    va, vb = paired(a, b)
    cand = np.asarray(candidates, dtype=float).ravel()

    def score(u, w):
        if kind is ScoreKind.SPEARMAN_RHO:
            return spearman_rho(u, w)
        if kind is ScoreKind.KENDALL_TAU:
            return kendall_tau(u, w)
        if kind is ScoreKind.HSIC:
            return hsic(u, w, kernels[0], kernels[1])
        raise UnsupportedScoreError(f"no substitution audit for {kind.value}")

    s0 = score(va, vb)
    worst = 0.0
    for vec, fixed, first in ((va, vb, True), (vb, va, False)):
        for i in range(vec.size):
            for v in cand:
                mod = vec.copy()
                mod[i] = v
                s1 = score(mod, fixed) if first else score(fixed, mod)
                worst = max(worst, abs(s1 - s0))
    return worst


def audit_inputs(rng):
    """(a, b, candidates) sets: four small continuous ones, then m up to
    40, continuous and tied (data and candidates on a 0.1 grid, so that
    candidates equal data values)."""
    for _ in range(4):
        m = int(rng.integers(5, 14))
        a = rng.uniform(-1, 1, m)
        yield a, np.tanh(2 * a) + 0.3 * rng.uniform(-1, 1, m), np.linspace(-1, 1, 7)
    for m, tied in ((23, False), (40, False), (17, True), (31, True), (40, True)):
        a = rng.uniform(-1, 1, m)
        b = np.tanh(2 * a) + 0.3 * rng.uniform(-1, 1, m)
        cand = np.linspace(-1, 1, 21)
        if tied:
            a, b, cand = (np.round(v, 1) for v in (a, b, cand))
        yield a, b, cand


def test_fast_audit_matches_naive_recomputation():
    rng = np.random.default_rng(17)
    kernels = (KernelSpec(0.5), KernelSpec(0.5))
    for kind in (ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC):
        for a, b, cand in audit_inputs(rng):
            fast = substitution_audit(kind, a, b, cand, kernels=kernels)
            slow = reference_substitution_audit(kind, a, b, cand, kernels=kernels)
            if kind is ScoreKind.HSIC:
                assert fast == pytest.approx(slow, abs=1e-12)
            else:
                # the rank audits are integer updates: the same bits
                assert fast == slow


def reference_hsic_substitution_max(a, b, candidates, kernels):
    """The substitution algebra on whole Gram matrices and their product."""
    m = a.size
    worst = 0.0
    for vec, other, ker_v, ker_o in ((a, b, *kernels), (b, a, *kernels[::-1])):
        gram_v = ker_v.matrix(vec, vec)
        centered_o = double_center_in_place(ker_o.matrix(other, other))
        base = (gram_v * centered_o).sum(axis=1)
        kv = ker_v.matrix(candidates, vec)
        dot = kv @ centered_o.T
        diag = np.diag(centered_o)
        delta = 2.0 * (dot + (1.0 - kv) * diag[None, :] - base[None, :]) / (m - 1) ** 2
        worst = max(worst, float(np.abs(delta).max()))
    return worst


@pytest.mark.parametrize("m", [256, 257, 600])
def test_hsic_audit_in_row_blocks_is_bitwise_the_whole_matrix_algebra(m):
    # 256 rows are one block; 257 and 600 end on a ragged block
    rng = np.random.default_rng(m)
    a = rng.uniform(-1, 1, m)
    b = np.tanh(2 * a) + 0.3 * rng.uniform(-1, 1, m)
    kernels = (KernelSpec(0.5), KernelSpec(0.23))
    cand = np.linspace(-1, 1, 7)
    got = substitution_audit(ScoreKind.HSIC, a, b, cand, kernels=kernels)
    assert got == reference_hsic_substitution_max(a, b, cand, kernels)


def test_hsic_audit_peak_memory(peak_buffers):
    # only the centered Gram matrix is held whole; the whole-matrix
    # algebra holds about four
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 400)
    args = (ScoreKind.HSIC, a, b, np.linspace(-1, 1, 9), (KernelSpec(0.5), KernelSpec(0.5)))
    assert peak_buffers(400 * 400 * 8, substitution_audit, *args) <= 1.6


@pytest.mark.parametrize("kind", [ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU])
def test_rank_audit_peak_memory(peak_buffers, kind):
    # the pair-only update holds a few m x candidates x m integer arrays,
    # not an m x m array per substituted vector
    m, n_cand = 60, 50
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
    args = (kind, a, b, np.linspace(-1, 1, n_cand))
    assert peak_buffers(m * n_cand * m * 8, substitution_audit, *args) <= 6


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
    assert laplace_ratio_audit(a, b, epsilon=1.0) <= 0.0


def test_ratio_audit_flags_blatant_violation():
    a = laplace_sample(1.0, derive_rng(52, "a"), size=200_000)
    b = 5.0 + laplace_sample(1.0, derive_rng(52, "b"), size=200_000)
    assert laplace_ratio_audit(a, b, epsilon=1.0) > 0.0
    with pytest.raises(ValueError):
        laplace_ratio_audit(a[:10], b[:10], epsilon=1.0)


def test_mc_rates_track_closed_forms():
    draws = 200_000
    got2 = mc_two_score_rate(0.1, 0.1, draws, derive_rng(53, "two"))
    assert got2 == pytest.approx(utility_two_score(0.1, 0.1), abs=0.005)
    got4 = mc_four_score_rate(0.1, 0.1, draws, derive_rng(53, "four"))
    assert got4 == pytest.approx(utility_four_score(0.1, 0.1), abs=0.005)
