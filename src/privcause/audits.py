"""Empirical verification engines for the sensitivity and utility claims.

Everything here answers one of three questions by brute force or algebra:
how much can a score move when one sample is substituted, how much can a
residual move when one training pair is substituted, and do the noisy
mechanisms actually deliver the promised distributions.  These routines
are deliberately independent of the bound formulas they are used to
check; the fast substitution paths are exact algebraic rewrites of a
full recompute, which ``tests/test_audits.py`` keeps as
``reference_substitution_audit`` and compares against.  The ratio audit
returns one number, its largest excess over the e^eps bound.
"""
from __future__ import annotations

import numpy as np

from ._arrays import double_center_in_place, paired, row_blocks
from .privacy import laplace_sample
from .regression import fit_krr, predict
from .scores import (
    KernelSpec,
    ScoreKind,
    UnsupportedScoreError,
    kendall_tau,
    rank_vector,
    spearman_rho,
)

__all__ = [
    "substitution_audit",
    "residual_shift_max",
    "laplace_ratio_audit",
    "mc_two_score_rate",
    "mc_four_score_rate",
]

RATIO_AUDIT_BINS = 30


def _rank_substitution_scores(kind: ScoreKind, vec, other, cand) -> np.ndarray:
    """Rank score of (vec with vec[i] = c, other) for every index i and
    candidate c, as an (m, candidates) array.

    Stable ranks order entries by value, then position, as
    scores.rank_vector does, so substituting entry i changes only the
    order of the m - 1 pairs that contain i.  With old[i, j] "i sorts
    before j" and new[i, c, j] "c placed at i sorts before j", Kendall's
    C - D moves by 2 sum_j (new - old) sign(q_j - q_i) for the fixed ranks
    q; for Spearman every other rank moves by new - old and rank i becomes
    m - sum_j new.  All in integers, so each score is the float expression
    of the full recompute on the same integers.
    """
    m = vec.size
    pos = np.arange(m)
    p, q = rank_vector(vec), rank_vector(other)
    old = p[:, None] < p[None, :]
    at = cand[None, :, None]
    new = (at < vec) | ((at == vec) & (pos[:, None, None] < pos))
    new[pos, :, pos] = False
    moved = new.astype(np.int64) - old[:, None, :]
    if kind is ScoreKind.KENDALL_TAU:
        sign = np.sign(q[None, :] - q[:, None])
        cd = int((np.where(old, 1, -1) * sign).sum()) // 2
        return np.abs(cd + 2 * np.einsum("icj,ij->ic", moved, sign)) / (m * (m - 1) / 2.0)
    ranks = p + moved
    ranks[pos, :, pos] = m - new.sum(axis=2)
    d2 = ((ranks - q) ** 2).sum(axis=2)
    return np.abs(1.0 - 6.0 * d2 / (m * (m * m - 1.0)))


def _hsic_side_max(vec, other, candidates, ker_v, ker_o) -> float:
    """Exact max |HSIC change| over single substitutions in ``vec``.

    Only row/column i of the Gram matrix of ``vec`` changes, so the new
    score is the old one plus 2 <k_new - k_old, row i of the centered
    other matrix> (the diagonal entry stays 1).  This is algebra, not
    approximation.  As in :func:`hsic`, only the centered Gram matrix of
    ``other`` is held whole: the candidate terms read it first, then the
    Gram matrix of ``vec`` is multiplied into it one row block at a time,
    and its row sums are the row sums of the textbook product, bit for bit.
    """
    m = vec.size
    kv = ker_v.matrix(candidates, vec)
    centered_o = double_center_in_place(ker_o.matrix(other, other))
    shift = kv @ centered_o.T + (1.0 - kv) * np.diag(centered_o)[None, :]
    for rows in row_blocks(m, m):
        centered_o[rows] *= ker_v.matrix(vec[rows], vec)
    base = centered_o.sum(axis=1)
    delta = 2.0 * (shift - base[None, :]) / (m - 1) ** 2
    return float(np.abs(delta).max())


def substitution_audit(
    kind: ScoreKind,
    a,
    b,
    candidates,
    kernels: tuple[KernelSpec, KernelSpec] | None = None,
) -> float:
    """Max |score change| over every index, coordinate, and candidate value.

    The rank audits are an exact integer pair-only update, O(m) per
    (index, candidate) (:func:`_rank_substitution_scores`); HSIC updates
    one Gram row (:func:`_hsic_side_max`).  Both are checked against
    ``reference_substitution_audit`` in ``tests/test_audits.py``, which
    recomputes the score for every variant.
    """
    va, vb = paired(a, b)
    cand = np.asarray(candidates, dtype=float).ravel()
    if cand.size == 0:
        raise ValueError("need at least one candidate value")
    if kind is ScoreKind.HSIC:
        if kernels is None:
            raise ValueError("kernel dependence audit needs the kernel pair")
        ka, kb = kernels
        return max(_hsic_side_max(va, vb, cand, ka, kb), _hsic_side_max(vb, va, cand, kb, ka))
    rank_scores = {ScoreKind.SPEARMAN_RHO: spearman_rho, ScoreKind.KENDALL_TAU: kendall_tau}
    if kind not in rank_scores:
        raise UnsupportedScoreError(f"no substitution audit for {kind.value}")
    s0 = rank_scores[kind](va, vb)
    return max(
        float(np.abs(_rank_substitution_scores(kind, vec, other, cand) - s0).max())
        for vec, other in ((va, vb), (vb, va))
    )


def residual_shift_max(
    x_train,
    y_train,
    x_eval,
    kernel: KernelSpec,
    lam: float,
    index: int,
    replacements,
) -> float:
    """Max |prediction change| at the eval points when training pair
    ``index`` is replaced by each (x, y) in ``replacements``.

    Since the test targets are fixed, the residual change equals the
    prediction change; this is the quantity residual_perturbation_bound
    promises to dominate.
    """
    x_tr = np.asarray(x_train, dtype=float)
    y_tr = np.asarray(y_train, dtype=float)
    if not 0 <= index < x_tr.size:
        raise ValueError(f"index {index} out of range for n={x_tr.size}")
    base = predict(fit_krr(x_tr, y_tr, kernel, lam), x_eval)
    worst = 0.0
    for rx, ry in replacements:
        mx, my = x_tr.copy(), y_tr.copy()
        mx[index], my[index] = rx, ry
        shifted = predict(fit_krr(mx, my, kernel, lam), x_eval)
        worst = max(worst, float(np.abs(shifted - base).max()))
    return worst


def laplace_ratio_audit(samples_a, samples_b, epsilon: float) -> float:
    """Per-bin likelihood-ratio check between two mechanism output samples.

    Returns the largest value of p_hat_one - e^eps * p_hat_other - 3 * se
    over the RATIO_AUDIT_BINS equal-width bins spanning both samples and
    both orderings; <= 0 means the empirical distributions are consistent
    with eps-indistinguishability.
    """
    sa = np.asarray(samples_a, dtype=float)
    sb = np.asarray(samples_b, dtype=float)
    if sa.size < 1000 or sb.size < 1000:
        raise ValueError("ratio audit needs large samples")
    lo = min(sa.min(), sb.min())
    hi = max(sa.max(), sb.max())
    edges = np.linspace(lo, hi, RATIO_AUDIT_BINS + 1)
    pa = np.histogram(sa, bins=edges)[0] / sa.size
    pb = np.histogram(sb, bins=edges)[0] / sb.size
    grow = float(np.exp(epsilon))
    max_excess = -np.inf
    for one, other, n_one, n_other in ((pa, pb, sa.size, sb.size), (pb, pa, sb.size, sa.size)):
        se = np.sqrt(
            one * (1.0 - one) / n_one + grow**2 * other * (1.0 - other) / n_other
        )
        excess = one - grow * other - 3.0 * se
        max_excess = max(max_excess, float(excess.max()))
    return max_excess


def mc_two_score_rate(gamma: float, sigma: float, draws: int, rng: np.random.Generator) -> float:
    """Monte Carlo oracle for utility_two_score: the fraction of draws in
    which two independent Laplace(sigma) perturbations keep a margin-gamma
    comparison ordered correctly."""
    noise = laplace_sample(sigma, rng, size=(2, draws))
    return float(np.mean(noise[0] - noise[1] < gamma))


def mc_four_score_rate(gamma: float, sigma: float, draws: int, rng: np.random.Generator) -> float:
    """Monte Carlo oracle for utility_four_score (two draws per side)."""
    noise = laplace_sample(sigma, rng, size=(4, draws))
    return float(np.mean(noise[0] + noise[1] - noise[2] - noise[3] < gamma))
