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

from ._arrays import double_center_in_place, paired
from .privacy import laplace_sample
from .regression import fit_krr, predict
from .scores import (
    KernelSpec,
    ScoreKind,
    UnsupportedScoreError,
    kendall_tau,
    spearman_rho,
)

__all__ = [
    "substitution_audit",
    "residual_shift_max",
    "laplace_ratio_audit",
    "mc_two_score_rate",
    "mc_four_score_rate",
]

_CHUNK = 4096


def _rank_rows(rows: np.ndarray) -> np.ndarray:
    """Stable 1..m ranks along axis 1 (ties broken by position, matching
    scores.rank_vector)."""
    n_rows, m = rows.shape
    order = np.argsort(rows, axis=1, kind="stable")
    ranks = np.empty((n_rows, m), dtype=np.int64)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(1, m + 1), (n_rows, m)), axis=1)
    return ranks


def _substituted_rows(vec: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """All single-substitution variants: one row per (index, candidate)."""
    m = vec.size
    rows = np.tile(vec, (m * candidates.size, 1))
    idx = np.repeat(np.arange(m), candidates.size)
    rows[np.arange(rows.shape[0]), idx] = np.tile(candidates, m)
    return rows


def _spearman_rows(rank_rows: np.ndarray, fixed_ranks: np.ndarray) -> np.ndarray:
    m = fixed_ranks.size
    d2 = ((rank_rows - fixed_ranks[None, :]) ** 2).sum(axis=1)
    return np.abs(1.0 - 6.0 * d2 / (m * (m * m - 1.0)))


def _kendall_rows(rank_rows: np.ndarray, fixed_ranks: np.ndarray) -> np.ndarray:
    m = fixed_ranks.size
    fixed_sign = np.sign(fixed_ranks[None, :] - fixed_ranks[:, None]).astype(np.float64)
    out = np.empty(rank_rows.shape[0])
    for start in range(0, rank_rows.shape[0], _CHUNK):
        block = rank_rows[start : start + _CHUNK]
        sw = np.sign(block[:, None, :] - block[:, :, None]).astype(np.float64)
        cd = 0.5 * np.einsum("rij,ij->r", sw, fixed_sign)
        out[start : start + block.shape[0]] = np.abs(cd) / (m * (m - 1) / 2.0)
    return out


def _hsic_substitution_max(a, b, candidates, kernel_a, kernel_b) -> float:
    """Exact max |HSIC change| over single substitutions in either vector.

    Only row/column i of one Gram matrix changes, so the new score is the
    old one plus 2 <k_new - k_old, row i of the centered other matrix>
    (the diagonal entry stays 1).  This is algebra, not approximation.
    """
    m = a.size
    worst = 0.0
    for vec, other, ker_v, ker_o in ((a, b, kernel_a, kernel_b), (b, a, kernel_b, kernel_a)):
        gram_v = ker_v.matrix(vec, vec)
        centered_o = double_center_in_place(ker_o.matrix(other, other))
        base = (gram_v * centered_o).sum(axis=1)
        kv = ker_v.matrix(candidates, vec)
        dot = kv @ centered_o.T
        diag = np.diag(centered_o)
        delta = 2.0 * (dot + (1.0 - kv) * diag[None, :] - base[None, :]) / (m - 1) ** 2
        worst = max(worst, float(np.abs(delta).max()))
    return worst


def substitution_audit(
    kind: ScoreKind,
    a,
    b,
    candidates,
    kernels: tuple[KernelSpec, KernelSpec] | None = None,
) -> float:
    """Max |score change| over every index, coordinate, and candidate value.

    Vectorized so the acceptance-scale search (hundreds of datasets, tens
    of candidates per coordinate) finishes in seconds.
    """
    va, vb = paired(a, b)
    cand = np.asarray(candidates, dtype=float).ravel()
    if cand.size == 0:
        raise ValueError("need at least one candidate value")
    if kind is ScoreKind.HSIC:
        if kernels is None:
            raise ValueError("kernel dependence audit needs the kernel pair")
        return _hsic_substitution_max(va, vb, cand, kernels[0], kernels[1])
    if kind is ScoreKind.SPEARMAN_RHO:
        row_score = _spearman_rows
        s0 = spearman_rho(va, vb)
    elif kind is ScoreKind.KENDALL_TAU:
        row_score = _kendall_rows
        s0 = kendall_tau(va, vb)
    else:
        raise UnsupportedScoreError(f"no substitution audit for {kind.value}")
    worst = 0.0
    for vec, other in ((va, vb), (vb, va)):
        fixed = _rank_rows(other[None, :])[0]
        scores = row_score(_rank_rows(_substituted_rows(vec, cand)), fixed)
        worst = max(worst, float(np.abs(scores - s0).max()))
    return worst


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


def laplace_ratio_audit(samples_a, samples_b, epsilon: float, n_bins: int = 30) -> float:
    """Per-bin likelihood-ratio check between two mechanism output samples.

    Returns the largest value of p_hat_one - e^eps * p_hat_other - 3 * se
    over all bins and both orderings; <= 0 means the empirical
    distributions are consistent with eps-indistinguishability.
    """
    sa = np.asarray(samples_a, dtype=float)
    sb = np.asarray(samples_b, dtype=float)
    if sa.size < 1000 or sb.size < 1000:
        raise ValueError("ratio audit needs large samples")
    lo = min(sa.min(), sb.min())
    hi = max(sa.max(), sb.max())
    edges = np.linspace(lo, hi, n_bins + 1)
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
