"""Dependence scores between a candidate cause and a residual vector.

Two rank statistics (Spearman, Kendall), a kernel dependence statistic
computed from centered Gram matrices, and two log-spread scores (IQR,
variance) used by the Gaussian-noise variant.  Every score maps two
equal-length real vectors to a single float.

Ties in the rank statistics are broken by original index (stable sort),
so all scores are deterministic functions of their inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._arrays import as_vector, double_center_in_place, paired

__all__ = [
    "DegenerateDataError",
    "UnsupportedScoreError",
    "ScoreKind",
    "RANK_KINDS",
    "KernelSpec",
    "rank_vector",
    "spearman_rho",
    "kendall_tau",
    "hsic",
    "median_heuristic_bandwidth",
    "log_iqr",
    "iqr_score",
    "variance_score",
]


class DegenerateDataError(ValueError):
    """The data carries no usable spread for the requested statistic."""


class UnsupportedScoreError(ValueError):
    """The requested operation is not defined for this score kind."""


class ScoreKind(Enum):
    SPEARMAN_RHO = "spearman"
    KENDALL_TAU = "kendall"
    HSIC = "hsic"
    IQR = "iqr"
    VARIANCE = "variance"


RANK_KINDS = (ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU)


@dataclass(frozen=True)
class KernelSpec:
    """A bounded shift-invariant kernel, k(u, v) = exp(-(u-v)^2 / (2 h^2)).

    Values lie in (0, 1].  ``lipschitz`` is the conservative constant 1/h,
    an upper bound on |dk/du| that downstream sensitivity bounds rely on.
    """

    bandwidth: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("kernel bandwidth must be positive and finite")

    def matrix(self, u, v) -> np.ndarray:
        # exp(-(d*d) / (2h^2)) with the same operations in the same order,
        # each in place on the one output buffer
        out = np.subtract.outer(as_vector(u, "u"), as_vector(v, "v"))
        np.multiply(out, out, out=out)
        np.negative(out, out=out)
        np.divide(out, 2.0 * self.bandwidth**2, out=out)
        return np.exp(out, out=out)

    @property
    def lipschitz(self) -> float:
        return 1.0 / self.bandwidth


def rank_vector(values) -> np.ndarray:
    """Ranks 1..m with ties broken by original index (stable)."""
    arr = as_vector(values, "values")
    if arr.size == 0:
        raise ValueError("cannot rank an empty vector")
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.int64)
    ranks[order] = np.arange(1, arr.size + 1)
    return ranks


def spearman_rho(a, b) -> float:
    """Absolute Spearman rank correlation.

    With rank difference d_i, the score is |1 - 6 sum d_i^2 / (m (m^2-1))|,
    in [0, 1].  Monotone transforms of either argument leave it unchanged.
    """
    va, vb = paired(a, b)
    m = va.size
    d = rank_vector(va).astype(float) - rank_vector(vb).astype(float)
    rho = 1.0 - 6.0 * float(d @ d) / (m * (m * m - 1.0))
    return abs(rho)


def _count_inversions(seq: np.ndarray) -> int:
    """Pairs i < j with seq[i] > seq[j], by bottom-up merge sort.

    At width w every aligned block of w dense ranks is sorted.  Shifting
    the ranks of block pair k by k * size keeps the pairs apart, so one
    searchsorted over all left blocks counts, for every right element, the
    left elements of its own pair that exceed it; one sort of the shifted
    ranks then merges each pair into a sorted block of 2w (stable, as
    timsort merges the two sorted runs of a pair in linear time).
    """
    ranks = np.unique(seq, return_inverse=True)[1]
    size = ranks.size
    index = np.arange(size)
    inv = 0
    width = 1
    while width < size:
        pair = index // (2 * width)
        shifted = ranks + pair * size
        right = index % (2 * width) >= width
        ends = (pair[right] + 1) * width
        inv += int(np.sum(ends - np.searchsorted(shifted[~right], shifted[right], side="right")))
        shifted.sort(kind="stable")
        ranks = shifted - pair * size
        width *= 2
    return inv


def kendall_tau(a, b) -> float:
    """Absolute Kendall rank correlation |C - D| / (m (m-1) / 2).

    C and D count concordant/discordant index pairs after stable rank
    conversion, so every pair is one or the other.  Runs in O(m log m)
    by counting inversions of the second rank vector ordered by the first.
    """
    va, vb = paired(a, b)
    m = va.size
    ra = rank_vector(va)
    rb = rank_vector(vb)
    seq = rb[np.argsort(ra)]
    discordant = _count_inversions(seq)
    total = m * (m - 1) // 2
    concordant = total - discordant
    return abs(concordant - discordant) / total


def hsic(a, b, kernel_a: KernelSpec, kernel_b: KernelSpec) -> float:
    """Kernel dependence score trace(K H L H)/(m-1)^2 with H = I - 11^T/m.

    Computed through the double-centered Gram matrix of the second argument
    (trace(K H L H) = sum(K * HLH) for symmetric K, L), so the centering
    matrix is never materialized.  Nonnegative up to floating-point noise;
    tiny negatives are clamped to zero.
    """
    va, vb = paired(a, b)
    m = va.size
    gram_a = kernel_a.matrix(va, va)
    np.multiply(gram_a, double_center_in_place(kernel_b.matrix(vb, vb)), out=gram_a)
    raw = float(np.sum(gram_a)) / (m - 1) ** 2
    if raw < -1e-12:
        raise ValueError(f"kernel dependence came out negative ({raw}); non-PSD kernel?")
    return max(raw, 0.0)


def median_heuristic_bandwidth(values) -> float:
    """Median absolute pairwise difference over distinct index pairs.

    Each gap s[j] - s[i], i < j, of the sorted values s equals one
    |a_p - a_q| exactly, so the gaps are the same multiset of m(m-1)/2
    values and give the same median.
    Data-dependent; only for use where the inputs are not privacy-sensitive.
    """
    arr = as_vector(values, "values")
    if arr.size < 2:
        raise ValueError("need at least 2 samples for the median heuristic")
    s = np.sort(arr)
    gaps = np.empty(s.size * (s.size - 1) // 2)
    start = 0
    for i in range(s.size - 1):
        stop = start + s.size - 1 - i
        np.subtract(s[i + 1:], s[i], out=gaps[start:stop])
        start = stop
    med = float(np.median(gaps, overwrite_input=True))
    if med <= 0.0:
        raise DegenerateDataError("median pairwise gap is zero; no usable bandwidth")
    return med


def log_iqr(values) -> float:
    """Natural log of the interquartile range (linear-interpolation quantiles)."""
    arr = as_vector(values, "values")
    if arr.size < 4:
        raise ValueError(f"need at least 4 samples for an IQR, got {arr.size}")
    q25, q75 = np.quantile(arr, (0.25, 0.75))
    spread = float(q75 - q25)
    if spread <= 0.0:
        raise DegenerateDataError("interquartile range is zero")
    return math.log(spread)


def iqr_score(a, b) -> float:
    """Sum of log interquartile ranges, log IQR(a) + log IQR(b)."""
    va, vb = paired(a, b, min_len=4)
    return log_iqr(va) + log_iqr(vb)


def variance_score(a, b) -> float:
    """Sum of log population variances.  No private release path exists
    for this score; it is a non-private baseline only."""
    va, vb = paired(a, b)
    var_a = float(np.var(va))
    var_b = float(np.var(vb))
    if var_a <= 0.0 or var_b <= 0.0:
        raise DegenerateDataError("variance score undefined for constant input")
    return math.log(var_a) + math.log(var_b)
