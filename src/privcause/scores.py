"""Dependence scores between a candidate cause and a residual vector.

Two rank statistics (Spearman, Kendall), a kernel dependence statistic
computed from centered Gram matrices, and two log-spread scores (IQR,
variance) used by the Gaussian-noise variant.  Every score maps two
equal-length real vectors to a single float.

The kernel also gives the one low-rank factor of the package: a greedy
pivoted Cholesky factor of the unit-bandwidth kernel on a grid, which
reads no data and is cached per integer half-width of the grid
(:meth:`KernelSpec.landmarks`), and the Nystrom features of any vector
through it (:meth:`KernelSpec.features`).  The low-rank ridge fit, its
prediction and the low-rank kernel dependence score all take it.

Ties in the rank statistics are broken by original index (stable sort),
so all scores are deterministic functions of their inputs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._arrays import as_vector, double_center_in_place, paired, row_blocks, sorted_iqr
from ._blas import cholesky_routines

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
    "low_rank_hsic",
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

# size of the sample of sorted values whose gaps bracket the median gap,
# and the rank fractions the bracket spans on either side of the middle,
# tried in turn on the side that misses
_MEDIAN_SAMPLE = 64
_BRACKET_MARGINS = (0.01, 0.03, 0.1)

# The rule of every low-rank route, read by KernelSpec.landmarks alone:
# the largest rank the landmark factor may reach as a share of the size
# it serves, the number of landmark grid steps per bandwidth (a grid
# spacing of h / LANDMARK_STEPS), and the two stopping rules of the pivot
# loop.  Pivoting stops when the trace of the remaining diagonal falls to
# _TRACE_TOL, or when its largest entry falls to _PIVOT_FLOOR: on a grid
# whose points are far closer than the bandwidth a trace rule alone picks
# pivots whose remaining diagonal is round-off, and their rows are noise.
RANK_CAP_DIVISOR = 4
LANDMARK_STEPS = 8
_TRACE_TOL = 1e-12
_PIVOT_FLOOR = 1e-14
# float64's machine epsilon, np.finfo(float).eps
_EPS = 2.0**-52


@dataclass(frozen=True)
class KernelSpec:
    """A bounded shift-invariant kernel, k(u, v) = exp(-(u-v)^2 / (2 h^2)).

    Values lie in (0, 1].  ``lipschitz`` is the conservative constant 1/h,
    an upper bound on |dk/du| that downstream sensitivity bounds rely on.
    """

    bandwidth: float

    def __post_init__(self) -> None:
        # fill divides by -2h^2: a square that underflows to 0 would make
        # every k(u, u) 0 / -0.0, and one that overflows every entry 1.  The
        # float multiply cannot raise, where h**2 raises OverflowError past
        # about 1.34e154; once it is finite, fill's own 2 h**2 is checked
        h = self.bandwidth
        if not (math.isfinite(h) and h > 0 and math.isfinite(2.0 * h * h) and 0.0 < 2.0 * h**2 < math.inf):
            raise ValueError(
                "kernel bandwidth must be positive and finite, and twice its square must "
                f"neither underflow to 0 nor overflow, got {h!r}"
            )

    def matrix(self, u, v) -> np.ndarray:
        """The (u.size, v.size) matrix of k(u_i, v_j), in a new buffer;
        u and v are checked first."""
        u = as_vector(u, "u")
        v = as_vector(v, "v")
        return self.fill(np.empty((u.size, v.size)), u, v)

    def fill(self, out: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Write k(u_i, v_j) into out, a (u.size, v.size) float buffer,
        and return it.  No input is checked: u and v must be finite 1-D
        float arrays (:meth:`matrix` checks them)."""
        # exp((d*d) / (-2h^2)), built in place one row block at a time;
        # x / (-2h^2) is bitwise -(x / 2h^2), so every entry carries the
        # textbook expression's bits
        scale = -2.0 * self.bandwidth**2
        for rows in row_blocks(u.size, v.size):
            block = out[rows]
            np.copyto(block, u[rows, None])
            np.subtract(block, v, out=block)
            np.square(block, out=block)
            np.divide(block, scale, out=block)
            np.exp(block, out=block)
        return out

    def landmarks(self, reach: float, size: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The landmark factor (Z, U) that serves size points in
        [-reach, reach], or None where its rank r passes
        size / RANK_CAP_DIVISOR.

        As k_h(u, v) = k_1(u / h, v / h), one factor at unit bandwidth
        serves every h: that of :func:`_landmark_factor` for the half-width
        L = ceil(reach / h), whose grid covers the points in units of h.
        Z is its r pivots, in those units, and U the upper triangular
        r x r block of that factor, so k_1(Z, Z) = U'U.  Neither reads any
        data: the factor is built on first use, once per L in a process,
        and every caller gets the same read-only arrays.  Whether size
        points may take it is decided before it is built, from a floor of
        4L + 1 on its rank, so a bandwidth too small for the cap costs no
        kernel column.

        The floor: every (LANDMARK_STEPS / 2)-th grid point, 4L + 1 points
        h/2 apart, has a Gram matrix whose eigenvalues are at least the
        least value of the Gaussian's Toeplitz symbol at that spacing,
        sum_j (-1)^j exp(-j^2 / 8) = 2.7e-8.  Any factor of lower rank
        leaves a positive semidefinite remainder on those points whose
        trace is at least that eigenvalue, far above both stopping rules,
        so the pivot loop takes at least that many pivots.
        """
        cap = size // RANK_CAP_DIVISOR
        # compared as a float first: reach / h can pass any int, or be inf
        ratio = reach / self.bandwidth
        if not ratio <= cap:
            return None
        half_width = math.ceil(ratio)
        if 4 * half_width + 1 > cap:
            return None
        inputs, factor = _landmark_factor(half_width)
        return (inputs, factor) if inputs.size <= cap else None

    def features(self, v: np.ndarray, landmarks: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The features Phi = k_1(v / h, Z) U^-1 of v through the landmark
        factor (Z, U) of :meth:`landmarks`, a new Fortran-order (v.size, r)
        array with K(v, v) ~ Phi Phi' (the Nystrom method of Williams &
        Seeger 2001), and the remaining diagonal 1 - ||Phi_i||^2 of
        K - Phi Phi', which is positive semidefinite, each entry padded by
        r eps for round-off.  One fill and one triangular solve; v is not
        checked (a finite 1-D float array)."""
        inputs, factor = landmarks
        r = inputs.size
        # k_1(Z, v / h) in an r x n C-order buffer holds the same bits as
        # k_1(v / h, Z), as (a - b)^2 = (b - a)^2, and its transpose is
        # the column-major Phi that the faster right-side solve takes
        phi = KernelSpec(1.0).fill(np.empty((r, v.size)), inputs, v / self.bandwidth).T
        cholesky_routines().right_solve(factor, phi)
        remaining = np.maximum(1.0 - np.einsum("ij,ij->i", phi, phi), 0.0)
        remaining += r * _EPS
        return phi, remaining

    @property
    def lipschitz(self) -> float:
        return 1.0 / self.bandwidth


@functools.cache
def _landmark_factor(half_width: int) -> tuple[np.ndarray, np.ndarray]:
    """(Z, U) of :meth:`KernelSpec.landmarks`: the pivots and pivot block
    of a greedy pivoted Cholesky factor K ~ F'F of the unit-bandwidth
    kernel on the grid of spacing 1 / LANDMARK_STEPS over [-L, L], ends
    included.

    Each step takes the largest remaining diagonal entry as the pivot and
    writes its kernel column into the factor row with
    :meth:`KernelSpec.fill`; no other entry of K is formed.  At most every
    grid point becomes a pivot, and once each has, the remaining diagonal
    is 0, so the loop always stops.
    """
    grid = np.linspace(-half_width, half_width, 2 * LANDMARK_STEPS * half_width + 1)
    unit = KernelSpec(1.0)
    # every k(u, u) is exp(0 / -2) = 1
    remaining = np.ones(grid.size)
    rows = np.empty((grid.size, grid.size))
    pivots = np.empty(grid.size, dtype=np.intp)
    for r in range(grid.size + 1):
        pivot = int(np.argmax(remaining))
        if remaining[pivot] <= _PIVOT_FLOOR or remaining.sum() <= _TRACE_TOL:
            break
        row = unit.fill(rows[r : r + 1], grid[pivot : pivot + 1], grid)[0]
        row -= rows[:r, pivot] @ rows[:r]
        row /= math.sqrt(remaining[pivot])
        remaining -= row * row
        remaining[pivot] = 0.0
        pivots[r] = pivot
    # take() copies U = F[:, P] C-contiguous, as the triangular solve needs
    inputs, factor = grid[pivots[:r]], rows[:r].take(pivots[:r], axis=1)
    inputs.flags.writeable = factor.flags.writeable = False
    return inputs, factor


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
    # the stable order of a is the order of its stable ranks
    seq = rank_vector(vb)[np.argsort(va, kind="stable")]
    discordant = _count_inversions(seq)
    total = m * (m - 1) // 2
    concordant = total - discordant
    return abs(concordant - discordant) / total


def hsic(a, b, kernel_a: KernelSpec, kernel_b: KernelSpec) -> float:
    """Kernel dependence score trace(K H L H)/(m-1)^2 with H = I - 11^T/m.

    Computed through the double-centered Gram matrix of the second argument
    (trace(K H L H) = sum(K * HLH) for symmetric K, L), so the centering
    matrix is never materialized.  HSIC holds that one m x m buffer: the
    Gram matrix of the first argument is built one row block at a time
    and multiplied into it in place.  Each product is bitwise K_ij * HLH_ij
    (IEEE multiplication commutes), so the sum sees the textbook array.
    Nonnegative up to floating-point noise; tiny negatives are clamped to
    zero.  This is the exact score, which every private release and audit
    reads; a non-private decision at median-heuristic bandwidths takes
    :func:`low_rank_hsic`, which is certified against it.
    """
    va, vb = paired(a, b)
    m = va.size
    prod = double_center_in_place(kernel_b.matrix(vb, vb))
    for rows in row_blocks(m, m):
        prod[rows] *= kernel_a.matrix(va[rows], va)
    raw = float(np.sum(prod)) / (m - 1) ** 2
    if raw < -1e-12:
        raise ValueError(f"kernel dependence came out negative ({raw}); non-PSD kernel?")
    return max(raw, 0.0)


def low_rank_hsic(a, b, kernel_a: KernelSpec, kernel_b: KernelSpec) -> tuple[float, float]:
    """:func:`hsic` through the landmark features of both vectors, and a
    bound eta on its distance from :func:`hsic`.

    With K ~ A A' and L ~ B B' (:meth:`KernelSpec.features`, A of m x r_a,
    from the landmarks of :meth:`KernelSpec.landmarks` for the vector's
    own reach max |v|), trace(K H L H) ~ ||(H A)'(H B)||_F^2: each
    feature column is centered and one r_a x r_b product is formed,
    O(m r_a r_b) in all, and no m x m matrix.  K - A A' is positive
    semidefinite with trace tau_K, and HLH is positive semidefinite with
    largest eigenvalue at most that of L, at most m since L's entries lie
    in [0, 1]; the same holds with K and L swapped.  So the score is within

        eta = ((tau_K + tau_L) m + 4 m^2 ceil(log2 m^2) eps) / (m - 1)^2

    of :func:`hsic` (Zhang, Filippi, Gretton & Sejdinovic 2018), each tau
    padded by m r eps for the features' round-off.  The last term covers
    that of :func:`hsic`, whose pairwise sum of m^2 products of magnitude
    at most 2 (k <= 1 and |HLH| <= 2) errs by at most ceil(log2 m^2) eps
    times their absolute sum, and as much again for its centering and this
    route's sums.  Where either vector has no landmarks, it is the exact
    :func:`hsic`, with eta 0.  The reach reads the data, so this route is
    only for scores that no release reads.
    """
    va, vb = paired(a, b)
    m = va.size
    first = kernel_a.landmarks(float(np.max(np.abs(va))), m)
    second = None if first is None else kernel_b.landmarks(float(np.max(np.abs(vb))), m)
    if second is None:
        return hsic(va, vb, kernel_a, kernel_b), 0.0
    features_a, trace_a = _centered_features(kernel_a, va, first)
    features_b, trace_b = _centered_features(kernel_b, vb, second)
    cross = features_a.T @ features_b
    roundoff = 4.0 * m * m * math.ceil(math.log2(m * m)) * _EPS
    eta = ((trace_a + trace_b) * m + roundoff) / (m - 1) ** 2
    return float(np.sum(cross * cross)) / (m - 1) ** 2, eta


def _centered_features(
    kernel: KernelSpec, v: np.ndarray, landmarks: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, float]:
    """v's features through its landmarks, each column centered, and the
    trace of their remaining diagonal."""
    features, remaining = kernel.features(v, landmarks)
    features -= features.mean(axis=0)
    return features, float(remaining.sum())


def _gap_row_ends(s: np.ndarray, t: float) -> np.ndarray:
    """For each row i < m-1 of the sorted s, one past the last j with
    fl(s[j] - s[i]) <= t, so that row's gaps at most t are s[i+1:end]."""
    head = s[:-1]
    if t < 0.0:
        # no gap is negative; the fix-ups below rely on t >= 0
        return np.arange(1, s.size)
    ends = np.searchsorted(s, head + t, side="right")
    # fl(s[i] + t) can round past the boundary either way; step over whole
    # runs of ties, comparing the computed differences themselves.  Going
    # down stops at j = i + 1, where s[j - 1] - s[i] = 0 <= t.
    last = s.size - 1
    while True:
        up = np.flatnonzero((s[np.minimum(ends, last)] - head <= t) & (ends <= last))
        if not up.size:
            break
        ends[up] = np.searchsorted(s, s[ends[up]], side="right")
    while True:
        down = np.flatnonzero(s[ends - 1] - head > t)
        if not down.size:
            break
        ends[down] = np.maximum(np.searchsorted(s, s[ends[down] - 1], side="left"), down + 1)
    return ends


def _bracketed_gaps(s: np.ndarray, first: int, last: int):
    """(below, gaps): the gaps inside a bracket [lo, hi] that holds the
    gaps of ranks first..last (0-based, ascending), and the count of gaps
    under lo; None when no bracket holds them in under half of all gaps."""
    m = s.size
    total = m * (m - 1) // 2
    # the middle point of each of k equal strata of s; the top k(k-1)/2 of
    # the sample's k^2 signed differences are its gaps
    k = min(m, _MEDIAN_SAMPLE)
    sample = s[(2 * np.arange(k) + 1) * m // (2 * k)]
    sample_gaps = np.sort(sample - sample[:, None], axis=None)[k * (k + 1) // 2 :]
    top = sample_gaps.size - 1
    # the sample has no pair from within one stratum; those pairs, about
    # a 1/k share of all, sit below the median, which moves the middle
    # ranks down to this fraction of the sample's gaps
    middle = 0.5 if k == m else (0.5 - 1 / k) / (1 - 1 / k)
    # sum(ends) - total counts the gaps in the rows' prefixes
    below = upto = None
    for margin in _BRACKET_MARGINS:
        if below is None or below > first:
            lo = sample_gaps[max(0, math.floor((middle - margin) * top))]
            start = _gap_row_ends(s, np.nextafter(lo, -np.inf))
            below = int(start.sum()) - total
        if upto is None or upto <= last:
            stop = _gap_row_ends(s, sample_gaps[min(top, math.ceil((middle + margin) * top))])
            upto = int(stop.sum()) - total
        if below <= first and upto > last:
            break
    else:
        return None
    if 2 * (upto - below) > total:
        return None
    # the bracket's gap number c is s[cols[c]] - s[i] for its row i
    lengths = stop - start
    cols = np.arange(upto - below)
    cols += np.repeat(start - (np.cumsum(lengths) - lengths), lengths)
    gaps = s[cols]
    del cols
    gaps -= np.repeat(s[:-1], lengths)
    return below, gaps


def _all_gaps(s: np.ndarray) -> np.ndarray:
    gaps = np.empty(s.size * (s.size - 1) // 2)
    start = 0
    for i in range(s.size - 1):
        stop = start + s.size - 1 - i
        np.subtract(s[i + 1:], s[i], out=gaps[start:stop])
        start = stop
    return gaps


def median_heuristic_bandwidth(values) -> float:
    """Median absolute pairwise difference over distinct index pairs.

    Each gap s[j] - s[i], i < j, of the sorted values s equals one
    |a_p - a_q| exactly, so the gaps are the same multiset of m(m-1)/2
    values and give the same median.

    The one or two middle gaps are found by exact selection.  IEEE
    subtraction is monotone, so the computed gap fl(s[j] - s[i]) never
    decreases in j, and each row's gaps at most a threshold t form a
    prefix.  A searchsorted for s[i] + t places each prefix end, and a
    fix-up that compares the computed differences themselves moves every
    end that the rounding of s[i] + t misplaced, so the counts below and
    inside a bracket are exact.  The gaps of a sample of stratum midpoints
    give the bracket around the middle ranks; only the gaps inside it are
    built and partitioned.  A bracket that misses is widened on that side; if none
    holds the middle in under half of the gaps, all gaps are built.  The
    result is the mean of the middle gaps, as np.median takes it, so it is
    bit for bit np.median of all gaps.
    Data-dependent; only for use where the inputs are not privacy-sensitive.
    """
    arr = as_vector(values, "values")
    if arr.size < 2:
        raise ValueError("need at least 2 samples for the median heuristic")
    s = np.sort(arr)
    total = s.size * (s.size - 1) // 2
    first, last = (total - 1) // 2, total // 2
    bracket = _bracketed_gaps(s, first, last)
    below, gaps = bracket if bracket is not None else (0, _all_gaps(s))
    # one partition and a min: a partition at two ranks, as np.median
    # makes, costs several times more
    k = first - below
    gaps.partition(k)
    middle = gaps[k : k + 1] if first == last else np.array([gaps[k], gaps[k + 1 :].min()])
    med = float(np.mean(middle))
    if med <= 0.0:
        raise DegenerateDataError("median pairwise gap is zero; no usable bandwidth")
    return med


def log_iqr(values) -> float:
    """Natural log of the interquartile range (linear-interpolation
    quantiles, read by :func:`sorted_iqr`)."""
    spread = sorted_iqr(values)[1]
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
