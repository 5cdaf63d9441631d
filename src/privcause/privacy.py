"""Differential-privacy primitives for score release.

Laplace noise drawn by inverse CDF from a counter-based generator, global
sensitivity bounds for the test-set scores, a train-set sensitivity bound
for the kernel dependence score, and two propose-test-release mechanisms:
a generic stability test and the log-IQR release with its exact
substitution-attack counts.

Randomness contract: every mechanism takes an explicit numpy Generator.
Use :func:`derive_rng` to build independent streams from a master seed and
a tuple of string labels; the stream is a Philox counter keyed by the
SHA-256 of ``"seed|label|label..."``, so any draw can be replayed exactly
by re-deriving the generator and repeating the documented draw order.
"""
from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._arrays import as_vector, quantile_anchor, sorted_iqr
from .regression import residual_perturbation_bound
from .scores import DegenerateDataError, ScoreKind, UnsupportedScoreError

__all__ = [
    "PrivacyParams",
    "ReleaseOutcome",
    "derive_rng",
    "laplace_sample",
    "laplace_mechanism",
    "test_sensitivity",
    "train_sensitivity_hsic",
    "rank_train_stability_distance",
    "propose_test_release_stable",
    "iqr_attack_count",
    "iqr_train_attack_count",
    "private_log_iqr",
    "private_log_iqr_train",
]


@dataclass(frozen=True)
class PrivacyParams:
    """Per-mechanism privacy budget; delta may be zero only where no
    propose-test-release gate runs (:meth:`require_delta`)."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")

    def require_delta(self, gate: str) -> None:
        """The rule of every propose-test-release gate: it needs delta > 0."""
        if self.delta <= 0.0:
            raise ValueError(f"{gate} requires delta > 0")


@dataclass(frozen=True)
class ReleaseOutcome:
    """A released real value or the bottom symbol (abstain), with the (epsilon,
    delta) its mechanism run cost either way; exact public values cost 0."""

    released: bool
    value: float | None = None
    epsilon: float = 0.0
    delta: float = 0.0

    @classmethod
    def release(cls, value: float, epsilon: float = 0.0, delta: float = 0.0) -> "ReleaseOutcome":
        return cls(True, float(value), epsilon, delta)

    @classmethod
    def bottom(cls, epsilon: float = 0.0, delta: float = 0.0) -> "ReleaseOutcome":
        return cls(False, None, epsilon, delta)


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Independent generator for (seed, labels), stable across platforms."""
    msg = "|".join([str(int(seed))] + [str(lab) for lab in labels])
    key = int.from_bytes(hashlib.sha256(msg.encode("utf-8")).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def laplace_sample(scale: float, rng: np.random.Generator, size=None):
    """Laplace(0, scale) via inverse CDF on a 53-bit uniform.

    u is drawn strictly inside (0, 1) as (k + 1/2) / 2^53, so the transform
    never hits the log singularities and the draw is an exact deterministic
    function of the generator state.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive, got {scale}")
    u = (rng.integers(0, 1 << 53, size=size).astype(np.float64) + 0.5) * 2.0**-53
    out = scale * np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))
    return float(out) if size is None else out


def laplace_mechanism(value: float, sensitivity: float, epsilon: float, rng: np.random.Generator) -> float:
    """value + Laplace(sensitivity/epsilon), epsilon checked by :class:`PrivacyParams`."""
    PrivacyParams(epsilon)
    if not (math.isfinite(sensitivity) and sensitivity > 0):
        raise ValueError(f"sensitivity must be finite and positive, got {sensitivity}")
    return float(value) + laplace_sample(sensitivity / epsilon, rng)


def test_sensitivity(kind: ScoreKind, m: int) -> float:
    """Global sensitivity of a test-set score under one sample substitution.

    Spearman: 30/m.  Kendall: 4/m.  Kernel dependence: (12m-11)/(m-1)^2.
    The IQR and variance scores have no bounded global sensitivity; ask
    for them and you get an UnsupportedScoreError.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if kind is ScoreKind.SPEARMAN_RHO:
        return 30.0 / m
    if kind is ScoreKind.KENDALL_TAU:
        return 4.0 / m
    if kind is ScoreKind.HSIC:
        return (12.0 * m - 11.0) / (m - 1) ** 2
    raise UnsupportedScoreError(
        f"{kind.value} has no bounded global sensitivity; use its release mechanism instead"
    )


def train_sensitivity_hsic(m: int, n: int, lam: float, lipschitz: float) -> float:
    """Sensitivity of the kernel dependence score to one training-pair swap.

    Each held-out residual moves by at most B = 8 / (n lam^{3/2})
    (:func:`residual_perturbation_bound`); pushing that through the
    residual-side kernel, Lipschitz with constant L, gives 32 L sqrt(m) B.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
    if not (math.isfinite(lipschitz) and lipschitz > 0):
        raise ValueError(f"lipschitz must be positive, got {lipschitz}")
    return 32.0 * lipschitz * math.sqrt(m) * residual_perturbation_bound(n, lam)


def rank_train_stability_distance(test_residuals, n: int, lam: float) -> int:
    """How many training-pair swaps the residual ranking provably survives.

    gamma is the smallest gap between adjacent sorted residual values; any
    single swap moves each residual by at most B = 8/(n lam^{3/2}), so the
    ranking is unchanged for up to floor(gamma / (2B)) swaps.  Duplicate
    residuals give gamma = 0 and distance 0.
    """
    r = as_vector(test_residuals, "test_residuals")
    if r.size < 2:
        raise ValueError(f"need at least 2 residuals, got {r.size}")
    per_swap = residual_perturbation_bound(n, lam)
    gamma = float(np.min(np.diff(np.sort(r))))
    if gamma <= 0.0:
        return 0
    return int(math.floor(gamma / (2.0 * per_swap)))


def propose_test_release_stable(
    value: float, distance: int, params: PrivacyParams, rng: np.random.Generator
) -> ReleaseOutcome:
    """Release ``value`` exactly iff a noisy stability distance clears
    ln(1/delta)/epsilon.  One Laplace(1/epsilon) draw; (epsilon, delta)-DP
    provided ``distance`` changes by at most 1 under one substitution.
    """
    if distance < 0:
        raise ValueError("distance must be nonnegative")
    params.require_delta("propose-test-release")
    noisy = distance + laplace_sample(1.0 / params.epsilon, rng)
    cost = (params.epsilon, params.delta)
    if noisy > math.log(1.0 / params.delta) / params.epsilon:
        return ReleaseOutcome.release(value, *cost)
    return ReleaseOutcome.bottom(*cost)


# ---------------------------------------------------------------------------
# log-IQR attack counts and release


def _padded(v: np.ndarray) -> np.ndarray:
    """Sorted values with -inf in front and +inf behind, so that order
    statistic i (out of range allowed) is read at index clip(i, -1, m) + 1."""
    return np.concatenate(([-math.inf], v, [math.inf]))


def _shifted_quantiles(padded: np.ndarray, j: np.ndarray, frac: float) -> np.ndarray:
    """Interpolated order statistics at base indices j of the sorted values
    inside ``padded`` (:func:`_padded`); -inf/+inf out of range, as a
    clipped take reads a base index below 0 at -inf and above m - 1 at +inf."""
    lo = padded.take(j + 1, mode="clip")
    if frac == 0.0:
        return lo
    hi = padded.take(j + 2, mode="clip")
    # an infinite end gives that infinity; -inf next to +inf would need m = 0
    return (1.0 - frac) * lo + frac * hi


def _min_substitutions_up(v: np.ndarray, threshold: float) -> int:
    """Fewest substitutions after which the IQR can reach >= threshold.

    k1 extreme-low insertions drag the lower quartile down to the order
    statistic k1 places below it; k2 removals below the upper quartile
    (re-inserted far right) push it k2 places up.  Both shifts are tight,
    so the smallest workable k1 for every k2 is one sorted search.
    """
    m = v.size
    if math.isinf(threshold):
        return m + 1
    padded = _padded(v)
    j_lo, f_lo = quantile_anchor(m, 0.25)
    j_hi, f_hi = quantile_anchor(m, 0.75)
    k = np.arange(m + 1)
    low_shift = _shifted_quantiles(padded, j_lo - k, f_lo)  # nonincreasing
    high_shift = _shifted_quantiles(padded, j_hi + k, f_hi)
    # need low_shift[k1] <= high_shift[k2] - threshold; an infinite
    # high_shift[k2] finds k1 = 0, and k1 = m + 1 means no k1 works
    k1 = np.searchsorted(-low_shift, -(high_shift - threshold), side="left")
    return int(np.min(np.where(k1 <= m, k1 + k, m + 1)))


def _min_iqr_after(padded: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Smallest IQR achievable by replacing the k1 lowest and k2 highest
    points with copies of one interior value c, minimized over c; one value
    per (k1, k2) pair, each with k1 + k2 < m.

    Anchor order statistic p of the changed sample is clip(c, a, b), where
    a and b are the kept points that sit at p - k1 - k2 and p of the kept
    block (-inf/+inf when outside it).  The IQR is piecewise linear in c,
    so its minimum is at one of these bounds or at a far extreme.

    The m sorted values are read from ``padded`` (:func:`_padded`): all
    bounds are gathered by one index into it, and the weighted terms are
    summed in anchor order into preallocated buffers.
    """
    m = padded.size - 2
    j_lo, f_lo = quantile_anchor(m, 0.25)
    j_hi, f_hi = quantile_anchor(m, 0.75)
    anchors = [(j_lo, 1.0 - f_lo, -1.0), (j_lo + 1, f_lo, -1.0), (j_hi, 1.0 - f_hi, 1.0), (j_hi + 1, f_hi, 1.0)]
    anchors = [(p, sign * coef) for p, coef, sign in anchors if coef > 0.0]
    p = np.array([stat for stat, _ in anchors])[:, None]
    total = k1 + k2
    # rows 2i and 2i + 1 hold the padded indices of anchor i's a and b
    index = np.empty((2 * len(anchors), total.size), dtype=np.intp)
    np.subtract(p + 1, k2, out=index[0::2])
    np.copyto(index[0::2], 0, where=total > p)
    np.add(k1, p + 1, out=index[1::2])
    np.copyto(index[1::2], m + 1, where=total >= m - p)
    bounds = padded[index]
    below = padded[1] - 1.0
    # an infinite bound is no candidate; "below" stands in for it
    candidates = np.empty((2 + bounds.shape[0], total.size))
    candidates[0] = below
    candidates[1] = padded[m] + 1.0
    candidates[2:] = bounds
    np.copyto(candidates[2:], below, where=np.isinf(bounds))
    spread = np.zeros(candidates.shape)
    term = np.empty(candidates.shape)
    for i, (_, weight) in enumerate(anchors):
        np.maximum(candidates, bounds[2 * i], out=term)
        np.minimum(term, bounds[2 * i + 1], out=term)
        term *= weight
        spread += term
    return spread.min(axis=0)


# About this many (k1, k2) pairs are evaluated at once by
# _min_substitutions_down: totals below 45 fit in the first band, and the
# arrays stay a few hundred kB.
_BAND_PAIRS = 1024


def _min_substitutions_down(v: np.ndarray, thresholds: Sequence[float], caps: Sequence[int]) -> tuple[int, ...]:
    """For each threshold, the fewest substitutions after which the IQR can
    drop below it: min{k1 + k2 : _min_iqr_after(padded, k1, k2) < threshold}.

    One scan serves every threshold.  The (k1, k2) frontier is walked in
    bands of increasing k1 + k2, each holding about _BAND_PAIRS pairs; each
    band's smallest IQRs are computed once and tested against every
    threshold still open, and a threshold closes at its first band with a
    hit, so its minimum is exact without any monotonicity assumption.
    Replacing all m points leaves IQR 0, so a count is at most m.

    A threshold also closes, with its cap as the count, once the band start
    reaches that cap: every total left is at least the cap.  No band runs
    past the largest open cap either.  So each result r obeys
    min(r, cap) == min(exact, cap), and r is exact when the cap exceeds m.
    Every band reads one ``padded`` (:func:`_padded`), built here once.
    """
    m = v.size
    padded = _padded(v)
    # no IQR is below 0, and replacing all m points leaves IQR 0
    counts = [m + 1 if t <= 0.0 else m for t in thresholds]
    open_ = {i for i, t in enumerate(thresholds) if t > 0.0}
    lo = 0
    while lo < m:
        for i in [i for i in open_ if caps[i] <= lo]:
            counts[i] = caps[i]
            open_.remove(i)
        if not open_:
            break
        hi = min(m, max(lo + 1, math.isqrt(lo * lo + 2 * _BAND_PAIRS)), max(caps[i] for i in open_))
        sizes = np.arange(lo + 1, hi + 1)  # total t has the t + 1 splits k1 = 0..t
        total = np.repeat(sizes - 1, sizes)
        k1 = np.arange(total.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        smallest = _min_iqr_after(padded, k1, total - k1)
        for i in list(open_):
            hits = total[smallest < thresholds[i]]
            if hits.size:
                counts[i] = int(hits[0])  # totals ascend through the band
                open_.remove(i)
        lo = hi
    return tuple(counts)


def iqr_attack_count(values, log_intervals: Sequence[tuple[float, float]]) -> tuple[int, ...]:
    """Minimum single-sample substitutions that move ln IQR outside each
    half-open interval [lo, hi) of ``log_intervals``; one count per interval.

    Exact, via order statistics: widening the IQR is optimal with k1 points
    sent far left and k2 removed from the middle and sent far right;
    shrinking it is optimal with the k1 lowest and k2 highest points
    recalled to one interior point.  The values are sorted once for all
    intervals, and their IQR read from that sorted copy
    (:func:`sorted_iqr`).  Each interval's widening count is one sorted
    search over whole arrays of (k1, k2).  The shrinking counts share one scan of
    bands of increasing k1 + k2 (:func:`_min_substitutions_down`), which
    stops for an interval at its first band with a hit, or once the band
    start reaches that interval's widening count: no larger total can
    lower min(up, down), so every count stays exact.
    A count of m+1 means unreachable (e.g. the interval is all of R).
    """
    v, spread = sorted_iqr(values)
    m = v.size
    intervals = [(float(lo), float(hi)) for lo, hi in log_intervals]
    for lo, hi in intervals:
        if not lo < hi:
            raise ValueError(f"empty log interval: [{lo}, {hi})")
    if spread <= 0.0:
        raise DegenerateDataError("interquartile range is zero")
    q = math.log(spread)
    for lo, hi in intervals:
        if not (lo <= q < hi):
            raise ValueError(f"log interval [{lo}, {hi}) does not contain ln IQR = {q}")
    ups = [_min_substitutions_up(v, math.exp(hi) if hi < math.inf else math.inf) for _, hi in intervals]
    downs = _min_substitutions_down(v, [math.exp(lo) if lo > -math.inf else 0.0 for lo, _ in intervals], ups)
    return tuple(min(up, down, m + 1) for up, down in zip(ups, downs))


def iqr_train_attack_count(
    iqr_value: float, log_interval: tuple[float, float], n: int, lam: float
) -> int:
    """Lower bound on the training-pair swaps needed to push the residual
    ln IQR outside [lo, hi).

    Each swap moves every residual by at most B = 8/(n lam^{3/2}); k swaps
    can therefore widen or shrink the IQR by at most 2kB (lower half left,
    upper half right, or the reverse).
    """
    if not (math.isfinite(iqr_value) and iqr_value > 0):
        raise ValueError(f"iqr_value must be positive, got {iqr_value}")
    lo, hi = float(log_interval[0]), float(log_interval[1])
    q = math.log(iqr_value)
    if not (lo <= q < hi):
        raise ValueError(f"log interval [{lo}, {hi}) does not contain ln IQR = {q}")
    per_swap = 2.0 * residual_perturbation_bound(n, lam)
    up = math.inf if math.isinf(hi) else math.ceil((math.exp(hi) - iqr_value) / per_swap)
    down = math.inf if math.isinf(lo) else math.floor((iqr_value - math.exp(lo)) / per_swap) + 1
    count = min(up, down)
    return int(max(count, 1)) if math.isfinite(count) else n + 1


def _log_iqr_bins(q: float) -> tuple[tuple[float, float], tuple[float, float]]:
    b1 = (math.floor(q), math.floor(q) + 1.0)
    shifted = math.floor(q + 0.5)
    b2 = (shifted - 0.5, shifted + 0.5)
    return b1, b2


def _gated_log_iqr(values, attack_count, params: PrivacyParams, rng: np.random.Generator) -> ReleaseOutcome:
    """Shared body of the log-IQR releases.  The values are sorted once and
    the IQR is read from that sorted copy (:func:`sorted_iqr`);
    ``attack_count(v, iqr, bins)`` gets the sorted copy and gives the counts
    of both log bins.  The draw order is bin-1 noise, bin-2 noise, then the
    value noise (only when releasing)."""
    v, spread = sorted_iqr(values)
    params.require_delta("private log-IQR")
    eps = params.epsilon
    cost = (3.0 * eps, params.delta)
    if spread <= 0.0:
        return ReleaseOutcome.bottom(*cost)
    q = math.log(spread)
    count_1, count_2 = attack_count(v, spread, _log_iqr_bins(q))
    threshold = 1.0 + math.log(1.0 / params.delta) / eps
    r1 = count_1 + laplace_sample(1.0 / eps, rng)
    r2 = count_2 + laplace_sample(1.0 / eps, rng)
    if max(r1, r2) > threshold:
        return ReleaseOutcome.release(q + laplace_sample(1.0 / eps, rng), *cost)
    return ReleaseOutcome.bottom(*cost)


def private_log_iqr(values, params: PrivacyParams, rng: np.random.Generator) -> ReleaseOutcome:
    """Stability-gated release of ln IQR.

    Two unit-width log bins around ln IQR (integer-aligned and half-shifted)
    get exact attack counts A_1, A_2; noisy counts R_j = A_j + Lap(1/eps)
    are tested against 1 + ln(1/delta)/eps, and on success the value goes
    out with one more Lap(1/eps).  The whole mechanism is (3 eps, delta)-DP.
    A degenerate (zero) IQR abstains rather than raising.
    """
    # the public iqr_attack_count sorts the sorted copy again: it checks
    # its own input, and it is the call that tracing counts
    return _gated_log_iqr(values, lambda v, _, bins: iqr_attack_count(v, bins), params, rng)


def private_log_iqr_train(
    residual_values, n: int, lam: float, params: PrivacyParams, rng: np.random.Generator
) -> ReleaseOutcome:
    """Training-set analogue of :func:`private_log_iqr`: same bins and
    threshold, but the attack counts are the residual-perturbation lower
    bounds, so the release guards against training-pair swaps."""
    return _gated_log_iqr(
        residual_values,
        lambda _, iqr, bins: tuple(iqr_train_attack_count(iqr, b, n, lam) for b in bins),
        params,
        rng,
    )
