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
from dataclasses import dataclass

import numpy as np

from ._arrays import as_vector
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
    "advanced_composition_budget",
]


@dataclass(frozen=True)
class PrivacyParams:
    """Per-mechanism privacy budget.  delta may be zero only for pure
    Laplace releases; both propose-test-release mechanisms require
    delta > 0."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")


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
    """value + Laplace(sensitivity/epsilon)."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
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
    if params.delta <= 0.0:
        raise ValueError("propose-test-release requires delta > 0")
    noisy = distance + laplace_sample(1.0 / params.epsilon, rng)
    cost = (params.epsilon, params.delta)
    if noisy > math.log(1.0 / params.delta) / params.epsilon:
        return ReleaseOutcome.release(value, *cost)
    return ReleaseOutcome.bottom(*cost)


# ---------------------------------------------------------------------------
# log-IQR attack counts and release


def _quantile_anchor(m: int, fraction: float) -> tuple[int, float]:
    # linear-interpolation quantile sits between order stats j and j+1
    pos = fraction * (m - 1)
    j = int(math.floor(pos))
    return j, pos - j


def _padded(v: np.ndarray) -> np.ndarray:
    """Sorted values with -inf in front and +inf behind, so that order
    statistic i (out of range allowed) is read at index clip(i, -1, m) + 1."""
    return np.concatenate(([-math.inf], v, [math.inf]))


def _shifted_quantiles(v: np.ndarray, j: np.ndarray, frac: float) -> np.ndarray:
    """Interpolated order statistics at base indices j; -inf/+inf out of range."""
    padded = _padded(v)
    lo = padded[np.clip(j, -1, v.size) + 1]
    if frac == 0.0:
        return lo
    hi = padded[np.clip(j + 1, -1, v.size) + 1]
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
    j_lo, f_lo = _quantile_anchor(m, 0.25)
    j_hi, f_hi = _quantile_anchor(m, 0.75)
    k = np.arange(m + 1)
    low_shift = _shifted_quantiles(v, j_lo - k, f_lo)  # nonincreasing
    high_shift = _shifted_quantiles(v, j_hi + k, f_hi)
    # need low_shift[k1] <= high_shift[k2] - threshold; an infinite
    # high_shift[k2] finds k1 = 0, and k1 = m + 1 means no k1 works
    k1 = np.searchsorted(-low_shift, -(high_shift - threshold), side="left")
    return int(np.min(np.where(k1 <= m, k1 + k, m + 1)))


def _min_iqr_after(v: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Smallest IQR achievable by replacing the k1 lowest and k2 highest
    points with copies of one interior value c, minimized over c; one value
    per (k1, k2) pair, each with k1 + k2 < m.

    Anchor order statistic p of the changed sample is clip(c, a, b), where
    a and b are the kept points that sit at p - k1 - k2 and p of the kept
    block (-inf/+inf when outside it).  The IQR is piecewise linear in c,
    so its minimum is at one of these bounds or at a far extreme.
    """
    m = v.size
    padded = _padded(v)
    j_lo, f_lo = _quantile_anchor(m, 0.25)
    j_hi, f_hi = _quantile_anchor(m, 0.75)
    anchors = [(j_lo, 1.0 - f_lo, -1.0), (j_lo + 1, f_lo, -1.0), (j_hi, 1.0 - f_hi, 1.0), (j_hi + 1, f_hi, 1.0)]
    anchors = [(p, coef, sign) for p, coef, sign in anchors if coef > 0.0]
    bounds = [
        (padded[np.where(p - k2 >= k1, p - k2 + 1, 0)], padded[np.where(k1 + p < m - k2, k1 + p + 1, m + 1)])
        for p, _, _ in anchors
    ]
    below, above = v[0] - 1.0, v[-1] + 1.0
    # an infinite bound is no candidate; "below" stands in for it
    candidates = np.stack(
        [np.full(k1.shape, below), np.full(k1.shape, above)]
        + [np.where(np.isfinite(b), b, below) for pair in bounds for b in pair]
    )
    spread = np.zeros(candidates.shape)
    for (_, coef, sign), (a, b) in zip(anchors, bounds):
        spread += sign * coef * np.minimum(np.maximum(candidates, a), b)
    return spread.min(axis=0)


# About this many (k1, k2) pairs are evaluated at once by
# _min_substitutions_down: totals below 45 fit in the first band, and the
# arrays stay a few hundred kB.
_BAND_PAIRS = 1024


def _min_substitutions_down(v: np.ndarray, threshold: float) -> int:
    """Fewest substitutions after which the IQR can drop below threshold:
    min{k1 + k2 : _min_iqr_after(k1, k2) < threshold}.

    The (k1, k2) frontier is scanned in bands of increasing k1 + k2, each
    holding about _BAND_PAIRS pairs, and the scan stops at the first band
    with a hit, so the minimum is exact without any monotonicity
    assumption.  Replacing all m points leaves IQR 0, so the count is at
    most m.
    """
    m = v.size
    if threshold <= 0.0:
        return m + 1
    lo = 0
    while lo < m:
        hi = min(m, max(lo + 1, math.isqrt(lo * lo + 2 * _BAND_PAIRS)))
        sizes = np.arange(lo + 1, hi + 1)  # total t has the t + 1 splits k1 = 0..t
        total = np.repeat(sizes - 1, sizes)
        k1 = np.arange(total.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        hits = total[_min_iqr_after(v, k1, total - k1) < threshold]
        if hits.size:
            return int(hits.min())
        lo = hi
    return m


def iqr_attack_count(values, log_interval: tuple[float, float]) -> int:
    """Minimum single-sample substitutions that move ln IQR outside the
    half-open interval [lo, hi).

    Exact, via order statistics: widening the IQR is optimal with k1 points
    sent far left and k2 removed from the middle and sent far right;
    shrinking it is optimal with the k1 lowest and k2 highest points
    recalled to one interior point.  Both searches run over whole arrays of
    (k1, k2): the widening side finds the smallest k1 for every k2 with one
    sorted search, and the shrinking side evaluates the smallest reachable
    IQR on bands of increasing k1 + k2 and stops at the first band with a
    hit, so both minima are exact.
    A count of m+1 means unreachable (e.g. the interval is all of R).
    """
    v = np.sort(as_vector(values, "values"))
    m = v.size
    if m < 4:
        raise ValueError(f"need at least 4 samples, got {m}")
    lo, hi = float(log_interval[0]), float(log_interval[1])
    if not lo < hi:
        raise ValueError(f"empty log interval: [{lo}, {hi})")
    q25, q75 = np.quantile(v, (0.25, 0.75))
    spread = float(q75 - q25)
    if spread <= 0.0:
        raise DegenerateDataError("interquartile range is zero")
    q = math.log(spread)
    if not (lo <= q < hi):
        raise ValueError(f"log interval [{lo}, {hi}) does not contain ln IQR = {q}")
    up = _min_substitutions_up(v, math.exp(hi) if hi < math.inf else math.inf)
    down = _min_substitutions_down(v, math.exp(lo) if lo > -math.inf else 0.0)
    return min(up, down, m + 1)


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
    """Shared body of the log-IQR releases.  ``attack_count(v, iqr, bin)``
    gives the count for one log bin; the draw order is bin-1 noise, bin-2
    noise, then the value noise (only when releasing)."""
    v = as_vector(values, "values")
    if v.size < 4:
        raise ValueError(f"need at least 4 samples, got {v.size}")
    if params.delta <= 0.0:
        raise ValueError("private log-IQR requires delta > 0")
    eps = params.epsilon
    cost = (3.0 * eps, params.delta)
    q25, q75 = np.quantile(v, (0.25, 0.75))
    spread = float(q75 - q25)
    if spread <= 0.0:
        return ReleaseOutcome.bottom(*cost)
    q = math.log(spread)
    b1, b2 = _log_iqr_bins(q)
    count_1, count_2 = attack_count(v, spread, b1), attack_count(v, spread, b2)
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
    return _gated_log_iqr(values, lambda v, _, b: iqr_attack_count(v, b), params, rng)


def private_log_iqr_train(
    residual_values, n: int, lam: float, params: PrivacyParams, rng: np.random.Generator
) -> ReleaseOutcome:
    """Training-set analogue of :func:`private_log_iqr`: same bins and
    threshold, but the attack counts are the residual-perturbation lower
    bounds, so the release guards against training-pair swaps."""
    return _gated_log_iqr(
        residual_values, lambda _, iqr, b: iqr_train_attack_count(iqr, b, n, lam), params, rng
    )


def advanced_composition_budget(epsilon_total: float, delta_prime: float, k: int = 3) -> float:
    """Per-mechanism budget so that k adaptive (eps, delta)-DP mechanisms
    compose to (epsilon_total, k*delta + delta_prime) overall:

        eps = epsilon_total / (2 sqrt(2 k ln(1/delta_prime)))

    With the default k=3 the denominator is 2 sqrt(6 ln(1/delta_prime)).
    epsilon_total must lie in (0, 1] for the composition theorem to apply.
    """
    if not 0.0 < epsilon_total <= 1.0:
        raise ValueError(f"epsilon_total must lie in (0, 1], got {epsilon_total}")
    if not (0.0 < delta_prime < 1.0):
        raise ValueError(f"delta_prime must lie in (0, 1), got {delta_prime}")
    if k < 1:
        raise ValueError("k must be at least 1")
    return epsilon_total / (2.0 * math.sqrt(2.0 * k * math.log(1.0 / delta_prime)))
