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
from dataclasses import dataclass, field

import numpy as np

from .regression import residual_perturbation_bound
from .scores import DegenerateDataError, ScoreKind, UnsupportedScoreError, _as_vector

__all__ = [
    "PrivacyParams",
    "SensitivityBound",
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
class SensitivityBound:
    value: float
    formula: str
    inputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReleaseOutcome:
    """Either a released real value or the bottom symbol (abstain)."""

    released: bool
    value: float | None = None

    @classmethod
    def release(cls, value: float) -> "ReleaseOutcome":
        return cls(True, float(value))

    @classmethod
    def bottom(cls) -> "ReleaseOutcome":
        return cls(False, None)


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


def laplace_mechanism(
    value: float, sensitivity: SensitivityBound, epsilon: float, rng: np.random.Generator
) -> float:
    """value + Laplace(sensitivity/epsilon); exact when the sensitivity is zero."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if sensitivity.value < 0 or not math.isfinite(sensitivity.value):
        raise ValueError(f"sensitivity must be finite and nonnegative, got {sensitivity.value}")
    if sensitivity.value == 0.0:
        return float(value)
    return float(value) + laplace_sample(sensitivity.value / epsilon, rng)


def test_sensitivity(kind: ScoreKind, m: int, hsic_variant: str = "improved") -> SensitivityBound:
    """Global sensitivity of a test-set score under one sample substitution.

    Spearman: 30/m.  Kendall: 4/m.  Kernel dependence: (16m-8)/(m-1)^2
    ("loose") or (12m-11)/(m-1)^2 ("improved", the default).  The IQR and
    variance scores have no bounded global sensitivity; ask for them and
    you get an UnsupportedScoreError.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if kind is ScoreKind.SPEARMAN_RHO:
        return SensitivityBound(30.0 / m, "spearman-test", {"m": m})
    if kind is ScoreKind.KENDALL_TAU:
        return SensitivityBound(4.0 / m, "kendall-test", {"m": m})
    if kind is ScoreKind.HSIC:
        if hsic_variant == "loose":
            return SensitivityBound((16.0 * m - 8.0) / (m - 1) ** 2, "hsic-test-loose", {"m": m})
        if hsic_variant == "improved":
            return SensitivityBound((12.0 * m - 11.0) / (m - 1) ** 2, "hsic-test-improved", {"m": m})
        raise ValueError(f"unknown hsic variant: {hsic_variant!r}")
    raise UnsupportedScoreError(
        f"{kind.value} has no bounded global sensitivity; use its release mechanism instead"
    )


def train_sensitivity_hsic(m: int, n: int, lam: float, lipschitz: float) -> SensitivityBound:
    """Sensitivity of the kernel dependence score to one training-pair swap.

    Each held-out residual moves by at most B = 8 / (n lam^{3/2})
    (:func:`residual_perturbation_bound`); pushing that through the
    residual-side kernel, Lipschitz with constant L, gives 32 L sqrt(m) B.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
    if not (math.isfinite(lipschitz) and lipschitz > 0):
        raise ValueError(f"lipschitz must be positive, got {lipschitz}")
    value = 32.0 * lipschitz * math.sqrt(m) * residual_perturbation_bound(n, lam)
    return SensitivityBound(value, "hsic-train", {"m": m, "n": n, "lam": lam, "lipschitz": lipschitz})


def rank_train_stability_distance(test_residuals, n: int, lam: float) -> int:
    """How many training-pair swaps the residual ranking provably survives.

    gamma is the smallest gap between adjacent sorted residual values; any
    single swap moves each residual by at most B = 8/(n lam^{3/2}), so the
    ranking is unchanged for up to floor(gamma / (2B)) swaps.  Duplicate
    residuals give gamma = 0 and distance 0.
    """
    r = _as_vector(test_residuals, "test_residuals")
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
    if noisy > math.log(1.0 / params.delta) / params.epsilon:
        return ReleaseOutcome.release(value)
    return ReleaseOutcome.bottom()


# ---------------------------------------------------------------------------
# log-IQR attack counts and release


def _quantile_anchor(m: int, fraction: float) -> tuple[int, float]:
    # linear-interpolation quantile sits between order stats j and j+1
    pos = fraction * (m - 1)
    j = int(math.floor(pos))
    return j, pos - j


def _shifted_lerp(v: np.ndarray, j: int, frac: float) -> float:
    """Interpolated order statistic at base index j, -inf/+inf out of range."""
    m = v.size

    def at(i: int) -> float:
        if i < 0:
            return -math.inf
        if i >= m:
            return math.inf
        return float(v[i])

    if frac == 0.0:
        return at(j)
    lo, hi = at(j), at(j + 1)
    if math.isinf(lo):
        return lo
    if math.isinf(hi):
        return hi
    return (1.0 - frac) * lo + frac * hi


def _min_substitutions_up(v: np.ndarray, threshold: float) -> int:
    """Fewest substitutions after which the IQR can reach >= threshold.

    k1 extreme-low insertions drag the lower quartile down to the order
    statistic k1 places below it; k2 removals below the upper quartile
    (re-inserted far right) push it k2 places up.  Both shifts are tight,
    so a scan over k2 with a monotone search over k1 is exact.
    """
    m = v.size
    if math.isinf(threshold):
        return m + 1
    j_lo, f_lo = _quantile_anchor(m, 0.25)
    j_hi, f_hi = _quantile_anchor(m, 0.75)
    low_shift = np.array([_shifted_lerp(v, j_lo - k, f_lo) for k in range(m + 1)])
    high_shift = np.array([_shifted_lerp(v, j_hi + k, f_hi) for k in range(m + 1)])
    # low_shift is nonincreasing; for each k2 find the smallest workable k1
    best = m + 1
    neg_low = -low_shift
    for k2 in range(m + 1):
        if k2 >= best:
            break
        target = high_shift[k2] - threshold  # need low_shift[k1] <= target
        if math.isinf(high_shift[k2]):
            best = min(best, k2)
            break
        k1 = int(np.searchsorted(neg_low, -target, side="left"))
        if k1 <= m:
            best = min(best, k1 + k2)
    return best


def _min_iqr_after(v: np.ndarray, k1: int, k2: int) -> float:
    """Smallest IQR achievable by replacing the k1 lowest and k2 highest
    points with copies of one interior value c, minimized over c."""
    m = v.size
    total = k1 + k2
    if total >= m:
        return 0.0
    w = v[k1 : m - k2]

    def at(i: int) -> float:
        if i < 0:
            return -math.inf
        if i >= w.size:
            return math.inf
        return float(w[i])

    j_lo, f_lo = _quantile_anchor(m, 0.25)
    j_hi, f_hi = _quantile_anchor(m, 0.75)
    anchors = [(j_lo, 1.0 - f_lo, -1.0), (j_lo + 1, f_lo, -1.0), (j_hi, 1.0 - f_hi, 1.0), (j_hi + 1, f_hi, 1.0)]
    anchors = [(p, coef, sign) for p, coef, sign in anchors if coef > 0.0]

    candidates: set[float] = {float(v[0]) - 1.0, float(v[-1]) + 1.0}
    for p, _, _ in anchors:
        for bound in (at(p - total), at(p)):
            if math.isfinite(bound):
                candidates.add(bound)

    best = math.inf
    for c in candidates:
        spread = 0.0
        for p, coef, sign in anchors:
            stat = min(max(c, at(p - total)), at(p))
            spread += sign * coef * stat
        best = min(best, spread)
    return best


def _min_substitutions_down(v: np.ndarray, threshold: float) -> int:
    """Fewest substitutions after which the IQR can drop below threshold."""
    m = v.size
    if threshold <= 0.0:
        return m + 1
    best = m + 1
    for k2 in range(m + 1):
        if k2 >= best:
            break
        # _min_iqr_after is nonincreasing in k1 for fixed k2: binary search
        lo, hi = 0, m - k2
        if not _min_iqr_after(v, hi, k2) < threshold:
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            if _min_iqr_after(v, mid, k2) < threshold:
                hi = mid
            else:
                lo = mid + 1
        best = min(best, lo + k2)
    return best


def iqr_attack_count(values, log_interval: tuple[float, float]) -> int:
    """Minimum single-sample substitutions that move ln IQR outside the
    half-open interval [lo, hi).

    Exact, via order statistics: widening the IQR is optimal with k1 points
    sent far left and k2 removed from the middle and sent far right;
    shrinking it is optimal with extremes recalled to one interior point.
    A count of m+1 means unreachable (e.g. the interval is all of R).
    """
    v = np.sort(_as_vector(values, "values"))
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
    v = _as_vector(values, "values")
    if v.size < 4:
        raise ValueError(f"need at least 4 samples, got {v.size}")
    if params.delta <= 0.0:
        raise ValueError("private log-IQR requires delta > 0")
    q25, q75 = np.quantile(v, (0.25, 0.75))
    spread = float(q75 - q25)
    if spread <= 0.0:
        return ReleaseOutcome.bottom()
    q = math.log(spread)
    b1, b2 = _log_iqr_bins(q)
    count_1, count_2 = attack_count(v, spread, b1), attack_count(v, spread, b2)
    eps = params.epsilon
    threshold = 1.0 + math.log(1.0 / params.delta) / eps
    r1 = count_1 + laplace_sample(1.0 / eps, rng)
    r2 = count_2 + laplace_sample(1.0 / eps, rng)
    if max(r1, r2) > threshold:
        return ReleaseOutcome.release(q + laplace_sample(1.0 / eps, rng))
    return ReleaseOutcome.bottom()


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
