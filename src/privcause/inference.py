"""Bivariate causal direction inference with additive noise models.

The non-private path fits both candidate directions by kernel ridge
regression on the training half, measures dependence between cause and
residual on the test half, and picks the direction with the *smaller*
dependence score.  The private paths release the two scores through a
differentially private mechanism first and compare the released values.

Two privacy targets exist and are accounted separately: ``test`` treats
the training half as public and protects the held-out pairs; ``train``
protects the training pairs through the stability of the fitted
regressors.  Running both sequentially and summing budgets protects the
whole dataset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data_io import SplitData
from .privacy import (
    PrivacyParams,
    ReleaseOutcome,
    advanced_composition_budget,
    laplace_mechanism,
    private_log_iqr,
    private_log_iqr_train,
    propose_test_release_stable,
    rank_train_stability_distance,
    test_sensitivity,
    train_sensitivity_hsic,
)
from .regression import fit_krr, residuals
from .scores import (
    KernelSpec,
    RANK_KINDS,
    ScoreKind,
    UnsupportedScoreError,
    hsic,
    iqr_score,
    kendall_tau,
    log_iqr,
    median_heuristic_bandwidth,
    spearman_rho,
    variance_score,
)

__all__ = [
    "Decision",
    "InferenceReport",
    "PrivateInferenceReport",
    "anm_infer_detailed",
    "private_test_infer",
    "private_train_infer",
    "utility_two_score",
    "utility_four_score",
]


class Decision(Enum):
    X_CAUSES_Y = "x->y"
    Y_CAUSES_X = "y->x"
    TIE = "tie"
    ABSTAIN = "abstain"


@dataclass(frozen=True, eq=False)
class InferenceReport:
    """Non-private outcome: the two dependence scores and the verdict, the
    held-out vectors they were computed from, and the fit that produced
    them (training size, regularizer and score bandwidths)."""

    score_kind: ScoreKind
    s_xy: float
    s_yx: float
    x_test: np.ndarray
    y_test: np.ndarray
    residuals_y: np.ndarray
    residuals_x: np.ndarray
    n_train: int
    lam: float
    hsic_bandwidths: str | float

    @property
    def margin(self) -> float:
        return abs(self.s_yx - self.s_xy)

    @property
    def decision(self) -> Decision:
        return _decide(self.s_xy, self.s_yx)


@dataclass(frozen=True)
class PrivateInferenceReport:
    """Outcome of a private release.

    ``outcome_xy``/``outcome_yx`` carry the released score for each
    direction (for the IQR paths, the released *sum* for that direction);
    the decision compares them, and Bottom on either side makes it
    Abstain.  ``noise_scale`` is the scale of the Laplace noise applied to
    released values (0 when the release is exact, as in the rank stability
    path).  The budget is the basic composition of the two outcomes' costs.

    A composed delta of 1 or more promises nothing, so such a report is
    refused with a ValueError.  Costs are charged on Bottom too and depend
    only on the privacy parameters, so the refusal reveals nothing about
    the data.
    """

    outcome_xy: ReleaseOutcome
    outcome_yx: ReleaseOutcome
    noise_scale: float
    predicted_utility: float | None

    def __post_init__(self) -> None:
        if self.delta_spent >= 1.0:
            raise ValueError(
                f"the decision's composed delta {self.delta_spent:g} is not below 1; "
                "lower delta for a meaningful guarantee"
            )

    @property
    def decision(self) -> Decision:
        if not (self.outcome_xy.released and self.outcome_yx.released):
            return Decision.ABSTAIN
        return _decide(self.outcome_xy.value, self.outcome_yx.value)

    @property
    def epsilon_spent(self) -> float:
        return self.outcome_xy.epsilon + self.outcome_yx.epsilon

    @property
    def delta_spent(self) -> float:
        return self.outcome_xy.delta + self.outcome_yx.delta


def _decide(s_xy: float, s_yx: float) -> Decision:
    if s_xy < s_yx:
        return Decision.X_CAUSES_Y
    if s_xy > s_yx:
        return Decision.Y_CAUSES_X
    return Decision.TIE


def _fixed_bandwidth(report: InferenceReport) -> float:
    """The HSIC score bandwidth, refusing the median heuristic: it reads
    the scored vectors, so no sensitivity bound covers it."""
    if report.hsic_bandwidths == "median":
        raise ValueError(
            "median-heuristic bandwidths depend on the scored data and leak it; "
            "score with a fixed bandwidth for private release"
        )
    return float(report.hsic_bandwidths)


def _dependence(kind: ScoreKind, cause, resid, bandwidths) -> float:
    if kind is ScoreKind.SPEARMAN_RHO:
        return spearman_rho(cause, resid)
    if kind is ScoreKind.KENDALL_TAU:
        return kendall_tau(cause, resid)
    if kind is ScoreKind.HSIC:
        # "median" reads the scored vectors, so it is only valid non-privately
        if bandwidths == "median":
            k_cause = KernelSpec(median_heuristic_bandwidth(cause))
            k_resid = KernelSpec(median_heuristic_bandwidth(resid))
        else:
            k_cause = k_resid = KernelSpec(float(bandwidths))
        return hsic(cause, resid, k_cause, k_resid)
    if kind is ScoreKind.IQR:
        return iqr_score(cause, resid)
    if kind is ScoreKind.VARIANCE:
        return variance_score(cause, resid)
    raise UnsupportedScoreError(f"unknown score kind: {kind!r}")


def anm_infer_detailed(
    split: SplitData,
    score_kind: ScoreKind,
    kernel: KernelSpec,
    lam: float,
    *,
    hsic_bandwidths: str | float = "median",
) -> InferenceReport:
    """Run the inference; the report also carries the held-out vectors.

    Fits f: x -> y and g: y -> x on the training half, forms the test
    residuals r_Y = y' - f(x') and r_X = x' - g(y'), and scores the pairs
    (x', r_Y) and (y', r_X).  Smaller score wins; exact equality is a Tie.
    """
    forward = fit_krr(split.train.x, split.train.y, kernel, lam)
    backward = fit_krr(split.train.y, split.train.x, kernel, lam)
    r_y = residuals(forward, split.test.x, split.test.y)
    r_x = residuals(backward, split.test.y, split.test.x)
    return InferenceReport(
        score_kind=score_kind,
        s_xy=_dependence(score_kind, split.test.x, r_y, hsic_bandwidths),
        s_yx=_dependence(score_kind, split.test.y, r_x, hsic_bandwidths),
        x_test=split.test.x,
        y_test=split.test.y,
        residuals_y=r_y,
        residuals_x=r_x,
        n_train=len(split.train),
        lam=lam,
        hsic_bandwidths=hsic_bandwidths,
    )


def _laplace_pair(
    report: InferenceReport, bound: float, params: PrivacyParams, rng: np.random.Generator
) -> PrivateInferenceReport:
    """Both scores plus Laplace(bound/epsilon) noise, x->y drawn first;
    each draw costs (epsilon, 0).  Every bound the package derives is positive."""
    noisy_xy = laplace_mechanism(report.s_xy, bound, params.epsilon, rng)
    noisy_yx = laplace_mechanism(report.s_yx, bound, params.epsilon, rng)
    scale = bound / params.epsilon
    return PrivateInferenceReport(
        outcome_xy=ReleaseOutcome.release(noisy_xy, params.epsilon),
        outcome_yx=ReleaseOutcome.release(noisy_yx, params.epsilon),
        noise_scale=scale,
        predicted_utility=utility_two_score(report.margin, scale),
    )


def _sum_outcomes(a: ReleaseOutcome, b: ReleaseOutcome) -> ReleaseOutcome:
    """The sum of two releases, at the basic composition of their costs."""
    cost = (a.epsilon + b.epsilon, a.delta + b.delta)
    if a.released and b.released:
        return ReleaseOutcome.release(a.value + b.value, *cost)
    return ReleaseOutcome.bottom(*cost)


def private_test_infer(
    report: InferenceReport,
    params: PrivacyParams,
    rng: np.random.Generator,
    *,
    delta_prime: float = 1e-6,
) -> PrivateInferenceReport:
    """Release the direction decision privately w.r.t. the held-out pairs.

    ``report`` is the trial's fit from :func:`anm_infer_detailed`; m is
    read from its held-out vectors.

    Rank and kernel dependence scores take the Laplace route: one draw per
    direction (x->y first, then y->x) at scale test_sensitivity/epsilon,
    the kernel score at its (12m-11)/(m-1)^2 bound.
    The sensitivity bound assumes any kernel bandwidths were chosen
    independently of the data, so HSIC scores computed with
    median-heuristic bandwidths (the default of :func:`anm_infer_detailed`)
    are rejected.

    The IQR score has unbounded sensitivity, so each of the four log-IQR
    summands (x', r_Y, y', r_X, released in that order) goes through its
    own stability-gated release, which is (eps0, delta)-DP with eps0 =
    advanced_composition_budget(epsilon, delta_prime, k=3), a third of it
    per Laplace draw.  A changed test pair changes one entry of each of
    the four vectors, so all four releases see it and the budget is the
    basic composition of all four; 4-fold advanced composition would be
    tighter only when delta_prime > e^-2.  Any Bottom means Abstain.

    Exact equality of the two released values is reported as Tie rather
    than an arbitrary pick; with continuous Laplace noise it has
    probability zero.
    """
    kind = report.score_kind
    m = len(report.x_test)
    if kind in RANK_KINDS or kind is ScoreKind.HSIC:
        if kind is ScoreKind.HSIC:
            _fixed_bandwidth(report)
        return _laplace_pair(report, test_sensitivity(kind, m), params, rng)
    if kind is ScoreKind.IQR:
        per_release = advanced_composition_budget(params.epsilon, delta_prime, k=3)
        inner = PrivacyParams(epsilon=per_release / 3.0, delta=params.delta)
        parts = [
            private_log_iqr(v, inner, rng)
            for v in (report.x_test, report.residuals_y, report.y_test, report.residuals_x)
        ]
        sigma = 1.0 / inner.epsilon
        return PrivateInferenceReport(
            outcome_xy=_sum_outcomes(parts[0], parts[1]),
            outcome_yx=_sum_outcomes(parts[2], parts[3]),
            noise_scale=sigma,
            predicted_utility=utility_four_score(report.margin, sigma),
        )
    raise UnsupportedScoreError(f"{kind.value} has no private release path")


def private_train_infer(
    report: InferenceReport,
    params: PrivacyParams,
    rng: np.random.Generator,
) -> PrivateInferenceReport:
    """Release the direction decision privately w.r.t. the n training pairs.

    ``report`` is the trial's own non-private fit from
    :func:`anm_infer_detailed`; nothing is refitted, and n, lam and the
    score bandwidths are read from it, so the noise is always sized for
    the fit that made the scores.  The held-out pairs are public here;
    what must stay hidden is how the fitted regressors (and through them
    the residuals) depend on any one training pair.  One swapped training
    pair moves every prediction by at most 8/(n lam^{3/2}), which gives
    three mechanisms:

    - rank scores: the score only changes if two residuals swap order, so
      the exact score is released through a stability test on the minimum
      residual gap (x->y first, then y->x), with no value noise.
    - kernel dependence: Laplace noise at the training sensitivity, scaled
      by the residual-side kernel's Lipschitz constant.
    - IQR: the test-variable summands ln IQR(x'), ln IQR(y') are public
      and exact, so they cost nothing; the residual summands go through
      the stability-gated release (r_Y first, then r_X).

    HSIC scores computed with median-heuristic bandwidths (the default of
    :func:`anm_infer_detailed`) are rejected: they read the residuals.
    """
    n, lam = report.n_train, report.lam
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lam must lie in (0, 1], got {lam}")
    kind = report.score_kind
    if kind in RANK_KINDS:
        d_xy = rank_train_stability_distance(report.residuals_y, n, lam)
        d_yx = rank_train_stability_distance(report.residuals_x, n, lam)
        return PrivateInferenceReport(
            outcome_xy=propose_test_release_stable(report.s_xy, d_xy, params, rng),
            outcome_yx=propose_test_release_stable(report.s_yx, d_yx, params, rng),
            noise_scale=0.0,
            predicted_utility=None,
        )
    if kind is ScoreKind.HSIC:
        lipschitz = KernelSpec(_fixed_bandwidth(report)).lipschitz
        bound = train_sensitivity_hsic(len(report.x_test), n, lam, lipschitz)
        return _laplace_pair(report, bound, params, rng)
    if kind is ScoreKind.IQR:
        q_x = ReleaseOutcome.release(log_iqr(report.x_test))
        q_y = ReleaseOutcome.release(log_iqr(report.y_test))
        p_ry = private_log_iqr_train(report.residuals_y, n, lam, params, rng)
        p_rx = private_log_iqr_train(report.residuals_x, n, lam, params, rng)
        sigma = 1.0 / params.epsilon
        return PrivateInferenceReport(
            outcome_xy=_sum_outcomes(p_ry, q_x),
            outcome_yx=_sum_outcomes(p_rx, q_y),
            noise_scale=sigma,
            predicted_utility=utility_two_score(report.margin, sigma),
        )
    raise UnsupportedScoreError(f"{kind.value} has no private release path")


def utility_two_score(gamma: float, sigma: float) -> float:
    """Probability the noisy two-score comparison preserves the verdict.

    With independent Laplace(sigma) noise on each score and a margin of
    gamma between them:

        P = 1 - ((gamma + 2 sigma) / (4 sigma)) * exp(-gamma / sigma)

    Lives in [1/2, 1) without clamping: 1/2 at gamma = 0, increasing in
    gamma, decreasing in sigma.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 1.0 - ((gamma + 2.0 * sigma) / (4.0 * sigma)) * math.exp(-gamma / sigma)


def utility_four_score(gamma: float, sigma: float) -> float:
    """Two-score utility's four-draw analogue, for the summed IQR releases.

    Each side of the comparison carries two independent Laplace(sigma)
    draws; the correct-ordering probability with margin gamma is

        P = 1 - exp(-gamma/sigma) (48 s^3 + 33 s^2 g + 9 s g^2 + g^3) / (96 s^3)

    writing s, g for sigma, gamma.  Also in [1/2, 1) with no clamping.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    s, g = sigma, gamma
    poly = 48.0 * s**3 + 33.0 * s**2 * g + 9.0 * s * g**2 + g**3
    return 1.0 - math.exp(-g / s) * poly / (96.0 * s**3)
