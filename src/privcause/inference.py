"""Bivariate causal direction inference with additive noise models.

The non-private path fits both candidate directions by kernel ridge
regression on the training half, measures dependence between cause and
residual on the test half, and picks the direction with the *smaller*
dependence score.  The private paths release the two scores through a
differentially private mechanism first and compare the released values.

Each privacy target protects one half against one substitution in it:
``test`` treats the training half as public and protects the held-out
pairs; ``train`` treats the held-out half as public and protects the
training pairs through the stability of the fitted regressors.  ``both``
runs the training release, then the test release, and each keeps only
its own half's guarantee.  Their budgets do not add up to one for the
whole dataset: a training swap moves every held-out residual, and the
test-side noise is not sized for that (on cubic data at n_total 2000 and
lambda 0.02, one training swap moved a test-side Kendall score by 2.45
times its test sensitivity).  IQR is refused at ``both``, because its
training release adds the exact ln IQR of the held-out vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._blas import single_threaded_blas
from .data_io import SplitData
from .privacy import (
    PrivacyParams,
    ReleaseOutcome,
    laplace_mechanism,
    private_log_iqr,
    private_log_iqr_train,
    propose_test_release_stable,
    rank_train_stability_distance,
    test_sensitivity,
    train_sensitivity_hsic,
)
from .regression import check_lam, fit_krr, residuals
from .scores import (
    KernelSpec,
    RANK_KINDS,
    ScoreKind,
    UnsupportedScoreError,
    hsic,
    iqr_score,
    kendall_tau,
    log_iqr,
    low_rank_hsic,
    median_heuristic_bandwidth,
    spearman_rho,
    variance_score,
)

__all__ = [
    "Decision",
    "InferenceReport",
    "PRIVATE_SCORE_BANDWIDTH",
    "PrivateInferenceReport",
    "TARGET_SIDES",
    "anm_infer_detailed",
    "check_target",
    "private_test_infer",
    "private_train_infer",
    "refuse_vacuous_delta",
    "utility_two_score",
    "utility_four_score",
]

# The test-side IQR release runs each gated ln IQR at epsilon /
# TEST_IQR_EPSILON_DIVISOR, a fixed share: 2 sqrt(6 ln 1e6) = 18.21.  The
# expression is the one that advanced composition of 3 releases at a slack
# of 1e-6 gave, so every released bit stays the same.
TEST_IQR_EPSILON_DIVISOR = 2.0 * math.sqrt(2.0 * 3 * math.log(1.0 / 1e-6))

# Each privacy target and the sides it releases, in the order they draw
# from the trial's noise stream.
TARGET_SIDES = {"test": ("test",), "train": ("train",), "both": ("train", "test")}

# HSIC's bandwidth in every report for a target, fixed before data are read
PRIVATE_SCORE_BANDWIDTH = 0.5


class Decision(Enum):
    X_CAUSES_Y = "x->y"
    Y_CAUSES_X = "y->x"
    TIE = "tie"
    ABSTAIN = "abstain"


@dataclass(frozen=True, eq=False)
class InferenceReport:
    """Non-private outcome: the two dependence scores and the verdict, the
    held-out vectors they were computed from, and the fit that produced
    them (training size, regularizer, and the privacy target it was fitted
    for, which fixes the score bandwidths and whether the fits could be
    low-rank; None for a non-private decision)."""

    score_kind: ScoreKind
    s_xy: float
    s_yx: float
    x_test: np.ndarray
    y_test: np.ndarray
    residuals_y: np.ndarray
    residuals_x: np.ndarray
    n_train: int
    lam: float
    target: str | None

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
    """

    outcome_xy: ReleaseOutcome
    outcome_yx: ReleaseOutcome
    noise_scale: float
    predicted_utility: float | None

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


def check_target(target: str) -> None:
    """The target rule: a key of :data:`TARGET_SIDES`."""
    if target not in TARGET_SIDES:
        raise ValueError(f"target must be one of {tuple(TARGET_SIDES)}, got {target!r}")


def refuse_vacuous_delta(kind: ScoreKind, target: str, params: PrivacyParams) -> float:
    """The composed delta of ``kind``'s private release at ``target``.

    The Laplace draws cost no delta; each gated release costs
    ``params.delta``: four on the test side for IQR, two on the training
    side for the rank and IQR scores.  The delta is the sum over the
    target's sides (:data:`TARGET_SIDES`).  Raises ValueError for an
    unknown target, when a gated release would run at delta 0, which its
    gate cannot, or when the delta is 1 or more, which promises nothing,
    and UnsupportedScoreError for IQR at "both", whose training release
    adds exact held-out values that a test substitution moves.  It depends
    on ``kind``, ``target`` and ``params`` alone, so callers refuse before
    any release runs, and the refusal reveals nothing about the data.
    """
    check_target(target)
    if kind not in (*RANK_KINDS, ScoreKind.HSIC, ScoreKind.IQR):
        raise UnsupportedScoreError(f"{kind.value} has no private release path")
    if kind is ScoreKind.IQR and target == "both":
        raise UnsupportedScoreError(
            "iqr has no release at target both: the training release adds the "
            "exact ln IQR of the held-out vectors"
        )
    gated = {"test": 4 if kind is ScoreKind.IQR else 0, "train": 0 if kind is ScoreKind.HSIC else 2}
    gates = sum(gated[side] for side in TARGET_SIDES[target])
    if gates:
        params.require_delta(f"{kind.value} at target {target} runs a propose-test-release gate, which")
    delta = gates * params.delta
    if delta >= 1.0:
        raise ValueError(
            f"the decision's composed delta {delta:g} is not below 1; "
            "lower delta for a meaningful guarantee"
        )
    return delta


def _decide(s_xy: float, s_yx: float) -> Decision:
    if s_xy < s_yx:
        return Decision.X_CAUSES_Y
    if s_xy > s_yx:
        return Decision.Y_CAUSES_X
    return Decision.TIE


def _has_train_side(target: str | None) -> bool:
    """Whether a training release, which needs exact fits, reads ``target``."""
    return target is not None and "train" in TARGET_SIDES[target]


def _dependence(kind: ScoreKind, cause, resid) -> float:
    if kind is ScoreKind.SPEARMAN_RHO:
        return spearman_rho(cause, resid)
    if kind is ScoreKind.KENDALL_TAU:
        return kendall_tau(cause, resid)
    if kind is ScoreKind.HSIC:
        kernel = KernelSpec(PRIVATE_SCORE_BANDWIDTH)
        return hsic(cause, resid, kernel, kernel)
    if kind is ScoreKind.IQR:
        return iqr_score(cause, resid)
    if kind is ScoreKind.VARIANCE:
        return variance_score(cause, resid)
    raise UnsupportedScoreError(f"unknown score kind: {kind!r}")


def _low_rank_median_hsic(pairs) -> tuple[float, float]:
    """Both median-bandwidth HSIC scores through :func:`low_rank_hsic`, or
    both exact where their gap is within the sum of the two error bounds,
    so the decision is always the exact scores' decision.  The bandwidths
    read the scored vectors, so these scores are only valid non-privately."""
    kernels = [
        (KernelSpec(median_heuristic_bandwidth(cause)), KernelSpec(median_heuristic_bandwidth(resid)))
        for cause, resid in pairs
    ]
    (s_xy, eta_xy), (s_yx, eta_yx) = (
        low_rank_hsic(cause, resid, *k) for (cause, resid), k in zip(pairs, kernels)
    )
    if eta_xy + eta_yx == 0.0 or abs(s_xy - s_yx) > eta_xy + eta_yx:
        return s_xy, s_yx
    s_xy, s_yx = (hsic(cause, resid, *k) for (cause, resid), k in zip(pairs, kernels))
    return s_xy, s_yx


def anm_infer_detailed(
    split: SplitData,
    score_kind: ScoreKind,
    kernel: KernelSpec,
    lam: float,
    *,
    target: str | None = None,
) -> InferenceReport:
    """Run the inference; the report also carries the held-out vectors.

    Fits f: x -> y and g: y -> x on the training half, forms the test
    residuals r_Y = y' - f(x') and r_X = x' - g(y'), and scores the pairs
    (x', r_Y) and (y', r_X).  Smaller score wins; exact equality is a Tie.

    ``target`` is the privacy target whose releases will read the report
    (a key of :data:`TARGET_SIDES`), or None for a non-private decision.
    The fits are exact where it has a training side, which
    :func:`private_train_infer` needs, and may take :func:`fit_krr`'s
    low-rank route, which reads the training half alone, otherwise.  HSIC
    is scored exactly at :data:`PRIVATE_SCORE_BANDWIDTH` for a target; at
    None, which no release reads, at median-heuristic bandwidths through
    :func:`low_rank_hsic`, whose decision is the exact scores' decision.

    Fits and scores run on single-threaded BLAS: every decision path goes
    through here, so each computes the same bits at any pool size, and a
    pool of one process per core supplies the parallelism.
    """
    if target is not None:
        check_target(target)
    low_rank = not _has_train_side(target)
    with single_threaded_blas():
        forward = fit_krr(split.train.x, split.train.y, kernel, lam, low_rank=low_rank)
        backward = fit_krr(split.train.y, split.train.x, kernel, lam, low_rank=low_rank)
        r_y = residuals(forward, split.test.x, split.test.y)
        r_x = residuals(backward, split.test.y, split.test.x)
        pairs = ((split.test.x, r_y), (split.test.y, r_x))
        if score_kind is ScoreKind.HSIC and target is None:
            s_xy, s_yx = _low_rank_median_hsic(pairs)
        else:
            s_xy, s_yx = (_dependence(score_kind, *pair) for pair in pairs)
    return InferenceReport(
        score_kind=score_kind,
        s_xy=s_xy,
        s_yx=s_yx,
        x_test=split.test.x,
        y_test=split.test.y,
        residuals_y=r_y,
        residuals_x=r_x,
        n_train=len(split.train),
        lam=lam,
        target=target,
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
) -> PrivateInferenceReport:
    """Release the direction decision privately w.r.t. the held-out pairs.

    ``report`` is the trial's fit from :func:`anm_infer_detailed`; m is
    read from its held-out vectors.

    Rank and kernel dependence scores take the Laplace route: one draw per
    direction (x->y first, then y->x) at scale test_sensitivity/epsilon,
    the kernel score at its (12m-11)/(m-1)^2 bound.
    The sensitivity bound assumes any kernel bandwidths were chosen
    independently of the data, so HSIC from a report fitted for no target,
    scored at median-heuristic bandwidths, is rejected; rank and IQR
    releases accept any report.

    The IQR score has unbounded sensitivity, so each of the four log-IQR
    summands (x', r_Y, y', r_X, released in that order) goes through its
    own stability-gated release, which is (eps0, delta)-DP with eps0 =
    epsilon / TEST_IQR_EPSILON_DIVISOR, a third of it per Laplace draw.
    A changed test pair changes one entry of each of the four vectors, so
    all four releases see it and the budget is the basic composition of
    all four, (4 eps0, 4 delta).  Any Bottom means Abstain.
    That composed delta of 4 delta depends on ``params`` alone, so a
    vacuous one, like a score kind with no release path, is refused before
    the first release (:func:`refuse_vacuous_delta`).

    Exact equality of the two released values is reported as Tie rather
    than an arbitrary pick; with continuous Laplace noise it has
    probability zero.
    """
    kind = report.score_kind
    refuse_vacuous_delta(kind, "test", params)
    if kind is ScoreKind.IQR:
        per_release = params.epsilon / TEST_IQR_EPSILON_DIVISOR
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
    if kind is ScoreKind.HSIC and report.target is None:
        raise ValueError(
            "median-heuristic bandwidths depend on the scored data and leak it; "
            "fit the report for a privacy target to score at a fixed bandwidth"
        )
    return _laplace_pair(report, test_sensitivity(kind, len(report.x_test)), params, rng)


def private_train_infer(
    report: InferenceReport,
    params: PrivacyParams,
    rng: np.random.Generator,
) -> PrivateInferenceReport:
    """Release the direction decision privately w.r.t. the n training pairs.

    ``report`` is the trial's own non-private fit from
    :func:`anm_infer_detailed`; nothing is refitted, and n, lam and the
    target are read from it, so the noise is always sized for the fit
    that made the scores.  The held-out pairs are public here; what must
    stay hidden is how the fitted regressors (and through them the
    residuals) depend on any one training pair.  One swapped training
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

    A report fitted for a target with no training side, or for none, is
    refused: its fits may be low-rank, and the 8/(n lam^{3/2}) bound is
    proved for the exact ridge solution.  Unsupported kinds and a composed
    delta of 1 or more are refused next.
    """
    if not _has_train_side(report.target):
        raise ValueError(
            f"a report fitted for target {report.target!r} may have low-rank fits, but "
            "residual_perturbation_bound is proved for the exact ridge solution"
        )
    n, lam = report.n_train, report.lam
    check_lam(lam)
    kind = report.score_kind
    refuse_vacuous_delta(kind, "train", params)
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
        lipschitz = KernelSpec(PRIVATE_SCORE_BANDWIDTH).lipschitz
        bound = train_sensitivity_hsic(len(report.x_test), n, lam, lipschitz)
        return _laplace_pair(report, bound, params, rng)
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


def _check_utility_args(gamma: float, sigma: float) -> None:
    """The utility formulas' domain: a margin gamma >= 0 and a finite
    noise scale sigma > 0."""
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")


def utility_two_score(gamma: float, sigma: float) -> float:
    """Probability the noisy two-score comparison preserves the verdict.

    With independent Laplace(sigma) noise on each score and a margin of
    gamma between them:

        P = 1 - ((gamma + 2 sigma) / (4 sigma)) * exp(-gamma / sigma)

    Lives in [1/2, 1) without clamping: 1/2 at gamma = 0, increasing in
    gamma, decreasing in sigma.
    """
    _check_utility_args(gamma, sigma)
    return 1.0 - ((gamma + 2.0 * sigma) / (4.0 * sigma)) * math.exp(-gamma / sigma)


def utility_four_score(gamma: float, sigma: float) -> float:
    """Two-score utility's four-draw analogue, for the summed IQR releases.

    Each side of the comparison carries two independent Laplace(sigma)
    draws; the correct-ordering probability with margin gamma is

        P = 1 - exp(-gamma/sigma) (48 s^3 + 33 s^2 g + 9 s g^2 + g^3) / (96 s^3)

    writing s, g for sigma, gamma.  Also in [1/2, 1) with no clamping.
    """
    _check_utility_args(gamma, sigma)
    s, g = sigma, gamma
    poly = 48.0 * s**3 + 33.0 * s**2 * g + 9.0 * s * g**2 + g**3
    return 1.0 - math.exp(-g / s) * poly / (96.0 * s**3)
