"""Direction inference, its private releases, and the utility formulas."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privcause.data_io import SamplePairs, SplitData, split, synth_anm
from privcause.experiments import ExperimentConfig, SyntheticSpec, run_trial
from privcause.inference import (
    Decision,
    PrivateInferenceReport,
    anm_infer_detailed,
    private_test_infer,
    private_train_infer,
    utility_four_score,
    utility_two_score,
)
from privcause.privacy import (
    PrivacyParams,
    ReleaseOutcome,
    advanced_composition_budget,
    derive_rng,
    laplace_mechanism,
    private_log_iqr_train,
    propose_test_release_stable,
    rank_train_stability_distance,
    train_sensitivity_hsic,
)
from privcause.regression import residual_perturbation_bound
from privcause.scores import KernelSpec, ScoreKind, UnsupportedScoreError, log_iqr

REG_KERNEL = KernelSpec(0.3)


def cubic_split(seed=0, n_total=200, noise=0.3):
    return split(synth_anm("cubic", n_total, noise, seed), 0.5, seed)


def held_out(m):
    """A report with m test pairs, for hand-made scores (the rank releases
    read only m from its held-out vectors)."""
    return anm_infer_detailed(cubic_split(n_total=2 * m), ScoreKind.KENDALL_TAU, REG_KERNEL, 0.5)


def swap_directions(parts: SplitData) -> SplitData:
    flip = lambda p: SamplePairs(p.y.copy(), p.x.copy(), id=p.id + "|swapped")
    return SplitData(train=flip(parts.train), test=flip(parts.test))


def test_cubic_recovers_forward_direction():
    report = anm_infer_detailed(cubic_split(3), ScoreKind.HSIC, REG_KERNEL, 1e-3)
    assert report.decision is Decision.X_CAUSES_Y
    assert report.s_xy < report.s_yx
    assert report.margin == pytest.approx(abs(report.s_yx - report.s_xy))


def test_swapping_variables_flips_the_verdict():
    parts = cubic_split(5)
    for kind, bw in ((ScoreKind.KENDALL_TAU, "median"), (ScoreKind.HSIC, 0.5)):
        fwd = anm_infer_detailed(parts, kind, REG_KERNEL, 1e-3, hsic_bandwidths=bw)
        rev = anm_infer_detailed(swap_directions(parts), kind, REG_KERNEL, 1e-3, hsic_bandwidths=bw)
        assert fwd.s_xy == pytest.approx(rev.s_yx, abs=1e-12)
        assert fwd.s_yx == pytest.approx(rev.s_xy, abs=1e-12)
        assert {fwd.decision, rev.decision} == {Decision.X_CAUSES_Y, Decision.Y_CAUSES_X}


def test_identical_coordinates_tie():
    rng = np.random.default_rng(9)
    tr = np.sort(rng.uniform(-1, 1, 40))
    te = rng.uniform(-1, 1, 40)
    parts = SplitData(
        train=SamplePairs(tr, tr.copy(), id="mirror|train"),
        test=SamplePairs(te, te.copy(), id="mirror|test"),
    )
    report = anm_infer_detailed(parts, ScoreKind.KENDALL_TAU, REG_KERNEL, 0.1)
    assert report.decision is Decision.TIE
    assert report.margin == 0.0


def test_margin_and_decision_follow_the_scores():
    report = held_out(50)
    ahead = replace(report, s_xy=0.1, s_yx=0.3)
    swapped = replace(report, s_xy=0.3, s_yx=0.1)
    level = replace(report, s_xy=0.3, s_yx=0.3)
    assert ahead.decision is Decision.X_CAUSES_Y and ahead.margin == pytest.approx(0.2)
    assert swapped.decision is Decision.Y_CAUSES_X and swapped.margin == ahead.margin
    assert level.decision is Decision.TIE and level.margin == 0.0


def test_utility_spot_values():
    assert utility_two_score(0.0, 1.0) == 0.5
    assert utility_two_score(0.1, 0.1) == pytest.approx(0.7240904191214182, abs=1e-12)
    assert utility_four_score(0.0, 0.3) == 0.5
    assert utility_four_score(0.1, 0.1) == pytest.approx(0.6512809463895703, abs=1e-12)
    assert utility_four_score(0.04, 0.04) == pytest.approx(0.651268, abs=0.002)
    with pytest.raises(ValueError):
        utility_two_score(-0.1, 1.0)
    with pytest.raises(ValueError):
        utility_four_score(0.1, 0.0)


@given(st.floats(0.0, 1.2), st.floats(0.05, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0))
@settings(max_examples=80, deadline=None)
def test_utility_formulas_bounded_and_monotone(gamma, sigma, dg, ds):
    # gamma/sigma stays small enough that 1 - P is representable, so the
    # upper bound can be asserted strictly
    for formula in (utility_two_score, utility_four_score):
        base = formula(gamma, sigma)
        assert 0.5 <= base < 1.0
        assert formula(gamma + dg, sigma) >= base - 1e-12
        assert formula(gamma, sigma + ds) <= base + 1e-12


def test_private_release_rate_matches_utility_formula():
    report = replace(held_out(100), score_kind=ScoreKind.KENDALL_TAU, s_xy=0.1, s_yx=0.3)
    params = PrivacyParams(epsilon=1.0)
    hits = 0
    trials = 10_000
    for i in range(trials):
        out = private_test_infer(report, params, derive_rng(21, "mc", i))
        assert out.epsilon_spent == 2.0 and out.delta_spent == 0.0
        assert out.noise_scale == pytest.approx(0.04)
        assert out.predicted_utility == pytest.approx(0.9882085927516004)
        hits += out.decision is Decision.X_CAUSES_Y
    want = 0.9882085927516004
    tol = 3.0 * math.sqrt(want * (1.0 - want) / trials)
    assert abs(hits / trials - want) < tol


def test_noise_scale_is_not_overridable_and_equal_releases_tie():
    report = replace(held_out(50), score_kind=ScoreKind.SPEARMAN_RHO, s_xy=0.2, s_yx=0.5)
    with pytest.raises(TypeError):
        private_test_infer(report, PrivacyParams(epsilon=0.1), derive_rng(0), sensitivity=0.0)
    equal = PrivateInferenceReport(
        outcome_xy=ReleaseOutcome.release(0.4),
        outcome_yx=ReleaseOutcome.release(0.4),
        noise_scale=1.0,
        predicted_utility=0.5,
    )
    assert equal.decision is Decision.TIE


def test_private_test_iqr_abstains_under_tight_budget():
    parts = cubic_split(7, n_total=100)
    report = anm_infer_detailed(parts, ScoreKind.IQR, REG_KERNEL, 1e-3)
    params = PrivacyParams(epsilon=1.0, delta=0.01)
    out = private_test_infer(report, params, derive_rng(1))
    # the per-release threshold sits far above any attainable attack count
    assert out.decision is Decision.ABSTAIN
    assert not out.outcome_xy.released and not out.outcome_yx.released
    eps0 = advanced_composition_budget(1.0, 1e-6, k=3)
    assert out.epsilon_spent == pytest.approx(4.0 * eps0)
    assert out.delta_spent == pytest.approx(4.0 * 0.01)
    assert out.noise_scale > 10.0
    assert 0.5 <= out.predicted_utility < 1.0
    with pytest.raises(TypeError):
        private_test_infer(report, report, params, derive_rng(1))  # no separate vectors record


@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("delta_prime", [1e-6, 1e-3])
def test_private_test_iqr_budget_covers_four_fold_composition(epsilon, delta_prime):
    # a changed test pair moves all four of x', r_Y, y', r_X, so the four
    # (eps0, delta) sub-releases compose 4-fold, not 3-fold
    parts = cubic_split(7, n_total=100)
    report = anm_infer_detailed(parts, ScoreKind.IQR, REG_KERNEL, 1e-3)
    delta = 0.01
    out = private_test_infer(
        report,
        PrivacyParams(epsilon=epsilon, delta=delta),
        derive_rng(2),
        delta_prime=delta_prime,
    )
    eps0 = advanced_composition_budget(epsilon, delta_prime, k=3)
    assert out.noise_scale == pytest.approx(3.0 / eps0, rel=1e-12)
    composed_eps = math.sqrt(8.0 * math.log(1.0 / delta_prime)) * eps0 + 4.0 * eps0 * math.expm1(eps0)
    composed_delta = 4.0 * delta + delta_prime
    # leading term sqrt(8 L) / (2 sqrt(6 L)) = 1/sqrt(3); the rest is second order
    assert composed_eps == pytest.approx(epsilon / math.sqrt(3.0), rel=0.05)
    # the printed budget is the basic composition of the four releases,
    # below both the advanced composition and the old (2 eps, 2(3 delta + delta'))
    assert out.epsilon_spent == pytest.approx(4.0 * eps0, rel=1e-12)
    assert out.delta_spent == pytest.approx(4.0 * delta, rel=1e-12)
    assert out.epsilon_spent <= 2.0 * epsilon
    assert out.delta_spent <= 2.0 * (3.0 * delta + delta_prime)
    assert out.epsilon_spent < composed_eps and out.delta_spent < composed_delta


def test_private_test_rejects_variance_score():
    report = replace(held_out(50), score_kind=ScoreKind.VARIANCE, s_xy=-1.0, s_yx=-2.0)
    with pytest.raises(UnsupportedScoreError):
        private_test_infer(report, PrivacyParams(epsilon=1.0), derive_rng(0))


def test_test_hsic_rejects_median_bandwidths():
    # the test-side sensitivity assumes a data-independent bandwidth, so a
    # report scored at the median-heuristic default must not be released
    report = anm_infer_detailed(cubic_split(13), ScoreKind.HSIC, REG_KERNEL, 0.5)
    assert report.hsic_bandwidths == "median"
    with pytest.raises(ValueError, match="median"):
        private_test_infer(report, PrivacyParams(epsilon=1.0), derive_rng(0))


def test_train_rank_release_replays_stability_gate():
    parts = cubic_split(11)
    params = PrivacyParams(epsilon=2.0, delta=0.05)
    report = anm_infer_detailed(parts, ScoreKind.KENDALL_TAU, REG_KERNEL, 0.5, hsic_bandwidths=0.5)
    n = len(parts.train)
    for i in range(8):
        got = private_train_infer(report, params, derive_rng(30, "tr", i))
        rng = derive_rng(30, "tr", i)
        d_xy = rank_train_stability_distance(report.residuals_y, n, 0.5)
        d_yx = rank_train_stability_distance(report.residuals_x, n, 0.5)
        assert got.outcome_xy == propose_test_release_stable(report.s_xy, d_xy, params, rng)
        assert got.outcome_yx == propose_test_release_stable(report.s_yx, d_yx, params, rng)
        assert got.noise_scale == 0.0
        assert got.predicted_utility is None
        assert got.epsilon_spent == pytest.approx(4.0)
        assert got.delta_spent == pytest.approx(0.1)
        if got.outcome_xy.released:
            assert got.outcome_xy.value == report.s_xy  # exact, no value noise


def test_train_rank_stability_distance_is_zero_on_cubic_fits():
    # one training swap may move a residual by B = 8/(n lam^1.5), and the
    # smallest adjacent residual gap stays far below 2B, so the distance is
    # 0 and the training-side rank release passes only on its noise
    worst = 0.0
    for n_total in (200, 2000):
        for lam in (1e-3, 0.1, 1.0):
            for seed in range(5):
                parts = cubic_split(seed, n_total)
                report = anm_infer_detailed(parts, ScoreKind.KENDALL_TAU, REG_KERNEL, lam)
                per_swap = residual_perturbation_bound(report.n_train, lam)
                for r in (report.residuals_y, report.residuals_x):
                    assert rank_train_stability_distance(r, report.n_train, lam) == 0
                    worst = max(worst, float(np.min(np.diff(np.sort(r)))) / (2.0 * per_swap))
    assert worst < 0.01, worst


def test_train_hsic_release_replays_laplace_route():
    parts = cubic_split(13)
    params = PrivacyParams(epsilon=1.0)
    report = anm_infer_detailed(parts, ScoreKind.HSIC, REG_KERNEL, 0.5, hsic_bandwidths=0.5)
    got = private_train_infer(report, params, derive_rng(31, "th"))
    rng = derive_rng(31, "th")
    bound = train_sensitivity_hsic(len(parts.test), len(parts.train), 0.5, 1.0 / 0.5)
    assert got.outcome_xy.value == laplace_mechanism(report.s_xy, bound, 1.0, rng)
    assert got.outcome_yx.value == laplace_mechanism(report.s_yx, bound, 1.0, rng)
    assert got.noise_scale == pytest.approx(bound)
    assert got.epsilon_spent == 2.0 and got.delta_spent == 0.0
    assert got.predicted_utility == pytest.approx(utility_two_score(report.margin, bound))


def test_train_hsic_rejects_median_bandwidths():
    # both functions at their defaults: the scores use the median heuristic,
    # which the release must refuse rather than size noise for another bandwidth
    parts = cubic_split(13)
    report = anm_infer_detailed(parts, ScoreKind.HSIC, REG_KERNEL, 0.5)
    assert report.hsic_bandwidths == "median"
    with pytest.raises(ValueError, match="median"):
        private_train_infer(report, PrivacyParams(epsilon=1.0), derive_rng(0))


def test_train_iqr_release_shifts_public_summands():
    parts = cubic_split(17)
    params = PrivacyParams(epsilon=1.0, delta=0.05)
    report = anm_infer_detailed(parts, ScoreKind.IQR, REG_KERNEL, 1.0, hsic_bandwidths=0.5)
    n = len(parts.train)
    for i in range(8):
        got = private_train_infer(report, params, derive_rng(32, "ti", i))
        rng = derive_rng(32, "ti", i)
        p_ry = private_log_iqr_train(report.residuals_y, n, 1.0, params, rng)
        p_rx = private_log_iqr_train(report.residuals_x, n, 1.0, params, rng)
        if p_ry.released:
            assert got.outcome_xy.value == pytest.approx(p_ry.value + log_iqr(report.x_test))
        else:
            assert not got.outcome_xy.released
        if p_rx.released:
            assert got.outcome_yx.value == pytest.approx(p_rx.value + log_iqr(report.y_test))
        else:
            assert not got.outcome_yx.released
        assert got.epsilon_spent == pytest.approx(6.0)
        assert got.delta_spent == pytest.approx(0.1)


def test_train_lambda_validation():
    parts = cubic_split(1)
    params = PrivacyParams(epsilon=1.0, delta=0.01)
    report = anm_infer_detailed(parts, ScoreKind.KENDALL_TAU, REG_KERNEL, 0.5)
    assert (report.n_train, report.lam) == (len(parts.train), 0.5)
    with pytest.raises(ValueError):
        private_train_infer(replace(report, lam=1.5), params, derive_rng(0))
    report = anm_infer_detailed(parts, ScoreKind.VARIANCE, REG_KERNEL, 0.5)
    with pytest.raises(UnsupportedScoreError):
        private_train_infer(report, params, derive_rng(0))


# The README's budget table, with e = epsilon, d = delta and e0 the
# test-side IQR per-release epsilon; each side of a decision costs half.
# d = 0.2 keeps the largest composed delta, the test-side IQR's 4d, below 1.
LEDGER_EPS, LEDGER_DELTA, LEDGER_DELTA_PRIME = 0.7, 0.2, 1e-3
LEDGER_EPS0 = advanced_composition_budget(LEDGER_EPS, LEDGER_DELTA_PRIME, k=3)
README_BUDGETS = {
    ("test", ScoreKind.SPEARMAN_RHO): (2.0 * LEDGER_EPS, 0.0),
    ("test", ScoreKind.KENDALL_TAU): (2.0 * LEDGER_EPS, 0.0),
    ("test", ScoreKind.HSIC): (2.0 * LEDGER_EPS, 0.0),
    ("test", ScoreKind.IQR): (4.0 * LEDGER_EPS0, 4.0 * LEDGER_DELTA),
    ("train", ScoreKind.SPEARMAN_RHO): (2.0 * LEDGER_EPS, 2.0 * LEDGER_DELTA),
    ("train", ScoreKind.KENDALL_TAU): (2.0 * LEDGER_EPS, 2.0 * LEDGER_DELTA),
    ("train", ScoreKind.HSIC): (2.0 * LEDGER_EPS, 0.0),
    ("train", ScoreKind.IQR): (6.0 * LEDGER_EPS, 2.0 * LEDGER_DELTA),
}
GATED = {("test", ScoreKind.IQR), ("train", ScoreKind.SPEARMAN_RHO),
         ("train", ScoreKind.KENDALL_TAU), ("train", ScoreKind.IQR)}


@pytest.mark.parametrize("target", ["test", "train"])
@pytest.mark.parametrize(
    "kind", [ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC, ScoreKind.IQR]
)
def test_budget_ledger_matches_readme_table(kind, target):
    config = ExperimentConfig(
        datasets=(SyntheticSpec("cubic", 200),),
        scores=(kind,),
        epsilons=(LEDGER_EPS,),
        lams=(1.0,),
        delta=LEDGER_DELTA,
        delta_prime=LEDGER_DELTA_PRIME,
        target=target,
        trials=24,
    )
    want_eps, want_delta = README_BUDGETS[(target, kind)]
    seen = set()
    for t in range(config.trials):
        out = run_trial(config, 0, 0, 0, 0, t)[2][target]
        assert out.epsilon_spent == pytest.approx(want_eps, rel=1e-12, abs=0.0)
        assert out.delta_spent == pytest.approx(want_delta, rel=1e-12, abs=0.0)
        for side in (out.outcome_xy, out.outcome_yx):
            # charged whether the side released or returned Bottom
            assert side.epsilon == pytest.approx(want_eps / 2.0, rel=1e-12, abs=0.0)
            assert side.delta == pytest.approx(want_delta / 2.0, rel=1e-12, abs=0.0)
            seen.add(side.released)
    assert seen == ({True, False} if (target, kind) in GATED else {True})
