"""Direction inference, its private releases, and the utility formulas."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_calls, cubic_split, posv_sizes
from privcause import inference, privacy, scores
from privcause.audits import residual_shift_max, substitution_audit
from privcause.data_io import SamplePairs, SplitData, split, synth_anm
from privcause.experiments import ExperimentConfig, SyntheticSpec, run_trial
from privcause.inference import (
    TARGET_SIDES,
    TEST_IQR_EPSILON_DIVISOR,
    Decision,
    PrivateInferenceReport,
    anm_infer_detailed,
    private_test_infer,
    private_train_infer,
    refuse_vacuous_delta,
    utility_four_score,
    utility_two_score,
)
from privcause.privacy import (
    PrivacyParams,
    ReleaseOutcome,
    derive_rng,
    laplace_mechanism,
    private_log_iqr_train,
    propose_test_release_stable,
    rank_train_stability_distance,
    train_sensitivity_hsic,
)
from privcause.regression import residual_perturbation_bound
from privcause.scores import (
    KernelSpec,
    ScoreKind,
    UnsupportedScoreError,
    hsic,
    log_iqr,
    median_heuristic_bandwidth,
)

REG_KERNEL = KernelSpec(0.3)


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


def test_score_kind_must_be_a_score_kind():
    with pytest.raises(UnsupportedScoreError, match="unknown score kind"):
        anm_infer_detailed(cubic_split(), "kendall", REG_KERNEL, 0.5)


def test_margin_and_decision_follow_the_scores():
    report = held_out(50)
    ahead = replace(report, s_xy=0.1, s_yx=0.3)
    swapped = replace(report, s_xy=0.3, s_yx=0.1)
    level = replace(report, s_xy=0.3, s_yx=0.3)
    assert ahead.decision is Decision.X_CAUSES_Y and ahead.margin == pytest.approx(0.2)
    assert swapped.decision is Decision.Y_CAUSES_X and swapped.margin == ahead.margin
    assert level.decision is Decision.TIE and level.margin == 0.0


def test_decision_peak_memory(peak_buffers):
    # the fit's n x n system, then HSIC's one centered m x m matrix plus a
    # row block, never two whole matrices at once (n = m = 400)
    parts = cubic_split(3, n_total=800)
    assert len(parts.train) == len(parts.test) == 400
    args = (parts, ScoreKind.HSIC, REG_KERNEL, 0.02)
    assert peak_buffers(400 * 400 * 8, anm_infer_detailed, *args) <= 1.6


def test_utility_spot_values():
    assert utility_two_score(0.0, 1.0) == 0.5
    assert utility_two_score(0.1, 0.1) == pytest.approx(0.7240904191214182, abs=1e-12)
    assert utility_four_score(0.0, 0.3) == 0.5
    assert utility_four_score(0.1, 0.1) == pytest.approx(0.6512809463895703, abs=1e-12)
    assert utility_four_score(0.04, 0.04) == pytest.approx(0.651268, abs=0.002)


@pytest.mark.parametrize("formula", [utility_two_score, utility_four_score])
@pytest.mark.parametrize(
    "gamma, sigma, message",
    [
        (-0.1, 1.0, "gamma"),
        (0.1, 0.0, "sigma"),
        (0.1, -1.0, "sigma"),
        (0.1, math.inf, "sigma"),
        (0.1, math.nan, "sigma"),
    ],
)
def test_utility_formulas_reject_arguments_outside_their_domain(formula, gamma, sigma, message):
    with pytest.raises(ValueError, match=message):
        formula(gamma, sigma)


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
    eps0 = reference_test_iqr_share(1.0)
    assert out.epsilon_spent == pytest.approx(4.0 * eps0)
    assert out.delta_spent == pytest.approx(4.0 * 0.01)
    assert out.noise_scale > 10.0
    assert 0.5 <= out.predicted_utility < 1.0
    with pytest.raises(TypeError):
        private_test_infer(report, report, params, derive_rng(1))  # no separate vectors record


def test_private_test_iqr_refuses_a_vacuous_delta_before_any_release(monkeypatch):
    # four (eps0, 0.3) sub-releases compose to delta 1.2, which the
    # parameters alone give: no attack count is computed and nothing drawn
    calls = {"iqr_attack_count": 0, "laplace_sample": 0}
    for name in calls:
        original = getattr(privacy, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(privacy, name, counted)
    report = anm_infer_detailed(cubic_split(7, n_total=100), ScoreKind.IQR, REG_KERNEL, 1e-3)
    rng = derive_rng(1)
    with pytest.raises(ValueError, match="composed delta 1.2 is not below 1"):
        private_test_infer(report, PrivacyParams(epsilon=1.0, delta=0.3), rng)
    assert calls == {"iqr_attack_count": 0, "laplace_sample": 0}
    assert rng.integers(1 << 53) == derive_rng(1).integers(1 << 53)


def reference_test_iqr_share(epsilon, k=3, slack=1e-6):
    """The per-release epsilon of the test-side IQR path as the advanced
    composition rule for k releases once derived it, at a delta slack of
    1e-6; the fixed share must match it bit for bit, so that no released
    value moves."""
    return epsilon / (2.0 * math.sqrt(2.0 * k * math.log(1.0 / slack)))


@pytest.mark.parametrize("epsilon", [0.1, 0.5, 0.7, 1.0])
def test_private_test_iqr_budget_covers_four_fold_composition(epsilon):
    # a changed test pair moves all four of x', r_Y, y', r_X, so the four
    # (eps0, delta) sub-releases compose 4-fold, not 3-fold
    parts = cubic_split(7, n_total=100)
    report = anm_infer_detailed(parts, ScoreKind.IQR, REG_KERNEL, 1e-3)
    delta = 0.01
    out = private_test_infer(report, PrivacyParams(epsilon=epsilon, delta=delta), derive_rng(2))
    eps0 = reference_test_iqr_share(epsilon)
    assert epsilon / TEST_IQR_EPSILON_DIVISOR == eps0
    assert out.noise_scale == 1.0 / (eps0 / 3.0)
    # the printed budget is the basic composition of the four releases
    assert out.epsilon_spent == pytest.approx(4.0 * eps0, rel=1e-12)
    assert out.delta_spent == pytest.approx(4.0 * delta, rel=1e-12)
    assert out.epsilon_spent <= 2.0 * epsilon


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


def test_train_release_refuses_a_low_rank_report():
    # the 8/(n lam^1.5) shift is proved for the exact ridge solution
    parts = cubic_split(1)
    params = PrivacyParams(epsilon=1.0, delta=0.01)
    report = anm_infer_detailed(parts, ScoreKind.KENDALL_TAU, REG_KERNEL, 0.5, low_rank=True)
    assert report.low_rank
    with pytest.raises(ValueError, match="residual_perturbation_bound is proved for the exact ridge solution"):
        private_train_infer(report, params, derive_rng(0))
    assert private_train_infer(replace(report, low_rank=False), params, derive_rng(0)).epsilon_spent == 2.0


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
LEDGER_EPS, LEDGER_DELTA = 0.7, 0.2
LEDGER_EPS0 = LEDGER_EPS / TEST_IQR_EPSILON_DIVISOR
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


@pytest.mark.parametrize("target", ["test", "train", "both"])
@pytest.mark.parametrize(
    "kind", [ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC, ScoreKind.IQR]
)
def test_refused_delta_is_the_ledger_sum(kind, target):
    # the up-front refusal derives the delta from the parameters; the costs
    # the mechanisms charge on their ReleaseOutcomes stay the authority
    config = ExperimentConfig(
        datasets=(SyntheticSpec("cubic", 200),),
        scores=(kind,),
        epsilons=(1.0,),
        lams=(0.5,),
        delta=0.01,
        target=target,
        trials=1,
    )
    params = PrivacyParams(epsilon=1.0, delta=0.01)
    if (kind, target) == (ScoreKind.IQR, "both"):
        # refused outright: the training release adds exact held-out values
        with pytest.raises(UnsupportedScoreError, match="target both"):
            refuse_vacuous_delta(kind, target, params)
        with pytest.raises(UnsupportedScoreError, match="target both"):
            run_trial(config, 0, 0, 0, 0, 0)
        return
    outcomes = run_trial(config, 0, 0, 0, 0, 0)[2]
    spent = sum(out.delta_spent for out in outcomes.values())
    assert refuse_vacuous_delta(kind, target, params) == spent


def test_refused_delta_names_the_targets_for_an_unknown_one():
    with pytest.raises(ValueError, match=r"target must be one of \('test', 'train', 'both'\), got 'holdout'"):
        refuse_vacuous_delta(ScoreKind.KENDALL_TAU, "holdout", PrivacyParams(epsilon=1.0, delta=0.01))


@pytest.mark.parametrize("target", ["test", "train", "both"])
@pytest.mark.parametrize(
    "kind", [ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC, ScoreKind.IQR]
)
def test_a_gate_at_delta_zero_is_refused_and_laplace_releases_run(kind, target):
    # a propose-test-release gate needs delta > 0; the Laplace releases
    # (HSIC anywhere, the ranks at test) cost no delta and still run
    if (kind, target) == (ScoreKind.IQR, "both"):
        return  # refused at any delta, above
    params = PrivacyParams(epsilon=1.0, delta=0.0)
    if any((side, kind) in GATED for side in TARGET_SIDES[target]):
        with pytest.raises(ValueError, match="requires delta > 0"):
            refuse_vacuous_delta(kind, target, params)
        return
    assert refuse_vacuous_delta(kind, target, params) == 0.0
    config = ExperimentConfig(
        datasets=(SyntheticSpec("cubic", 200),),
        scores=(kind,),
        epsilons=(1.0,),
        lams=(0.5,),
        delta=0.0,
        target=target,
    )
    outcomes = run_trial(config, 0, 0, 0, 0, 0)[2]
    assert [out.delta_spent for out in outcomes.values()] == [0.0] * len(TARGET_SIDES[target])


@pytest.mark.parametrize("kind", [ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC])
def test_both_rows_report_the_test_release(kind):
    # the training side runs first, and its rank release abstains; the test
    # side is a Laplace pair, which never does, so the row is the test release
    config = ExperimentConfig(
        datasets=(SyntheticSpec("cubic", 120),),
        scores=(kind,),
        epsilons=(0.5, 4.0),
        lams=(0.02, 1.0),
        delta=0.2,
        target="both",
        trials=4,
    )
    train_abstained = []
    for e_idx in range(2):
        for l_idx in range(2):
            for t_idx in range(4):
                row, _, outcomes = run_trial(config, 0, 0, e_idx, l_idx, t_idx)
                assert list(outcomes) == ["train", "test"]
                test = outcomes["test"]
                assert test.decision is not Decision.ABSTAIN
                assert (row.decision, row.sigma, row.predicted_utility) == (
                    test.decision.value, test.noise_scale, test.predicted_utility
                )
                train_abstained.append(outcomes["train"].decision is Decision.ABSTAIN)
    assert any(train_abstained) == (kind is not ScoreKind.HSIC)


def test_refused_delta_needs_a_release_path():
    with pytest.raises(UnsupportedScoreError):
        refuse_vacuous_delta(ScoreKind.VARIANCE, "test", PrivacyParams(epsilon=1.0, delta=0.01))


def median_hsic_pair(report):
    """Both exact HSIC scores of a report at median-heuristic bandwidths."""
    pairs = ((report.x_test, report.residuals_y), (report.y_test, report.residuals_x))
    return tuple(
        hsic(c, r, KernelSpec(median_heuristic_bandwidth(c)), KernelSpec(median_heuristic_bandwidth(r)))
        for c, r in pairs
    )


def recorded_etas(monkeypatch):
    """The error bound of every low_rank_hsic score inference takes."""
    etas = []
    approx = inference.low_rank_hsic

    def recording(*args):
        result = approx(*args)
        etas.append(result[1])
        return result

    monkeypatch.setattr(inference, "low_rank_hsic", recording)
    return etas


def assert_the_exact_median_hsic_decision(report, etas):
    # both scores went through the held-out pivots, within their bounds
    # of the exact ones, and decide as those do
    exact = median_hsic_pair(report)
    assert len(etas) == 2 and min(etas) > 0.0
    assert abs(report.s_xy - exact[0]) <= etas[0] and abs(report.s_yx - exact[1]) <= etas[1]
    assert report.decision is (Decision.X_CAUSES_Y if exact[0] < exact[1] else Decision.Y_CAUSES_X)


def test_a_low_rank_median_hsic_decision_is_the_exact_ones(monkeypatch):
    # m = 1000, and no m x m HSIC is built
    etas = recorded_etas(monkeypatch)
    calls = count_calls(monkeypatch, inference, "hsic")
    for seed in range(3):
        etas.clear()
        report = anm_infer_detailed(cubic_split(seed, 2000), ScoreKind.HSIC, KernelSpec(0.08), 0.02, low_rank=True)
        assert calls == {"hsic": 0}
        assert_the_exact_median_hsic_decision(report, etas)


def test_median_hsic_is_low_rank_with_exact_fits(monkeypatch):
    # low_rank=False keeps both fits exact, n = 550 each, but a
    # median-bandwidth score, which no release reads, still goes through
    # low_rank_hsic at m = 550
    etas = recorded_etas(monkeypatch)
    sizes = posv_sizes(monkeypatch)
    report = anm_infer_detailed(
        cubic_split(0, 1100), ScoreKind.HSIC, KernelSpec(0.08), 0.02, hsic_bandwidths="median", low_rank=False
    )
    assert sizes == [550, 550] and not report.low_rank
    assert_the_exact_median_hsic_decision(report, etas)


def test_a_near_tie_takes_the_exact_median_hsic(monkeypatch):
    calls = count_calls(monkeypatch, inference, "low_rank_hsic", "hsic")
    # mirrored pairs: both fits and both residual vectors are the same, so
    # the two low-rank scores tie exactly and both are recomputed exactly
    rng = np.random.default_rng(89)
    tr, te = rng.uniform(-1, 1, 1000), rng.uniform(-1, 1, 1000)
    mirror = SplitData(SamplePairs(tr, tr.copy(), id="mirror|train"), SamplePairs(te, te.copy(), id="mirror|test"))
    report = anm_infer_detailed(mirror, ScoreKind.HSIC, KernelSpec(0.08), 0.02, low_rank=True)
    assert calls == {"low_rank_hsic": 2, "hsic": 2}
    assert (report.s_xy, report.s_yx) == median_hsic_pair(report)
    assert report.decision is Decision.TIE
    # a bound that covers the margin forces the exact scores as well
    monkeypatch.setattr(inference, "low_rank_hsic", lambda *args: (scores.low_rank_hsic(*args)[0], 1.0))
    report = anm_infer_detailed(cubic_split(0, 2000), ScoreKind.HSIC, KernelSpec(0.08), 0.02, low_rank=True)
    assert (report.s_xy, report.s_yx) == median_hsic_pair(report)


def test_fixed_bandwidth_hsic_private_releases_and_audits_keep_their_bits():
    # recorded before the low-rank prediction and HSIC routes existed: the
    # private scores, their releases and the audits are exact as before
    rng = np.random.default_rng(61)
    got = {}
    for m in (100, 600):
        a, b = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
        for bw in (0.08, 0.5):
            got[f"hsic-{m}-{bw}"] = (hsic(a, b, KernelSpec(bw), KernelSpec(bw)),)
    parts = split(synth_anm("cubic", 400, 0.3, 3), 0.5, 3)
    for kind in (ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC, ScoreKind.IQR):
        report = anm_infer_detailed(parts, kind, REG_KERNEL, 0.02, hsic_bandwidths=0.5, low_rank=True)
        params = PrivacyParams(200.0 if kind is ScoreKind.IQR else 1.0, 1e-6)
        release = private_test_infer(report, params, derive_rng(3, "noise"))
        got[f"release-{kind.value}"] = (release.outcome_xy.value, release.outcome_yx.value)
    a, b = rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40)
    for kind in (ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC):
        got[f"audit-{kind.value}"] = (
            substitution_audit(kind, a, b, np.linspace(-1, 1, 5), (KernelSpec(0.5), KernelSpec(0.5))),
        )
    replacements = [(0.5, -0.5), (-1.0, 1.0)]
    got["shift"] = (residual_shift_max(parts.train.x, parts.train.y, parts.test.x, REG_KERNEL, 0.02, 0, replacements),)
    recorded = {
        "hsic-100-0.08": ("0x1.3a9464bb27e80p-7",),
        "hsic-100-0.5": ("0x1.325263c2a6256p-8",),
        "hsic-600-0.08": ("0x1.1bfeace43f501p-10",),
        "hsic-600-0.5": ("0x1.6b78eea7eb237p-12",),
        "release-spearman": ("0x1.0c6f776c8a4a2p-3", "-0x1.3b40facccc4b1p-5"),
        "release-kendall": ("0x1.1ccbfa30c5b98p-4", "0x1.268e23f834aebp-8"),
        "release-hsic": ("0x1.dc88c3e1406b9p-7", "-0x1.5acbd625515fcp-6"),
        "release-iqr": ("-0x1.2ef9d16939c08p+0", "-0x1.1e45539cdaecep+0"),
        "audit-spearman": ("0x1.04216dcbef7a4p-3",),
        "audit-kendall": ("0x1.6516516516516p-4",),
        "audit-hsic": ("0x1.9fedc89e424c7p-9",),
        "shift": ("0x1.f7c935cff2c94p-4",),
    }
    assert {name: tuple(float(v).hex() for v in values) for name, values in got.items()} == recorded


@pytest.mark.parametrize("kind", [ScoreKind.HSIC, ScoreKind.KENDALL_TAU])
def test_a_large_low_rank_decision_forms_no_m_by_n_or_m_by_m_matrix(kind, peak_buffers):
    # n = m = 1000, the benchmark's large decision: the factors' rows are
    # allocated up to the n/4 and m/4 caps, and nothing larger
    parts = cubic_split(0, 2000)
    decide = lambda: anm_infer_detailed(parts, kind, KernelSpec(0.08), 0.02, low_rank=True)
    assert peak_buffers(1000 * 1000 * 8, decide) <= 0.4
