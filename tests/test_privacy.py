"""Noise primitives, sensitivity constants, and the stability-gated releases.

The substitution-attack counter is checked against an exhaustive search
over small instances: every index subset, with replacement values drawn
from the breakpoint set (existing values, midpoints, far extremes) that
is sufficient for quantile extremization.  At the sizes the sweeps run,
its two array searches, and the counts they give together, are checked
against a scalar reference that evaluates one (k1, k2) pair at a time.
"""
import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from privcause.privacy import (
    PrivacyParams,
    ReleaseOutcome,
    derive_rng,
    iqr_attack_count,
    iqr_train_attack_count,
    laplace_mechanism,
    laplace_sample,
    private_log_iqr,
    private_log_iqr_train,
    propose_test_release_stable,
    rank_train_stability_distance,
    test_sensitivity as held_out_sensitivity,
    train_sensitivity_hsic,
    _min_iqr_after,
    _min_substitutions_down,
    _min_substitutions_up,
    _padded,
)
from privcause.scores import DegenerateDataError, ScoreKind, UnsupportedScoreError, log_iqr


def log_iqr_or_neginf(values):
    q25, q75 = np.quantile(values, (0.25, 0.75))
    spread = float(q75 - q25)
    return math.log(spread) if spread > 0 else -math.inf


def escape_candidates(v):
    v = np.sort(np.asarray(v, dtype=float))
    span = float(v[-1] - v[0])
    cands = set(float(u) for u in v)
    cands.update((float(a) + float(b)) / 2 for a, b in zip(v[:-1], v[1:]))
    big = 100.0 * (span + 1.0)
    cands.update((float(v[0]) - big, float(v[-1]) + big))
    return sorted(cands)


def escape_exists(v, k, lo, hi):
    """Can k substitutions move ln IQR outside [lo, hi)?  Exhaustive over
    index subsets and breakpoint-valued replacements."""
    if k == 0:
        return not lo <= log_iqr_or_neginf(v) < hi
    v = np.asarray(v, dtype=float)
    cands = escape_candidates(v)
    for idx in combinations(range(v.size), k):
        for vals in combinations_with_replacement(cands, k):
            w = v.copy()
            w[list(idx)] = vals
            if not lo <= log_iqr_or_neginf(w) < hi:
                return True
    return False


# Scalar reference for the two attack-count searches: one (k1, k2) pair
# per call, with a binary search over k1 for each k2.


def reference_quantile_anchor(m, fraction):
    pos = fraction * (m - 1)
    j = int(math.floor(pos))
    return j, pos - j


def reference_shifted_lerp(v, j, frac):
    m = v.size

    def at(i):
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


def reference_min_substitutions_up(v, threshold):
    m = v.size
    if math.isinf(threshold):
        return m + 1
    j_lo, f_lo = reference_quantile_anchor(m, 0.25)
    j_hi, f_hi = reference_quantile_anchor(m, 0.75)
    low_shift = np.array([reference_shifted_lerp(v, j_lo - k, f_lo) for k in range(m + 1)])
    high_shift = np.array([reference_shifted_lerp(v, j_hi + k, f_hi) for k in range(m + 1)])
    best = m + 1
    neg_low = -low_shift
    for k2 in range(m + 1):
        if k2 >= best:
            break
        target = high_shift[k2] - threshold
        if math.isinf(high_shift[k2]):
            best = min(best, k2)
            break
        k1 = int(np.searchsorted(neg_low, -target, side="left"))
        if k1 <= m:
            best = min(best, k1 + k2)
    return best


def reference_min_iqr_after(v, k1, k2):
    m = v.size
    total = k1 + k2
    if total >= m:
        return 0.0
    w = v[k1 : m - k2]

    def at(i):
        if i < 0:
            return -math.inf
        if i >= w.size:
            return math.inf
        return float(w[i])

    j_lo, f_lo = reference_quantile_anchor(m, 0.25)
    j_hi, f_hi = reference_quantile_anchor(m, 0.75)
    anchors = [(j_lo, 1.0 - f_lo, -1.0), (j_lo + 1, f_lo, -1.0), (j_hi, 1.0 - f_hi, 1.0), (j_hi + 1, f_hi, 1.0)]
    anchors = [(p, coef, sign) for p, coef, sign in anchors if coef > 0.0]
    candidates = {float(v[0]) - 1.0, float(v[-1]) + 1.0}
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


def reference_min_substitutions_down(v, threshold):
    m = v.size
    if threshold <= 0.0:
        return m + 1
    best = m + 1
    for k2 in range(m + 1):
        if k2 >= best:
            break
        lo, hi = 0, m - k2
        if not reference_min_iqr_after(v, hi, k2) < threshold:
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            if reference_min_iqr_after(v, mid, k2) < threshold:
                hi = mid
            else:
                lo = mid + 1
        best = min(best, lo + k2)
    return best


def bin_edge_thresholds(v):
    """0, infinity and the edges of both log bins around ln IQR, as IQR values."""
    q = log_iqr_or_neginf(v)
    edges = [0.0, math.inf]
    if math.isfinite(q):
        shifted = math.floor(q + 0.5)
        edges += [math.exp(e) for e in (math.floor(q), math.floor(q) + 1.0, shifted - 0.5, shifted + 0.5)]
    return edges


def test_derive_rng_stable_and_independent():
    a = derive_rng(7, "noise", "test").integers(0, 1 << 30, 5)
    b = derive_rng(7, "noise", "test").integers(0, 1 << 30, 5)
    c = derive_rng(7, "noise", "train").integers(0, 1 << 30, 5)
    d = derive_rng(8, "noise", "test").integers(0, 1 << 30, 5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_laplace_sample_replay_and_shapes():
    one = laplace_sample(0.5, derive_rng(1, "lap"))
    again = laplace_sample(0.5, derive_rng(1, "lap"))
    assert one == again
    assert isinstance(one, float)
    arr = laplace_sample(0.5, derive_rng(1, "lap"), size=3)
    assert arr.shape == (3,)
    assert arr[0] == one
    with pytest.raises(ValueError):
        laplace_sample(0.0, derive_rng(0))
    with pytest.raises(ValueError):
        laplace_sample(math.inf, derive_rng(0))


def test_laplace_sample_moments_and_tails():
    draws = laplace_sample(1.0, derive_rng(2, "moments"), size=1_000_000)
    assert abs(float(np.mean(draws))) < 0.005
    assert float(np.var(draws)) == pytest.approx(2.0, rel=0.01)
    # P(|X| > t) = exp(-t) for unit scale
    for t in (1.0, 2.0, 4.0):
        want = math.exp(-t)
        got = float(np.mean(np.abs(draws) > t))
        assert abs(got - want) < 3.0 * math.sqrt(want * (1 - want) / draws.size) + 1e-5


def test_laplace_mechanism_rejects_zero_sensitivity():
    # every bound the package derives is positive, so zero has no exact branch
    rng = derive_rng(3, "mech")
    with pytest.raises(ValueError):
        laplace_mechanism(0.7, 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        laplace_mechanism(0.0, -1.0, 1.0, rng)
    with pytest.raises(ValueError):
        laplace_mechanism(0.0, 1.0, 0.0, rng)


def test_held_out_sensitivity_constants():
    assert held_out_sensitivity(ScoreKind.SPEARMAN_RHO, 100) == pytest.approx(0.3)
    assert held_out_sensitivity(ScoreKind.KENDALL_TAU, 100) == pytest.approx(0.04)
    assert held_out_sensitivity(ScoreKind.HSIC, 100) == pytest.approx(1189 / 9801)
    with pytest.raises(UnsupportedScoreError):
        held_out_sensitivity(ScoreKind.IQR, 100)
    with pytest.raises(UnsupportedScoreError):
        held_out_sensitivity(ScoreKind.VARIANCE, 100)
    with pytest.raises(ValueError):
        held_out_sensitivity(ScoreKind.KENDALL_TAU, 1)


def test_train_sensitivity_value():
    assert train_sensitivity_hsic(100, 1000, 1.0, 1.0) == pytest.approx(2.56)
    with pytest.raises(ValueError):
        train_sensitivity_hsic(100, 1000, 0.0, 1.0)
    with pytest.raises(ValueError):
        train_sensitivity_hsic(1, 1000, 1.0, 1.0)
    with pytest.raises(ValueError, match="lipschitz"):
        train_sensitivity_hsic(100, 1000, 1.0, 0.0)


def test_rank_stability_distance():
    residuals = [0.0, 0.1, 0.25]  # smallest adjacent gap 0.1
    assert rank_train_stability_distance(residuals, 1000, 0.64) == 3
    assert rank_train_stability_distance(residuals, 10, 0.64) == 0
    assert rank_train_stability_distance([0.3, 0.3, 0.9], 10**6, 1.0) == 0
    with pytest.raises(ValueError):
        rank_train_stability_distance([0.1], 100, 0.5)


def test_propose_test_release_stable():
    params = PrivacyParams(epsilon=1.0, delta=0.05)
    with pytest.raises(ValueError):
        propose_test_release_stable(1.0, 3, PrivacyParams(epsilon=1.0, delta=0.0), derive_rng(0))
    with pytest.raises(ValueError):
        propose_test_release_stable(1.0, -1, params, derive_rng(0))
    # huge stability distance: the exact value comes through
    sure = propose_test_release_stable(0.42, 10**6, params, derive_rng(4, "ptr"))
    assert sure.released and sure.value == 0.42
    # zero distance: release probability is exactly delta/2
    hits = sum(
        propose_test_release_stable(0.0, 0, params, derive_rng(5, "ptr", i)).released
        for i in range(20_000)
    )
    rate = hits / 20_000
    tol = 3.0 * math.sqrt(0.025 * 0.975 / 20_000)
    assert abs(rate - 0.025) < tol


def test_iqr_attack_count_hand_checked():
    v = [1.0, 2.0, 3.0, 4.0, 5.0]  # ln IQR = ln 2
    q = math.log(2.0)
    assert iqr_attack_count(v, [(q - 0.5, q + 1e-6)]) == (1,)
    assert iqr_attack_count(v, [(-math.inf, q + 1e-6)]) == (1,)
    assert iqr_attack_count(v, [(-math.inf, math.inf)]) == (len(v) + 1,)
    assert iqr_attack_count(v, [(q - 0.5, q + 1e-6), (-math.inf, math.inf)]) == (1, len(v) + 1)
    assert iqr_attack_count(v, []) == ()
    with pytest.raises(ValueError):
        iqr_attack_count(v, [(q + 0.1, q + 0.2)])  # interval misses ln IQR
    with pytest.raises(ValueError):
        iqr_attack_count(v, [(q - 0.5, q + 0.5), (q + 0.1, q + 0.2)])  # so does one of two
    with pytest.raises(ValueError):
        iqr_attack_count(v, [(1.0, 1.0)])
    with pytest.raises(ValueError):
        iqr_attack_count([1.0, 2.0, 3.0], [(0.0, 1.0)])
    with pytest.raises(DegenerateDataError):
        iqr_attack_count([0.0, 1.0, 1.0, 1.0, 1.0, 2.0], [(0.0, 1.0)])


def test_iqr_attack_count_matches_exhaustive_search():
    rng = np.random.default_rng(31)
    checked_small = 0
    for i in range(14):
        m = int(rng.integers(4, 7))
        v = np.round(rng.uniform(0.0, 6.0, m), 1) + 1.0
        q = log_iqr_or_neginf(v)
        if not math.isfinite(q):
            continue
        lo = q - float(rng.uniform(0.15, 1.2))
        hi = q + float(rng.uniform(0.15, 1.2))
        (count,) = iqr_attack_count(v, [(lo, hi)])
        limit = 3
        if count <= limit:
            assert escape_exists(v, count, lo, hi), (v, lo, hi, count)
            assert not escape_exists(v, count - 1, lo, hi), (v, lo, hi, count)
            checked_small += 1
        else:
            assert not escape_exists(v, limit, lo, hi), (v, lo, hi, count)
    assert checked_small >= 5


def test_iqr_attack_count_matches_exhaustive_search_on_ties():
    """The exhaustive check on tied data up to m = 8, on the two release
    bins, a two-sided interval and both one-sided ones."""
    rng = np.random.default_rng(37)
    draws = (
        lambda m: rng.integers(0, 5, m),
        lambda m: rng.integers(0, 3, m),
        lambda m: np.round(rng.uniform(0.0, 3.0, m)) / 2.0,
    )
    counts = []
    tied = 0
    for i in range(30):
        m = int(rng.integers(4, 9))
        v = np.asarray(draws[i % len(draws)](m), dtype=float) + 1.0
        q = log_iqr_or_neginf(v)
        if not math.isfinite(q):
            continue
        tied += np.unique(v).size < m
        shifted = math.floor(q + 0.5)
        intervals = (
            (math.floor(q), math.floor(q) + 1.0),
            (shifted - 0.5, shifted + 0.5),
            (q - float(rng.uniform(0.15, 2.5)), q + float(rng.uniform(0.15, 2.5))),
            (-math.inf, q + float(rng.uniform(0.5, 3.0))),
            (q - float(rng.uniform(0.5, 3.0)), math.inf),
        )
        for (lo, hi), count in zip(intervals, iqr_attack_count(v, intervals)):
            limit = 3
            if count <= limit:
                assert escape_exists(v, count, lo, hi), (v, lo, hi, count)
                assert not escape_exists(v, count - 1, lo, hi), (v, lo, hi, count)
            else:
                assert not escape_exists(v, limit, lo, hi), (v, lo, hi, count)
            counts.append(count)
    assert tied >= 20
    assert sum(count >= 2 for count in counts) >= 20


def scalar_reference_vectors():
    """248 sorted vectors: m from 4 to 120 (raw, rounded to 1 decimal, or
    small integers), then the sizes and rounding of the tied pairs files
    of the benchmark."""
    rng = np.random.default_rng(43)
    vectors = []
    for i in range(240):
        m = int(rng.integers(4, 121))
        drawn = rng.normal(0.0, float(rng.uniform(0.2, 3.0)), m)
        vectors.append((drawn, np.round(drawn, 1), rng.integers(0, 6, m).astype(float))[i % 3])
    for m in (250, 250, 500, 500):
        vectors.append(np.round(rng.normal(0.0, 0.3, m), 2))
    return [np.sort(values) for values in vectors]


def test_attack_searches_match_scalar_reference():
    for v in scalar_reference_vectors():
        m = v.size
        thresholds = bin_edge_thresholds(v)
        ups = [reference_min_substitutions_up(v, t) for t in thresholds]
        downs = [reference_min_substitutions_down(v, t) for t in thresholds]
        assert [_min_substitutions_up(v, t) for t in thresholds] == ups, v
        # uncapped, the shared scan gives each count exactly
        uncapped = [m + 1] * len(thresholds)
        assert _min_substitutions_down(v, thresholds, uncapped) == tuple(downs), v
        assert [_min_substitutions_down(v, [t], [m + 1]) for t in thresholds] == [(d,) for d in downs], v
        # capped, each count is exact below its cap
        for caps in (ups, [1] * len(thresholds), [m // 3] * len(thresholds), [m] * len(thresholds)):
            got = _min_substitutions_down(v, thresholds, caps)
            assert [min(g, c) for g, c in zip(got, caps)] == [min(d, c) for d, c in zip(downs, caps)], (v, caps)


def test_attack_counts_match_scalar_reference():
    """Both release bins, a two-sided interval and both one-sided ones,
    counted in one call, against the two scalar searches."""
    rng = np.random.default_rng(53)
    counted = 0
    for v in scalar_reference_vectors():
        m = v.size
        q = log_iqr_or_neginf(v)
        if not math.isfinite(q):
            continue
        shifted = math.floor(q + 0.5)
        bins = [(math.floor(q), math.floor(q) + 1.0), (shifted - 0.5, shifted + 0.5)]
        intervals = bins + [
            (q - float(rng.uniform(0.05, 2.0)), q + float(rng.uniform(0.05, 2.0))),
            (-math.inf, q + float(rng.uniform(0.05, 2.0))),
            (q - float(rng.uniform(0.05, 2.0)), math.inf),
        ]
        want = tuple(
            min(
                reference_min_substitutions_up(v, math.exp(hi)),
                reference_min_substitutions_down(v, math.exp(lo)),
                m + 1,
            )
            for lo, hi in intervals
        )
        assert iqr_attack_count(v, intervals) == want, (v, intervals)
        assert iqr_attack_count(v, bins) == want[:2], (v, bins)
        counted += 1
    assert counted >= 200


def test_min_iqr_after_matches_scalar_reference_on_every_pair():
    rng = np.random.default_rng(47)
    for i in range(60):
        m = int(rng.integers(4, 41))
        drawn = rng.normal(0.0, 1.0, m)
        v = np.sort((drawn, np.round(drawn, 1), rng.integers(0, 6, m).astype(float))[i % 3])
        k1, k2 = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) < m)
        got = _min_iqr_after(_padded(v), k1, k2)
        want = [reference_min_iqr_after(v, int(a), int(b)) for a, b in zip(k1, k2)]
        assert got.tolist() == want, v


@given(
    st.lists(st.integers(0, 60), min_size=4, max_size=9, unique=True),
    st.floats(0.1, 1.5),
    st.floats(0.1, 1.5),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_iqr_attack_count_monotone_in_interval(ints, w_lo, w_hi, grow_lo, grow_hi):
    v = sorted(float(u) for u in ints)
    q = log_iqr(v)
    narrow = (q - w_lo, q + w_hi)
    wide = (q - w_lo - grow_lo, q + w_hi + grow_hi)
    count_narrow, count_wide = iqr_attack_count(v, [narrow, wide])
    assert count_narrow >= 1
    assert count_wide >= count_narrow


@given(
    st.lists(st.integers(0, 12), min_size=4, max_size=9),
    st.floats(0.1, 1.5),
    st.floats(0.1, 1.5),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_iqr_attack_count_monotone_in_interval_with_ties(ints, w_lo, w_hi, grow_lo, grow_hi):
    v = sorted(float(u) for u in ints)
    assume(math.isfinite(log_iqr_or_neginf(v)))
    q = log_iqr(v)
    narrow = (q - w_lo, q + w_hi)
    wide = (q - w_lo - grow_lo, q + w_hi + grow_hi)
    count_narrow, count_wide = iqr_attack_count(v, [narrow, wide])
    assert count_narrow >= 1
    assert count_wide >= count_narrow


widths = st.one_of(st.floats(0.05, 3.0), st.just(math.inf))


@given(st.lists(st.integers(0, 12), min_size=4, max_size=9), widths, widths, widths, widths)
@settings(max_examples=80, deadline=None)
def test_iqr_attack_counts_together_equal_counts_alone(ints, lo_1, hi_1, lo_2, hi_2):
    v = sorted(float(u) for u in ints)
    assume(math.isfinite(log_iqr_or_neginf(v)))
    q = log_iqr(v)
    first, second = (q - lo_1, q + hi_1), (q - lo_2, q + hi_2)
    assert iqr_attack_count(v, [first, second]) == iqr_attack_count(v, [first]) + iqr_attack_count(v, [second])


def test_iqr_train_attack_count_semantics():
    n, lam = 1000, 0.64
    per_swap = 2.0 * 8.0 / (n * lam**1.5)
    iqr_value = 2.0
    q = math.log(iqr_value)
    for lo, hi in ((q - 0.4, q + 0.3), (q - 1.0, q + 0.05), (math.floor(q), math.floor(q) + 1.0)):
        k = iqr_train_attack_count(iqr_value, (lo, hi), n, lam)
        grow_needed = math.exp(hi) - iqr_value
        shrink_needed = iqr_value - math.exp(lo)
        # k swaps suffice on the cheaper side, k-1 do not on either side
        assert k * per_swap >= grow_needed or k * per_swap > shrink_needed
        if k > 1:
            assert (k - 1) * per_swap < grow_needed
            assert (k - 1) * per_swap <= shrink_needed
    assert iqr_train_attack_count(2.0, (-math.inf, math.inf), n, lam) == n + 1
    assert iqr_train_attack_count(2.0, (q - 1e-9, q + 1e-9), n, lam) == 1  # clamp at >= 1
    with pytest.raises(ValueError):
        iqr_train_attack_count(0.0, (0.0, 1.0), n, lam)
    with pytest.raises(ValueError):
        iqr_train_attack_count(2.0, (q + 0.1, q + 0.2), n, lam)


def manual_log_iqr_release(values, params, rng):
    q = log_iqr(values)
    bin_1 = (math.floor(q), math.floor(q) + 1.0)
    shifted = math.floor(q + 0.5)
    bin_2 = (shifted - 0.5, shifted + 0.5)
    count_1, count_2 = iqr_attack_count(values, [bin_1, bin_2])
    r1 = count_1 + laplace_sample(1.0 / params.epsilon, rng)
    r2 = count_2 + laplace_sample(1.0 / params.epsilon, rng)
    cost = (3.0 * params.epsilon, params.delta)
    if max(r1, r2) > 1.0 + math.log(1.0 / params.delta) / params.epsilon:
        return ReleaseOutcome.release(q + laplace_sample(1.0 / params.epsilon, rng), *cost)
    return ReleaseOutcome.bottom(*cost)


def test_private_log_iqr_replays_documented_draw_order():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    params = PrivacyParams(epsilon=2.0, delta=0.3)
    outcomes = set()
    for i in range(24):
        got = private_log_iqr(v, params, derive_rng(6, "iqr", i))
        want = manual_log_iqr_release(v, params, derive_rng(6, "iqr", i))
        assert got == want
        outcomes.add(got.released)
    assert outcomes == {True, False}


def test_private_log_iqr_edge_cases():
    params = PrivacyParams(epsilon=1.0, delta=0.01)
    degenerate = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    assert private_log_iqr(degenerate, params, derive_rng(0)) == ReleaseOutcome.bottom(3.0, 0.01)
    with pytest.raises(ValueError):
        private_log_iqr([1.0, 2.0, 3.0], params, derive_rng(0))
    with pytest.raises(ValueError):
        private_log_iqr([1.0, 2.0, 3.0, 4.0], PrivacyParams(epsilon=1.0), derive_rng(0))


def test_private_log_iqr_train_uses_swap_counts():
    rng_data = np.random.default_rng(41)
    v = rng_data.normal(size=40)
    n, lam = 400, 1.0
    params = PrivacyParams(epsilon=1.0, delta=0.05)
    for i in range(12):
        got = private_log_iqr_train(v, n, lam, params, derive_rng(7, "train-iqr", i))
        rng = derive_rng(7, "train-iqr", i)
        q = log_iqr(v)
        bin_1 = (math.floor(q), math.floor(q) + 1.0)
        shifted = math.floor(q + 0.5)
        bin_2 = (shifted - 0.5, shifted + 0.5)
        spread = math.exp(q)
        r1 = iqr_train_attack_count(spread, bin_1, n, lam) + laplace_sample(1.0, rng)
        r2 = iqr_train_attack_count(spread, bin_2, n, lam) + laplace_sample(1.0, rng)
        if max(r1, r2) > 1.0 + math.log(1.0 / params.delta):
            want = ReleaseOutcome.release(q + laplace_sample(1.0, rng), 3.0, 0.05)
        else:
            want = ReleaseOutcome.bottom(3.0, 0.05)
        assert got == want


def test_privacy_params_validation():
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=0.0)
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=1.0, delta=1.0)
    assert PrivacyParams(epsilon=0.5).delta == 0.0
    out = ReleaseOutcome.release(1.5)
    assert out.released and out.value == 1.5
    assert not ReleaseOutcome.bottom().released
