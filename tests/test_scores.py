"""Score statistics against hand counts, quadratic-time oracles and the
textbook expressions that the O(m^2) passes must reproduce bit for bit."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_calls, factor_calls, hsic_naive, kendall_quadratic
from privcause import _blas, scores
from privcause._arrays import double_center_in_place, quartiles
from privcause.scores import (
    DegenerateDataError,
    _count_inversions,
    _gap_row_ends,
    KernelSpec,
    hsic,
    iqr_score,
    kendall_tau,
    log_iqr,
    low_rank_hsic,
    median_heuristic_bandwidth,
    rank_vector,
    spearman_rho,
    variance_score,
)

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


def test_rank_vector_stable_ties():
    assert list(rank_vector([5.0, 5.0, 3.0])) == [2, 3, 1]
    assert list(rank_vector([1.0, 1.0, 1.0])) == [1, 2, 3]


def test_spearman_hand_counted():
    # ranks (1..5) vs (3,1,2,5,4): squared rank gaps sum to 8
    got = spearman_rho([1, 2, 3, 4, 5], [3, 1, 2, 5, 4])
    assert got == pytest.approx(0.6, abs=1e-12)
    assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(1.0)


def test_kendall_hand_counted():
    # 4 concordant pairs, 2 discordant out of 6
    got = kendall_tau([1, 2, 3, 4], [2, 1, 4, 3])
    assert got == pytest.approx(1 / 3, abs=1e-12)
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(1.0)


def test_kendall_matches_quadratic_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(2, 40))
        a = rng.normal(size=m)
        b = rng.normal(size=m)
        if rng.random() < 0.3:
            b = np.round(b)  # force ties
        assert kendall_tau(a, b) == pytest.approx(kendall_quadratic(a, b), abs=1e-12)


def test_hsic_matches_naive_centering():
    rng = np.random.default_rng(11)
    kernels = (KernelSpec(0.5), KernelSpec(0.7))
    for _ in range(30):
        m = int(rng.integers(2, 30))
        a = rng.uniform(-1, 1, m)
        b = np.tanh(2 * a) + 0.2 * rng.normal(size=m)
        want = hsic_naive(a, b, *kernels)
        assert hsic(a, b, *kernels) == pytest.approx(want, abs=1e-12)


def test_hsic_detects_dependence():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 80)
    y = np.tanh(3 * x) + 0.05 * rng.uniform(-1, 1, 80)
    k = KernelSpec(0.5)
    coupled = hsic(x, y, k, k)
    broken = hsic(x, rng.permutation(y), k, k)
    assert coupled > 5 * broken


def test_kernel_spec_basics():
    k = KernelSpec(0.5)
    mat = k.matrix([0.0, 0.3], [0.0, 0.3])
    assert mat[0, 0] == pytest.approx(1.0)
    assert mat[0, 1] == pytest.approx(math.exp(-0.09 / 0.5), abs=1e-12)
    assert k.lipschitz == pytest.approx(2.0)
    with pytest.raises(ValueError):
        KernelSpec(0.0)
    # below about 1.6e-162, -2h^2 rounds to -0.0 and k(u, u) = 0 / -0.0 is
    # NaN; just above it the diagonal is still exactly 1
    with pytest.raises(ValueError, match="underflow"):
        KernelSpec(1e-200)
    # above about 1.34e154, h**2 raises OverflowError; a bandwidth whose
    # 2h^2 overflows is refused by the rule instead
    with pytest.raises(ValueError, match="overflow"):
        KernelSpec(1e200)
    with pytest.raises(ValueError, match="overflow"):
        KernelSpec(1.2e154)
    assert KernelSpec(1e-161).matrix([0.5], [0.5])[0, 0] == 1.0


def test_median_heuristic_bandwidth():
    assert median_heuristic_bandwidth([0.0, 1.0, 3.0]) == pytest.approx(2.0)
    with pytest.raises(DegenerateDataError):
        median_heuristic_bandwidth([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        median_heuristic_bandwidth([1.0])


def test_log_iqr_interpolated_quartiles():
    assert log_iqr([1, 2, 3, 4, 5]) == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        log_iqr([1, 2, 3])
    with pytest.raises(DegenerateDataError):
        log_iqr([0, 1, 1, 1, 1, 2])


def quartile_vectors():
    """m from 4 to 600, every residue of m mod 4 (m = 1 mod 4 puts both
    quartiles on an order statistic, weight 0), continuous, rounded (tied)
    and small-integer (heavily tied) data, and signed zeros."""
    rng = np.random.default_rng(29)
    sizes = list(range(4, 41)) + [int(m) for m in rng.integers(41, 601, 60)] + [597, 600]
    for i, m in enumerate(sizes):
        drawn = rng.normal(float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.01, 100.0)), m)
        yield (drawn, np.round(drawn, 1), rng.integers(-3, 4, m).astype(float))[i % 3]
    yield np.array([-0.0, -0.0, -0.0, -0.0, 1.0])
    yield np.array([-1.0, -0.0, 0.0, 0.0, 0.0, 2.0])


def reference_iqr(values):
    q25, q75 = np.quantile(values, (0.25, 0.75))
    return float(q75 - q25)


def test_quartiles_are_bitwise_numpy_quantiles_of_a_sorted_vector():
    for values in quartile_vectors():
        want = np.quantile(values, (0.25, 0.75))
        got = np.array(quartiles(np.sort(values)))
        assert got.tobytes() == want.tobytes(), values


def test_log_iqr_and_iqr_score_keep_their_bits():
    vectors = [v for v in quartile_vectors() if reference_iqr(v) > 0.0]
    assert len(vectors) > 80
    for values in vectors:
        assert log_iqr(values) == math.log(reference_iqr(values)), values
        partner = np.round(values[::-1] * 1.7 + 0.3, 1)
        if reference_iqr(partner) > 0.0:
            want = math.log(reference_iqr(values)) + math.log(reference_iqr(partner))
            assert iqr_score(values, partner) == want, values


def test_iqr_and_variance_scores():
    a = [1, 2, 3, 4, 5]
    b = [2, 4, 6, 8, 10]
    assert iqr_score(a, b) == pytest.approx(math.log(2) + math.log(4), abs=1e-12)
    assert variance_score(a, b) == pytest.approx(math.log(2) + math.log(8), abs=1e-12)
    with pytest.raises(DegenerateDataError):
        variance_score([1, 1], [1, 2])


def test_input_validation():
    with pytest.raises(ValueError):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        kendall_tau([1], [2])
    with pytest.raises(ValueError):
        spearman_rho([1, float("nan")], [1, 2])
    with pytest.raises(ValueError):
        hsic([[1, 2]], [[1, 2]], KernelSpec(1), KernelSpec(1))
    with pytest.raises(ValueError, match="empty"):
        rank_vector([])


@given(
    st.lists(st.integers(-1000, 1000), min_size=2, max_size=25),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rank_scores_bounded_and_transform_invariant(a, data):
    b = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(a), max_size=len(a)))
    for score in (spearman_rho, kendall_tau):
        v = score(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12
        # strictly increasing maps preserve stable ranks exactly
        assert score([3 * u + 1 for u in a], b) == v
        assert score(a, [math.expm1(u / 100) for u in b]) == v


@given(st.lists(finite_floats, min_size=2, max_size=20), st.data())
@settings(max_examples=40, deadline=None)
def test_hsic_nonnegative_and_symmetric_in_kernel_roles(a, data):
    b = data.draw(st.lists(finite_floats, min_size=len(a), max_size=len(a)))
    k = KernelSpec(0.5)
    forward = hsic(a, b, k, k)
    assert forward >= 0.0
    assert hsic(b, a, k, k) == pytest.approx(forward, abs=1e-10)


# -- the O(m^2) passes against the expressions they replaced -----------------

# 512 ends on a whole row block, 257 and 1000 on a ragged one
SIZES = (2, 3, 5, 64, 100, 257, 512, 1000)
DATA_KINDS = ("continuous", "tied", "integer")


def sample(kind, m, rng):
    """Data in [-1, 1]: continuous, rounded to 2 decimals (ties), or on the
    five points -1, -0.5, 0, 0.5, 1 (mostly ties)."""
    values = rng.uniform(-1, 1, m)
    if kind == "tied":
        return np.round(values, 2)
    if kind == "integer":
        return rng.integers(-2, 3, m) / 2.0
    return values


def reference_matrix(u, v, bandwidth):
    d = np.asarray(u, dtype=float)[:, None] - np.asarray(v, dtype=float)[None, :]
    return np.exp(-(d * d) / (2.0 * bandwidth**2))


def reference_double_center(mat):
    row = mat.mean(axis=1, keepdims=True)
    col = mat.mean(axis=0, keepdims=True)
    return mat - row - col + mat.mean()


def reference_hsic(a, b, kernel_a, kernel_b):
    m = len(a)
    gram_a = reference_matrix(a, a, kernel_a.bandwidth)
    centered = reference_double_center(reference_matrix(b, b, kernel_b.bandwidth))
    return max(float(np.sum(gram_a * centered)) / (m - 1) ** 2, 0.0)


def reference_median_gap(values):
    arr = np.asarray(values, dtype=float)
    iu, ju = np.triu_indices(arr.size, k=1)
    return float(np.median(np.abs(arr[iu] - arr[ju])))


def reference_count_inversions(seq):
    n = seq.size
    if n <= 1:
        return 0
    mid = n // 2
    left = np.array(seq[:mid])
    right = np.array(seq[mid:])
    inv = reference_count_inversions(left) + reference_count_inversions(right)
    left.sort()
    right.sort()
    inv += int(np.sum(left.size - np.searchsorted(left, right, side="right")))
    return inv


def brute_force_inversions(seq):
    seq = np.asarray(seq)
    return int(np.sum(np.triu(seq[:, None] > seq[None, :], k=1)))


def cases():
    rng = np.random.default_rng(2024)
    for m in SIZES:
        for kind in DATA_KINDS:
            yield m, kind, sample(kind, m, rng), sample(kind, m, rng)


def test_kernel_matrix_is_bitwise_the_textbook_expression():
    kernel = KernelSpec(0.37)
    for m, kind, a, b in cases():
        cut = max(1, m // 3)
        for u, v in ((a, b), (a, a), (a, b[:cut])):
            got = kernel.matrix(u, v)
            want = reference_matrix(u, v, kernel.bandwidth)
            assert got.shape == want.shape and got.flags.c_contiguous, (m, kind)
            assert np.array_equal(got, want), (m, kind)
            # the in-place routine behind matrix, into a fresh buffer and
            # into one row of a larger one, as the low-rank fit calls it
            assert np.array_equal(kernel.fill(np.empty(want.shape), u, v), want), (m, kind)
            rows = np.full((3, v.size), np.nan)
            kernel.fill(rows[1:2], u[-1:], v)
            assert np.array_equal(rows[1:2], reference_matrix(u[-1:], v, kernel.bandwidth)), (m, kind)
            assert np.isnan(rows[[0, 2]]).all(), (m, kind)


def test_double_center_and_hsic_are_bitwise_the_textbook_expressions():
    kernels = (KernelSpec(0.5), KernelSpec(0.23))
    for m, kind, a, b in cases():
        gram = reference_matrix(b, b, 0.23)
        want = reference_double_center(gram)
        assert double_center_in_place(gram) is gram
        assert np.array_equal(gram, want), (m, kind)
        assert hsic(a, b, *kernels) == reference_hsic(a, b, *kernels), (m, kind)


def assert_reference_median(values, label):
    want = reference_median_gap(values)
    if want <= 0.0:
        with pytest.raises(DegenerateDataError):
            median_heuristic_bandwidth(values)
    else:
        assert median_heuristic_bandwidth(values) == want, label


def test_median_heuristic_is_bitwise_the_all_pairs_median():
    for m, kind, a, _ in cases():
        assert_reference_median(a, (m, kind))


def ulp_grid(centre, m, rng):
    """m values a few ulps apart around centre."""
    return centre + rng.integers(-20, 21, m) * np.spacing(centre)


def adversarial_median_inputs():
    rng = np.random.default_rng(17)
    yield "m=2", rng.uniform(-1, 1, 2)
    yield "m=3, odd gap count", rng.uniform(-1, 1, 3)
    yield "m=1002, odd gap count", rng.normal(size=1002)
    for m in (3, 4, 1000):
        yield f"all tied but one, m={m}", np.append(np.full(m - 1, 0.25), -0.5)
    # the middle ranks sit at the jump from within- to between-cluster gaps
    yield "two tight clusters", np.concatenate([-1 + 1e-9 * rng.random(484), 1 - 1e-9 * rng.random(516)])
    for centre in (-1.0, 1.0, 1e15):
        yield f"ulps near {centre}", ulp_grid(centre, 1000, rng)
    yield "ulps across 1.0 and tiny", np.concatenate([ulp_grid(1.0, 900, rng), rng.uniform(-1e-15, 1e-15, 100)])
    for m in (1000, 1100):
        yield f"uniform, m={m}", rng.uniform(-1, 1, m)
        yield f"cauchy, m={m}", rng.standard_cauchy(m)


def test_median_selection_on_adversarial_inputs():
    for label, values in adversarial_median_inputs():
        assert_reference_median(values, label)


def test_gap_prefix_ends_follow_the_computed_differences():
    # fl(s[i] + t) places some prefix ends one tie run too far and, where
    # magnitudes differ, some too short; both fix-ups must run and agree
    # with the brute-force count of computed gaps at most t
    rng = np.random.default_rng(23)
    inputs = [ulp_grid(c, 60, rng) for c in (-1.0, 1.0, 1e15)]
    inputs += [np.concatenate([ulp_grid(c, 40, rng), rng.uniform(-1e-15, 1e-15, 10), [2 * c, -c]]) for c in (-1.0, 1.0, 1e15)]
    short = far = 0
    for values in inputs:
        s = np.sort(values)
        gaps = np.unique((s - s[:, None])[np.triu_indices(s.size, 1)])
        for t in np.unique(np.concatenate([gaps, np.nextafter(gaps, -np.inf), np.nextafter(gaps, np.inf)])):
            want = np.array([i + 1 + np.sum(s[i + 1:] - s[i] <= t) for i in range(s.size - 1)])
            assert np.array_equal(_gap_row_ends(s, t), want), t
            plain = np.searchsorted(s, s[:-1] + t, side="right")
            short += int(np.sum(plain < want))
            far += int(np.sum(plain > want))
    assert short > 0 and far > 0


def test_median_selection_widens_a_bracket_that_misses(monkeypatch):
    # a dense cluster between two small ones: the sample's middle gap lands
    # more than the first margin away from the middle ranks
    values = np.concatenate([c + np.linspace(-1e-3, 1e-3, n) for c, n in ((0, 100), (1, 800), (2, 100))])
    calls = count_calls(monkeypatch, scores, "_gap_row_ends", "_all_gaps")
    assert median_heuristic_bandwidth(values) == reference_median_gap(values)
    assert calls["_gap_row_ends"] > 2 and calls["_all_gaps"] == 0


def test_inversion_count_matches_recursive_reference_and_brute_force():
    for m, kind, a, b in cases():
        seq = rank_vector(b)[np.argsort(rank_vector(a))]
        want = brute_force_inversions(seq)
        assert reference_count_inversions(seq) == want
        assert _count_inversions(seq) == want, (m, kind)
        # ties are not inversions, as in the reference
        assert _count_inversions(b) == reference_count_inversions(b) == brute_force_inversions(b)


def test_inversion_count_on_every_small_permutation():
    for m in range(7):
        for perm in itertools.permutations(range(m)):
            seq = np.array(perm, dtype=np.int64)
            assert _count_inversions(seq) == brute_force_inversions(seq), perm


def test_inversion_count_on_random_permutations():
    rng = np.random.default_rng(5)
    for m in (*rng.integers(7, 1000, 40), 511, 512, 513, 1000):
        seq = rng.permutation(int(m)) + 1
        assert _count_inversions(seq) == brute_force_inversions(seq), m
    reverse = np.arange(1000, 0, -1)
    assert _count_inversions(reverse) == 1000 * 999 // 2


def hsic_inputs(kind, m, rng):
    """A cause and a residual-like vector of m pairs, continuous, rounded
    to 2 decimals (tied) or integer-valued halves."""
    a = rng.uniform(-1, 1, m)
    b = a**3 + 0.3 * rng.standard_normal(m)
    if kind == "tied":
        a, b = np.round(a, 2), np.round(b, 2)
    elif kind == "integer":
        a, b = rng.integers(-2, 3, m) / 2.0, rng.integers(-2, 3, m) / 2.0
    return a, b


@pytest.mark.parametrize("m", [scores.LOW_RANK_MIN_SIZE, 1000, 2000])
def test_low_rank_hsic_is_within_its_bound(m):
    # median-heuristic bandwidths, as the non-private route uses, and
    # fixed ones down to the regression's 0.08; eta > 0 shows the factors
    # were used, as the exact route returns eta 0
    rng = np.random.default_rng(73)
    with _blas.single_threaded_blas():
        for kind in ("continuous", "tied", "integer"):
            a, b = hsic_inputs(kind, m, rng)
            medians = (KernelSpec(median_heuristic_bandwidth(a)), KernelSpec(median_heuristic_bandwidth(b)))
            for kernels in (medians, (KernelSpec(0.08), KernelSpec(0.3)), (KernelSpec(1.0), KernelSpec(1.0))):
                got, eta = low_rank_hsic(a, b, *kernels)
                exact = hsic(a, b, *kernels)
                assert 0.0 < eta <= 1e-12, (kind, kernels)
                assert abs(got - exact) <= eta, (kind, kernels, got - exact, eta)


def test_pivoted_cholesky_owns_the_low_rank_rule():
    # no factor below the size threshold or past rank n/4; a factor's tau
    # comes padded by n r eps, and covers the remaining trace recomputed
    # from its rows
    rng = np.random.default_rng(89)
    n, eps = scores.LOW_RANK_MIN_SIZE, np.finfo(float).eps
    assert KernelSpec(0.3).pivoted_cholesky(rng.uniform(-1, 1, n - 1)) is None
    assert KernelSpec(0.005).pivoted_cholesky(rng.uniform(-1, 1, n)) is None
    # five distinct values: five pivots, and a remaining trace of exactly 0
    rows, pivots, tau = KernelSpec(0.08).pivoted_cholesky(rng.integers(-2, 3, n) / 2.0)
    assert rows.shape == (5, n) and pivots.size == 5 and tau == n * 5 * eps
    for bandwidth in (0.08, 0.3, 1.0):
        rows, pivots, tau = KernelSpec(bandwidth).pivoted_cholesky(rng.uniform(-1, 1, n))
        assert 0 < rows.shape[0] <= n // scores.RANK_CAP_DIVISOR
        assert tau >= np.sum(np.maximum(1.0 - np.sum(rows * rows, axis=0), 0.0)), bandwidth


def test_low_rank_hsic_is_the_exact_one_where_it_does_not_apply(monkeypatch):
    # below the size threshold no pivot column is filled; at bandwidth
    # 0.005 the rank passes m/4 and the exact score is returned, bit for
    # bit, with eta 0, and the second factor is never started
    rng = np.random.default_rng(79)
    factors = factor_calls(monkeypatch)
    small = rng.uniform(-1, 1, (2, scores.LOW_RANK_MIN_SIZE - 1))
    kernel = KernelSpec(0.3)
    assert low_rank_hsic(*small, kernel, kernel) == (hsic(*small, kernel, kernel), 0.0)
    assert factors == [(0, False)]
    large = rng.uniform(-1, 1, (2, scores.LOW_RANK_MIN_SIZE))
    narrow = KernelSpec(0.005)
    assert low_rank_hsic(*large, narrow, kernel) == (hsic(*large, narrow, kernel), 0.0)
    assert factors == [(0, False), (scores.LOW_RANK_MIN_SIZE // scores.RANK_CAP_DIVISOR, False)]


# -- allocation guards: peak memory in float64 buffers of the pass's size ----

def test_kernel_matrix_builds_in_one_buffer(peak_buffers):
    rng = np.random.default_rng(0)
    u, v = rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 300)
    assert peak_buffers(400 * 300 * 8, KernelSpec(0.3).matrix, u, v) <= 1.1


def test_hsic_peak_memory(peak_buffers):
    # the centered Gram matrix plus one row block of the other
    rng = np.random.default_rng(1)
    a, b = rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 400)
    assert peak_buffers(400 * 400 * 8, hsic, a, b, KernelSpec(0.5), KernelSpec(0.5)) <= 1.6


def test_median_heuristic_peak_memory(peak_buffers):
    a = np.random.default_rng(2).uniform(-1, 1, 400)
    assert peak_buffers(400 * 400 * 8, median_heuristic_bandwidth, a) <= 0.1


def test_median_heuristic_fallback_peak_memory(peak_buffers, monkeypatch):
    # two values: the middle gaps are the 1s of the cross pairs, over half
    # of all gaps, so every bracket is too wide and all gaps are built
    a = np.repeat([0.0, 1.0], 200)
    calls = count_calls(monkeypatch, scores, "_all_gaps")
    assert peak_buffers(400 * 400 * 8, median_heuristic_bandwidth, a) <= 0.75
    assert calls["_all_gaps"] and median_heuristic_bandwidth(a) == reference_median_gap(a)


def test_low_rank_hsic_forms_no_m_by_m_matrix(peak_buffers):
    # the factors' rows are allocated up to the m/4 cap, two of them
    rng = np.random.default_rng(83)
    a, b = rng.uniform(-1, 1, 1000), rng.uniform(-1, 1, 1000)
    kernels = KernelSpec(median_heuristic_bandwidth(a)), KernelSpec(median_heuristic_bandwidth(b))
    assert peak_buffers(1000 * 1000 * 8, low_rank_hsic, a, b, *kernels) <= 0.6
