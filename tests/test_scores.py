"""Score statistics against hand counts and quadratic-time oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privcause.scores import (
    DegenerateDataError,
    KernelSpec,
    hsic,
    iqr_score,
    kendall_tau,
    log_iqr,
    median_heuristic_bandwidth,
    rank_vector,
    spearman_rho,
    variance_score,
)

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


def kendall_quadratic(a, b):
    """O(m^2) pair count on stable ranks, the definition read literally."""
    ra = rank_vector(a)
    rb = rank_vector(b)
    m = len(ra)
    concordant = discordant = 0
    for i in range(m):
        for j in range(i + 1, m):
            if (ra[i] - ra[j]) * (rb[i] - rb[j]) > 0:
                concordant += 1
            else:
                discordant += 1
    return abs(concordant - discordant) / (m * (m - 1) / 2)


def hsic_naive(a, b, kernel_a, kernel_b):
    """trace(K H L H) / (m-1)^2 with the centering matrix written out."""
    a = np.asarray(a, dtype=float)
    m = a.size
    k = kernel_a.matrix(a, a)
    el = kernel_b.matrix(np.asarray(b, dtype=float), b)
    h = np.eye(m) - np.ones((m, m)) / m
    return float(np.trace(k @ h @ el @ h)) / (m - 1) ** 2


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
