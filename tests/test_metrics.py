import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from nwflow.errors import ConfigError, NumericalError
from nwflow.kernels import SupportSet
from nwflow.metrics import (
    c2st_1nn,
    fit_power_law,
    median_heuristic,
    mmd2_unbiased,
    neff_profile,
)
from nwflow.schedule import PathSchedule
from nwflow.tasks import Gmm, sample_task

# Frozen from the brute-force four-term sums at 40 digits:
# X = Y = {0, 1} in R^1, bandwidth 1 -> exp(-1/2) - 1.
MMD_01 = -0.3934693402873666


def test_mmd2_identical_point_pairs():
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    res = mmd2_unbiased(x, x.copy(), 1.0)
    assert res.value == pytest.approx(0.0, abs=1e-15)


def test_mmd2_disjoint_limit():
    x = np.zeros((2, 1))
    y = np.full((2, 1), 1e6)
    assert mmd2_unbiased(x, y, 1.0).value == pytest.approx(2.0, abs=1e-12)


def test_mmd2_brute_force_oracle():
    x = np.array([[0.0], [1.0]])
    res = mmd2_unbiased(x, x.copy(), 1.0)
    assert res.value == pytest.approx(MMD_01, abs=1e-15)
    assert res.n_x == res.n_y == 2


def test_mmd2_exact_symmetry():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(25, 3)) + 0.3
    assert mmd2_unbiased(x, y, 0.7).value == mmd2_unbiased(y, x, 0.7).value


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.integers(2, 300), st.integers(1, 5))
def test_mmd2_swap_symmetry_is_bitwise_at_every_shape(seed, n, m, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(m, d)) + 0.3
    assert mmd2_unbiased(x, y, 0.7).value == mmd2_unbiased(y, x, 0.7).value


def _dense_mmd2(x, y, bw):
    """The dense three-matrix formula the tiled sums replace."""
    inv = -0.5 / (bw * bw)
    n, m = len(x), len(y)
    kxx = np.exp(inv * cdist(x, x, "sqeuclidean"))
    kyy = np.exp(inv * cdist(y, y, "sqeuclidean"))
    kxy = np.exp(inv * cdist(x, y, "sqeuclidean"))
    a = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    b = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    return a + b - 2.0 * kxy.mean()


@pytest.mark.parametrize("n, m", [(1100, 513), (512, 512), (3, 1030)])
def test_mmd2_tiles_match_dense_formula(n, m):
    rng = np.random.default_rng(n + m)
    x = rng.normal(size=(n, 2))
    y = rng.normal(size=(m, 2)) * 1.2
    res = mmd2_unbiased(x, y, 0.8)
    assert abs(res.value - _dense_mmd2(x, y, 0.8)) <= 1e-14
    assert (res.n_x, res.n_y) == (n, m)


@pytest.mark.parametrize("n", [2, 7, 600])
def test_mmd2_same_array_for_both_samples(n):
    # One array passed as both samples: the cross term still sums all n^2 pairs.
    x = np.random.default_rng(n).normal(size=(n, 2))
    same = mmd2_unbiased(x, x, 0.9).value
    assert same == mmd2_unbiased(x, x.copy(), 0.9).value
    assert abs(same - _dense_mmd2(x, x, 0.9)) <= 1e-14
    dup = np.array([[1.0, 2.0], [1.0, 2.0]])
    assert mmd2_unbiased(dup, dup, 1.0).value == pytest.approx(0.0, abs=1e-15)


def test_mmd2_memory_is_bounded_by_one_tile():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4000, 2))
    y = rng.normal(size=(4000, 2))
    tracemalloc.start()
    try:
        mmd2_unbiased(x, y, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_mmd2_matches_naive_double_loop():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, 2))
    y = rng.normal(size=(6, 2))
    bw = 0.9
    k = lambda a, b: np.exp(-np.sum((a - b) ** 2) / (2 * bw * bw))  # noqa: E731
    a = sum(k(x[i], x[j]) for i in range(8) for j in range(8) if i != j) / (8 * 7)
    b = sum(k(y[i], y[j]) for i in range(6) for j in range(6) if i != j) / (6 * 5)
    c = sum(k(xi, yj) for xi in x for yj in y) * 2 / (8 * 6)
    assert mmd2_unbiased(x, y, bw).value == pytest.approx(a + b - c, abs=1e-12)


def test_mmd2_statistical_unbiasedness():
    spec = Gmm(d=2, seed=0)
    bw = 1.0
    vals = []
    for seed in range(200):
        x = sample_task(spec, 200, 2 * seed)
        y = sample_task(spec, 200, 2 * seed + 1)
        vals.append(mmd2_unbiased(x, y, bw).value)
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean()) <= 3 * se


def test_mmd2_size_errors():
    with pytest.raises(ConfigError, match="at least two points per sample"):
        mmd2_unbiased(np.zeros((1, 2)), np.zeros((5, 2)), 1.0)


def test_median_heuristic_two_points():
    x = np.array([[0.0], [2.0]])
    assert median_heuristic(x[:1], x[1:]) == pytest.approx(np.sqrt(2.0))


def test_median_heuristic_degenerate():
    x = np.ones((10, 2))
    with pytest.raises(ConfigError, match="all pooled points identical"):
        median_heuristic(x, x.copy())


def test_median_heuristic_monte_carlo():
    # pooled standard normal in d=2: pairwise distances follow sqrt(2)*chi_2;
    # the median of chi_2 is sqrt(2 ln 2), so the heuristic approaches
    # sqrt(2 ln 2) after the sqrt(2) division
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1000, 2))
    y = rng.standard_normal((1000, 2))
    got = median_heuristic(x, y)
    assert got == pytest.approx(np.sqrt(2 * np.log(2)), rel=0.05)


def test_median_heuristic_subsample_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3000, 2))
    assert median_heuristic(x, x) == median_heuristic(x, x)


def test_c2st_separable():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 2))
    y = rng.normal(size=(50, 2)) + 100.0
    assert c2st_1nn(x, y) == 1.0


def test_c2st_duplicated_pool_near_half():
    # both samples drawn with replacement from one fixed point set: exact
    # distance ties are scored by label balance
    rng = np.random.default_rng(6)
    points = rng.normal(size=(30, 2))
    x = points[rng.integers(30, size=200)]
    y = points[rng.integers(30, size=200)]
    acc = c2st_1nn(x, y)
    assert 0.35 <= acc <= 0.6


def test_c2st_null_calibration():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(100):
        x = rng.standard_normal((500, 2))
        y = rng.standard_normal((500, 2))
        if 0.44 <= c2st_1nn(x, y) <= 0.56:
            hits += 1
    assert hits >= 90


def test_c2st_size_errors():
    with pytest.raises(ConfigError, match="at least 10 points per sample"):
        c2st_1nn(np.zeros((5, 1)), np.zeros((5, 1)))
    with pytest.raises(ConfigError, match="must have equal size"):
        c2st_1nn(np.zeros((10, 1)), np.zeros((12, 1)))


def test_neff_profile_single_point_support():
    support = SupportSet(np.array([[0.5, 0.5]]))
    prof = neff_profile(support, PathSchedule(0.01), [0.2, 0.56, 1.0], n_queries=64, seed=0)
    assert np.allclose(prof.median, 1.0)
    assert np.allclose(prof.q75, 1.0)


def test_neff_profile_monotone_ends():
    rng = np.random.default_rng(8)
    support = SupportSet(rng.normal(size=(40, 3)) * 2)
    sched = PathSchedule(0.01)
    prof = neff_profile(support, sched, [0.02, 0.3, 1.0], n_queries=256, seed=1)
    assert prof.median[0] > prof.median[-1]
    assert prof.median[0] == pytest.approx(40, rel=0.2)  # near-uniform weights early


def test_neff_profile_rows_and_grid_validation():
    support = SupportSet(np.array([[0.0], [1.0]]))
    prof = neff_profile(support, PathSchedule(0.01), [0.56], n_queries=16, seed=0)
    row = prof.rows()[0]
    assert set(row) == {"t", "h_t", "median_neff", "q25", "q75"}
    with pytest.raises(ValueError):
        neff_profile(support, PathSchedule(0.01), [0.0, 0.5])


def test_fit_power_law_exact():
    pts = [(10, 10 ** -0.5), (100, 100 ** -0.5), (1000, 1000 ** -0.5)]
    fit = fit_power_law(pts)
    assert fit.alpha == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_constant_and_errors():
    fit = fit_power_law([(10, 2.0), (100, 2.0), (1000, 2.0)])
    assert fit.alpha == 0.0
    assert fit.r_squared == 0.0
    with pytest.raises(NumericalError, match="strictly positive values"):
        fit_power_law([(10, 1.0), (100, -1.0), (1000, 1.0)])
    with pytest.raises(ConfigError, match="at least 3 points for a rate fit"):
        fit_power_law([(10, 1.0), (100, 0.5)])


def test_fit_power_law_planted_noisy():
    rng = np.random.default_rng(9)
    ms = np.array([10, 30, 100, 300, 1000])
    vals = 5.0 * ms ** -1.3 * np.exp(rng.normal(0, 0.01, ms.size))
    fit = fit_power_law(list(zip(ms, vals)))
    assert fit.alpha == pytest.approx(1.3, abs=0.05)
    assert fit.r_squared > 0.99
