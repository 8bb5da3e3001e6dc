import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from nwflow import metrics
from nwflow.errors import ConfigError, NumericalError
from nwflow.kernels import SupportSet, nw_local_means
from nwflow.metrics import (
    _sqdist,
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
    assert type(res) is float
    assert res == pytest.approx(0.0, abs=1e-15)


def test_mmd2_disjoint_limit():
    x = np.zeros((2, 1))
    y = np.full((2, 1), 1e6)
    assert mmd2_unbiased(x, y, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_mmd2_brute_force_oracle():
    x = np.array([[0.0], [1.0]])
    assert mmd2_unbiased(x, x.copy(), 1.0) == pytest.approx(MMD_01, abs=1e-15)


def test_mmd2_exact_symmetry():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(25, 3)) + 0.3
    assert mmd2_unbiased(x, y, 0.7) == mmd2_unbiased(y, x, 0.7)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.integers(2, 300), st.integers(1, 5))
def test_mmd2_swap_symmetry_is_bitwise_at_every_shape(seed, n, m, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(m, d)) + 0.3
    assert mmd2_unbiased(x, y, 0.7) == mmd2_unbiased(y, x, 0.7)


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
    assert abs(mmd2_unbiased(x, y, 0.8) - _dense_mmd2(x, y, 0.8)) <= 1e-14


@pytest.mark.parametrize("n", [2, 7, 600])
def test_mmd2_same_array_for_both_samples(n):
    # One array passed as both samples: the cross term still sums all n^2 pairs.
    x = np.random.default_rng(n).normal(size=(n, 2))
    same = mmd2_unbiased(x, x, 0.9)
    assert same == mmd2_unbiased(x, x.copy(), 0.9)
    assert abs(same - _dense_mmd2(x, x, 0.9)) <= 1e-14
    dup = np.array([[1.0, 2.0], [1.0, 2.0]])
    assert mmd2_unbiased(dup, dup, 1.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("bw", [0.05, 0.01])
def test_mmd2_small_bandwidth_matches_dense_formula(bw, monkeypatch):
    # Most exponents lie far below -708, so pairs below kernels._EXP_FLOOR add 0 in every
    # tile that holds one; the dense reference exponentiates scipy's distances with no floor.
    rng = np.random.default_rng(17)
    x, y = rng.normal(size=(700, 2)), 1.1 * rng.normal(size=(600, 2))
    pooled = np.vstack([x, y])
    r2 = np.max(np.sum((pooled - pooled.mean(axis=0)) ** 2, axis=1))
    assert 4.0 * r2 / (2.0 * bw * bw) > 700.0  # the floor's bound fires
    k = lambda u, v: np.exp(-cdist(u, v, "sqeuclidean") / (2.0 * bw * bw))  # noqa: E731
    pos = 2.0 * k(x, y).mean() + sum((k(u, u).sum() - len(u)) / (len(u) * (len(u) - 1)) for u in (x, y))
    # The lifted GEMM sums each exponent from terms up to 4 max ||x - c||^2 / (2 bw^2), so it
    # is off by a few eps times that, and each kernel value by that much relative.
    tol = 16 * np.finfo(float).eps * 2.0 * r2 / (bw * bw)
    got = mmd2_unbiased(x, y, bw)
    assert abs(got - _dense_mmd2(x, y, bw)) <= tol * pos
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_EXP_FLOOR", -np.inf)  # no floor
        assert mmd2_unbiased(x, y, bw) == got  # the zeroed values, < 1e-304 each, added nothing


@pytest.mark.parametrize("n, m", [(40, 40), (200, 200), (513, 700)])
def test_mmd2_vanishing_kernel_is_exactly_zero(n, m):
    # At bandwidth 1e-8 every pair's exponent lies below -1e9, so every kernel value is 0, as
    # exp gives without the floor; floored pairs must add 0, not e^-700 each, or the three sums
    # differ by rounding and the callers' exactly-0 checks cannot fire.
    rng = np.random.default_rng(n)
    assert mmd2_unbiased(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)), 1e-8) == 0.0


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


_MMD_BLAS_SCRIPT = """
import numpy as np
from nwflow.metrics import mmd2_unbiased
for n, m in ((1100, 513), (2000, 2000)):
    rng = np.random.default_rng(n + m)
    x = rng.normal(size=(n, 2))
    y = rng.normal(size=(m, 2)) * 1.2 + 0.1
    print(repr(mmd2_unbiased(x, y, 0.8)), repr(mmd2_unbiased(y, x, 0.35)))
"""


def test_mmd2_bytes_independent_of_blas_threads():
    # Fresh processes, because OpenBLAS reads its thread count at import; the
    # kernel tiles are GEMMs, whose blocking may follow the thread count.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _MMD_BLAS_SCRIPT], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


_VARSCALE_HS = [float(m) ** (-1.0 / 12) for m in (10, 25, 50, 100, 250, 500, 1000)]


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nw_local_means_memory_is_bounded_by_one_block():
    rng = np.random.default_rng(4)
    queries = rng.normal(size=(512, 8))
    points = rng.normal(size=(50_000, 8))
    # Both calls hold the support's copy, keys and values (3.1, 3.4 and 3.4 MiB).  One bandwidth
    # adds one logit span of about 16 x 6,250 floats: 10.8 MiB measured, 16.1 MiB when it held a
    # 16 x 50,000 block.  Variance-scaling's seven bandwidths add a tile and its logit span (0.8 MB
    # each): 11.8 MiB measured, 17.1 MiB when the logits came in 16 x m blocks.
    assert _peak_bytes(nw_local_means, queries, points, 0.3) < 11.5 * 2**20
    assert _peak_bytes(nw_local_means, queries, points, _VARSCALE_HS) < 12.5 * 2**20


def test_nw_local_means_memory_beyond_the_support_does_not_grow_with_m():
    # At k bandwidths, memory beyond the support's copy, keys and values (m (3 d + 2) floats) is
    # O(tile): 1.6 MiB measured at both sizes.  A 16 x m logit block added 6.1 and 24.4 MiB.
    rng = np.random.default_rng(6)
    queries = rng.normal(size=(64, 8))
    beyond = []
    for m in (50_000, 200_000):
        points = rng.normal(size=(m, 8))
        beyond.append(_peak_bytes(nw_local_means, queries, points, _VARSCALE_HS) - 8 * m * (3 * 8 + 2))
    assert max(beyond) < 2.5 * 2**20
    assert beyond[1] - beyond[0] < 0.25 * 2**20


def test_single_bandwidth_memory_beyond_the_support_is_one_tile():
    # Above m = 2^14 one bandwidth walks the O(tile) spans, as k bandwidths do.  With the support's
    # keys and values built before tracing, the calls hold 0.9 MiB; a 16 x m weight block held 6.0.
    rng = np.random.default_rng(7)
    support = SupportSet(rng.normal(size=(3 * 2**14, 8)))
    support._kv
    queries = rng.normal(size=(512, 8))
    assert _peak_bytes(nw_local_means, queries, support, 0.3) < 2 * 2**20
    assert _peak_bytes(neff_profile, support, PathSchedule(0.01), (0.3, 1.0), 512) < 2 * 2**20


def test_fourier_sampler_memory_is_bounded_by_its_output_and_one_chunk():
    from nwflow.tasks import FourierDensity

    # The 50,000 x 8 output is 3.1 MiB; 4.2 MiB measured, 16.0 MiB when a batch of 2 (n - filled)
    # proposals was drawn and scored at once.
    assert _peak_bytes(sample_task, FourierDensity(d=8, seed=1), 50_000, 3) < 6 * 2**20


def test_mmd2_matches_naive_double_loop():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, 2))
    y = rng.normal(size=(6, 2))
    bw = 0.9
    k = lambda a, b: np.exp(-np.sum((a - b) ** 2) / (2 * bw * bw))  # noqa: E731
    a = sum(k(x[i], x[j]) for i in range(8) for j in range(8) if i != j) / (8 * 7)
    b = sum(k(y[i], y[j]) for i in range(6) for j in range(6) if i != j) / (6 * 5)
    c = sum(k(xi, yj) for xi in x for yj in y) * 2 / (8 * 6)
    assert mmd2_unbiased(x, y, bw) == pytest.approx(a + b - c, abs=1e-12)


def test_mmd2_statistical_unbiasedness():
    spec = Gmm(d=2, seed=0)
    bw = 1.0
    vals = []
    for seed in range(200):
        x = sample_task(spec, 200, 2 * seed)
        y = sample_task(spec, 200, 2 * seed + 1)
        vals.append(mmd2_unbiased(x, y, bw))
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
    x[3, 1] = np.nan  # NaN, as from np.median, not a middle distance
    assert np.isnan(median_heuristic(x[:5], x[5:]))


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


def _with_duplicates(rng, n, d):
    x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
    x[rng.integers(n, size=n // 3)] = x[rng.integers(n)]  # duplicate rows
    x[: n // 4] += 1e-9 * rng.normal(size=(n // 4, d))  # near-ties
    return x


@pytest.mark.parametrize("d", [1, 2, 5])
def test_exact_distances_are_bitwise_scipy(d):
    # scipy's cdist and pdist are the independent reference; near-ties decide
    # 1-NN labels, so the distances must round exactly as theirs do.
    rng = np.random.default_rng(d)
    for n, m in ((1, 3), (9, 9), (37, 530), (600, 41)):
        a, b = _with_duplicates(rng, n, d), _with_duplicates(rng, m, d)
        b[: min(n, m) // 2] = a[: min(n, m) // 2]
        got = _sqdist(a, np.ascontiguousarray(b.T), np.empty((n, m)))
        assert np.array_equal(got, cdist(a, b, "sqeuclidean"))
    # Pools of 3, 4, 6, 51, 701 and 2000 points: 3, 6, 15, 1275, 245350 and 1999000 pairs,
    # so the median is one middle distance or the mean of two.
    for n in (2, 3, 5, 50, 700, 2500):
        x = _with_duplicates(rng, n, d)
        pool = np.vstack([x[: n // 2 + 1], x[n // 2 :]])
        if len(pool) > 2000:
            pool = pool[np.unique(np.linspace(0, len(pool) - 1, 2000).round().astype(int))]
        want = float(np.median(pdist(pool))) / np.sqrt(2.0)
        assert median_heuristic(x[: n // 2 + 1], x[n // 2 :]) == want


@pytest.mark.parametrize("d", [1, 2, 5])
def test_c2st_matches_dense_cdist_reference(d):
    rng = np.random.default_rng(10 + d)
    x = _with_duplicates(rng, 700, d)
    y = np.vstack([x[:200], _with_duplicates(rng, 500, d)])
    # The second input is rounded to 0.1, so many distances tie exactly.
    for x, y in ((x, y), (np.round(x, 1), np.round(y, 1))):
        pooled = np.vstack([x, y])
        dist = cdist(pooled, pooled, "sqeuclidean")
        np.fill_diagonal(dist, np.inf)
        ties = dist == dist.min(axis=1)[:, None]
        labels = np.repeat([0, 1], 700)
        same = ties & (labels[None, :] == labels[:, None])
        want = float(np.mean(same.sum(axis=1) / ties.sum(axis=1)))
        assert c2st_1nn(x, y) == pytest.approx(want, abs=1e-15)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_sample_metrics_memory_is_bounded():
    # One 2 MiB working set each: n-sized distance arrays peaked at 19.7 (C2ST) and 15.8 MiB here.
    rng = np.random.default_rng(12)
    x, y = rng.normal(size=(2000, 2)), rng.normal(size=(2000, 2)) + 0.1
    for fn in (c2st_1nn, median_heuristic):
        assert _traced_peak(fn, x, y)[1] < 4 * 2**20


def test_median_heuristic_unit_vectors_share_one_top_bucket():
    # Squared distances of unit vectors in d = 64 crowd about 2: 194,901 pairs fall in the top-level
    # bucket [2, 2.0625), far more than a gather takes, so the selection must refine inside it.
    pool = np.random.default_rng(13).normal(size=(2000, 64))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    got, peak = _traced_peak(median_heuristic, pool[:1000], pool[1000:])
    assert peak < 4 * 2**20
    assert got == float(np.median(pdist(pool))) / np.sqrt(2.0)


def _count_calls(monkeypatch):
    calls = []
    inner = metrics._middle_sqdists
    monkeypatch.setattr(metrics, "_middle_sqdists", lambda *a: calls.append(a) or inner(*a))
    return calls


@pytest.mark.parametrize("case", ["top-level buckets", "last-level buckets", "one pattern"])
def test_median_heuristic_middle_ranks_in_different_buckets(case, monkeypatch):
    # 784 points, 306936 pairs, so the median is the mean of two middle distances.
    rng = np.random.default_rng(14)
    if case == "top-level buckets":
        # Clusters of 406 and 378 points, 2 apart: as many pairs within (squared distances
        # below 0.25) as across (above 2.25), so the lower middle is the largest within-cluster
        # distance and the upper middle the least cross distance, in another top-level bucket.
        pool = np.concatenate([rng.uniform(0, 0.5, 406), 2 + rng.uniform(0, 0.5, 378)])
    elif case == "last-level buckets":
        # Middle squared distances 1 and (1 + 2^-40)^2, whose bit patterns differ below bit 16.
        pool = np.concatenate([np.zeros(203), np.ones(203), np.full(378, 2 + 2.0**-40)])
    else:
        pool = np.repeat([0.0, 1.0], 392)  # every distance 0 or 1: the range narrows to one pattern
    pool = rng.permutation(pool)[:, None]
    calls = _count_calls(monkeypatch)
    got = median_heuristic(pool[:400], pool[400:])
    assert got == float(np.median(pdist(pool))) / np.sqrt(2.0)
    assert len(calls) == (1 if case == "one pattern" else 3)  # the two ranks selected one at a time


@pytest.mark.parametrize("rows", [1, 7])
def test_c2st_bits_independent_of_block_rows(rows, monkeypatch):
    # The tie-heavy inputs of test_c2st_matches_dense_cdist_reference, in 1- and 7-row blocks.
    rng = np.random.default_rng(12)
    x = _with_duplicates(rng, 700, 2)
    y = np.vstack([x[:200], _with_duplicates(rng, 500, 2)])
    pairs = ((x, y), (np.round(x, 1), np.round(y, 1)))
    want = [c2st_1nn(a, b) for a, b in pairs]
    monkeypatch.setattr(metrics, "_TILE", rows * 2 * 700)
    assert [c2st_1nn(a, b) for a, b in pairs] == want


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
    assert [len(col) for col in (prof.t, prof.h, prof.median, prof.q25, prof.q75)] == [1] * 5
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
