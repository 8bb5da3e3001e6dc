import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nwflow.errors import ConfigError, NumericalError
from nwflow.kernels import (
    BilinearLogit,
    IsotropicGaussian,
    Mahalanobis,
    SupportSet,
    Vmf,
    _EXP_FLOOR,
    _TILE_ELEMS,
    _logsumexp,
    _may_underflow,
    _smooth,
    kde_descaled_log_density,
    kde_descaled_score,
    local_mean,
    logits,
    nw_local_means,
    nw_weights,
    softmax_weights,
)
from nwflow.schedule import PathSchedule

# Frozen from an independent 40-digit evaluation of exp(0)/(exp(0)+exp(-2)),
# 1/sum(w^2), and the weighted mean.
W0 = 0.8807970779778824
W1 = 0.11920292202211756
NEFF_01 = 1.2658022288340798
MEAN_01 = 0.23840584404423512

S12 = SupportSet(np.array([[0.0], [2.0]]))


def test_logits_zero_at_own_point():
    s = SupportSet(np.array([[1.5, -2.0]]))
    lg = logits(np.array([1.5, -2.0]), s, IsotropicGaussian(1.0))
    assert lg[0] == 0.0


def test_logits_scalar_case():
    lg = logits(np.array([0.0]), S12, IsotropicGaussian(1.0))
    assert np.allclose(lg, [0.0, -2.0], atol=0)


def test_mahalanobis_identity_matches_isotropic():
    rng = np.random.default_rng(3)
    s = SupportSet(rng.normal(size=(12, 4)))
    x = rng.normal(size=4)
    iso = nw_weights(x, s, IsotropicGaussian(0.7)).w
    mah = nw_weights(x, s, Mahalanobis(0.7, np.eye(4))).w
    assert np.max(np.abs(iso - mah)) <= 1e-12


def test_weights_oracle():
    wv = nw_weights(np.array([0.0]), S12, IsotropicGaussian(1.0))
    assert wv.w[0] == pytest.approx(W0, abs=1e-15)
    assert wv.w[1] == pytest.approx(W1, abs=1e-15)
    assert wv.neff == pytest.approx(NEFF_01, abs=1e-12)


def test_weights_single_point():
    s = SupportSet(np.array([[3.0, 1.0]]))
    wv = nw_weights(np.array([100.0, -5.0]), s, IsotropicGaussian(0.1))
    assert wv.w.tolist() == [1.0]
    assert wv.neff == 1.0


def test_weights_symmetry():
    wv = nw_weights(np.array([1.0]), S12, IsotropicGaussian(0.5))
    assert np.allclose(wv.w, [0.5, 0.5])
    assert wv.neff == pytest.approx(2.0)


def test_weight_simplex_and_neff_bounds():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, d = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        s = SupportSet(rng.normal(size=(m, d)))
        x = rng.normal(size=d)
        h = float(np.exp(rng.uniform(-2, 2)))
        wv = nw_weights(x, s, IsotropicGaussian(h))
        assert abs(wv.w.sum() - 1.0) <= 1e-12
        assert np.all(wv.w >= 0.0)
        assert 1.0 - 1e-12 <= wv.neff <= m + 1e-9


def test_neff_limits():
    rng = np.random.default_rng(5)
    s = SupportSet(rng.normal(size=(10, 2)))
    x = s.points[3] + 0.01
    tight = nw_weights(x, s, IsotropicGaussian(1e-3)).neff
    wide = nw_weights(x, s, IsotropicGaussian(1e6)).neff
    assert tight == pytest.approx(1.0, abs=1e-9)
    assert wide == pytest.approx(10.0, rel=1e-9)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(7)
    lg = rng.normal(size=20)
    base = softmax_weights(lg)
    for c in (1e3, -1e3, 17.3):
        assert np.max(np.abs(softmax_weights(lg + c) - base)) <= 1e-12


def test_softmax_all_underflow_row_raises():
    # A row with no finite maximum raises, as the smoother core does; -inf
    # entries next to a finite maximum get weight 0.
    for raw in ([-np.inf, -np.inf, -np.inf], [np.inf, 0.0, 1.0], [np.nan, 0.0, 1.0]):
        with pytest.raises(NumericalError):
            softmax_weights(np.array(raw))
    w = softmax_weights(np.array([-np.inf, -3.0, -np.inf]))
    assert np.allclose(w, [0.0, 1.0, 0.0])


def test_logsumexp_is_bitwise_scipy():
    # scipy is the independent reference here: the library itself runs on numpy alone.
    from scipy.special import logsumexp

    rng = np.random.default_rng(29)
    cases = [
        np.array([0.3]),
        np.array([-1e300]),
        np.array([2.0, 2.0, 2.0]),
        np.array([1.0, -0.5, 1.0, 0.25]),
        np.array([-745.0, -744.5, -746.1, -745.0]),
        np.array([-np.inf, -3.0, -np.inf]),
    ]
    for k in range(300):
        a = rng.normal(size=int(rng.integers(1, 400))) * 10.0 ** rng.uniform(-4, 4)
        if k % 3 == 0:
            a[rng.integers(a.size, size=3)] = a.max()  # tied maxima
        if k % 4 == 0:
            a -= 745.0  # near exp's underflow
        cases.append(a)
    for a in cases:
        got = _logsumexp(a)
        assert type(got) is float
        assert got == float(logsumexp(a)), a


def test_logsumexp_non_finite_maximum_raises():
    for raw in ([np.nan, 0.0], [-np.inf, -np.inf], [np.inf, 1.0], [np.nan]):
        with pytest.raises(NumericalError):
            _logsumexp(np.array(raw))
    with pytest.raises(NumericalError):
        kde_descaled_log_density(np.array([np.nan, 0.0]), SupportSet(np.eye(2)), 0.5)


def test_softmax_2d_underflow_row_next_to_finite_rows():
    finite = np.array([[0.0, -2.0, -np.inf], [5.0, 5.0, 5.0]])
    raw = np.vstack([[-np.inf, -np.inf, -np.inf], finite])
    before = raw.copy()
    with pytest.raises(NumericalError):
        softmax_weights(raw)
    w = softmax_weights(finite)
    assert w[0] == pytest.approx([W0, W1, 0.0], abs=1e-15)
    assert np.array_equal(w[1], [1 / 3] * 3)
    assert np.array_equal(raw, before)  # the input is never normalized in place
    assert np.array_equal(finite, before[1:])


def test_softmax_finite_rows_match_max_shift_formula_bitwise():
    rng = np.random.default_rng(21)
    for shape in ((7,), (5, 9), (3, 4, 6)):
        for scale in (1.0, 1e3, 1e6):
            raw = scale * rng.normal(size=shape)
            top = np.max(raw, axis=-1, keepdims=True)
            expd = np.exp(raw - top)
            want = expd / np.sum(expd, axis=-1, keepdims=True)
            assert np.array_equal(softmax_weights(raw), want)


def test_nw_local_means_matches_per_query_local_mean():
    rng = np.random.default_rng(22)
    for offset in (0.0, 1e3):
        pts = offset + rng.normal(size=(300, 3))
        queries = offset + 1.5 * rng.normal(size=(40, 3))
        # 1e-3: every weight but the nearest row's underflows; 1e3: near-uniform weights.
        for h in (1e-3, 0.05, 0.4, 3.0, 1e3):
            got = nw_local_means(queries, pts, h)
            kern = IsotropicGaussian(h)
            want = np.stack([local_mean(q, SupportSet(pts), kern) for q in queries])
            rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert rel <= 1e-12
        nearest = np.argmin(((queries[:, None, :] - pts[None]) ** 2).sum(axis=2), axis=1)
        assert np.array_equal(nw_local_means(queries, pts, 1e-3), pts[nearest])


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_nw_local_means_at_many_bandwidths_matches_per_query_local_mean(offset):
    rng = np.random.default_rng(23)
    n = 40
    # m = 300 fits one column tile; 2.5 tiles leave a ragged last one.
    for m in (300, int(2.5 * (_TILE_ELEMS // n))):
        pts = offset + rng.normal(size=(m, 3))
        queries = offset + 1.5 * rng.normal(size=(n, 3))
        support = SupportSet(pts)
        sqd = ((queries[:, None, :] - pts[None]) ** 2).sum(axis=2)
        nearest, two = np.argmin(sqd, axis=1), np.sort(sqd, axis=1)[:, :2]
        # At h = 1e-3, these queries' other weights lie below exp(-745), so they collapse.
        collapsed = (two[:, 1] - two[:, 0]) / 2e-6 > 745.0
        assert collapsed.sum() > n // 2
        # 1e-3: the clamp fires; 1e3: near-uniform weights.
        for hs in ([1e-3, 0.05, 0.4, 3.0, 1e3], [1e3, 3.0, 0.4, 0.05, 1e-3]):
            got = nw_local_means(queries, pts, hs)
            assert got.shape == (len(hs), n, 3)
            for h, means in zip(hs, got):
                want = np.stack([local_mean(q, support, IsotropicGaussian(h)) for q in queries])
                assert np.max(np.abs(means - want)) / np.max(np.abs(want)) <= 1e-12
            assert np.array_equal(got[hs.index(1e-3)][collapsed], pts[nearest][collapsed])


def test_nw_local_means_one_bandwidth_sequence_is_the_float_call():
    rng = np.random.default_rng(24)
    queries, pts = rng.normal(size=(30, 4)), rng.normal(size=(70_000, 4))
    for h in (1e-3, 0.3):
        got = nw_local_means(queries, pts, [h])
        assert got.shape == (1, 30, 4)
        assert got[0].tobytes() == nw_local_means(queries, pts, h).tobytes()


@pytest.mark.parametrize("m", [16_391, 50_000])
def test_one_bandwidth_above_one_block_is_the_least_row_of_a_k_call(m):
    # Above m = 2^14 one bandwidth takes the k-bandwidth tiles and spans, so the two calls run the
    # same operations on the least bandwidth's row (times 1.0, which is exact).
    rng = np.random.default_rng(m)
    support = SupportSet(rng.normal(size=(m, 4)))
    queries = 1.2 * rng.normal(size=(24, 4))  # blocks of 16 and 8 rows
    h = 0.3
    one = nw_local_means(queries, support, h)
    assert one.tobytes() == nw_local_means(queries, support, [h, 2 * h, 4 * h])[0].tobytes()
    want = np.stack([local_mean(q, support, IsotropicGaussian(h)) for q in queries])
    assert np.max(np.abs(one - want)) / np.max(np.abs(want)) <= 1e-12


def _untiled_smooth(x, support, sigmas):
    """The k-bandwidth smoother at t = 1 with untiled logits: one full-width GEMM per 16-row block,
    shifted by its row max, then per bandwidth the same value tiles of _TILE_ELEMS // 16 columns."""
    c, keys, vals, radius = support._kv
    t, sq = np.asarray(1.0), np.square(sigmas, dtype=np.float64)
    sq0 = np.min(sq)
    scale = t / sq0
    n, m, p = x.shape[0], support.m, support.d
    xc = x - t * c
    clamp = _may_underflow(xc, t, sq, radius)
    q = np.concatenate([xc * scale, np.full((n, 1), -0.5) * t * scale], axis=1)
    width = _TILE_ELEMS // 16
    work = np.empty((16, width))
    means, neff = np.empty((len(sq), n, p)), np.empty((len(sq), n))
    for lo in range(0, n, 16):
        g = q[lo : lo + 16] @ keys.T
        g -= np.max(g, axis=1, keepdims=True)
        for j, ratio in enumerate(np.where(sq == sq0, 1.0, sq0 / sq)):
            for c0 in range(0, m, width):
                e = np.multiply(g[:, c0 : c0 + width], ratio, out=work[: len(g), : m - c0])
                if clamp:
                    np.maximum(e, _EXP_FLOOR, out=e)
                np.exp(e, out=e)
                part, sq_part = e @ vals[c0 : c0 + width], np.einsum("ij,ij->i", e, e)
                r, ss = (part, sq_part) if c0 == 0 else (r + part, ss + sq_part)
            means[j, lo : lo + 16] = r[:, :p] / r[:, p:]
            neff[j, lo : lo + 16] = r[:, p] ** 2 / ss
    return means, neff


def _check_tiled_bytes(m):
    rng = np.random.default_rng(m)
    for d in (1, 3, 8, 33):
        support = SupportSet(rng.normal(size=(m, d)))
        x = 1.2 * rng.normal(size=(40, d))  # blocks of 16, 16 and 8 rows
        hs = [float(k) ** (-1.0 / (4 + d)) for k in (10, 25, 50, 100, 250, 500, 1000)]
        for k in (2, 7):
            got = _smooth(x, support, 1.0, hs[:k], neff=True)
            want = _untiled_smooth(x, support, hs[:k])
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes(), (d, k)


# 16,391 and 25,007 leave spans ending 7 columns past a multiple of 8, 18,753 one column, and
# 25,007 a last value tile of 7 columns.
@pytest.mark.parametrize("m", [16_391, 18_753, 25_007, 50_000])
def test_tiled_logits_give_the_bytes_of_one_full_width_block(m):
    # In a fresh process at one BLAS thread, as perfbench and tools/output_sha256.py run: OpenBLAS
    # reads its thread count at import, and its threaded GEMM splits a full-width block and a span
    # at different columns, so their bytes may differ at other thread counts (ROADMAP item 12).
    tests, src = Path(__file__).resolve().parent, Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(tests), str(src), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    script = f"from test_kernels import _check_tiled_bytes; _check_tiled_bytes({m})"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("m", [1, 7, 300])
def test_smoother_neff_matches_per_query_weights(m):
    rng = np.random.default_rng(m)
    sched = PathSchedule(0.01)
    support = SupportSet(2.0 * rng.normal(size=(m, 3)))
    for t in (0.05, 0.56, 1.0):
        sig = sched.sigma(t)
        x = t * support.points[rng.integers(m, size=25)] + sig * rng.standard_normal((25, 3))
        means, neff = _smooth(x, support, t, sig, neff=True)
        assert np.array_equal(means, _smooth(x, support, t, sig))
        kern = IsotropicGaussian(sched.bandwidth(t))
        want = np.array([nw_weights(row / t, support, kern).neff for row in x])
        assert np.max(np.abs(neff - want) / want) <= 1e-12
        if m == 1:
            assert np.all(neff == 1.0)
        # k bandwidths in one call: n_eff sums e^2 over the column tiles
        many = _smooth(x, support, t, [sig, 2.0 * sig], neff=True)
        for k, s in enumerate((sig, 2.0 * sig)):
            one = _smooth(x, support, t, s, neff=True)
            assert np.allclose(many[0][k], one[0], rtol=1e-12, atol=1e-12)
            assert np.allclose(many[1][k], one[1], rtol=1e-12, atol=0.0)
    assert nw_local_means(np.empty((0, 3)), support.points, 0.5).shape == (0, 3)


@pytest.mark.parametrize("h", [-0.5, float("nan"), [0.3, -0.5], [0.3, float("nan")], [], [[0.3]]])
def test_nw_local_means_rejects_negative_or_nan_bandwidth(h):
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="bandwidth must be non-negative"):
        nw_local_means(rng.normal(size=(3, 2)), rng.normal(size=(5, 2)), h)


@pytest.mark.parametrize("h", [1e-155, 1e-162, 1e-200, 0.0, [0.3, 1e-200]])
def test_smoother_bandwidth_too_small_is_numerical_error(h):
    # 1e-155: t / h^2 overflows to inf; 1e-162 and below: h^2 underflows to 0
    rng = np.random.default_rng(5)
    with pytest.raises(NumericalError, match="kernel scale t / sigma\\^2 overflows"):
        nw_local_means(rng.normal(size=(4, 2)), rng.normal(size=(6, 2)), h)


def test_smoother_logit_overflow_is_numerical_error():
    # t / sigma^2 = 1e304 is finite, but the logits' GEMM overflows (numpy warns first)
    support = SupportSet(np.array([[0.0, 0.0], [1e4, 1e4]]))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericalError, match="kernel logits are not finite"):
            _smooth(np.array([[6e3, 6e3]]), support, 1.0, 1e-152)


def test_support_set_copies_instead_of_freezing_the_caller_array():
    pts = np.zeros((3, 2))
    s = SupportSet(pts)
    pts[0, 0] = 1.0  # the caller's array stays writable
    assert s.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        s.points[0, 0] = 1.0


def test_shift_equivariance():
    rng = np.random.default_rng(13)
    s = rng.normal(size=(15, 3))
    x = rng.normal(size=3)
    c = rng.normal(size=3) * 10
    w0 = nw_weights(x, SupportSet(s), IsotropicGaussian(0.8)).w
    w1 = nw_weights(x + c, SupportSet(s + c), IsotropicGaussian(0.8)).w
    assert np.max(np.abs(w0 - w1)) <= 1e-12


def test_local_mean_oracle_and_limits():
    assert local_mean(np.array([0.0]), S12, IsotropicGaussian(1.0))[0] == pytest.approx(
        MEAN_01, abs=1e-15
    )
    s = SupportSet(np.array([[4.0, 2.0]]))
    assert np.allclose(local_mean(np.array([0.0, 0.0]), s, IsotropicGaussian(2.0)), [4.0, 2.0])
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(25, 2))
    wide = local_mean(rng.normal(size=2), SupportSet(pts), IsotropicGaussian(1e8))
    assert np.max(np.abs(wide - pts.mean(axis=0))) <= 1e-6


def test_local_mean_generalized_values():
    rng = np.random.default_rng(23)
    s = SupportSet(rng.normal(size=(8, 2)))
    vals = rng.normal(size=(8, 5))
    x = rng.normal(size=2)
    w = nw_weights(x, s, IsotropicGaussian(0.9)).w
    got = local_mean(x, s, IsotropicGaussian(0.9), values=vals)
    assert np.allclose(got, w @ vals, atol=1e-15)
    # convex combination stays inside the per-column hull
    assert np.all(got <= vals.max(axis=0) + 1e-12)
    assert np.all(got >= vals.min(axis=0) - 1e-12)


def test_bilinear_logits():
    rng = np.random.default_rng(29)
    a = rng.normal(size=(3, 3))
    s = SupportSet(rng.normal(size=(6, 3)))
    x = rng.normal(size=3)
    lg = logits(x, s, BilinearLogit(a, 2.0))
    expect = np.array([x @ a @ row / 2.0 for row in s.points])
    assert np.allclose(lg, expect, atol=1e-13)


def test_vmf_logits_and_norm_check():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(5, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    s = SupportSet(pts)
    x = pts[2]
    lg = logits(x, s, Vmf(3.0))
    assert lg[2] == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ConfigError, match="unit-norm query"):
        logits(2.0 * x, s, Vmf(3.0))
    with pytest.raises(ConfigError, match="unit-norm support rows"):
        logits(x, SupportSet(2.0 * pts), Vmf(3.0))


def test_vmf_smoother_is_core_gaussian_smoother_on_the_sphere():
    # kappa cos = kappa - kappa ||x - s||^2 / 2 on the unit sphere, so the vMF
    # estimate sphere-rate takes from the core at sigma^2 = 1 / kappa, t = 1
    # matches the literal per-query route through the Vmf logits.
    rng = np.random.default_rng(32)
    worst = 0.0
    for d in (1, 2, 3, 8):
        q = rng.standard_normal((16, d))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        for m in (1, 64, 4096):
            design = rng.standard_normal((m, d))
            design /= np.linalg.norm(design, axis=1, keepdims=True)
            y = design[:, 0] + 0.5 * rng.standard_normal(m)
            support = SupportSet(design)
            values = np.column_stack([y, np.ones(m)])
            for kappa in (0.5, 4.0, 64.0, 300.0):
                got = _smooth(q, support, 1.0, kappa ** -0.5, values)[:, 0]
                want = [local_mean(x, support, Vmf(kappa), values=y) for x in q]
                worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
    assert worst <= 1e-12


def test_dim_mismatch():
    with pytest.raises(ConfigError, match="query has shape"):
        logits(np.zeros(3), S12, IsotropicGaussian(1.0))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        IsotropicGaussian(0.0)
    with pytest.raises(ValueError):
        Vmf(-1.0)
    with pytest.raises(ConfigError, match="metric must be positive-definite"):
        Mahalanobis(1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ConfigError, match="metric must be symmetric"):
        Mahalanobis(1.0, np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    Mahalanobis(1.0, np.array([[2.0, 0.3], [0.3, 1.0]]))


def _literal_kde_density(x, s, h):
    """(1/m) sum_i (2 pi h^2)^(-d/2) exp(-||x - s_i||^2 / (2 h^2)), term by term."""
    sq = np.sum((s.points - x) ** 2, axis=1)
    return float(np.mean((2.0 * np.pi * h * h) ** (-s.d / 2.0) * np.exp(-sq / (2.0 * h * h))))


def test_kde_density_values():
    s1 = SupportSet(np.array([[0.0]]))
    peak = np.exp(kde_descaled_log_density(np.array([0.0]), s1, 1.0))
    assert peak == pytest.approx(0.3989422804014327, abs=1e-15)
    s2 = SupportSet(np.array([[-1.0], [1.0]]))
    val = np.exp(kde_descaled_log_density(np.array([0.0]), s2, 1.0))
    assert val == pytest.approx(0.24197072451914334, abs=1e-15)
    with pytest.raises(ValueError, match="bandwidth must be positive and finite, got 0.0"):
        kde_descaled_log_density(np.array([0.0]), s1, 0.0)


def test_kde_density_integrates_to_one():
    rng = np.random.default_rng(37)
    s = SupportSet(rng.normal(size=(7, 1)) * 2)
    grid = np.linspace(-14, 14, 4001)
    dens = [np.exp(kde_descaled_log_density(np.array([g]), s, 0.7)) for g in grid]
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)


def test_kde_log_density_matches_log_of_density():
    rng = np.random.default_rng(41)
    s = SupportSet(rng.normal(size=(9, 3)))
    x = rng.normal(size=3)
    dens = _literal_kde_density(x, s, 0.5)
    assert np.exp(kde_descaled_log_density(x, s, 0.5)) == pytest.approx(dens, rel=1e-12)


def test_kde_log_density_survives_high_dim():
    rng = np.random.default_rng(43)
    s = SupportSet(rng.normal(size=(20, 32)))
    x = rng.normal(size=32) * 10
    assert _literal_kde_density(x, s, 0.05) == 0.0  # underflows
    assert np.exp(kde_descaled_log_density(x, s, 0.05)) == 0.0
    assert np.isfinite(kde_descaled_log_density(x, s, 0.05))


def test_score_oracle_and_fd():
    got = kde_descaled_score(np.array([0.0]), S12, 1.0)
    assert got[0] == pytest.approx(MEAN_01, abs=1e-14)
    s1 = SupportSet(np.array([[1.0, 2.0]]))
    assert np.allclose(kde_descaled_score(np.array([1.0, 2.0]), s1, 0.3), 0.0)

    rng = np.random.default_rng(47)
    for d in (1, 2, 5):
        s = SupportSet(rng.normal(size=(12, d)))
        x = rng.normal(size=d)
        h = 0.8
        analytic = kde_descaled_score(x, s, h)
        step = 1e-5
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = step
            fd[j] = (
                kde_descaled_log_density(x + e, s, h) - kde_descaled_log_density(x - e, s, h)
            ) / (2 * step)
        assert np.linalg.norm(analytic - fd) <= 1e-5 * max(np.linalg.norm(analytic), 1e-3)


def test_support_set_validation():
    with pytest.raises(ConfigError, match="support points must be finite"):
        SupportSet(np.array([[np.inf, 0.0]]))
    with pytest.raises(ConfigError, match="nonempty m x d matrix"):
        SupportSet(np.empty((0, 2)))
    s = SupportSet([[1.0, 2.0], [3.0, 4.0]])
    assert s.m == 2 and s.d == 2
    with pytest.raises(ValueError):
        s.points[0, 0] = 9.0  # frozen storage
