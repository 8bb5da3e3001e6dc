import numpy as np
import pytest

from nwflow.errors import ConfigError
from nwflow.kernels import (
    BilinearLogit,
    IsotropicGaussian,
    Mahalanobis,
    SupportSet,
    Vmf,
    kde_descaled_density,
    kde_descaled_log_density,
    kde_descaled_score,
    local_mean,
    logits,
    low_rank_metric,
    nw_local_means,
    nw_weights,
    softmax_weights,
)

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


def test_softmax_all_underflow_uniform_over_argmax():
    w = softmax_weights(np.array([-np.inf, -np.inf, -np.inf]))
    assert np.allclose(w, [1 / 3] * 3)
    w = softmax_weights(np.array([-np.inf, -3.0, -np.inf]))
    assert np.allclose(w, [0.0, 1.0, 0.0])


def test_softmax_2d_underflow_row_next_to_finite_rows():
    raw = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -2.0, -np.inf], [5.0, 5.0, 5.0]])
    before = raw.copy()
    w = softmax_weights(raw)
    assert np.allclose(w[0], [1 / 3] * 3)
    assert w[1] == pytest.approx([W0, W1, 0.0], abs=1e-15)
    assert np.array_equal(w[2], [1 / 3] * 3)
    assert np.array_equal(raw, before)  # the input is never normalized in place


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
        for h in (0.05, 0.4, 3.0):
            got = nw_local_means(queries, pts, h)
            kern = IsotropicGaussian(h)
            want = np.stack([local_mean(q, SupportSet(pts), kern) for q in queries])
            rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert rel <= 1e-12


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


def test_dim_mismatch():
    with pytest.raises(ConfigError, match="query has shape"):
        logits(np.zeros(3), S12, IsotropicGaussian(1.0))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        IsotropicGaussian(0.0)
    with pytest.raises(ValueError):
        Vmf(-1.0)
    with pytest.raises(ValueError):
        Mahalanobis(1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        Mahalanobis(1.0, np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    Mahalanobis(1.0, np.array([[2.0, 0.3], [0.3, 1.0]]))


def test_kde_density_values():
    s1 = SupportSet(np.array([[0.0]]))
    peak = kde_descaled_density(np.array([0.0]), s1, 1.0)
    assert peak == pytest.approx(0.3989422804014327, abs=1e-15)
    s2 = SupportSet(np.array([[-1.0], [1.0]]))
    val = kde_descaled_density(np.array([0.0]), s2, 1.0)
    assert val == pytest.approx(0.24197072451914334, abs=1e-15)


def test_kde_density_integrates_to_one():
    rng = np.random.default_rng(37)
    s = SupportSet(rng.normal(size=(7, 1)) * 2)
    grid = np.linspace(-14, 14, 4001)
    dens = [kde_descaled_density(np.array([g]), s, 0.7) for g in grid]
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)


def test_kde_log_density_matches_log_of_density():
    rng = np.random.default_rng(41)
    s = SupportSet(rng.normal(size=(9, 3)))
    x = rng.normal(size=3)
    dens = kde_descaled_density(x, s, 0.5)
    assert kde_descaled_log_density(x, s, 0.5) == pytest.approx(np.log(dens), rel=1e-12)


def test_kde_log_density_survives_high_dim():
    rng = np.random.default_rng(43)
    s = SupportSet(rng.normal(size=(20, 32)))
    x = rng.normal(size=32) * 10
    assert kde_descaled_density(x, s, 0.05) == 0.0  # underflows
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


def test_low_rank_metric():
    rng = np.random.default_rng(53)
    proj = rng.normal(size=(2, 6))
    metric = low_rank_metric(proj, ridge=1e-8)
    np.linalg.cholesky(metric)  # SPD
    z = rng.normal(size=6)
    quad = z @ metric @ z
    assert quad == pytest.approx(np.sum((proj @ z) ** 2) + 1e-8 * z @ z, rel=1e-10)
