import numpy as np
import pytest

from nwflow.cli import main
from nwflow.errors import ConfigError, NumericalError
from nwflow.kernels import SupportSet
from nwflow.ode import (
    AdaptiveRK45,
    Euler,
    IntegratorConfig,
    generate,
    integrate,
    _base_draws,
    kde_direct_sample,
)
from nwflow.schedule import PathSchedule
from nwflow.velocity import PluginField


def test_euler_exact_on_constants():
    c = np.array([2.0, -1.0])
    field = lambda x, t: c  # noqa: E731
    for n in (1, 7, 100):
        cfg = IntegratorConfig(method=Euler(n))
        got = integrate(field, np.zeros(2), cfg)
        assert np.allclose(got, c, rtol=0, atol=1e-12)
    one = integrate(field, np.zeros(2), IntegratorConfig(method=Euler(1)))
    assert np.array_equal(one, c)


def test_euler_product_oracle():
    field = lambda x, t: x  # noqa: E731
    for n in (10, 100, 500):
        got = integrate(field, np.array([1.0]), IntegratorConfig(method=Euler(n)))
        assert got[0] == pytest.approx((1 + 1 / n) ** n, rel=1e-12)


def test_euler_first_order_convergence():
    field = lambda x, t: x  # noqa: E731
    errs = []
    for n in (50, 100, 200, 400):
        got = integrate(field, np.array([1.0]), IntegratorConfig(method=Euler(n)))
        errs.append(abs(got[0] - np.e))
    for a, b in zip(errs, errs[1:]):
        assert 0.4 <= b / a <= 0.6  # halves within 20%


def test_rk45_exponential_oracle():
    field = lambda x, t: x  # noqa: E731
    cfg = IntegratorConfig(method=AdaptiveRK45(rtol=1e-8, atol=1e-10))
    got = integrate(field, np.array([1.0, 2.0]), cfg)
    assert np.allclose(got, [np.e, 2 * np.e], rtol=1e-6)


def test_rk45_tolerance_monotonicity():
    field = lambda x, t: x  # noqa: E731
    errs = []
    for rtol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        cfg = IntegratorConfig(method=AdaptiveRK45(rtol=rtol, atol=1e-12))
        got = integrate(field, np.array([1.0]), cfg)
        errs.append(abs(got[0] - np.e))
    for loose, tight in zip(errs, errs[1:]):
        assert tight <= loose


def test_rk45_step_limit():
    field = lambda x, t: x  # noqa: E731
    cfg = IntegratorConfig(method=AdaptiveRK45(rtol=1e-12, atol=1e-14, max_steps=3))
    with pytest.raises(NumericalError, match="exceeded 3 steps"):
        integrate(field, np.array([1.0]), cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows on purpose
def test_rk45_blowup_detected():
    field = lambda x, t: x * x * 1e6 + 1e6  # noqa: E731
    cfg = IntegratorConfig(method=AdaptiveRK45(rtol=1e-3, atol=1e-6, max_steps=100_000))
    with pytest.raises(NumericalError, match="non-finite|exceeded"):
        integrate(field, np.array([1e154]), cfg)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_start=0.5, t_end=0.5)
    with pytest.raises(ValueError):
        Euler(0)
    with pytest.raises(ValueError):
        AdaptiveRK45(rtol=0.0)


def test_integrator_config_time_range():
    IntegratorConfig(t_start=0.0, t_end=1.0)
    assert IntegratorConfig(t_start=0.25, t_end=0.5).describe()["t_start"] == 0.25
    for t_start, t_end in ((-0.1, 1.0), (0.0, 1.5), (float("nan"), 1.0), (0.0, float("nan"))):
        with pytest.raises(ValueError):
            IntegratorConfig(t_start=t_start, t_end=t_end)


def _plugin(seed=0, m=5, d=2):
    rng = np.random.default_rng(seed)
    support = SupportSet(rng.normal(size=(m, d)))
    return PluginField(support, PathSchedule(0.01))


def test_generate_deterministic_and_jobs_invariant():
    fld = _plugin()
    a = generate(fld, 300, seed=7)
    b = generate(fld, 300, seed=7)
    c = generate(fld, 300, seed=7, jobs=4)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.samples, c.samples)
    d_ = generate(fld, 300, seed=8)
    assert not np.array_equal(a.samples, d_.samples)


def test_generate_single_point_endpoint_law():
    s = np.array([[1.0, -2.0, 0.5]])
    fld = PluginField(SupportSet(s), PathSchedule(0.01))
    batch = generate(fld, 1000, seed=3, cfg=IntegratorConfig(method=Euler(200)))
    mean = batch.samples.mean(axis=0)
    std = batch.samples.std(axis=0, ddof=1)
    # endpoint is N(s, sigma_min^2 I) up to discretization; means within
    # 3 * (0.011 / sqrt(1000)) * sqrt(d) per coordinate, stds within 25%
    tol = 3 * (0.011 / np.sqrt(1000)) * np.sqrt(3)
    assert np.all(np.abs(mean - s[0]) <= tol)
    assert np.all(np.abs(std - 0.01) <= 0.25 * 0.01)


def test_generate_precision_base_contract():
    rng = np.random.default_rng(1)
    support = SupportSet(rng.normal(size=(4, 2)))
    metric = np.array([[2.0, 0.3], [0.3, 1.0]])
    ani = PluginField(support, PathSchedule(0.01), metric)
    batch = generate(ani, 50, seed=0)
    assert batch.samples.shape == (50, 2)
    assert batch.meta["base"] == "precision"
    assert generate(_plugin(), 10, seed=0).meta["base"] == "isotropic"
    with pytest.raises(ConfigError, match="need n >= 1 samples"):
        generate(_plugin(), 0, seed=0)


def test_precision_base_covariance():
    metric = np.array([[4.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(2)
    support = SupportSet(rng.normal(size=(3, 2)))
    ani = PluginField(support, PathSchedule(0.01), metric)
    # integrate nothing: check the base draw distribution of the field's factor
    from nwflow.ode import _base_draws

    z = _base_draws(4000, 2, 11, ani.chol)
    cov = np.cov(z, rowvar=False)
    assert cov[0, 0] == pytest.approx(0.25, rel=0.15)
    assert cov[1, 1] == pytest.approx(1.0, rel=0.15)


def test_kde_direct_sample_properties():
    rng = np.random.default_rng(5)
    support = SupportSet(rng.normal(size=(2, 2)) * 5)
    tiny = kde_direct_sample(SupportSet(support.points[:1]), 1e-12, 64, seed=0)
    assert np.allclose(tiny.samples, support.points[0], atol=1e-9)

    both = kde_direct_sample(support, 0.05, 4000, seed=1)
    near_first = np.sum(
        np.linalg.norm(both.samples - support.points[0], axis=1)
        < np.linalg.norm(both.samples - support.points[1], axis=1)
    )
    # binomial CI around 0.5
    assert abs(near_first / 4000 - 0.5) < 3 * 0.5 / np.sqrt(4000)

    wide = kde_direct_sample(SupportSet(np.zeros((1, 1))), 1.0, 10_000, seed=2)
    assert np.var(wide.samples) == pytest.approx(1.0, rel=0.05)


def test_kde_direct_sample_deterministic():
    support = SupportSet(np.array([[0.0], [5.0]]))
    a = kde_direct_sample(support, 0.3, 100, seed=9)
    b = kde_direct_sample(support, 0.3, 100, seed=9)
    assert np.array_equal(a.samples, b.samples)


# Seeds of one and several 32-bit entropy words, around the word boundaries.
STREAM_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5)


def _literal_rng(seed, i):
    return np.random.default_rng(np.random.SeedSequence([seed, i]))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_base_draws_match_literal_per_row_streams(seed):
    n, d = 300, 3
    ref = np.stack([_literal_rng(seed, i).standard_normal(d) for i in range(n)])
    assert np.array_equal(_base_draws(n, d, seed, None), ref)
    assert np.array_equal(_base_draws(1, d, seed, None), ref[:1])


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("m", [1, 7])
def test_kde_direct_sample_matches_literal_per_row_streams(seed, m):
    support = SupportSet(np.random.default_rng(m).normal(size=(m, 2)) * 3.0)
    rows = []
    for i in range(200):
        rng = _literal_rng(seed, i)
        idx = int(rng.integers(m))
        rows.append(support.points[idx] + 0.3 * rng.standard_normal(2))
    batch = kde_direct_sample(support, 0.3, 200, seed=seed)
    assert np.array_equal(batch.samples, np.stack(rows))
    assert batch.meta["rng"] == "default_rng(SeedSequence([seed, sample_index]))"


def test_negative_stream_seed_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        _base_draws(4, 2, -1, None)
    with pytest.raises(ValueError):
        kde_direct_sample(SupportSet(np.zeros((2, 1))), 1.0, 4, seed=-1)
    argv = ["generate", "--task", "gmm2d", "--m", "5", "--n", "3", "--seed", "-1"]
    assert main(argv + ["--out", str(tmp_path)]) == 2


def test_generate_endpoint_vs_euler_step_count():
    # MMD^2 between Euler-100 and RK45 endpoints on a 2D mixture stays small
    from nwflow.metrics import median_heuristic, mmd2_unbiased

    fld = _plugin(seed=3, m=20)
    e = generate(fld, 500, seed=0, cfg=IntegratorConfig(method=Euler(100))).samples
    r = generate(fld, 500, seed=0, cfg=IntegratorConfig(method=AdaptiveRK45())).samples
    bw = median_heuristic(e, r)
    null = mmd2_unbiased(
        generate(fld, 500, seed=10, cfg=IntegratorConfig(method=Euler(100))).samples,
        generate(fld, 500, seed=11, cfg=IntegratorConfig(method=Euler(100))).samples,
        bw,
    ).value
    cross = mmd2_unbiased(e, r, bw).value
    assert cross <= abs(null) * 10 + 1e-3


def test_sample_batch_meta():
    fld = _plugin(seed=4)
    batch = generate(fld, 16, seed=5)
    assert batch.meta["support_sha256"] == fld.support.sha256()
    assert batch.meta["sigma_min"] == 0.01
    assert batch.meta["integrator"]["method"] == "euler"
