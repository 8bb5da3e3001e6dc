import numpy as np
import pytest

from nwflow.cli import main
from nwflow.errors import ConfigError, NumericalError
from nwflow.kernels import SupportSet
from nwflow.ode import (
    _DP_A,
    _DP_B4,
    _DP_C,
    _FACTOR_MAX,
    _FACTOR_MIN,
    _SAFETY,
    _groups,
    _lcg,
    _stream_draws,
    AdaptiveRK45,
    Euler,
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
        got = integrate(field, np.zeros(2)[None], Euler(n))
        assert np.allclose(got, c, rtol=0, atol=1e-12)
    one = integrate(field, np.zeros(2)[None], Euler(1))
    assert np.array_equal(one[0], c)


def test_euler_product_oracle():
    field = lambda x, t: x  # noqa: E731
    for n in (10, 100, 500):
        got = integrate(field, np.array([1.0])[None], Euler(n))
        assert got[0, 0] == pytest.approx((1 + 1 / n) ** n, rel=1e-12)


def test_euler_first_order_convergence():
    field = lambda x, t: x  # noqa: E731
    errs = []
    for n in (50, 100, 200, 400):
        got = integrate(field, np.array([1.0])[None], Euler(n))
        errs.append(abs(got[0, 0] - np.e))
    for a, b in zip(errs, errs[1:]):
        assert 0.4 <= b / a <= 0.6  # halves within 20%


def test_rk45_exponential_oracle():
    field = lambda x, t: x  # noqa: E731
    rk = AdaptiveRK45(rtol=1e-8, atol=1e-10)
    got = integrate(field, np.array([1.0, 2.0])[None], rk)
    assert np.allclose(got, [[np.e, 2 * np.e]], rtol=1e-6)


def test_rk45_tolerance_monotonicity():
    field = lambda x, t: x  # noqa: E731
    errs = []
    for rtol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        rk = AdaptiveRK45(rtol=rtol, atol=1e-12)
        got = integrate(field, np.array([1.0])[None], rk)
        errs.append(abs(got[0, 0] - np.e))
    for loose, tight in zip(errs, errs[1:]):
        assert tight <= loose


def test_rk45_step_limit():
    field = lambda x, t: x  # noqa: E731
    rk = AdaptiveRK45(rtol=1e-12, atol=1e-14, max_steps=3)
    with pytest.raises(NumericalError, match="exceeded 3 steps"):
        integrate(field, np.array([1.0])[None], rk)


@pytest.mark.parametrize(
    "tol",
    [{"rtol": np.inf}, {"atol": np.inf}, {"rtol": np.nan}, {"atol": 0.0},
     {"rtol": 1e-300}, {"rtol": 1e-15}],
)
def test_rk45_tolerances_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        AdaptiveRK45(**tol)


def test_rk45_overflowing_error_norm_rejects_without_warning():
    # The field is 0 for the first step's six stages and 1 at its endpoint, so from x0 = 0 that
    # step's error is 0.01 / 40 against a scale of atol = 1e-300: the squared error ratio
    # overflows to inf, which only rejects the step.  The suite turns a leaked RuntimeWarning
    # into an error.
    calls = []

    def field(x, t):
        calls.append(t)
        return np.zeros_like(x) if len(calls) <= 6 else np.ones_like(x)

    rk = AdaptiveRK45(rtol=100 * np.finfo(np.float64).eps, atol=1e-300, max_steps=3)
    with pytest.raises(NumericalError, match="exceeded 3 steps"):
        integrate(field, np.zeros((1, 2)), rk)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows on purpose
def test_rk45_blowup_detected():
    field = lambda x, t: x * x * 1e6 + 1e6  # noqa: E731
    rk = AdaptiveRK45(rtol=1e-3, atol=1e-6, max_steps=100_000)
    with pytest.raises(NumericalError, match="non-finite|exceeded"):
        integrate(field, np.array([1e154])[None], rk)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the last step overflows on purpose
def test_euler_overflow_on_last_step_detected():
    # Euler has no per-step check: the end-of-integrate check is the only guard.
    field = lambda x, t: x * 1e300  # noqa: E731
    with pytest.raises(NumericalError, match="non-finite"):
        integrate(field, np.array([[1e10, 1.0]]), Euler(1))


class CountingField:
    def __init__(self, fieldfn):
        self.fieldfn = fieldfn
        self.calls = 0

    def __call__(self, x, t):
        self.calls += 1
        return self.fieldfn(x, t)


def _rk45_stage0_every_attempt(fieldfn, x, rk):
    """Dormand-Prince without FSAL: stage 0 evaluated anew on every attempt.

    Returns the endpoint and the numbers of accepted and rejected attempts.
    """
    b5 = np.append(_DP_A[6], 0.0)
    t, t1 = 0.0, 1.0
    h = (t1 - t) / 100.0
    stages = np.empty((7,) + x.shape)
    accepted = rejected = 0
    while True:
        h = min(h, t1 - t)
        stages[0] = fieldfn(x, t)
        for i in range(1, 7):
            xi = x + h * np.tensordot(_DP_A[i], stages[:i], axes=(0, 0))
            stages[i] = fieldfn(xi, min(t + _DP_C[i] * h, 1.0))
        x5 = x + h * np.tensordot(b5, stages, axes=(0, 0))
        x4 = x + h * np.tensordot(_DP_B4, stages, axes=(0, 0))
        scale = rk.atol + rk.rtol * np.maximum(np.abs(x), np.abs(x5))
        err = float(np.sqrt(np.mean(((x5 - x4) / scale) ** 2)))
        if err <= 1.0:
            accepted += 1
            t = t + h
            x = x5
            if t >= t1:
                return x, accepted, rejected
        else:
            rejected += 1
        factor = _FACTOR_MAX if err == 0.0 else _SAFETY * err ** -0.2
        h = h * min(_FACTOR_MAX, max(_FACTOR_MIN, factor))


def test_rk45_first_same_as_last_is_exact():
    """The last stage reused as the next first stage: the same bits, 6 calls per attempt + 1."""
    rng = np.random.default_rng(12)
    support = SupportSet(rng.normal(size=(50, 2)) * 3.0)
    plugin = PluginField(support, PathSchedule(0.01))
    cases = [
        (plugin, rng.standard_normal((64, 2)), AdaptiveRK45()),
        (plugin, rng.standard_normal((64, 2)), AdaptiveRK45(rtol=1e-7, atol=1e-9)),
        (lambda x, t: x, np.array([1.0, 2.0])[None], AdaptiveRK45(rtol=1e-8, atol=1e-10)),
    ]
    total_rejected = 0
    for fieldfn, x0, rk in cases:
        want, accepted, rejected = _rk45_stage0_every_attempt(fieldfn, x0, rk)
        counted = CountingField(fieldfn)
        got = integrate(counted, x0, rk)
        assert np.array_equal(got, want)
        assert counted.calls == 6 * (accepted + rejected) + 1
        total_rejected += rejected
    assert total_rejected > 0  # the rejected-step branch ran


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        Euler(0)
    with pytest.raises(ValueError):
        AdaptiveRK45(rtol=0.0)


def _plugin(seed=0, m=5, d=2):
    rng = np.random.default_rng(seed)
    support = SupportSet(rng.normal(size=(m, d)))
    return PluginField(support, PathSchedule(0.01))


def test_generate_deterministic_and_jobs_invariant():
    fld = _plugin()
    a = generate(fld, 300, seed=7)
    b = generate(fld, 300, seed=7)
    c = generate(fld, 300, seed=7, jobs=4)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    d_ = generate(fld, 300, seed=8)
    assert not np.array_equal(a, d_)
    # RK45 over 1100 rows: four 256-row chunks and a ragged 76-row one, finishing
    # on different attempts.  m = 50 is one group of five chunks (column-major
    # weights); m = 2000 is groups of two chunks (row-major weights).
    rk = AdaptiveRK45(rtol=1e-3, atol=1e-5)
    for m, groups in ((50, 1), (2000, 3)):
        fld, x0 = _plugin(seed=m, m=m), _base_draws(1100, 2, 9, None)
        assert len(_groups(fld, x0)) == groups
        want = integrate(fld, x0, rk)
        for jobs in (1, 2, 3):
            assert np.array_equal(generate(fld, 1100, seed=9, method=rk, jobs=jobs), want)
        # Each chunk keeps its own steps: integrated alone it differs only by
        # the rounding of the field's matrix products in other batch shapes.
        alone = np.vstack([integrate(fld, c, rk) for c in np.split(x0, range(256, 1100, 256))])
        assert np.max(np.abs(alone - want)) <= 1e-10
    assert integrate(fld, np.empty((0, 2)), rk).shape == (0, 2)  # no chunk, no group


def test_generate_single_point_endpoint_law():
    s = np.array([[1.0, -2.0, 0.5]])
    fld = PluginField(SupportSet(s), PathSchedule(0.01))
    samples = generate(fld, 1000, seed=3, method=Euler(200))
    mean = samples.mean(axis=0)
    std = samples.std(axis=0, ddof=1)
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
    # generate is integrate of the field's base draws, N(0, M^-1) or N(0, I), at any
    # worker count; 2100 rows are two groups of chunks.
    for fld in (ani, _plugin()):
        x0 = _base_draws(2100, 2, 0, fld.chol)
        assert len(_groups(fld, x0)) == 2
        want = integrate(fld, x0, Euler(10))
        for jobs in (1, 2):
            assert np.array_equal(generate(fld, 2100, seed=0, method=Euler(10), jobs=jobs), want)
    with pytest.raises(ConfigError, match="need n >= 1 samples"):
        generate(_plugin(), 0, seed=0)
    with pytest.raises(ConfigError, match=r"\(n, d\) batch"):
        integrate(ani, np.zeros(2), Euler(10))


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
    assert tiny.shape == (64, 2)
    assert np.allclose(tiny, support.points[0], atol=1e-9)

    both = kde_direct_sample(support, 0.05, 4000, seed=1)
    near_first = np.sum(
        np.linalg.norm(both - support.points[0], axis=1)
        < np.linalg.norm(both - support.points[1], axis=1)
    )
    # binomial CI around 0.5
    assert abs(near_first / 4000 - 0.5) < 3 * 0.5 / np.sqrt(4000)

    wide = kde_direct_sample(SupportSet(np.zeros((1, 1))), 1.0, 10_000, seed=2)
    assert np.var(wide) == pytest.approx(1.0, rel=0.05)
    with pytest.raises(NumericalError, match="non-finite"):
        kde_direct_sample(support, float("inf"), 4, seed=0)


def test_kde_direct_sample_deterministic():
    support = SupportSet(np.array([[0.0], [5.0]]))
    a = kde_direct_sample(support, 0.3, 100, seed=9)
    b = kde_direct_sample(support, 0.3, 100, seed=9)
    assert np.array_equal(a, b)


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
    assert np.array_equal(kde_direct_sample(support, 0.3, 200, seed=seed), np.stack(rows))


def test_kde_direct_sample_rows_do_not_depend_on_n():
    support = SupportSet(np.random.default_rng(3).normal(size=(50, 2)))
    many = kde_direct_sample(support, 0.3, 200, seed=90_000)
    assert np.array_equal(kde_direct_sample(support, 0.3, 1, seed=90_000), many[:1])


def test_pcg64_step_matches_python_ints():
    mult = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
    top = 2**64 - 1
    words = np.random.default_rng(4).integers(0, 2**64, size=(4, 200), dtype=np.uint64)
    # Forced carries and wraps: all-ones low halves, high halves or both, in state and inc.
    words[:, :4] = [[top, 0, top, 5], [top, top, 0, top], [0, top, top, top], [1, top, 3, top]]
    state, inc = (words[0], words[1]), (words[2], words[3])
    hi, lo = _lcg(state, inc)
    for k in range(words.shape[1]):
        s_k, i_k = (int(words[0, k]) << 64) | int(words[1, k]), (int(words[2, k]) << 64) | int(words[3, k])
        want = (s_k * mult + i_k) % 2**128
        assert (int(hi[k]), int(lo[k])) == (want >> 64, want & top)


@pytest.mark.parametrize("m", [1, 50, 3 * 2**30])
def test_stream_row_index_matches_literal_integers(m):
    n, d, seed = 400, 3, 100_007
    idx, z = _stream_draws(seed, n, d, m)
    for i in range(n):
        rng = _literal_rng(seed, i)
        assert idx[i] == rng.integers(m)
        assert np.array_equal(z[i], rng.standard_normal(d))
    if m == 3 * 2**30:
        # Lemire rejects a first word whose (low32 * m) mod 2**32 falls below (2**32 - m) mod m,
        # here about a quarter of them, so the redraw on the literal stream runs.
        low = [int(_literal_rng(seed, i).bit_generator.random_raw()) & 0xFFFFFFFF for i in range(n)]
        assert sum((w * m) % 2**32 < (2**32 - m) % m for w in low) > n // 8


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
    e = generate(fld, 500, seed=0, method=Euler(100))
    r = generate(fld, 500, seed=0, method=AdaptiveRK45())
    bw = median_heuristic(e, r)
    null = mmd2_unbiased(
        generate(fld, 500, seed=10, method=Euler(100)),
        generate(fld, 500, seed=11, method=Euler(100)),
        bw,
    )
    cross = mmd2_unbiased(e, r, bw)
    assert cross <= abs(null) * 10 + 1e-3
