"""Property tests for the plug-in field and the CLI flag contract."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nwflow.cli import _FLAGS, EXPERIMENTS, build_parser, main
from nwflow.kernels import _EXP_FLOOR, IsotropicGaussian, SupportSet, _may_underflow, logits
from nwflow.schedule import PathSchedule
from nwflow.velocity import PluginField

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 24)
dims = st.integers(1, 5)
times = st.floats(0.0, 1.0)
sigma_mins = st.floats(1e-3, 0.5)


def _case(seed, m, d, sigma_min):
    """A support of m rows, a batch of 7 states and an SPD metric, all in dimension d."""
    rng = np.random.default_rng(seed)
    support = SupportSet(rng.normal(size=(m, d)) * 2.0 + rng.normal(size=d))
    x = rng.normal(size=(7, d)) * 1.5
    a = rng.normal(size=(d, d))
    metric = a @ a.T / d + 0.5 * np.eye(d)
    return support, PathSchedule(sigma_min), x, metric


def _close(a, b, tol=1e-12):
    return np.max(np.abs(a - b)) <= tol * (1.0 + np.max(np.abs(b)))


@SETTINGS
@given(seeds, sizes, dims, times, sigma_mins)
def test_identity_metric_matches_isotropic(seed, m, d, t, sigma_min):
    support, sched, x, _ = _case(seed, m, d, sigma_min)
    iso = PluginField(support, sched)
    assert iso.chol is None
    assert _close(PluginField(support, sched, np.eye(d))(x, t), iso(x, t))


@SETTINGS
@given(seeds, sizes, dims, times, sigma_mins, st.booleans())
def test_support_permutation_invariance(seed, m, d, t, sigma_min, with_metric):
    support, sched, x, metric = _case(seed, m, d, sigma_min)
    metric = metric if with_metric else None
    perm = np.random.default_rng(seed + 1).permutation(m)
    shuffled = SupportSet(support.points[perm])
    assert _close(PluginField(shuffled, sched, metric)(x, t), PluginField(support, sched, metric)(x, t))


@SETTINGS
@given(seeds, dims, times, sigma_mins, st.booleans())
def test_single_point_closed_form(seed, d, t, sigma_min, with_metric):
    # one support row s gets all the weight under any metric: u = (s - (1 - sigma_min) x) / sigma_t
    support, sched, x, metric = _case(seed, 1, d, sigma_min)
    fld = PluginField(support, sched, metric if with_metric else None)
    expect = (support.points[0] - (1.0 - sigma_min) * x) / sched.sigma(t)
    assert _close(fld(x, t), expect)


@SETTINGS
@given(seeds, sizes, dims, sigma_mins, st.booleans())
def test_uniform_limit_at_time_zero(seed, m, d, sigma_min, with_metric):
    support, sched, x, metric = _case(seed, m, d, sigma_min)
    fld = PluginField(support, sched, metric if with_metric else None)
    expect = support.points.mean(axis=0) - (1.0 - sigma_min) * x
    assert _close(fld(x, 0.0), expect)


@SETTINGS
@given(seeds, sizes, dims, times, sigma_mins)
def test_metric_field_is_isotropic_on_cholesky_coordinates(seed, m, d, t, sigma_min):
    # with M = L L', the metric field maps to the isotropic field of the support rows s L
    support, sched, x, metric = _case(seed, m, d, sigma_min)
    fld = PluginField(support, sched, metric)
    iso = PluginField(SupportSet(support.points @ fld.chol), sched)
    assert np.allclose(fld.chol @ fld.chol.T, metric, rtol=1e-12, atol=1e-12)
    assert _close(fld(x, t) @ fld.chol, iso(x @ fld.chol, t), tol=1e-10)


@SETTINGS
@given(seeds, st.integers(1, 60), dims, st.floats(1e-3, 1.0), st.floats(1e-3, 10.0),
       st.floats(-1e3, 1e3), st.floats(1e-3, 1e2))
def test_exp_floor_bound_never_misses(seed, m, d, t, sigma, offset, scale):
    # states drawn from the time-t marginal of the support: t s + sigma z
    rng = np.random.default_rng(seed)
    support = SupportSet(offset + scale * rng.normal(size=(m, d)))
    x = t * support.points[rng.integers(m, size=9)] + sigma * rng.normal(size=(9, d))
    c, _, _, radius = support._kv
    if not _may_underflow(x - t * c, t, sigma * sigma, radius):
        kern = IsotropicGaussian(sigma / t)
        lg = np.stack([logits(row / t, support, kern) for row in x])
        assert np.min(lg - lg.max(axis=1, keepdims=True)) >= _EXP_FLOOR


# A valid value for each flag, so that a rejection is about the flag being unread.
_VALUES = {"to": "csv", "task": "gmm2d", "features": "t.csv", "seeds": "1,2",
           "t_grid": "0.5", "family": "gmm", "rk45": None}


@st.composite
def _unread_flag(draw):
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    accepted = vars(build_parser().parse_args(["experiment", name]))
    dest = draw(st.sampled_from(sorted(_FLAGS.keys() - accepted.keys())))
    value = _VALUES.get(dest, "1")
    return ["experiment", name, "--" + dest.replace("_", "-")] + ([] if value is None else [value])


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_unread_flag())
def test_unread_experiment_flag_exit_code(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
