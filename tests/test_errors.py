"""The input contract: every rejected parameter is a ConfigError, which is also a ValueError."""

import numpy as np
import pytest

from nwflow.errors import ConfigError, NwflowError, _count, _scale
from nwflow.experiments import exp_realization_fuzz, exp_sphere_rate, exp_variance_scaling
from nwflow.kernels import BilinearLogit, IsotropicGaussian, Mahalanobis, SupportSet, Vmf, nw_local_means
from nwflow.metrics import c2st_1nn, median_heuristic, mmd2_unbiased, neff_profile
from nwflow.ode import AdaptiveRK45, Euler, integrate
from nwflow.schedule import PathSchedule
from nwflow.tasks import (
    FourierDensity,
    Gmm,
    Moons,
    Rings,
    Shell,
    Spirals,
    anisotropic_gaussian_features,
    make_support_and_eval,
    sample_task,
    split_table,
    whiten,
)

NAN, INF = float("nan"), float("inf")


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, NwflowError) and issubclass(ConfigError, ValueError)
    assert ConfigError.exit_code == 2


@pytest.mark.parametrize("value", [2.7, 2.0, np.float64(3.0), True, np.bool_(True), "3", None, 0, -1])
def test_count_rejects_what_is_not_an_int_at_least_one(value):
    with pytest.raises(ConfigError, match="need n >= 1, got"):
        _count(value, "n")


def test_count_returns_a_python_int():
    assert _count(np.int64(3), "n") == 3 and type(_count(np.int64(3), "n")) is int
    assert _count(0, "n_eval", least=0) == 0


@pytest.mark.parametrize("value", [0.0, -0.5, NAN, INF, -INF, True, "1.5", None, np.array([1.0])])
def test_scale_rejects_what_is_not_a_positive_finite_float(value):
    with pytest.raises(ConfigError, match="h must be positive and finite, got"):
        _scale(value, "h")


def test_scale_takes_zero_only_where_it_is_valid():
    assert _scale(0.0, "noise", zero=True) == 0.0
    assert type(_scale(np.float32(0.5), "h")) is float
    for value in (-1e-300, NAN, INF):
        with pytest.raises(ConfigError, match="noise must be >= 0 and finite"):
            _scale(value, "noise", zero=True)


def _support():
    return SupportSet(np.random.default_rng(0).normal(size=(6, 2)))


# Each of these was accepted, truncated, ran forever or raised a bare ValueError.
REJECTED = {
    "Shell radius_std nan": lambda: Shell(d=3, radius_std=NAN),
    "Shell radius_mean inf": lambda: Shell(d=3, radius_mean=INF),
    "Euler 2.7": lambda: Euler(2.7),
    "Euler True": lambda: Euler(True),
    "AdaptiveRK45 max_steps 2.5": lambda: AdaptiveRK45(max_steps=2.5),
    "AdaptiveRK45 atol nan": lambda: AdaptiveRK45(atol=NAN),
    "IsotropicGaussian inf": lambda: IsotropicGaussian(INF),
    "Mahalanobis h 0": lambda: Mahalanobis(0.0, np.eye(2)),
    "BilinearLogit scale nan": lambda: BilinearLogit(np.eye(2), NAN),
    "Vmf kappa -1": lambda: Vmf(-1.0),
    "Moons noise nan": lambda: Moons(noise=NAN),
    "Rings noise -1": lambda: Rings(noise=-1.0),
    "Spirals k_arms 1.5": lambda: Spirals(k_arms=1.5),
    "FourierDensity amplitude inf": lambda: FourierDensity(d=2, amplitude=INF),
    "Gmm d 2.5": lambda: Gmm(d=2.5),
    "Gmm separation_scale -1": lambda: Gmm(d=2, separation_scale=-1.0),
    "Gmm std_lo > std_hi": lambda: Gmm(d=2, std_lo=0.5, std_hi=0.1),
    "PathSchedule sigma_min 0": lambda: PathSchedule(0.0),
    "sample_task n 0": lambda: sample_task(Moons(), 0, 0),
    "make_support_and_eval m 0": lambda: make_support_and_eval(Moons(), 0, 4, 0),
    "make_support_and_eval n_eval -1": lambda: make_support_and_eval(Moons(), 4, -1, 0),
    "split_table m 0": lambda: split_table(anisotropic_gaussian_features(10, 2), 0, 2, 0),
    "split_table too many rows": lambda: split_table(anisotropic_gaussian_features(10, 2), 8, 4, 0),
    "whiten strength 2": lambda: whiten(anisotropic_gaussian_features(10, 2), 2.0),
    "neff_profile n_queries 0": lambda: neff_profile(_support(), PathSchedule(), n_queries=0),
    "neff_profile t 0": lambda: neff_profile(_support(), PathSchedule(), [0.0]),
    "integrate jobs 1.5": lambda: integrate(lambda x, t: x, np.zeros((3, 2)), Euler(2), jobs=1.5),
    "exp_realization_fuzz n_configs 0": lambda: exp_realization_fuzz(n_configs=0),
    "exp_sphere_rate d_k 0": lambda: exp_sphere_rate(d_k=0),
    "exp_variance_scaling family": lambda: exp_variance_scaling(family="blob"),
    "experiment seed 1.5": lambda: exp_sphere_rate(seeds=[1.5]),
}


@pytest.mark.parametrize("case", REJECTED)
def test_rejected_parameter_is_config_error(case):
    with pytest.raises(ConfigError):
        REJECTED[case]()


# (call, first shape, second shape): a batch entry point given arrays that are not rows of one width.
MISMATCHED = {
    "nw_local_means width": (lambda a, b: nw_local_means(a, b, 0.5), (4, 3), (5, 2)),
    "nw_local_means 3-D": (lambda a, b: nw_local_means(a, b, 0.5), (2, 4, 2), (5, 2)),
    "mmd2_unbiased": (lambda a, b: mmd2_unbiased(a, b, 1.0), (12, 2), (12, 3)),
    "c2st_1nn": (c2st_1nn, (12, 2), (12, 3)),
    "median_heuristic": (median_heuristic, (12, 2), (12, 3)),
    "median_heuristic 3-D": (median_heuristic, (12, 2), (3, 4, 2)),
}


@pytest.mark.parametrize("case", MISMATCHED)
def test_shape_mismatch_is_config_error_naming_both_shapes(case):
    call, a, b = MISMATCHED[case]
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError) as info:
        call(rng.normal(size=a), rng.normal(size=b))
    assert str(a) in str(info.value) and str(b) in str(info.value)
