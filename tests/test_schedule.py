import numpy as np
import pytest

from nwflow.errors import NumericalError
from nwflow.schedule import PathSchedule


def test_sigma_endpoints():
    sched = PathSchedule(0.01)
    assert sched.sigma(0.0) == 1.0
    assert sched.sigma(1.0) == pytest.approx(0.01)


def test_sigma_midpoint():
    assert PathSchedule(0.5).sigma(0.5) == pytest.approx(0.75)


def test_bandwidth_values():
    assert PathSchedule(0.01).bandwidth(1.0) == pytest.approx(0.01)
    assert PathSchedule(0.5).bandwidth(0.5) == pytest.approx(1.5)


def test_bandwidth_diverges_at_zero():
    with pytest.raises(NumericalError, match="bandwidth diverges at t=0"):
        PathSchedule(0.01).bandwidth(0.0)


def test_bandwidth_strictly_decreasing():
    sched = PathSchedule(0.05)
    ts = np.linspace(1e-4, 1.0, 400)
    hs = [sched.bandwidth(t) for t in ts]
    assert all(a > b for a, b in zip(hs, hs[1:]))
    assert hs[-1] == sched.sigma_min


def test_sigma_bandwidth_consistency():
    sched = PathSchedule(0.2)
    for t in np.linspace(1e-3, 1.0, 97):
        assert sched.sigma(t) == pytest.approx(t * sched.bandwidth(t), rel=1e-15)


def test_schedule_validation():
    PathSchedule(1.0)
    for bad in (0.0, -0.5, 1.2):
        with pytest.raises(ValueError):
            PathSchedule(bad)
