"""Flow time, the linear noise schedule, and the de-scaled bandwidth map.

The schedule sigma(t) = 1 - (1 - sigma_min) * t interpolates the noise scale
from 1 at t=0 down to sigma_min at t=1.  Dividing the path state by t turns
that noise scale into a kernel bandwidth h(t) = sigma(t) / t, which sweeps
from infinity (t -> 0) to sigma_min (t = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivergentBandwidth

__all__ = ["FlowTime", "PathSchedule", "sigma_at", "bandwidth_at"]


@dataclass(frozen=True)
class FlowTime:
    """A point on the flow clock, constrained to [0, 1] at construction.

    Operations downstream assume a valid time and carry no range checks of
    their own, so hot loops pay nothing.
    """

    t: float

    def __post_init__(self) -> None:
        t = float(self.t)
        if not 0.0 <= t <= 1.0:  # also rejects NaN
            raise ValueError(f"flow time must lie in [0, 1], got {self.t!r}")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class PathSchedule:
    """Affine noise schedule with terminal scale sigma_min in (0, 1]."""

    sigma_min: float = 0.01

    def __post_init__(self) -> None:
        s = float(self.sigma_min)
        if not 0.0 < s <= 1.0:
            raise ValueError(f"sigma_min must lie in (0, 1], got {self.sigma_min!r}")
        object.__setattr__(self, "sigma_min", s)

    def sigma(self, t: float) -> float:
        """Noise scale at time t: 1 - (1 - sigma_min) * t.

        Evaluated as sigma_min * t + (1 - t), which is the same affine map
        but hits both endpoints exactly in floating point.
        """
        return self.sigma_min * t + (1.0 - t)

    def bandwidth(self, t: float) -> float:
        """De-scaled bandwidth sigma(t) / t; strictly decreasing on (0, 1].

        Raises DivergentBandwidth at t = 0: the bandwidth is infinite there
        and callers must switch to the analytic uniform-weight limit rather
        than push infinities into kernel logits.
        """
        if t == 0.0:
            raise DivergentBandwidth(
                "bandwidth diverges at t=0; use the closed-form velocity limit"
            )
        return self.sigma(t) / t


def _tval(t: FlowTime | float) -> float:
    """The float value of a flow time given as a FlowTime or a plain number."""
    return t.t if isinstance(t, FlowTime) else float(t)


def sigma_at(sched: PathSchedule, t: FlowTime | float) -> float:
    return sched.sigma(_tval(t))


def bandwidth_at(sched: PathSchedule, t: FlowTime | float) -> float:
    return sched.bandwidth(_tval(t))
