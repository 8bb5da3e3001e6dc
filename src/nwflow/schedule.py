"""The linear noise schedule and the de-scaled bandwidth map.

The schedule sigma(t) = 1 - (1 - sigma_min) * t interpolates the noise scale
from 1 at t=0 down to sigma_min at t=1.  Dividing the path state by t turns
that noise scale into a kernel bandwidth h(t) = sigma(t) / t, which sweeps
from infinity (t -> 0) to sigma_min (t = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, NumericalError, _scale

__all__ = ["PathSchedule"]


@dataclass(frozen=True)
class PathSchedule:
    """Affine noise schedule with terminal scale sigma_min in (0, 1]."""

    sigma_min: float = 0.01

    def __post_init__(self) -> None:
        s = _scale(self.sigma_min, "sigma_min")
        if s > 1.0:
            raise ConfigError(f"sigma_min must lie in (0, 1], got {self.sigma_min!r}")
        object.__setattr__(self, "sigma_min", s)

    def sigma(self, t: float) -> float:
        """Noise scale at time t: 1 - (1 - sigma_min) * t.

        Evaluated as sigma_min * t + (1 - t), which is the same affine map
        but hits both endpoints exactly in floating point.
        """
        return self.sigma_min * t + (1.0 - t)

    def bandwidth(self, t: float) -> float:
        """De-scaled bandwidth sigma(t) / t; strictly decreasing on (0, 1].

        Raises NumericalError at t = 0: the bandwidth is infinite there
        and callers must switch to the analytic uniform-weight limit rather
        than push infinities into kernel logits.
        """
        if t == 0.0:
            raise NumericalError("bandwidth diverges at t=0; use the closed-form velocity limit")
        return self.sigma(t) / t

