"""Fixed-step Euler and adaptive Dormand-Prince integration, and generation.

Generation draws base noise, integrates each draw forward under a velocity
field, and returns the endpoint batch.  Reproducibility is anchored in
per-sample RNG streams keyed by (seed, sample index), so the result is
bit-identical no matter how many workers integrate the chunks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError, NumericalBlowup, StepLimit
from .kernels import SupportSet, _readonly
from .velocity import AnisotropicField, VelocityField

__all__ = [
    "Euler",
    "AdaptiveRK45",
    "IntegratorConfig",
    "IsotropicBase",
    "PrecisionBase",
    "SampleBatch",
    "integrate",
    "generate",
    "kde_direct_sample",
]

# Fixed integration chunk; must not depend on the worker count or outputs
# would change with --jobs.
_CHUNK = 256


@dataclass(frozen=True)
class Euler:
    """Left-endpoint fixed-step Euler with n_steps uniform steps."""

    n_steps: int = 100

    def __post_init__(self) -> None:
        if int(self.n_steps) < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps!r}")
        object.__setattr__(self, "n_steps", int(self.n_steps))


@dataclass(frozen=True)
class AdaptiveRK45:
    """Embedded Dormand-Prince 4(5) pair with componentwise error control."""

    rtol: float = 1e-5
    atol: float = 1e-7
    max_steps: int = 100_000

    def __post_init__(self) -> None:
        if not (float(self.rtol) > 0.0 and float(self.atol) > 0.0):
            raise ValueError("rtol and atol must be positive")
        if int(self.max_steps) < 1:
            raise ValueError("max_steps must be >= 1")
        object.__setattr__(self, "rtol", float(self.rtol))
        object.__setattr__(self, "atol", float(self.atol))
        object.__setattr__(self, "max_steps", int(self.max_steps))


Method = Union[Euler, AdaptiveRK45]


@dataclass(frozen=True)
class IntegratorConfig:
    """Method and flow-time interval, with 0 <= t_start < t_end <= 1."""

    method: Method = Euler(100)
    t_start: float = 0.0
    t_end: float = 1.0

    def __post_init__(self) -> None:
        t0, t1 = float(self.t_start), float(self.t_end)
        if not 0.0 <= t0 < t1 <= 1.0:  # also rejects NaN
            raise ValueError(f"need 0 <= t_start < t_end <= 1, got {self.t_start!r}, {self.t_end!r}")
        object.__setattr__(self, "t_start", t0)
        object.__setattr__(self, "t_end", t1)

    def describe(self) -> dict:
        if isinstance(self.method, Euler):
            m = {"method": "euler", "n_steps": self.method.n_steps}
        else:
            m = {
                "method": "rk45",
                "rtol": self.method.rtol,
                "atol": self.method.atol,
                "max_steps": self.method.max_steps,
            }
        return {**m, "t_start": self.t_start, "t_end": self.t_end}


@dataclass(frozen=True)
class IsotropicBase:
    """Standard normal base noise."""


@dataclass(frozen=True)
class PrecisionBase:
    """Base noise N(0, M^-1); required when integrating an anisotropic field."""

    metric: np.ndarray

    def __post_init__(self) -> None:
        m = _readonly(self.metric)
        np.linalg.cholesky(m)  # SPD or raise
        object.__setattr__(self, "metric", m)


Base = Union[IsotropicBase, PrecisionBase]


@dataclass(frozen=True)
class SampleBatch:
    """Generated endpoints plus the record needed to regenerate them."""

    samples: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] < 1:
            raise ValueError(f"samples must be a nonempty n x d matrix, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise NumericalBlowup("sample batch contains non-finite values")
        object.__setattr__(self, "samples", _readonly(s))


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0


def _euler(fieldfn: VelocityField, x0: np.ndarray, t0: float, t1: float, n: int) -> np.ndarray:
    h = (t1 - t0) / n
    x = np.array(x0, dtype=np.float64)
    for k in range(n):
        x = x + h * fieldfn(x, t0 + k * h)
    return x


def _rk45(
    fieldfn: VelocityField,
    x0: np.ndarray,
    t0: float,
    t1: float,
    cfg: AdaptiveRK45,
) -> np.ndarray:
    x = np.array(x0, dtype=np.float64)
    t = t0
    h = (t1 - t0) / 100.0
    stages = np.empty((7,) + x.shape)
    for _ in range(cfg.max_steps):
        h = min(h, t1 - t)
        stages[0] = fieldfn(x, t)
        for i in range(1, 7):
            xi = x + h * np.tensordot(_DP_A[i], stages[:i], axes=(0, 0))
            stages[i] = fieldfn(xi, min(t + _DP_C[i] * h, 1.0))
        x5 = x + h * np.tensordot(_DP_B5, stages, axes=(0, 0))
        x4 = x + h * np.tensordot(_DP_B4, stages, axes=(0, 0))
        if not np.all(np.isfinite(x5)):
            raise NumericalBlowup("integration state became non-finite")
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(x), np.abs(x5))
        err = float(np.sqrt(np.mean(((x5 - x4) / scale) ** 2)))
        if err <= 1.0:
            t = t + h
            x = x5
            if t >= t1:
                return x
        factor = _FACTOR_MAX if err == 0.0 else _SAFETY * err ** -0.2
        h = h * min(_FACTOR_MAX, max(_FACTOR_MIN, factor))
    raise StepLimit(f"exceeded {cfg.max_steps} steps before reaching t_end")


def integrate(fieldfn: VelocityField, x0: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """Integrate dx/dt = field(x, t) from t_start to t_end.

    Accepts a single state (d,) or a stacked batch (n, d); a batch is
    treated as one large system, so under RK45 the step sequence is shared
    across its rows.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if isinstance(cfg.method, Euler):
        return _euler(fieldfn, x0, cfg.t_start, cfg.t_end, cfg.method.n_steps)
    return _rk45(fieldfn, x0, cfg.t_start, cfg.t_end, cfg.method)


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _base_draws(n: int, d: int, seed: int, base: Base) -> np.ndarray:
    z = np.stack([_sample_rng(seed, i).standard_normal(d) for i in range(n)])
    if isinstance(base, IsotropicBase):
        return z
    chol = np.linalg.cholesky(base.metric)
    # cov(L^-T z) = (L L')^-1 = M^-1
    return np.linalg.solve(chol.T, z.T).T


def generate(
    fieldfn: VelocityField,
    n: int,
    d: int,
    seed: int,
    cfg: IntegratorConfig = IntegratorConfig(),
    base: Base = IsotropicBase(),
    jobs: int = 1,
) -> SampleBatch:
    """Draw n base samples and integrate each to t_end.

    Base draws come from per-sample streams keyed by (seed, index); chunks of
    fixed size are integrated independently, so results do not depend on the
    worker count.
    """
    if n < 1:
        raise ConfigError(f"need n >= 1 samples, got {n}")
    if isinstance(base, PrecisionBase):
        if not isinstance(fieldfn, AnisotropicField) or not np.array_equal(
            base.metric, fieldfn.metric
        ):
            raise ConfigError("precision base requires an anisotropic field with the same metric")
    elif isinstance(fieldfn, AnisotropicField):
        raise ConfigError("anisotropic field requires a matching precision base")
    x0 = _base_draws(n, d, seed, base)
    chunks = [x0[lo : lo + _CHUNK] for lo in range(0, n, _CHUNK)]
    if jobs > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(lambda c: integrate(fieldfn, c, cfg), chunks))
    else:
        done = [integrate(fieldfn, c, cfg) for c in chunks]
    samples = np.vstack(done)
    meta = {
        "seed": seed,
        "n": n,
        "d": d,
        "integrator": cfg.describe(),
        "base": "isotropic" if isinstance(base, IsotropicBase) else "precision",
        "rng": "default_rng(SeedSequence([seed, sample_index]))",
    }
    support = getattr(fieldfn, "support", None)
    if isinstance(support, SupportSet):
        meta["support_sha256"] = support.sha256()
    sched = getattr(fieldfn, "schedule", None)
    if sched is not None:
        meta["sigma_min"] = sched.sigma_min
    return SampleBatch(samples=samples, seed=seed, meta=meta)


def kde_direct_sample(
    support: SupportSet, bandwidth: float, n: int, seed: int
) -> SampleBatch:
    """Sample the support-set KDE directly: uniform row plus bandwidth noise.

    This is the reference law for endpoint checks: the ODE endpoint of the
    plug-in field follows the same distribution at bandwidth sigma_min.
    """
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    if n < 1:
        raise ConfigError(f"need n >= 1 samples, got {n}")
    rows = np.empty((n, support.d))
    for i in range(n):
        rng = _sample_rng(seed, i)
        idx = int(rng.integers(support.m))
        rows[i] = support.points[idx] + bandwidth * rng.standard_normal(support.d)
    meta = {
        "seed": seed,
        "n": n,
        "d": support.d,
        "bandwidth": bandwidth,
        "support_sha256": support.sha256(),
        "rng": "default_rng(SeedSequence([seed, sample_index]))",
    }
    return SampleBatch(samples=rows, seed=seed, meta=meta)

