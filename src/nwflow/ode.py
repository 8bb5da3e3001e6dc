"""Fixed-step Euler and adaptive Dormand-Prince integration, and generation.

Generation draws base noise, integrates each draw forward under a velocity
field, and returns the endpoint batch.  Reproducibility is anchored in
per-sample RNG streams keyed by (seed, sample index), so the result is
bit-identical no matter how many workers integrate the chunks.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import ConfigError, NumericalError
from .kernels import SupportSet, _readonly
from .velocity import PluginField, VelocityField

__all__ = [
    "Euler",
    "AdaptiveRK45",
    "IntegratorConfig",
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


@dataclass(frozen=True, eq=False)
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
            raise NumericalError("sample batch contains non-finite values")
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
            raise NumericalError("integration state became non-finite")
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(x), np.abs(x5))
        err = float(np.sqrt(np.mean(((x5 - x4) / scale) ** 2)))
        if err <= 1.0:
            t = t + h
            x = x5
            if t >= t1:
                return x
        factor = _FACTOR_MAX if err == 0.0 else _SAFETY * err ** -0.2
        h = h * min(_FACTOR_MAX, max(_FACTOR_MIN, factor))
    raise NumericalError(f"exceeded {cfg.max_steps} steps before reaching t_end")


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


# SeedSequence's entropy hash (numpy/random/bit_generator.pyx) and PCG64's
# seeding step (pcg64.h), restated so that every per-sample stream can be
# seeded in one vectorised pass.  The tests compare the result bit for bit
# with default_rng(SeedSequence([seed, i])).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_MIX_HASH = (0x43B0D7E5, 0x931E8875)  # mix_entropy: initial constant, multiplier
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)  # generate_state: initial constant, multiplier
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits entropy."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix over uint32 arrays; the running constant is data-free."""

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v = v ^ np.uint32(const)
        const = (const * mult) & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> np.uint32(16))


def _sample_streams(seed: int, n: int) -> Iterator[np.random.Generator]:
    """Yield, for i = 0..n-1, a Generator on the stream of default_rng(SeedSequence([seed, i])).

    One Generator is repositioned and yielded each time, so each row must be
    drawn before the next one is requested.
    """
    if n > 1 << 32:
        raise ConfigError(f"at most 2**32 samples per seed, got {n}")
    # Entropy [seed, i]: the seed's words, then i as one word (i < 2**32).
    entropy = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append(np.arange(n, dtype=np.uint32))
    hashmix = _hasher(*_MIX_HASH)
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(n, np.uint32)) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(*_STATE_HASH)
    out = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    # generate_state(4, uint64): little-endian pairs of the 8 uint32 words.
    u64 = [(out[2 * k] | (out[2 * k + 1] << np.uint64(32))).tolist() for k in range(4)]
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, i_hi, i_lo in zip(*u64):
        # pcg64_set_seed: inc = 2 initseq + 1; state = (inc + initstate) * mult + inc.
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        pcg_state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        state["state"] = {"state": pcg_state, "inc": inc}
        bitgen.state = state
        yield rng


def _base_draws(n: int, d: int, seed: int, chol: Optional[np.ndarray]) -> np.ndarray:
    """N(0, I) draws, or N(0, M^-1) for the Cholesky factor L of a metric M = L L'."""
    z = np.empty((n, d))
    for i, rng in enumerate(_sample_streams(seed, n)):
        z[i] = rng.standard_normal(d)
    if chol is None:
        return z
    # cov(L^-T z) = (L L')^-1 = M^-1
    return np.linalg.solve(chol.T, z.T).T


def generate(
    field: PluginField,
    n: int,
    seed: int,
    cfg: IntegratorConfig = IntegratorConfig(),
    jobs: int = 1,
) -> SampleBatch:
    """Draw n base samples from the field's base law and integrate each to t_end.

    The base law is N(0, I) for an isotropic field and N(0, M^-1) for a field
    with metric M.  Base draws come from per-sample streams keyed by (seed,
    index); chunks of fixed size are integrated independently, so results do
    not depend on the worker count.
    """
    if n < 1:
        raise ConfigError(f"need n >= 1 samples, got {n}")
    d = field.support.d
    x0 = _base_draws(n, d, seed, field.chol)
    chunks = [x0[lo : lo + _CHUNK] for lo in range(0, n, _CHUNK)]
    if jobs > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(lambda c: integrate(field, c, cfg), chunks))
    else:
        done = [integrate(field, c, cfg) for c in chunks]
    meta = {
        "seed": seed,
        "n": n,
        "d": d,
        "integrator": cfg.describe(),
        "base": "isotropic" if field.chol is None else "precision",
        "rng": "default_rng(SeedSequence([seed, sample_index]))",
        "support_sha256": field.support.sha256(),
        "sigma_min": field.schedule.sigma_min,
    }
    return SampleBatch(samples=np.vstack(done), seed=seed, meta=meta)


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
    idx = np.empty(n, dtype=np.intp)
    z = np.empty((n, support.d))
    for i, rng in enumerate(_sample_streams(seed, n)):
        idx[i] = rng.integers(support.m)
        z[i] = rng.standard_normal(support.d)
    rows = support.points[idx] + bandwidth * z
    meta = {
        "seed": seed,
        "n": n,
        "d": support.d,
        "bandwidth": bandwidth,
        "support_sha256": support.sha256(),
        "rng": "default_rng(SeedSequence([seed, sample_index]))",
    }
    return SampleBatch(samples=rows, seed=seed, meta=meta)

