"""Fixed-step Euler and adaptive Dormand-Prince integration, and generation.

Generation draws base noise, integrates each draw forward under a velocity
field, and returns the endpoint batch.  Reproducibility is anchored in
per-sample RNG streams keyed by (seed, sample index), and `integrate` cuts the
batch into groups of chunks by its size and the support size alone, so the
result is bit-identical no matter how many workers integrate the groups.
The streams' seed words and KDE row indices come from array arithmetic over all
rows; per row, numpy seeds a PCG64 from the words and draws the normal (`_stream_draws`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericalError, _count, _scale
from .kernels import SupportSet
from .velocity import PluginField, VelocityField

__all__ = [
    "Euler",
    "AdaptiveRK45",
    "integrate",
    "generate",
    "kde_direct_sample",
]

# Fixed integration chunk; must not depend on the worker count or outputs
# would change with --jobs.
_CHUNK = 256
_GROUP = 8  # most chunks that `integrate` advances in lockstep
_GROUP_ELEMS = 1 << 20  # most weights (rows x m) in one group's field call, if over one chunk
_RTOL_MIN = 100 * np.finfo(np.float64).eps  # scipy solve_ivp's floor; rounding dominates below it


@dataclass(frozen=True)
class Euler:
    """Left-endpoint fixed-step Euler with n_steps uniform steps."""

    n_steps: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_steps", _count(self.n_steps, "n_steps"))


@dataclass(frozen=True)
class AdaptiveRK45:
    """Embedded Dormand-Prince 4(5) pair with componentwise error control."""

    rtol: float = 1e-5
    atol: float = 1e-7
    max_steps: int = 100_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "rtol", _scale(self.rtol, "rtol"))
        if self.rtol < _RTOL_MIN:
            raise ConfigError(f"rtol must be positive and finite, and >= 100 eps ({_RTOL_MIN:.3g}), got {self.rtol!r}")
        object.__setattr__(self, "atol", _scale(self.atol, "atol"))
        object.__setattr__(self, "max_steps", _count(self.max_steps, "max_steps"))


# Dormand-Prince 5(4) tableau.  Row 6 of A is b5, so the last stage is f at the step's result.
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
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0


def _groups(fieldfn: VelocityField, x0: np.ndarray) -> list[np.ndarray]:
    """Runs of up to _GROUP chunks, fewer where a field call's rows x m weights would pass _GROUP_ELEMS;
    OpenBLAS rounds a GEMM row differently in other batch shapes, so only n and m decide them."""
    m = getattr(getattr(fieldfn, "support", None), "m", 1)
    rows = _CHUNK * max(1, min(_GROUP, _GROUP_ELEMS // (_CHUNK * m)))
    return [x0[lo : lo + rows] for lo in range(0, len(x0), rows)]


def integrate(
    fieldfn: VelocityField, x0: np.ndarray, method: Euler | AdaptiveRK45, jobs: int = 1
) -> np.ndarray:
    """Integrate dx/dt = field(x, t) from t = 0 to t = 1 for each row of an (n, d) batch.

    The batch is cut into groups of 256-row chunks (`_groups`) that `jobs` >= 1 threads
    integrate independently.  The groups depend on n and the support size only, so the result
    does not depend on `jobs`.  The chunks of a group advance in lockstep: a solver stage is
    one field call over the group's running chunks, with t an (n, 1) column where their times
    differ; Euler steps share one t.  RK45 step control is per 256-row chunk: each keeps its
    own t, step size, error norm, accept/reject and max_steps budget, so its steps do not
    depend on the rest of the batch.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2:
        raise ConfigError(f"integrate takes an (n, d) batch, got shape {x0.shape}")
    with ThreadPoolExecutor(max_workers=_count(jobs, "jobs")) as pool:
        done = list(pool.map(lambda g: _lockstep(fieldfn, g, method), _groups(fieldfn, x0)))
    x = np.vstack(done or [x0])  # an empty batch has no group
    if not np.all(np.isfinite(x)):  # the one check on Euler's last step
        raise NumericalError("integration state became non-finite")
    return x


def _lockstep(fieldfn: VelocityField, x0: np.ndarray, method: Euler | AdaptiveRK45) -> np.ndarray:
    """`integrate` on one group; a chunk that reaches t = 1 leaves the group's arrays."""
    x = x0.copy()
    if isinstance(method, Euler):
        h = 1.0 / method.n_steps
        for k in range(method.n_steps):
            x = x + h * fieldfn(x, k * h)
        return x
    out, at = np.empty_like(x), np.arange(len(x))  # at: each running row's place in `out`
    sizes = [min(_CHUNK, len(x) - lo) for lo in range(0, len(x), _CHUNK)]  # running chunks
    t, h = [0.0] * len(sizes), [0.01] * len(sizes)  # per running chunk, as Python floats
    stages = np.empty((7,) + x.shape)
    stages[0] = fieldfn(x, 0.0)
    for _ in range(method.max_steps):
        h = [min(hc, 1.0 - tc) for hc, tc in zip(h, t)]
        step, flat = np.repeat(h, sizes)[:, None], stages.reshape(7, -1)  # a view: one matmul per sum
        for i in range(1, 7):
            xi = x + step * (_DP_A[i] @ flat[:i]).reshape(x.shape)
            ts = [min(tc + _DP_C[i] * hc, 1.0) for tc, hc in zip(t, h)]
            ts = ts[0] if ts.count(ts[0]) == len(ts) else np.repeat(ts, sizes)[:, None]
            stages[i] = fieldfn(xi, ts)
        x4 = x + step * (_DP_B4 @ flat).reshape(x.shape)
        if not np.all(np.isfinite(xi)):
            raise NumericalError("integration state became non-finite")
        with np.errstate(over="ignore"):  # an infinite error norm rejects the step
            ratio = ((xi - x4) / (method.atol + method.rtol * np.maximum(np.abs(x), np.abs(xi)))) ** 2
        for c, lo in enumerate(np.cumsum([0] + sizes[:-1]).tolist()):
            rows = slice(lo, lo + sizes[c])
            err = float(np.sqrt(np.mean(ratio[rows])))
            if err <= 1.0:  # x5 is the last stage's state; stage 6 is f(x5, t + h)
                t[c] = t[c] + h[c]
                x[rows], stages[0, rows] = xi[rows], stages[6, rows]
            factor = _FACTOR_MAX if err == 0.0 else _SAFETY * err ** -0.2
            h[c] = h[c] * min(_FACTOR_MAX, max(_FACTOR_MIN, factor))
        if max(t) >= 1.0:  # finished chunks leave the group
            run = [tc < 1.0 for tc in t]
            keep = np.repeat(run, sizes)
            out[at[~keep]] = x[~keep]
            if not any(run):
                return out
            sizes, t, h = ([v for v, r in zip(u, run) if r] for u in (sizes, t, h))
            x, at, stages = x[keep], at[keep], stages.compress(keep, axis=1)  # C order for `flat`
    raise NumericalError(f"exceeded {method.max_steps} steps before reaching t = 1")


# SeedSequence's entropy hash (numpy/random/bit_generator.pyx) and Generator.integers' Lemire
# index (distributions.c) as array arithmetic over all per-sample streams; numpy seeds each row's
# PCG64.  The tests compare the results bit for bit with default_rng(SeedSequence([seed, i])).
_MASK32 = 0xFFFFFFFF
_MIX_HASH = (0x43B0D7E5, 0x931E8875)  # mix_entropy: initial constant, multiplier
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)  # generate_state: initial constant, multiplier
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits entropy."""
    value = _count(value, "seed", least=0)
    return [(value >> s) & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


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


@dataclass
class _Words(np.random.bit_generator.ISeedSequence):
    """Given seed words: PCG64 reads generate_state(4, uint64)'s raw buffer, so C-ordered uint64."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _stream_draws(seed: int, n: int, d: int, m: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Row indices in [0, m) and (n, d) N(0, I) rows: row i is rng.integers(m), then
    rng.standard_normal(d), on rng = default_rng(SeedSequence([seed, i])); m = 1 draws no index.

    Vectorised over the rows: the SeedSequence hash and, for m > 1, Lemire's multiply-shift
    index.  Per row, numpy seeds a PCG64 from the row's hashed words, which gives the first word
    for m > 1 and then the ziggurat normal.  A row whose first word Lemire rejects (probability
    below m / 2**32) is redrawn on the literal stream.
    """
    if n > 1 << 32:
        raise ConfigError(f"at most 2**32 samples per seed, got {n}")
    # Entropy [seed, i]: the seed's words, then i as one word (i < 2**32).
    entropy = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append(np.arange(n, dtype=np.uint32))
    hashmix = _hasher(*_MIX_HASH)
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(n, np.uint32)) for k in range(4)]
    for src, dst in ((src, dst) for src in range(4) for dst in range(4) if src != dst):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(*_STATE_HASH)
    # generate_state(4, uint64): numpy views the 8 uint32 words, little-endian, as 4 uint64.
    words = np.stack([hashmix(pool[k % 4]) for k in range(8)], axis=1).astype("<u4").view(np.uint64)
    z, first = np.empty((n, d)), np.empty(n, dtype=np.uint64)
    for i, row in enumerate(z):
        bitgen = np.random.PCG64(_Words(words[i]))
        first[i] = bitgen.random_raw() if m > 1 else 0  # the word integers(m) reads
        np.random.Generator(bitgen).standard_normal(out=row)
    # integers(m): Lemire on the first word's low half; m > 2**32 redraws every row
    prod = (first & _MASK32) * np.uint64(m)
    idx = (prod >> 32).astype(np.intp)
    redo = np.flatnonzero(((prod & _MASK32) < (2**32 - m) % m) | (m > 1 << 32)).tolist()
    for i in redo:
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        idx[i] = rng.integers(m)
        rng.standard_normal(out=z[i])
    return idx, z


def _base_draws(n: int, d: int, seed: int, chol: Optional[np.ndarray]) -> np.ndarray:
    """N(0, I) draws, or N(0, M^-1) for the Cholesky factor L of a metric M = L L'."""
    z = _stream_draws(seed, n, d)[1]
    return z if chol is None else np.linalg.solve(chol.T, z.T).T  # cov(L^-T z) = (L L')^-1 = M^-1


def generate(
    field: PluginField,
    n: int,
    seed: int,
    method: Euler | AdaptiveRK45 = Euler(100),
    jobs: int = 1,
) -> np.ndarray:
    """n x d endpoints: n base samples from the field's base law, each integrated to t = 1.

    The base law is N(0, I) for an isotropic field and N(0, M^-1) for a field
    with metric M.  Base draws come from per-sample streams keyed by (seed,
    index); `integrate` advances them on `jobs` threads, which change no bit.
    """
    return integrate(field, _base_draws(_count(n, "n"), field.support.d, seed, field.chol), method, jobs)


def kde_direct_sample(support: SupportSet, bandwidth: float, n: int, seed: int) -> np.ndarray:
    """n x d draws from the support-set KDE: a uniform row plus bandwidth noise.

    This is the reference law for endpoint checks: the ODE endpoint of the
    plug-in field follows the same distribution at bandwidth sigma_min.  Row i
    comes from the stream default_rng(SeedSequence([seed, i])).
    """
    bandwidth = _scale(bandwidth, "bandwidth")
    idx, z = _stream_draws(seed, _count(n, "n"), support.d, support.m)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the NumericalError below
        rows = support.points[idx] + bandwidth * z
    if not np.all(np.isfinite(rows)):
        raise NumericalError("sample batch contains non-finite values")
    return rows
