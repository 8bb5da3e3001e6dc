"""Synthetic task families, feature-table ingestion, and whitening.

Every generator is a pure function of (spec, n, seed).  Family parameters
that fix a concrete task instance (mixture means, Fourier coefficients, ...)
are drawn from the spec's own seed, so the same spec always denotes the same
distribution while the draw seed only controls the sample.
"""

from __future__ import annotations

import copy
import functools
import json
import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, NumericalError, _count, _scale
from .kernels import SupportSet, _readonly

__all__ = [
    "Gmm",
    "Shell",
    "Moons",
    "Rings",
    "Spirals",
    "FourierDensity",
    "FeatureTable",
    "sample_task",
    "make_support_and_eval",
    "split_table",
    "whiten",
    "load_feature_table",
]

_FOURIER_BOX = 3.0
_FOURIER_GRID = 1201
_STALL_FLOOR = 1e-4
_STALL_MIN_PROPOSALS = 20_000


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """n x d matrix of ingested features with optional column names."""

    rows: np.ndarray
    names: Optional[tuple[str, ...]] = None
    source: Optional[str] = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ConfigError(f"feature table must be 2-d, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ConfigError(f"{self.source or 'feature table'} contains non-finite values")
        object.__setattr__(self, "rows", _readonly(rows))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Gmm:
    """Gaussian mixture: k means uniform in [-sep, sep]^d, per-component
    isotropic std log-uniform in [std_lo, std_hi], equal mixture weights."""

    d: int
    k_components: int = 5
    separation_scale: float = 2.0
    std_lo: float = 0.1
    std_hi: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        _count(self.d, "d")
        _count(self.k_components, "k_components")
        _scale(self.separation_scale, "separation_scale", zero=True)
        if not _scale(self.std_lo, "std_lo") <= _scale(self.std_hi, "std_hi"):
            raise ConfigError(f"need std_lo <= std_hi, got {self.std_lo!r} and {self.std_hi!r}")


@dataclass(frozen=True)
class Shell:
    """Spherical shell: uniform direction, radius ~ N(mean, std^2) truncated
    to the positive part of [mean - 6 std, mean + 6 std]."""

    d: int
    radius_mean: float = 1.0
    radius_std: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        _count(self.d, "d")
        _scale(self.radius_mean, "radius_mean")
        _scale(self.radius_std, "radius_std", zero=True)


@dataclass(frozen=True)
class Moons:
    """Two interleaved half-circles in R^2 plus isotropic noise."""

    noise: float = 0.05
    seed: int = 0
    d = 2

    def __post_init__(self) -> None:
        _scale(self.noise, "noise", zero=True)


@dataclass(frozen=True)
class Rings:
    """k concentric circles in R^2, radii evenly spaced up to 2."""

    k_rings: int = 3
    noise: float = 0.05
    seed: int = 0
    d = 2

    def __post_init__(self) -> None:
        _count(self.k_rings, "k_rings")
        _scale(self.noise, "noise", zero=True)


@dataclass(frozen=True)
class Spirals:
    """k Archimedean arms in R^2 plus isotropic noise."""

    k_arms: int = 2
    noise: float = 0.05
    seed: int = 0
    d = 2

    def __post_init__(self) -> None:
        _count(self.k_arms, "k_arms")
        _scale(self.noise, "noise", zero=True)


@dataclass(frozen=True)
class FourierDensity:
    """Unnormalized log-density on [-3, 3]^d given by a random truncated
    Fourier series of n_modes plane waves with integer frequency vectors,
    coefficient variance 1/|frequency|.

    With a handful of joint modes the log-density range stays O(1) in any
    dimension, so rejection against a uniform proposal keeps a workable
    acceptance rate even at d = 8; the bound comes from a grid scan in low
    dimension and a seeded space scan otherwise, plus a fixed log-margin."""

    d: int
    n_modes: int = 3
    amplitude: float = 1.0
    max_frequency: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        _count(self.d, "d")
        _count(self.n_modes, "n_modes")
        _count(self.max_frequency, "max_frequency")
        _scale(self.amplitude, "amplitude")


TaskSpec = Union[Gmm, Shell, Moons, Rings, Spirals, FourierDensity]

_TABLE_TAG = 7  # split_table permutes by SeedSequence([7, 0, seed]); --features outputs rely on it


def _rng(spec: TaskSpec, *draw: int) -> np.random.Generator:
    """Stream [tag, spec.seed, *draw]: the task instance's without draw, a sample's with its seed."""
    words = (_count(s, "seed", 0) for s in (spec.seed, *draw))
    return np.random.default_rng(np.random.SeedSequence([_FAMILIES[type(spec)][0], *words]))


def _sample_gmm(spec: Gmm, n: int, rng: np.random.Generator) -> np.ndarray:
    inst = _rng(spec)
    means = inst.uniform(-spec.separation_scale, spec.separation_scale, (spec.k_components, spec.d))
    stds = np.exp(inst.uniform(np.log(spec.std_lo), np.log(spec.std_hi), spec.k_components))
    comp = rng.integers(spec.k_components, size=n)
    return means[comp] + stds[comp, None] * rng.standard_normal((n, spec.d))


def _sample_shell(spec: Shell, n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, spec.d))
    dirs = z / np.linalg.norm(z, axis=1, keepdims=True)
    if spec.radius_std == 0.0:
        return spec.radius_mean * dirs
    radii = np.empty(n)
    todo = np.arange(n)
    lo = max(0.0, spec.radius_mean - 6.0 * spec.radius_std)
    hi = spec.radius_mean + 6.0 * spec.radius_std
    while todo.size:
        r = spec.radius_mean + spec.radius_std * rng.standard_normal(todo.size)
        ok = (r > lo) & (r <= hi) & (r > 0.0)
        radii[todo[ok]] = r[ok]
        todo = todo[~ok]
    return radii[:, None] * dirs


def _sample_moons(spec: Moons, n: int, rng: np.random.Generator) -> np.ndarray:
    which = rng.integers(2, size=n)
    theta = rng.uniform(0.0, np.pi, n)
    x = np.where(which == 0, np.cos(theta), 1.0 - np.cos(theta))
    y = np.where(which == 0, np.sin(theta), 0.5 - np.sin(theta))
    pts = np.column_stack([x, y])
    return pts + spec.noise * rng.standard_normal((n, 2))


def _sample_rings(spec: Rings, n: int, rng: np.random.Generator) -> np.ndarray:
    ring = rng.integers(spec.k_rings, size=n)
    radii = 2.0 * (ring + 1) / spec.k_rings
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = radii[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    return pts + spec.noise * rng.standard_normal((n, 2))


def _sample_spirals(spec: Spirals, n: int, rng: np.random.Generator) -> np.ndarray:
    arm = rng.integers(spec.k_arms, size=n)
    theta = 3.0 * np.pi * np.sqrt(rng.uniform(0.0, 1.0, n))
    r = 2.0 * theta / (3.0 * np.pi)
    angle = theta + 2.0 * np.pi * arm / spec.k_arms
    pts = r[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    return pts + spec.noise * rng.standard_normal((n, 2))


_FOURIER_MARGIN = 0.5  # log-space headroom above the scanned maximum
_FOURIER_CHUNK = 8192  # proposals drawn and scored at a time


@functools.lru_cache(maxsize=64)
def _fourier_law(spec: FourierDensity) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Read-only frequency matrix (n_modes, d) in radians and cosine/sine coefficients, and an upper
    bound on the log-density: the box scan's maximum plus a margin for the gap to the true maximum
    of the smooth low-mode series.  Cached, as every sample of a task draws from the same law."""
    inst = _rng(spec)
    waves = np.zeros((spec.n_modes, spec.d), dtype=np.int64)
    for k in range(spec.n_modes):
        while True:
            w = inst.integers(0, spec.max_frequency + 1, spec.d)
            if w.any():
                break
        waves[k] = w
    norms = np.linalg.norm(waves, axis=1)
    a = spec.amplitude * inst.standard_normal(spec.n_modes) / np.sqrt(norms)
    b = spec.amplitude * inst.standard_normal(spec.n_modes) / np.sqrt(norms)
    waves = waves * (np.pi / _FOURIER_BOX)
    for arr in (waves, a, b):
        arr.setflags(write=False)
    bound = float(np.max(_fourier_logdens(_fourier_scan_mesh(spec), waves, a, b))) + _FOURIER_MARGIN
    return waves, a, b, bound


def _fourier_logdens(x: np.ndarray, waves: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    phase = np.atleast_2d(x) @ waves.T
    return np.cos(phase) @ a + np.sin(phase) @ b


def _fourier_scan_mesh(spec: FourierDensity) -> np.ndarray:
    """Box scan: a regular grid while affordable, a seeded space scan above d=2."""
    if spec.d <= 2:
        axis = np.linspace(-_FOURIER_BOX, _FOURIER_BOX, _FOURIER_GRID if spec.d == 1 else 201)
        return np.stack(np.meshgrid(*[axis] * spec.d), axis=-1).reshape(-1, spec.d)
    scan_rng = np.random.default_rng(np.random.SeedSequence([63, spec.seed, spec.d]))
    return scan_rng.uniform(-_FOURIER_BOX, _FOURIER_BOX, (8192, spec.d))


def _sample_fourier(spec: FourierDensity, n: int, rng: np.random.Generator) -> tuple[np.ndarray, int, int]:
    """Joint rejection against Uniform[-3, 3]^d; returns (samples, proposed, accepted).

    A batch's stream is its batch x d proposals, then its batch accept coins.  The coins come from
    a copy of the generator advanced past the proposals, so both stream in _FOURIER_CHUNK rows;
    the generator then takes the copy's state.  Once n rows are accepted nothing else is drawn.
    """
    waves, a, b, bound = _fourier_law(spec)
    out = np.empty((n, spec.d))
    filled = 0
    proposed = 0
    while filled < n:
        batch = max(1024, 2 * (n - filled))
        coins = copy.deepcopy(rng)
        coins.bit_generator.advance(batch * spec.d)
        for c0 in range(0, batch, _FOURIER_CHUNK):
            if filled == n:
                break
            k = min(_FOURIER_CHUNK, batch - c0)
            u = rng.uniform(-_FOURIER_BOX, _FOURIER_BOX, (k, spec.d))
            got = u[coins.uniform(0.0, 1.0, k) < np.exp(_fourier_logdens(u, waves, a, b) - bound)][: n - filled]
            out[filled : filled + got.shape[0]] = got
            filled += got.shape[0]
        proposed += batch
        rng.bit_generator.state = coins.bit_generator.state
        if proposed >= _STALL_MIN_PROPOSALS and filled / proposed < _STALL_FLOOR:
            raise NumericalError(f"rejection acceptance {filled / proposed:.2e} below {_STALL_FLOOR:.0e}")
    return out, proposed, filled


# spec class -> (SeedSequence tag, task name, sampler); the tags key every family's streams,
# so they stay fixed.  parse_task reads the names.
_FAMILIES = {
    Gmm: (1, "gmm", _sample_gmm),
    Shell: (2, "shell", _sample_shell),
    Moons: (3, "moons", _sample_moons),
    Rings: (4, "rings", _sample_rings),
    Spirals: (5, "spirals", _sample_spirals),
    FourierDensity: (6, "fourier", lambda spec, n, rng: _sample_fourier(spec, n, rng)[0]),
}


def parse_task(name: str, seed: int) -> TaskSpec:
    """Task names: gmm<d>d, shell<d>d, fourier<d>d, moons, rings, spirals."""
    low = name.strip().lower()
    for cls, (_, family, _) in _FAMILIES.items():
        if "d" not in cls.__dataclass_fields__:
            if low == family:
                return cls(seed=seed)
        elif low.startswith(family):
            try:
                d = int(low[len(family):].removesuffix("d"))
            except ValueError:
                raise ConfigError(f"cannot parse dimension from task name {name!r}")
            return cls(d=d, seed=seed)
    raise ConfigError(
        f"unknown task {name!r}; expected moons, rings, spirals, gmm<d>d, shell<d>d or fourier<d>d"
    )


def sample_task(spec: TaskSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the task family; deterministic in (spec, n, seed)."""
    if type(spec) not in _FAMILIES:
        raise TypeError(f"unknown task spec {spec!r}")
    return _FAMILIES[type(spec)][2](spec, _count(n, "n"), _rng(spec, seed))


def make_support_and_eval(
    spec: TaskSpec, m: int, n_eval: int, seed: int
) -> tuple[SupportSet, np.ndarray]:
    """Support set and evaluation draws from disjoint RNG substreams."""
    sup_seed, ev_seed = map(int, np.random.SeedSequence(_count(seed, "seed", 0)).generate_state(2, np.uint64))
    support = SupportSet(sample_task(spec, _count(m, "m"), sup_seed))
    eval_rows = sample_task(spec, n_eval, ev_seed) if _count(n_eval, "n_eval", 0) else np.empty((0, support.d))
    return support, eval_rows


def split_table(
    table: FeatureTable, m: int, n_eval: int, seed: int
) -> tuple[SupportSet, np.ndarray]:
    """Support set and held-out evaluation rows: disjoint row subsets of a seeded permutation."""
    if _count(m, "m") + _count(n_eval, "n_eval", 0) > table.n:
        raise ConfigError(f"table has {table.n} rows, cannot split into {m} + {n_eval}")
    perm = np.random.default_rng(np.random.SeedSequence([_TABLE_TAG, 0, _count(seed, "seed", 0)])).permutation(table.n)
    return SupportSet(table.rows[perm[:m]]), table.rows[perm[m : m + n_eval]].copy()


@dataclass(frozen=True, eq=False)
class WhitenTransform:
    """Record of an affine whitening map x -> W (x - mean) + mean."""

    mean: np.ndarray
    matrix: np.ndarray
    strength: float
    regularization: float
    eigenvalues: np.ndarray

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        return (rows - self.mean) @ self.matrix.T + self.mean


def whiten(
    table: FeatureTable, strength: float = 1.0, ridge: float = 0.0
) -> tuple[FeatureTable, WhitenTransform]:
    """Map rows by C^(-strength/2) about their mean, C = covariance + ridge.

    strength 0 returns the rows untouched (full identity, mean included);
    strength 1 makes the sample covariance the identity up to the ridge.
    """
    lam = _scale(strength, "strength", zero=True)
    if lam > 1.0:
        raise ConfigError(f"strength must lie in [0, 1], got {strength!r}")
    eps = _scale(ridge, "regularization", zero=True)
    rows = table.rows
    mean = rows.mean(axis=0)
    if lam == 0.0:
        record = WhitenTransform(mean, np.eye(table.d), lam, eps, np.ones(table.d))
        return table, record
    if table.n < 2:
        raise ConfigError(f"whitening needs a covariance, which needs at least 2 rows, got {table.n}")
    if table.n < table.d + 1 and eps == 0.0:
        raise ConfigError(
            f"{table.n} rows cannot give a full-rank covariance in d={table.d}; set a ridge"
        )
    cov = np.cov(rows, rowvar=False, ddof=1).reshape(table.d, table.d) + eps * np.eye(table.d)
    vals, vecs = np.linalg.eigh(cov)
    if np.min(vals) <= 0.0:
        raise NumericalError("covariance is singular; set a positive ridge")
    w = (vecs * vals ** (-lam / 2.0)) @ vecs.T
    record = WhitenTransform(mean, w, lam, eps, vals)
    out = FeatureTable(rows=record.apply(rows), names=table.names, source=table.source)
    return out, record


_MAGIC = b"NWF1"


def load_feature_table(path: str, fmt: str = "csv") -> FeatureTable:
    """Read a feature table from CSV or the NWF1 binary layout."""
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "bin":
        return _load_bin(path)
    raise ConfigError(f"unknown format {fmt!r}; expected 'csv' or 'bin'")


def _load_csv(path: str) -> FeatureTable:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"{path} holds no rows")
    cells = [ln.split(",") for ln in lines]
    widths = {len(row) for row in cells}
    if len(widths) != 1:
        raise ConfigError(f"{path} has ragged rows (widths {sorted(widths)})")
    names = None
    try:
        [float(c) for c in cells[0]]
    except ValueError:
        names = tuple(c.strip() for c in cells[0])
        cells = cells[1:]
    if not cells:
        raise ConfigError(f"{path} has a header but no data rows")
    try:
        rows = np.array([[float(c) for c in row] for row in cells], dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"{path}: unparseable cell ({exc})") from exc
    return FeatureTable(rows=rows, names=names, source=path)


def _load_bin(path: str) -> FeatureTable:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ConfigError(f"{path}: bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    if len(blob) < 12:
        raise ConfigError(f"{path}: truncated header")
    n, d = struct.unpack("<II", blob[4:12])
    if n == 0 or d == 0:
        raise ConfigError(f"{path} declares {n} rows and {d} columns; a table needs at least one of each")
    expected = 12 + 8 * n * d
    if len(blob) != expected:
        raise ConfigError(f"{path}: expected {expected} bytes for {n}x{d}, got {len(blob)}")
    rows = np.frombuffer(blob, dtype="<f8", offset=12).reshape(n, d)
    return FeatureTable(rows=rows.astype(np.float64), source=path)


def save_feature_table(
    rows: np.ndarray,
    path: str,
    fmt: str = "csv",
    names: Optional[tuple[str, ...]] = None,
) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if fmt == "csv":
        write_csv(path, rows, header=names)
    elif fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", rows.shape[0], rows.shape[1]))
            fh.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())
    else:
        raise ConfigError(f"unknown format {fmt!r}; expected 'csv' or 'bin'")


def _fmt(v: object) -> str:
    """A float in 17 significant digits, which round-trip a float64; anything else by str."""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_csv(
    path: str, rows: Iterable[Sequence[object]], header: Optional[Sequence[str]] = None
) -> None:
    """Write rows as comma-separated lines after an optional header; a float64 matrix row by row."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2:
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.writelines(line % tuple(row) for row in map(np.ndarray.tolist, rows))
        else:
            fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _json_scalar(obj: object):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_json(path: str, payload: dict) -> None:
    """Write payload as key-sorted JSON indented by 2, numpy scalars as Python ones."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2, default=_json_scalar) + "\n")


def anisotropic_gaussian_features(
    n: int, d: int, seed: int = 0, top_std: float = 0.8, decay: float = 0.5
) -> FeatureTable:
    """Synthetic stand-in for PCA-style features: a rotated Gaussian whose
    spectrum decays geometrically, so most variance sits in a few directions."""
    rng = np.random.default_rng(np.random.SeedSequence([97, _count(seed, "seed", 0)]))
    stds = top_std * decay ** np.arange(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rows = (rng.standard_normal((n, d)) * stds) @ q.T
    return FeatureTable(rows=rows, source="synthetic-anisotropic")
