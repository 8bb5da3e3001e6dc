"""Synthetic task families, feature-table ingestion, and whitening.

Every generator is a pure function of (spec, n, seed).  Family parameters
that fix a concrete task instance (mixture means, Fourier coefficients, ...)
are drawn from the spec's own seed, so the same spec always denotes the same
distribution while the draw seed only controls the sample.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, NumericalError
from .kernels import SupportSet, _readonly

__all__ = [
    "Gmm",
    "Shell",
    "Moons",
    "Rings",
    "Spirals",
    "FourierDensity",
    "TaskSpec",
    "FeatureTable",
    "WhitenTransform",
    "sample_task",
    "make_support_and_eval",
    "split_table",
    "whiten",
    "load_feature_table",
    "save_feature_table",
    "write_csv",
    "write_json",
    "anisotropic_gaussian_features",
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
            raise ConfigError("feature table contains non-finite entries")
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
        if self.d < 1 or self.k_components < 1:
            raise ValueError("need d >= 1 and k_components >= 1")
        if not 0.0 < self.std_lo <= self.std_hi:
            raise ValueError("need 0 < std_lo <= std_hi")


@dataclass(frozen=True)
class Shell:
    """Spherical shell: uniform direction, radius ~ N(mean, std^2) truncated
    to the positive part of [mean - 6 std, mean + 6 std]."""

    d: int
    radius_mean: float = 1.0
    radius_std: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("need d >= 1")
        if not self.radius_mean > 0.0 or self.radius_std < 0.0:
            raise ValueError("need radius_mean > 0 and radius_std >= 0")


@dataclass(frozen=True)
class Moons:
    """Two interleaved half-circles in R^2 plus isotropic noise."""

    noise: float = 0.05
    seed: int = 0
    d = 2


@dataclass(frozen=True)
class Rings:
    """k concentric circles in R^2, radii evenly spaced up to 2."""

    k_rings: int = 3
    noise: float = 0.05
    seed: int = 0
    d = 2

    def __post_init__(self) -> None:
        if self.k_rings < 1:
            raise ValueError("need k_rings >= 1")


@dataclass(frozen=True)
class Spirals:
    """k Archimedean arms in R^2 plus isotropic noise."""

    k_arms: int = 2
    noise: float = 0.05
    seed: int = 0
    d = 2

    def __post_init__(self) -> None:
        if self.k_arms < 1:
            raise ValueError("need k_arms >= 1")


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
        if self.d < 1 or self.n_modes < 1:
            raise ValueError("need d >= 1 and n_modes >= 1")
        if not self.amplitude > 0.0:
            raise ValueError("amplitude must be positive")
        if self.max_frequency < 1:
            raise ValueError("max_frequency must be >= 1")


TaskSpec = Union[Gmm, Shell, Moons, Rings, Spirals, FourierDensity]

_TABLE_TAG = 7  # split_table permutes by SeedSequence([7, 0, seed]); --features outputs rely on it


def _rng(spec: TaskSpec, *draw: int) -> np.random.Generator:
    """Stream [tag, spec.seed, *draw]: the task instance's without draw, a sample's with its seed."""
    return np.random.default_rng(np.random.SeedSequence([_FAMILIES[type(spec)][0], spec.seed, *draw]))


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


def _fourier_modes(spec: FourierDensity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequency matrix (n_modes, d) in radians plus cosine/sine coefficients."""
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
    return waves * (np.pi / _FOURIER_BOX), a, b


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


def _fourier_bound(spec: FourierDensity, waves, a, b) -> float:
    """Upper bound on the log-density from the box scan.

    The fixed margin covers the gap between the scanned and true maximum of
    the smooth low-mode series.
    """
    return float(np.max(_fourier_logdens(_fourier_scan_mesh(spec), waves, a, b))) + _FOURIER_MARGIN


def _sample_fourier(
    spec: FourierDensity, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, int, int]:
    """Joint rejection against Uniform[-3, 3]^d; returns (samples, proposed, accepted)."""
    waves, a, b = _fourier_modes(spec)
    bound = _fourier_bound(spec, waves, a, b)
    out = np.empty((n, spec.d))
    filled = 0
    proposed = 0
    while filled < n:
        batch = max(1024, 2 * (n - filled))
        u = rng.uniform(-_FOURIER_BOX, _FOURIER_BOX, (batch, spec.d))
        accept = rng.uniform(0.0, 1.0, batch) < np.exp(_fourier_logdens(u, waves, a, b) - bound)
        proposed += batch
        got = u[accept][: n - filled]
        out[filled : filled + got.shape[0]] = got
        filled += got.shape[0]
        if proposed >= _STALL_MIN_PROPOSALS and filled / proposed < _STALL_FLOOR:
            raise NumericalError(
                f"rejection acceptance {filled / proposed:.2e} below {_STALL_FLOOR:.0e}"
            )
    return out, proposed, filled


# spec class -> (SeedSequence tag, sampler); the tags key every family's streams, so they stay fixed
_FAMILIES = {
    Gmm: (1, _sample_gmm),
    Shell: (2, _sample_shell),
    Moons: (3, _sample_moons),
    Rings: (4, _sample_rings),
    Spirals: (5, _sample_spirals),
    FourierDensity: (6, lambda spec, n, rng: _sample_fourier(spec, n, rng)[0]),
}


def sample_task(spec: TaskSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the task family; deterministic in (spec, n, seed)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if type(spec) not in _FAMILIES:
        raise TypeError(f"unknown task spec {spec!r}")
    return _FAMILIES[type(spec)][1](spec, n, _rng(spec, seed))


def make_support_and_eval(
    spec: TaskSpec, m: int, n_eval: int, seed: int
) -> tuple[SupportSet, np.ndarray]:
    """Support set and evaluation draws from disjoint RNG substreams."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    sup_seed, ev_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
    support = SupportSet(sample_task(spec, m, sup_seed))
    eval_rows = sample_task(spec, n_eval, ev_seed) if n_eval > 0 else np.empty((0, support.d))
    return support, eval_rows


def split_table(
    table: FeatureTable, m: int, n_eval: int, seed: int
) -> tuple[SupportSet, np.ndarray]:
    """Support set and held-out evaluation rows: disjoint row subsets of a seeded permutation."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if n_eval < 0:
        raise ValueError(f"need n_eval >= 0, got {n_eval}")
    if m + n_eval > table.n:
        raise ValueError(f"table has {table.n} rows, cannot split into {m} + {n_eval}")
    perm = np.random.default_rng(np.random.SeedSequence([_TABLE_TAG, 0, seed])).permutation(table.n)
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
    table: FeatureTable, strength: float, ridge: float = 0.0
) -> tuple[FeatureTable, WhitenTransform]:
    """Map rows by C^(-strength/2) about their mean, C = covariance + ridge.

    strength 0 returns the rows untouched (full identity, mean included);
    strength 1 makes the sample covariance the identity up to the ridge.
    """
    lam = float(strength)
    eps = float(ridge)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"strength must lie in [0, 1], got {strength!r}")
    if eps < 0.0:
        raise ValueError("regularization must be >= 0")
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
    if not np.all(np.isfinite(rows)):
        raise ConfigError(f"{path} contains non-finite values")
    return FeatureTable(rows=rows, names=names, source=path)


def _load_bin(path: str) -> FeatureTable:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ConfigError(f"{path}: bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    if len(blob) < 12:
        raise ConfigError(f"{path}: truncated header")
    n, d = struct.unpack("<II", blob[4:12])
    if n == 0:
        raise ConfigError(f"{path} declares zero rows")
    expected = 12 + 8 * n * d
    if len(blob) != expected:
        raise ConfigError(f"{path}: expected {expected} bytes for {n}x{d}, got {len(blob)}")
    rows = np.frombuffer(blob, dtype="<f8", offset=12).reshape(n, d)
    if not np.all(np.isfinite(rows)):
        raise ConfigError(f"{path} contains non-finite values")
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
    rng = np.random.default_rng(np.random.SeedSequence([97, seed]))
    stds = top_std * decay ** np.arange(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rows = (rng.standard_normal((n, d)) * stds) @ q.T
    return FeatureTable(rows=rows, source="synthetic-anisotropic")
