"""Nadaraya-Watson weights, local means, and the de-scaled Gaussian KDE.

Weights are softmax-normalized kernel logits over a support set; the kernel
family covers the isotropic Gaussian, a Mahalanobis variant under an SPD
metric, the bilinear attention logit, and the von Mises-Fisher zonal kernel
for unit-norm inputs.  Normalization constants never enter the weights (they
cancel in the softmax); they do enter the absolute KDE density.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, NumericalError, _scale

__all__ = [
    "SupportSet",
    "IsotropicGaussian",
    "Mahalanobis",
    "BilinearLogit",
    "Vmf",
    "logits",
    "nw_weights",
    "local_mean",
    "kde_descaled_log_density",
    "kde_descaled_score",
]

_UNIT_NORM_TOL = 1e-9

# Weight block the smoother core materializes: 2^18 float64 (2 MiB), an L2's worth, in rows
# set by the support size alone, so memory is O(block) for any number of queries and dimension.
_BLOCK_ELEMS = 1 << 18
# Block rows are whole panels of this many: a block edge then cuts a 256-row chunk where a GEMM
# panel ends, so rows round as in a call on the chunk alone; and at m > 2^14 one panel still
# spans enough queries that the logit GEMM does not re-pack the keys every few rows.
_ROWS = 16
# Below this support size blocks are column-major: a few long columns, swept by the row max and shift.
_COLUMN_MAJOR_M = 1024

# Weights per column tile of every multi-tile call: 0.8 MB of float64, inside a 2 MB L2.
_TILE_ELEMS = 100_000

# Least width of a tile's logit span.  8-aligned spans this wide gave every logit the bytes of the
# full-width GEMM for d from 1 to 33 and m from 16,391 to 100,001; narrower or unaligned ones did not.
_SPAN = 256

# Floor for the smoother's max-shifted logits.  numpy's SIMD exp leaves its
# fast path between -708 and -700, where its result stops being a normal
# float, and near nearest-neighbour collapse (late flow time, small sigma_min)
# most logits lie below -708.  On a 2 vCPU AVX-512 Xeon with numpy 2.4, exp of
# 12,800 values takes 14-15 us at -700 or above, 200-290 us at -708 or -750
# and 2 ms at -710.  The partition z >= 1, so weights below exp(-700) ~ 9.9e-305
# leave z and n_eff unchanged; a mean moves by less than m exp(-700) max|s|,
# which shows only where its exact value is that close to 0.
_EXP_FLOOR = -700.0


def _readonly(a: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 copy of `a` that cannot be written to.

    Always a copy, so freezing never reaches the caller's array.
    """
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SupportSet:
    """m conditioning points in R^d, stored row-major and immutable."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ConfigError(f"support must be a nonempty m x d matrix, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("support points must be finite")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.m

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def sha256(self) -> str:
        return hashlib.sha256(self.points.tobytes()).hexdigest()

    @cached_property
    def _kv(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """The mean c, the smoother's keys [s - c, ||s - c||^2] and values [s, 1], m x (d+1),
        and the radius R = max ||s - c||."""
        c = self.points.mean(axis=0)
        centred = self.points - c
        keys = np.column_stack([centred, np.einsum("ij,ij->i", centred, centred)])
        # The three arrays are fresh and held nowhere else, so they are frozen in place, not
        # copied; centred goes before the values are built, so the two are never live at once.
        del centred
        values = np.column_stack([self.points, np.ones(self.m)])
        for a in (c, keys, values):
            a.setflags(write=False)
        return c, keys, values, float(np.sqrt(keys[:, -1].max()))


@dataclass(frozen=True)
class IsotropicGaussian:
    """Gaussian kernel at bandwidth h: logit -||x - s||^2 / (2 h^2)."""

    h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", _scale(self.h, "bandwidth"))


def _spd_metric(metric: np.ndarray, d: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """Read-only `metric` and its Cholesky factor, or ConfigError.

    The metric must be square (d x d when d is given), symmetric to 1e-12
    relative and positive-definite; the factorization reads only the lower triangle.
    """
    m = np.asarray(metric, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"metric must be square, got shape {m.shape}")
    if d is not None and m.shape[0] != d:
        raise ConfigError(f"metric shape {m.shape} does not match dimension {d}")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
        raise ConfigError("metric must be symmetric")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ConfigError("metric must be positive-definite") from exc
    return _readonly(m), _readonly(chol)


@dataclass(frozen=True, eq=False)
class Mahalanobis:
    """Gaussian kernel under the metric ||z||_M^2 = z' M z, M symmetric positive-definite."""

    h: float
    metric: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", _scale(self.h, "bandwidth"))
        object.__setattr__(self, "metric", _spd_metric(self.metric)[0])


@dataclass(frozen=True, eq=False)
class BilinearLogit:
    """Attention-style logit x . (A s) / scale; A need not be symmetric."""

    matrix: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError(f"logit matrix must be square, got shape {a.shape}")
        object.__setattr__(self, "matrix", _readonly(a))
        object.__setattr__(self, "scale", _scale(self.scale, "scale"))


@dataclass(frozen=True)
class Vmf:
    """von Mises-Fisher zonal kernel: logit kappa * cos(theta) for unit-norm inputs."""

    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _scale(self.kappa, "kappa"))


KernelSpec = Union[IsotropicGaussian, Mahalanobis, BilinearLogit, Vmf]


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Simplex weights over the support plus their effective sample size 1/sum(w^2)."""

    w: np.ndarray
    neff: float


def _check_query(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 and d == 1:
        x = x[None]
    if x.shape != (d,):
        raise ConfigError(f"query has shape {x.shape}, support dimension is {d}")
    return x


def logits(x: np.ndarray, support: SupportSet, kernel: KernelSpec) -> np.ndarray:
    """Unnormalized kernel logits of a query against every support row."""
    x = _check_query(x, support.d)
    pts = support.points
    if isinstance(kernel, IsotropicGaussian):
        diff = pts - x
        return -np.einsum("ij,ij->i", diff, diff) / (2.0 * kernel.h * kernel.h)
    if isinstance(kernel, Mahalanobis):
        if kernel.metric.shape[0] != support.d:
            raise ConfigError("metric dimension does not match support dimension")
        diff = pts - x
        quad = np.einsum("ij,jk,ik->i", diff, kernel.metric, diff)
        return -quad / (2.0 * kernel.h * kernel.h)
    if isinstance(kernel, BilinearLogit):
        if kernel.matrix.shape[0] != support.d:
            raise ConfigError("logit matrix dimension does not match support dimension")
        return pts @ (x @ kernel.matrix) / kernel.scale
    if isinstance(kernel, Vmf):
        if abs(float(np.linalg.norm(x)) - 1.0) > _UNIT_NORM_TOL:
            raise ConfigError("vMF kernel requires a unit-norm query")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
            raise ConfigError("vMF kernel requires unit-norm support rows")
        return kernel.kappa * (pts @ x)
    raise TypeError(f"unknown kernel spec {kernel!r}")


def softmax_weights(raw: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis.

    A row whose maximum is not finite (every logit -inf, or a +inf or NaN
    logit) raises NumericalError, as the smoother core does.
    """
    raw = np.asarray(raw, dtype=np.float64)
    top = np.max(raw, axis=-1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise NumericalError("softmax logits have a row whose maximum is not finite")
    out = raw - top
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return out


def nw_weights(x: np.ndarray, support: SupportSet, kernel: KernelSpec) -> WeightVector:
    """Softmax-normalized kernel weights and their effective sample size."""
    w = softmax_weights(logits(x, support, kernel))
    return WeightVector(w=w, neff=float(1.0 / np.sum(w * w)))


def local_mean(
    x: np.ndarray,
    support: SupportSet,
    kernel: KernelSpec,
    values: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Kernel-weighted average of the support rows (or of attached values).

    With `values` of shape (m, p) this is the generalized estimator: the same
    weights applied to arbitrary per-row responses.
    """
    w = nw_weights(x, support, kernel).w
    if values is None:
        return w @ support.points
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != support.m:
        raise ConfigError(f"values rows {values.shape[0]} != support size {support.m}")
    return w @ values


def nw_local_means(queries: np.ndarray, points: np.ndarray | SupportSet, h: float | Sequence[float]) -> np.ndarray:
    """Isotropic local means over a (possibly huge) support: (n, d) at a float h, (k, n, d) at k bandwidths.

    Used by the variance-scaling experiment, whose reference support runs to tens of thousands
    of rows.  `points` is an (m, d) array or a SupportSet, which keeps its keys and values between
    calls.  Memory is the support's arrays, O(m (d + 1)), plus O(tile) at any number of bandwidths;
    above m = 2^14 a k-bandwidth call (one logit GEMM shared) gives its least h the float call's bytes.
    A negative or NaN bandwidth, an empty sequence, or queries of another width is a ConfigError.
    """
    hs = np.asarray(h, dtype=np.float64)
    if hs.ndim > 1 or hs.size == 0 or not np.all(hs >= 0.0):
        raise ConfigError(f"bandwidth must be non-negative (a float or a nonempty 1-D sequence), got {h!r}")
    support = points if isinstance(points, SupportSet) else SupportSet(points)
    x = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != support.d:
        raise ConfigError(f"queries of shape {x.shape} do not match a support of shape {support.points.shape}")
    return _smooth(x, support, 1.0, hs)


def _smooth(
    x: np.ndarray,
    support: SupportSet,
    t: Union[float, np.ndarray],
    sigma: Union[float, Sequence[float], np.ndarray],
    values: Optional[np.ndarray] = None,
    *,
    neff: bool = False,
) -> Union[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Local means under the weights softmax(-||x - t s||^2 / (2 sigma^2)); with `neff`, (means, n_eff).

    `x` is (n, d); `t` and `sigma` are floats or (n, 1) columns, or `sigma` is a 1-D sequence of k
    bandwidths at a float t and the results get a leading k axis.  The means average the support
    rows, or the first p columns of `values` (m, p+1, last column ones).  The logits, less the row
    constant the softmax cancels, are one GEMM of [(x - t c) t / s0^2, -t^2 / (2 s0^2)] against
    the keys about the support mean c, at the least sigma s0, so rounding stays at the scale of the
    support's spread.  Normalised late: per bandwidth, exp of the max-shifted logits times
    s0^2 / sigma^2 (the row max stays 0, so z >= 1), clamped at _EXP_FLOOR where `_may_underflow`
    says so, then one GEMM against the values gives the sums and z; means = sums / z and
    n_eff = z^2 / sum(e^2).  Blocks of whole _ROWS-row panels, about _BLOCK_ELEMS weights, share
    one buffer per call (calls may run on several threads).  One rule tiles a block: a single
    bandwidth whose _ROWS-row block fits _BLOCK_ELEMS (m <= 2^14) is one tile, the whole block, used
    in place.  Every other call walks column tiles of _TILE_ELEMS // rows columns and takes each
    tile's logits from a GEMM over its aligned span, once for the row max and again to shift
    (two-pass safe softmax, Milakov and Gimelshein, arXiv:1805.02867); k bandwidths each copy the
    shifted tile into one reused tile, kept in cache.  Memory beyond the support's arrays,
    O(m (d + 1)), is then O(tile) at any m and any number of bandwidths, and at one BLAS thread a
    span's logits have the bytes of the full-width GEMM.
    A bandwidth so small that t / sigma^2 or a block's row max is not finite raises NumericalError.
    """
    c, keys, own_values, radius = support._kv
    vals = own_values if values is None else values
    with np.errstate(all="ignore"):  # overflow gives inf, not a warning
        t, sq = np.asarray(t, dtype=np.float64), np.square(sigma, dtype=np.float64)
        sq0 = np.min(sq) if sq.ndim == 1 else sq  # of k bandwidths, the least gives the largest scale
        scale = t / sq0
    if not np.all(np.isfinite(scale)):
        raise NumericalError(f"kernel scale t / sigma^2 overflows at t={np.max(t):g}, sigma={np.min(sigma):g}")
    n, m, p = x.shape[0], support.m, vals.shape[1] - 1
    ratios = list(np.where(sq == sq0, 1.0, sq0 / sq)) if sq.size > 1 and sq.ndim == 1 else [None]
    xc = x - t * c
    clamp = _may_underflow(xc, t, sq, radius)
    q = np.concatenate([xc * scale, np.full((n, 1), -0.5) * t * scale], axis=1)
    means, n_eff = np.empty((len(ratios), n, p)), np.empty((len(ratios), n))
    rows = max(1, min(n, max(_ROWS, _BLOCK_ELEMS // m // _ROWS * _ROWS)))
    # Tile [c0, c0 + width) takes its logits from its span [s0, s1): 8-aligned (or s1 = m), >= _SPAN wide.
    width = m if ratios[0] is None and m * _ROWS <= _BLOCK_ELEMS else max(1, min(m, _TILE_ELEMS // rows))
    ends = [(c0, min(m, -(-(c0 + width) // 8) * 8)) for c0 in range(0, m, width)]
    spans = [(max(0, min(c0, s1 - _SPAN)) // 8 * 8, s1) for c0, s1 in ends]
    buf = np.empty((rows, max(s1 - s0 for s0, s1 in spans)), order="F" if m < _COLUMN_MAJOR_M else "C")
    work = None if ratios[0] is None else np.empty_like(buf[:, :width])  # the tile, in buf's order
    block = lambda xq, s0, s1: np.matmul(xq, keys[s0:s1].T, out=buf[: len(xq), : s1 - s0])  # noqa: E731
    for lo in range(0, n, rows):
        xq = q[lo : lo + rows]
        # Pass 1 takes the row max over exactly the spans pass 2 shifts, the first one last: buf keeps it.
        rest = [np.max(block(xq, *span), axis=1, keepdims=True) for span in spans[:0:-1]]
        g = block(xq, *spans[0])
        top = reduce(np.maximum, rest, np.max(g, axis=1, keepdims=True))
        if not np.all(np.isfinite(top)):
            raise NumericalError(f"kernel logits are not finite at t={np.max(t):g}, sigma={np.min(sigma):g}")
        g -= top
        acc = [None] * len(ratios)
        for c0, (s0, s1) in zip(range(0, m, width), spans):
            if c0:  # the tile's span again, shifted; every bandwidth reads it while it is in L2
                g = block(xq, s0, s1)
                g -= top
            for j, ratio in enumerate(ratios):
                e = g[:, c0 - s0 : c0 - s0 + width]
                e = e if ratio is None else np.multiply(e, ratio, out=work[: len(g), : m - c0])
                if clamp:
                    np.maximum(e, _EXP_FLOOR, out=e)
                np.exp(e, out=e)
                part = (e @ vals[c0 : c0 + width], np.einsum("ij,ij->i", e, e) if neff else 0.0)
                acc[j] = part if c0 == 0 else (acc[j][0] + part[0], acc[j][1] + part[1])
        for j, (r, ss) in enumerate(acc):
            means[j, lo : lo + rows] = r[:, :p] / r[:, p:]
            if neff:
                n_eff[j, lo : lo + rows] = r[:, p] ** 2 / ss
    out = (means, n_eff) if sq.ndim == 1 else (means[0], n_eff[0])
    return out if neff else out[0]


def _may_underflow(xc: np.ndarray, t: np.ndarray, sq: np.ndarray, radius: float) -> bool:
    """Whether a max-shifted logit of the rows xc = x - t c can lie below _EXP_FLOOR.

    Every logit -||x - t s_j||^2 / (2 sigma^2) is <= 0, so the shifted logit is
    at least the logit itself, and by the triangle inequality ||x - t s_j|| <= ||x - t c|| + t R
    with R = max_j ||s_j - c||.  `sq` is sigma^2; of columns, the largest t and least sq bound all.
    """
    if xc.shape[0] == 0:
        return False
    reach = float(np.sqrt(np.einsum("ij,ij->i", xc, xc).max())) + float(np.max(t)) * radius
    return reach * reach / (2.0 * float(np.min(sq))) > -_EXP_FLOOR


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D array; a maximum that is not finite raises NumericalError.

    The k ties at the maximum stay out of the shifted sum: log1p(s) + log(k) + max
    with s = sum(exp(others - max)) / k (Blanchard, Higham and Higham, 2021).
    """
    top = np.max(a, keepdims=True)
    if not np.isfinite(top[0]):
        raise NumericalError("log-sum-exp of logits whose maximum is not finite")
    tie = a == top
    k = np.sum(tie, keepdims=True, dtype=np.float64)
    s = np.sum(np.exp(np.where(tie, -np.inf, a) - top), keepdims=True) / k
    return float((np.log1p(s) + np.log(k) + top)[0])


def kde_descaled_log_density(x_tilde: np.ndarray, support: SupportSet, h: float) -> float:
    """log of the de-scaled Gaussian mixture density (1/m) sum_i phi_h(x_tilde - s_i).

    An absolute density, so unlike the weights it carries the
    (2 pi h^2)^(-d/2) normalization; the log-sum-exp keeps it finite where
    the density itself underflows (d >= 16).
    """
    lse = _logsumexp(logits(x_tilde, support, IsotropicGaussian(h)))
    return lse - np.log(support.m) - 0.5 * support.d * np.log(2.0 * np.pi * h * h)


def kde_descaled_score(x_tilde: np.ndarray, support: SupportSet, h: float) -> np.ndarray:
    """Gradient of the log KDE: (local_mean(x_tilde) - x_tilde) / h^2."""
    kernel = IsotropicGaussian(h)
    x_tilde = _check_query(x_tilde, support.d)
    return (local_mean(x_tilde, support, kernel) - x_tilde) / (h * h)

