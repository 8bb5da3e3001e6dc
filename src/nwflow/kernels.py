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
from functools import cached_property
from typing import Optional, Union

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError

__all__ = [
    "SupportSet",
    "IsotropicGaussian",
    "Mahalanobis",
    "BilinearLogit",
    "Vmf",
    "KernelSpec",
    "WeightVector",
    "logits",
    "softmax_weights",
    "nw_weights",
    "local_mean",
    "nw_local_means",
    "kde_descaled_density",
    "kde_descaled_log_density",
    "kde_descaled_score",
    "low_rank_metric",
]

_UNIT_NORM_TOL = 1e-9

# Largest weight block the smoother core materializes (8 MiB of float64).  The
# rows per block follow from the support size alone, so memory is O(block * m)
# whatever the number of queries and the dimension.
_BLOCK_ELEMS = 1 << 20


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

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def sha256(self) -> str:
        return hashlib.sha256(self.points.tobytes()).hexdigest()

    @cached_property
    def _centred(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Support mean c, the centred rows s - c, and their squared norms."""
        c = self.points.mean(axis=0)
        centred = _readonly(self.points - c)
        return _readonly(c), centred, _readonly(np.einsum("ij,ij->i", centred, centred))


@dataclass(frozen=True)
class IsotropicGaussian:
    """Gaussian kernel at bandwidth h: logit -||x - s||^2 / (2 h^2)."""

    h: float

    def __post_init__(self) -> None:
        if not float(self.h) > 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.h!r}")
        object.__setattr__(self, "h", float(self.h))


@dataclass(frozen=True, eq=False)
class Mahalanobis:
    """Gaussian kernel under the metric ||z||_M^2 = z' M z, M symmetric positive-definite."""

    h: float
    metric: np.ndarray

    def __post_init__(self) -> None:
        if not float(self.h) > 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.h!r}")
        m = np.asarray(self.metric, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"metric must be square, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
            raise ValueError("metric must be symmetric")
        try:
            np.linalg.cholesky(m)  # SPD check by factorization attempt
        except np.linalg.LinAlgError as exc:
            raise ValueError("metric must be positive-definite") from exc
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "metric", _readonly(m))


@dataclass(frozen=True, eq=False)
class BilinearLogit:
    """Attention-style logit x . (A s) / scale; A need not be symmetric."""

    matrix: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError(f"logit matrix must be square, got shape {a.shape}")
        if not float(self.scale) > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale!r}")
        object.__setattr__(self, "matrix", _readonly(a))
        object.__setattr__(self, "scale", float(self.scale))


@dataclass(frozen=True)
class Vmf:
    """von Mises-Fisher zonal kernel: logit kappa * cos(theta) for unit-norm inputs."""

    kappa: float

    def __post_init__(self) -> None:
        if not float(self.kappa) > 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")
        object.__setattr__(self, "kappa", float(self.kappa))


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

    If every logit in a row is -inf the shifted exponentials are NaN; ties
    are then broken uniformly over the argmax set of the raw logits, so
    extreme bandwidths degrade to uniform weights instead of poisoning the
    output with NaN.
    """
    raw = np.asarray(raw, dtype=np.float64)
    top = np.max(raw, axis=-1, keepdims=True)
    finite_top = np.isfinite(top)
    if np.all(finite_top):
        out = raw - top
        np.exp(out, out=out)
        out /= np.sum(out, axis=-1, keepdims=True)
        return out
    shifted = np.where(finite_top, raw - np.where(finite_top, top, 0.0), 0.0)
    expd = np.exp(shifted)
    if not np.all(finite_top):
        at_max = raw == top
        expd = np.where(finite_top, expd, at_max.astype(np.float64))
    return expd / np.sum(expd, axis=-1, keepdims=True)


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


def nw_local_means(queries: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    """Batched isotropic local means at bandwidth h over a (possibly huge) support.

    Used by the variance-scaling experiment where the reference support runs
    to tens of thousands of rows; memory stays O(block * m).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    return _smooth(queries, SupportSet(points), 1.0, h)[0]


def _smooth(
    x: np.ndarray,
    support: SupportSet,
    t: float,
    sigma: float,
    values: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Local means and n_eff of the weights softmax(-||x - t s||^2 / (2 sigma^2)).

    `x` is an (n, d) batch; the means average the support rows, or `values`
    (m, p) when given.  The logits are one GEMM about the support mean c:

        (t / sigma^2) (x - t c) . (s - c) - (t^2 / (2 sigma^2)) ||s - c||^2,

    which drops the row constant -||x - t c||^2 / (2 sigma^2) that the softmax
    cancels.  Centring keeps the rounding error at the scale of the support's
    spread rather than its offset from the origin.  At t = 0 every logit is
    exactly 0, so the weights are exactly uniform.  Query rows are processed in
    blocks of at most _BLOCK_ELEMS weights.
    """
    c, centred, sq_norms = support._centred
    vals = support.points if values is None else values
    scale = t / (sigma * sigma)
    q = (x - t * c) * scale
    bias = (0.5 * t * scale) * sq_norms
    n = x.shape[0]
    means = np.empty((n, vals.shape[1]))
    neff = np.empty(n)
    rows = max(1, _BLOCK_ELEMS // support.m)
    for lo in range(0, n, rows):
        lg = q[lo : lo + rows] @ centred.T
        lg -= bias
        w = softmax_weights(lg)
        means[lo : lo + rows] = w @ vals
        neff[lo : lo + rows] = 1.0 / np.einsum("ij,ij->i", w, w)
    return means, neff


def _sq_dists(x_tilde: np.ndarray, support: SupportSet) -> np.ndarray:
    diff = support.points - _check_query(x_tilde, support.d)
    return np.einsum("ij,ij->i", diff, diff)


def kde_descaled_density(x_tilde: np.ndarray, support: SupportSet, h: float) -> float:
    """Gaussian mixture density (1/m) sum_i phi_h(x_tilde - s_i).

    This is an absolute density, so unlike the weights it carries the
    (2 pi h^2)^(-d/2) normalization.  Underflows to 0 in high dimension;
    diagnostics there should use the log form.
    """
    if not h > 0.0:
        raise ValueError(f"bandwidth must be positive, got {h!r}")
    sq = _sq_dists(x_tilde, support)
    norm = (2.0 * np.pi * h * h) ** (-support.d / 2.0)
    return float(norm * np.mean(np.exp(-sq / (2.0 * h * h))))


def kde_descaled_log_density(x_tilde: np.ndarray, support: SupportSet, h: float) -> float:
    """log of kde_descaled_density via log-sum-exp; safe for d >= 16."""
    if not h > 0.0:
        raise ValueError(f"bandwidth must be positive, got {h!r}")
    sq = _sq_dists(x_tilde, support)
    lse = float(logsumexp(-sq / (2.0 * h * h)))
    return lse - np.log(support.m) - 0.5 * support.d * np.log(2.0 * np.pi * h * h)


def kde_descaled_score(x_tilde: np.ndarray, support: SupportSet, h: float) -> np.ndarray:
    """Gradient of the log KDE: (local_mean(x_tilde) - x_tilde) / h^2."""
    if not h > 0.0:
        raise ValueError(f"bandwidth must be positive, got {h!r}")
    x_tilde = _check_query(x_tilde, support.d)
    m = local_mean(x_tilde, support, IsotropicGaussian(h))
    return (m - x_tilde) / (h * h)


def low_rank_metric(projection: np.ndarray, ridge: float = 1e-8) -> np.ndarray:
    """SPD metric L'L + ridge*I realizing an r-dimensional projection kernel."""
    proj = np.asarray(projection, dtype=np.float64)
    if proj.ndim != 2:
        raise ConfigError(f"projection must be r x d, got shape {proj.shape}")
    if not ridge > 0.0:
        raise ValueError("ridge must be positive to keep the metric definite")
    d = proj.shape[1]
    return proj.T @ proj + ridge * np.eye(d)
