"""Two-sample metrics, the bandwidth heuristic, n_eff profiles, and rate fits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import ConfigError, NumericalError
from .kernels import SupportSet, _smooth
from .schedule import PathSchedule

__all__ = [
    "Mmd2Result",
    "RateFit",
    "NeffProfile",
    "mmd2_unbiased",
    "median_heuristic",
    "c2st_1nn",
    "neff_profile",
    "fit_power_law",
]


@dataclass(frozen=True)
class Mmd2Result:
    """Unbiased squared MMD; may be negative by construction."""

    value: float
    kernel_bandwidth: float
    n_x: int
    n_y: int


# Rows per side of one kernel tile (a 512 x 512 float64 tile is 2 MiB), shared
# by the MMD^2 sums and the 1-NN distance blocks.
_BLOCK = 512


def _gauss_sum(
    X: np.ndarray, Y: np.ndarray, inv: float, buf: np.ndarray, self_pairs: bool
) -> float:
    """Sum of exp(inv * ||x - y||^2) over pairs, one _BLOCK x _BLOCK tile of `buf` at a time.

    With self_pairs (Y must then be X), only the upper-triangle tiles are
    visited and the sum runs over pairs i != j: a diagonal tile drops its unit
    diagonal, and an off-diagonal tile stands for itself and its transpose.
    Without it, the sum runs over the full len(X) x len(Y) rectangle, even
    when X and Y are the same array.
    """
    total = 0.0
    for lo in range(0, X.shape[0], _BLOCK):
        a = X[lo : lo + _BLOCK]
        for lo2 in range(lo if self_pairs else 0, Y.shape[0], _BLOCK):
            b = Y[lo2 : lo2 + _BLOCK]
            tile = buf[: a.shape[0] * b.shape[0]].reshape(a.shape[0], b.shape[0])
            cdist(a, b, "sqeuclidean", out=tile)
            np.multiply(tile, inv, out=tile)
            np.exp(tile, out=tile)
            s = float(tile.sum())
            if not self_pairs:
                total += s
            elif lo2 == lo:
                total += s - a.shape[0]
            else:
                total += 2.0 * s
    return total


def mmd2_unbiased(X: np.ndarray, Y: np.ndarray, bandwidth: float) -> Mmd2Result:
    """Unbiased Gaussian-kernel U-statistic.

    The kernel sums run over tiles of one reused buffer, so memory stays
    O(_BLOCK^2) whatever the sample sizes.  The pair is first put in a
    canonical order, by (rows, bytes), so swapping the arguments sums the
    same tiles in the same order and returns the bitwise-identical value.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    n, np_ = X.shape[0], Y.shape[0]
    if n < 2 or np_ < 2:
        raise ConfigError("unbiased MMD^2 needs at least two points per sample")
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    P, Q = (Y, X) if (np_, Y.tobytes()) < (n, X.tobytes()) else (X, Y)
    inv = -0.5 / (bandwidth * bandwidth)
    buf = np.empty(_BLOCK * _BLOCK)
    a = _gauss_sum(P, P, inv, buf, True) / (len(P) * (len(P) - 1))
    b = _gauss_sum(Q, Q, inv, buf, True) / (len(Q) * (len(Q) - 1))
    value = a + b - 2.0 * _gauss_sum(P, Q, inv, buf, False) / (n * np_)
    return Mmd2Result(value=value, kernel_bandwidth=float(bandwidth), n_x=n, n_y=np_)


def median_heuristic(X: np.ndarray, Y: np.ndarray, cap: int = 2000) -> float:
    """Median pairwise distance of the pooled sample divided by sqrt(2).

    Pools above `cap` points are thinned on a deterministic stride so the
    O(n^2) distance pass stays bounded.
    """
    pooled = np.vstack([np.atleast_2d(X), np.atleast_2d(Y)])
    if pooled.shape[0] < 2:
        raise ConfigError("median heuristic needs at least two pooled points")
    if pooled.shape[0] > cap:
        idx = np.unique(np.linspace(0, pooled.shape[0] - 1, cap).round().astype(int))
        pooled = pooled[idx]
    med = float(np.median(pdist(pooled)))
    if med == 0.0:
        raise ConfigError("all pooled points identical; no pairwise scale")
    return med / np.sqrt(2.0)


def c2st_1nn(X: np.ndarray, Y: np.ndarray) -> float:
    """Leave-one-out 1-nearest-neighbor accuracy on the pooled labeled sample.

    Distance ties (exact duplicates) are scored fractionally by the label
    balance of the tied set, so identical samples come out near 0.5 instead
    of flapping on index order.  Near 0.5 under the null, 1.0 when separable.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    n = X.shape[0]
    if Y.shape[0] != n:
        raise ConfigError("the two samples must have equal size")
    if n < 10:
        raise ConfigError("need at least 10 points per sample")
    pooled = np.vstack([X, Y])
    labels = np.repeat([0, 1], n)
    total = 0.0
    for lo in range(0, 2 * n, _BLOCK):
        hi = min(lo + _BLOCK, 2 * n)
        dist = cdist(pooled[lo:hi], pooled, "sqeuclidean")
        dist[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        dmin = dist.min(axis=1)
        ties = dist == dmin[:, None]
        same = ties & (labels[None, :] == labels[lo:hi, None])
        total += float(np.sum(same.sum(axis=1) / ties.sum(axis=1)))
    return total / (2 * n)


@dataclass(frozen=True, eq=False)
class NeffProfile:
    """Per-time effective sample size summary over sampled query points."""

    t: np.ndarray
    h: np.ndarray
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray

    def rows(self) -> list[dict]:
        return [
            {
                "t": float(self.t[i]),
                "h_t": float(self.h[i]),
                "median_neff": float(self.median[i]),
                "q25": float(self.q25[i]),
                "q75": float(self.q75[i]),
            }
            for i in range(len(self.t))
        ]


# Flow times 0.04, 0.08, ..., 1.0, which include the mid-flow time 0.56.
_T_GRID = tuple(round(0.04 * k, 2) for k in range(1, 26))


def neff_profile(
    support: SupportSet,
    sched: PathSchedule,
    t_grid: Sequence[float] = _T_GRID,
    n_queries: int = 256,
    seed: int = 0,
) -> NeffProfile:
    """Median (and quartile) n_eff of the kernel weights along the flow clock.

    Queries follow the model's own path marginal at each time: a support
    row scaled by t plus sigma_t noise.  The weights are those of the
    de-scaled query x/t at bandwidth h(t), where the smoothing happens; the
    same logits are evaluated on the path state x at scale sigma_t.
    """
    t_arr = np.asarray(list(t_grid), dtype=np.float64)
    if np.any(t_arr <= 0.0) or np.any(t_arr > 1.0):
        raise ValueError("t grid must lie in (0, 1]")
    if n_queries < 1:
        raise ValueError(f"need n_queries >= 1, got {n_queries}")
    med = np.empty_like(t_arr)
    q25 = np.empty_like(t_arr)
    q75 = np.empty_like(t_arr)
    hs = np.empty_like(t_arr)
    rng = np.random.default_rng(np.random.SeedSequence([11, seed]))
    for i, t in enumerate(t_arr):
        sig = sched.sigma(t)
        hs[i] = sched.bandwidth(t)
        idx = rng.integers(support.m, size=n_queries)
        x = t * support.points[idx] + sig * rng.standard_normal((n_queries, support.d))
        neff = _smooth(x, support, float(t), sig)[1]
        med[i], q25[i], q75[i] = (
            float(np.median(neff)),
            float(np.percentile(neff, 25)),
            float(np.percentile(neff, 75)),
        )
    return NeffProfile(t=t_arr, h=hs, median=med, q25=q25, q75=q75)


@dataclass(frozen=True)
class RateFit:
    """Power-law fit value ~ m^(-alpha) from OLS on the log-log points."""

    alpha: float
    r_squared: float
    points: tuple[tuple[float, float], ...]
    intercept: float


def fit_power_law(points: Sequence[tuple[float, float]]) -> RateFit:
    """OLS on (log m, log value); alpha is the negated slope.

    A zero-variance response is fit as alpha = 0 with R^2 = 0 by convention.
    """
    pts = [(float(m), float(v)) for m, v in points]
    if len(pts) < 3:
        raise ConfigError(f"need at least 3 points for a rate fit, got {len(pts)}")
    if any(v <= 0.0 for _, v in pts):
        raise NumericalError("power-law fit requires strictly positive values")
    log_m = np.log([m for m, _ in pts])
    log_v = np.log([v for _, v in pts])
    if np.max(log_v) == np.min(log_v):
        return RateFit(alpha=0.0, r_squared=0.0, points=tuple(pts), intercept=float(log_v[0]))
    slope, intercept = np.polyfit(log_m, log_v, 1)
    resid = log_v - (slope * log_m + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((log_v - log_v.mean()) ** 2))
    return RateFit(
        alpha=float(-slope),
        r_squared=1.0 - ss_res / ss_tot,
        points=tuple(pts),
        intercept=float(intercept),
    )
