"""Two-sample metrics, the bandwidth heuristic, n_eff profiles, and rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericalError, _count, _scale
from .kernels import _BLOCK_ELEMS as _TILE, _EXP_FLOOR, SupportSet, _smooth
from .schedule import PathSchedule

__all__ = ["mmd2_unbiased", "median_heuristic", "c2st_1nn", "neff_profile",
           "fit_power_law"]

# _TILE is the smoother's 2 MiB weight block: one MMD^2 kernel tile of 512 x 512 float64, _BLOCK rows
# per side, and the budget of a 1-NN distance block and of a median-heuristic slab with its two
# histograms.
_BLOCK = math.isqrt(_TILE)
# Rows per slab of the exact distance pass, which stays in cache against a few thousand points.
_SLAB = 8
# Pooled points above which median_heuristic thins the pool.
_HEURISTIC_CAP = 2000
# Radix-selection buckets per pass, and +inf's float64 bit pattern.
_BUCKETS, _INF_BITS = 1 << 16, 0x7FF0_0000_0000_0000


def _gauss_sum(q: np.ndarray, k: np.ndarray, buf: np.ndarray, self_pairs: bool, floor: bool) -> float:
    """Sum of exp(q_i . k_j) over pairs, one _BLOCK x _BLOCK tile of `buf` at a time.

    With self_pairs (q and k must then lift the same sample), only the
    upper-triangle tiles are visited and the sum runs over pairs i != j: a
    diagonal tile drops its diagonal, and an off-diagonal tile stands for
    itself and its transpose.  Without it, the sum runs over the full
    len(q) x len(k) rectangle, even when both lift the same sample.  With floor, a tile holding
    exponents below _EXP_FLOOR is raised to it (off numpy's slow exp path), and those pairs add 0.
    """
    total = 0.0
    for lo in range(0, q.shape[0], _BLOCK):
        a = q[lo : lo + _BLOCK]
        for lo2 in range(lo if self_pairs else 0, k.shape[0], _BLOCK):
            b = k[lo2 : lo2 + _BLOCK]
            tile = np.matmul(a, b.T, out=buf[: a.shape[0] * b.shape[0]].reshape(a.shape[0], b.shape[0]))
            kept = tile >= _EXP_FLOOR if floor and tile.min() < _EXP_FLOOR else None
            if kept is not None:
                np.maximum(tile, _EXP_FLOOR, out=tile)
            if self_pairs and lo2 == lo:
                np.fill_diagonal(tile, -np.inf)
            np.exp(tile, out=tile)
            if kept is not None:
                tile *= kept
            total += (2.0 if self_pairs and lo2 != lo else 1.0) * float(tile.sum())
    return total


def _sqdist(a: np.ndarray, bt: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared distances of the rows of `a` to the columns of `bt` (d, N), into `out`.

    Each sums (a_k - b_k)^2 over the coordinates in order, as cdist and pdist
    do, so near-ties round as theirs do; the rows go in slabs of _SLAB.
    """
    tmp = np.empty((_SLAB, bt.shape[1]))
    for lo in range(0, a.shape[0], _SLAB):
        rows, o, t = a[lo : lo + _SLAB], out[lo : lo + _SLAB], tmp[: a.shape[0] - lo]
        np.square(np.subtract(rows[:, :1], bt[0], out=o), out=o)
        for j in range(1, bt.shape[0]):
            o += np.square(np.subtract(rows[:, j : j + 1], bt[j], out=t), out=t)
    return out


def _samples(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two samples as float64 row matrices of one width (a 1-D sample is one row), else ConfigError."""
    X, Y = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (X, Y))
    if X.ndim != 2 or X.shape[1:] != Y.shape[1:]:
        raise ConfigError(f"samples of shapes {X.shape} and {Y.shape} are not rows of one width")
    return X, Y


def mmd2_unbiased(X: np.ndarray, Y: np.ndarray, bandwidth: float) -> float:
    """Unbiased Gaussian-kernel U-statistic of the squared MMD; may be negative.

    Rows centred on the pooled mean c lift to queries [-2 inv (x - c),
    inv ||x - c||^2, inv] and keys [x - c, 1, ||x - c||^2], whose dot product
    is inv ||x - y||^2: each kernel tile is one GEMM into one reused buffer, so
    memory stays O(_BLOCK^2) whatever the sample sizes.  The pair is first put
    in a canonical order, by (rows, bytes), so swapping the arguments sums the
    same tiles in the same order and returns the bitwise-identical value.  Where ||x - y|| <=
    2 max ||x - c|| lets an exponent fall below _EXP_FLOOR, pairs below it add 0 (each < 1e-304).
    """
    X, Y = _samples(X, Y)
    n, np_ = X.shape[0], Y.shape[0]
    if n < 2 or np_ < 2:
        raise ConfigError("unbiased MMD^2 needs at least two points per sample")
    bw = _scale(bandwidth, "bandwidth")
    sq = bw * bw  # Python floats: overflow gives inf, not a warning (a power would raise OverflowError)
    inv = -0.5 / sq if sq > 0.0 else -np.inf
    if not np.isfinite(inv):
        raise NumericalError(f"kernel scale 1 / (2 bandwidth^2) overflows at bandwidth={bandwidth}")
    P, Q = (Y, X) if (np_, Y.tobytes()) < (n, X.tobytes()) else (X, Y)
    z = np.vstack([P, Q])
    z -= z.mean(axis=0)
    r2, one, p = np.einsum("ij,ij->i", z, z), np.ones(n + np_), len(P)
    q, k = np.column_stack([(-2.0 * inv) * z, inv * r2, inv * one]), np.column_stack([z, one, r2])
    buf, floor = np.empty(_TILE), 4.0 * inv * float(r2.max()) < _EXP_FLOOR
    a = _gauss_sum(q[:p], k[:p], buf, True, floor) / (p * (p - 1))
    b = _gauss_sum(q[p:], k[p:], buf, True, floor) / (len(Q) * (len(Q) - 1))
    return a + b - 2.0 * _gauss_sum(q[:p], k[p:], buf, False, floor) / (n * np_)


def _pair_slabs(pt: np.ndarray, buf: np.ndarray):
    """The squared distances of the pairs i < j of pt's columns as uint64 patterns, in row slabs that
    fill at most `buf`, each with the count of its rectangle's pairs j <= i, which read 0."""
    n, lo = pt.shape[1], 0
    while lo < n - 1:
        w = n - 1 - lo
        rows = min(w, max(1, buf.size // w))
        dist = _sqdist(pt[:, lo : lo + rows].T, pt[:, lo + 1 :], buf[: rows * w].reshape(rows, w))
        dist[:, :rows][np.tri(rows, k=-1, dtype=bool)] = 0.0
        yield dist.view(np.uint64).ravel(), rows * (rows - 1) // 2
        lo += rows


def _middle_sqdists(pt: np.ndarray, ranks: Optional[tuple[int, int]] = None) -> np.ndarray:
    """The squared distances at the middle ranks (or `ranks`) of the pairs of pt's columns, or NaNs.

    Radix selection on the float64 bit patterns, which order as non-negative doubles do, a NaN's
    above +inf's.  Each pass recomputes the slabs, whose padding zeros sort first, and counts in
    2^16 buckets the patterns in [lo, lo + 2^shift) that hold the ranks, until that range is one
    pattern or holds at most 2^16 pairs, which are gathered and partitioned.  Ranks that part into
    two buckets are selected one at a time.  Memory: a slab of _TILE / 2 values and two counts.
    """
    count = pt.shape[1] * (pt.shape[1] - 1) // 2
    ranks = ranks or ((count - 1) // 2, count // 2)
    (r0, r1), lo, shift, buf = ranks, 0, 63, np.empty(_TILE // 2)  # [0, 2^63): the patterns >= 0
    while shift:
        sub, gather, pad, nan = max(shift - 16, 0), count <= _BUCKETS, 0, False
        hist, parts = np.zeros(_BUCKETS + 1, np.int64), []
        for bits, zeros in _pair_slabs(pt, buf):
            nan, pad = nan or shift == 63 and bits.max() > _INF_BITS, pad + zeros
            np.subtract(bits, np.uint64(lo), out=bits)  # patterns below lo wrap past 2^63
            if gather:
                parts.append(bits[bits <= np.uint64((1 << shift) - 1)])
            else:  # bucket (pattern - lo) >> sub; patterns outside the range count after those in it
                np.minimum(np.right_shift(bits, np.uint64(sub), out=bits), _BUCKETS, out=bits)
                hist += np.bincount(bits.view(np.int64), minlength=_BUCKETS + 1)
        if nan:
            return np.full(2, np.nan)
        r0, r1 = (r0 + pad, r1 + pad) if shift == 63 else (r0, r1)
        if gather:
            (cand := np.concatenate(parts)).partition([r0, r1])
            return (lo + cand[[r0, r1]]).view(np.float64)
        cum = np.cumsum(hist[:_BUCKETS])
        b0, b1 = (int(b) for b in np.searchsorted(cum, [r0, r1], side="right"))
        if b1 != b0:
            return np.array([_middle_sqdists(pt, (r, r))[0] for r in ranks])
        skip = int(cum[b0] - hist[b0])
        r0, r1, lo, shift, count = r0 - skip, r1 - skip, lo + (b0 << sub), sub, int(hist[b0])
    return np.full(2, lo, dtype=np.uint64).view(np.float64)


def median_heuristic(X: np.ndarray, Y: np.ndarray) -> float:
    """Median pairwise distance of the pooled sample divided by sqrt(2).

    Pools above _HEURISTIC_CAP points are thinned on a deterministic stride so
    the O(n^2) distance passes stay bounded.  The middle squared distances are
    selected exactly, unstored, and take np.median's mean after the sqrt
    (monotone, correctly rounded), so the result has its bits.
    """
    pooled = np.vstack(_samples(X, Y))
    if pooled.shape[0] < 2:
        raise ConfigError("median heuristic needs at least two pooled points")
    if pooled.shape[0] > _HEURISTIC_CAP:
        idx = np.unique(np.linspace(0, pooled.shape[0] - 1, _HEURISTIC_CAP).round().astype(int))
        pooled = pooled[idx]
    pt = np.ascontiguousarray(pooled.T)
    del pooled  # the distances read only the transpose
    med = float(np.mean(np.sqrt(_middle_sqdists(pt))))  # NaN on a NaN distance, as np.median
    if med == 0.0:
        raise ConfigError("all pooled points identical; no pairwise scale")
    return med / np.sqrt(2.0)


def c2st_1nn(X: np.ndarray, Y: np.ndarray) -> float:
    """Leave-one-out 1-nearest-neighbor accuracy on the pooled labeled sample.

    Distance ties (exact duplicates) are scored fractionally by the label
    balance of the tied set, so identical samples come out near 0.5 instead
    of flapping on index order.  Near 0.5 under the null, 1.0 when separable.
    Rows go in blocks of _TILE distances and score on the minima of their X and Y
    halves; wins add as an integer and tie scores by fsum, whatever the block size.
    """
    X, Y = _samples(X, Y)
    n = X.shape[0]
    if Y.shape[0] != n:
        raise ConfigError("the two samples must have equal size")
    if n < 10:
        raise ConfigError("need at least 10 points per sample")
    pooled = np.vstack([X, Y])
    pt, step = np.ascontiguousarray(pooled.T), max(1, _TILE // (2 * n))
    buf = np.empty((min(step, 2 * n), 2 * n))  # reused: fresh pages would fault on every block
    wins, scores = 0, []
    for lo in range(0, 2 * n, step):
        rows = np.arange(lo, min(lo + step, 2 * n))
        dist = _sqdist(pooled[lo : lo + step], pt, buf[: len(rows)])
        dist[np.arange(len(rows)), rows] = np.inf
        mx, my = dist[:, :n].min(axis=1), dist[:, n:].min(axis=1)
        own, other = np.where(rows < n, mx, my), np.where(rows < n, my, mx)
        wins += int(np.count_nonzero(own < other))
        tied = ~((own < other) | (own > other))  # equal minima, or a NaN (no ties: scores NaN)
        ties = dist[tied] == np.minimum(mx, my)[tied, None]
        cx, cy = np.count_nonzero(ties[:, :n], axis=1), np.count_nonzero(ties[:, n:], axis=1)
        scores += (np.where(rows[tied] < n, cx, cy) / (cx + cy)).tolist()
    return math.fsum([wins, *scores]) / (2 * n)


@dataclass(frozen=True, eq=False)
class NeffProfile:
    """Per-time effective sample size summary over sampled query points."""

    t: np.ndarray
    h: np.ndarray
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray


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
    if not np.all((t_arr > 0.0) & (t_arr <= 1.0)):  # also rejects NaN
        raise ConfigError("t grid must lie in (0, 1]")
    n_queries = _count(n_queries, "n_queries")
    med, q25, q75, hs = (np.empty_like(t_arr) for _ in range(4))
    rng = np.random.default_rng(np.random.SeedSequence([11, seed]))
    for i, t in enumerate(t_arr):
        sig = sched.sigma(t)
        hs[i] = sched.bandwidth(t)
        idx = rng.integers(support.m, size=n_queries)
        x = t * support.points[idx] + sig * rng.standard_normal((n_queries, support.d))
        neff = _smooth(x, support, float(t), sig, neff=True)[1]
        med[i], q25[i], q75[i] = np.median(neff), np.percentile(neff, 25), np.percentile(neff, 75)
    return NeffProfile(t=t_arr, h=hs, median=med, q25=q25, q75=q75)


@dataclass(frozen=True)
class RateFit:
    """Power-law fit value ~ m^(-alpha) from OLS on the log-log points."""

    alpha: float
    r_squared: float


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
        return RateFit(alpha=0.0, r_squared=0.0)
    slope, intercept = np.polyfit(log_m, log_v, 1)
    resid = log_v - (slope * log_m + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((log_v - log_v.mean()) ** 2))
    return RateFit(alpha=float(-slope), r_squared=1.0 - ss_res / ss_tot)
