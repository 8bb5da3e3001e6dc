"""The exact support-induced velocity field and its attention realizations.

The field steers a state toward the kernel-weighted average of the support
set.  In the de-scaled frame it reads

    u(x, t) = x/t + (m_h(x/t) - x/t) / sigma_t,        h = sigma_t / t,

but production evaluation uses an exact rearrangement that never divides by
t: logits -||x - t s_i||^2 / (2 sigma_t^2) followed by

    u = (m - (1 - sigma_min) x) / sigma_t,

where m is the weighted support mean.  At t = 0 the logits are constant
across the support, the weights are uniform, and the same expression reduces
to the analytic limit mean(S) - (1 - sigma_min) x, so integration can start
exactly at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .kernels import (
    IsotropicGaussian,
    SupportSet,
    _readonly,
    _smooth,
    local_mean,
    softmax_weights,
)
from .schedule import PathSchedule

__all__ = [
    "VelocityField",
    "PluginField",
    "MultiHeadParams",
    "velocity_from_score",
    "affine_postmap",
    "attention_realized_velocity",
    "dot_product_lift",
    "multihead_forward",
    "logit_rank",
]

# Evaluation contract shared by every concrete field: (x, t) -> v, where x is
# a single point (d,) or a batch (n, d) and t is a float in [0, 1].
VelocityField = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True, eq=False)
class PluginField:
    """Exact velocity field induced by a support set under the linear path.

    Without a metric the kernel is isotropic and the base noise is N(0, I).
    With an SPD metric M = L L', (x - t s)' M (x - t s) = ||x L - t s L||^2,
    so the field is the isotropic smoother on the Cholesky coordinates x L,
    averaging the original support rows; its base noise is N(0, M^-1).
    `chol` holds L, or None without a metric.
    """

    support: SupportSet
    schedule: PathSchedule
    metric: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        chol = chol_support = None
        if self.metric is not None:
            m = np.asarray(self.metric, dtype=np.float64)
            if m.shape != (self.support.d, self.support.d):
                raise ConfigError(f"metric shape {m.shape} does not match dimension {self.support.d}")
            chol = _readonly(np.linalg.cholesky(m))  # SPD or raise
            chol_support = SupportSet(self.support.points @ chol)
            object.__setattr__(self, "metric", _readonly(m))
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "_chol_support", chol_support)

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise NumericalError("velocity evaluated at a non-finite state")
        xs = np.atleast_2d(x)
        if xs.shape[1] != self.support.d:
            raise ConfigError(f"state dimension {xs.shape[1]} != support dimension {self.support.d}")
        sig = self.schedule.sigma(t)
        if self.chol is None:
            means = _smooth(xs, self.support, t, sig)[0]
        else:
            means = _smooth(xs @ self.chol, self._chol_support, t, sig, self.support.points)[0]
        u = (means - (1.0 - self.schedule.sigma_min) * xs) / sig
        return u[0] if x.ndim == 1 else u


def velocity_from_score(
    x: np.ndarray,
    t: float,
    score_at: Callable[[np.ndarray], np.ndarray],
    sched: PathSchedule,
) -> np.ndarray:
    """Velocity via the score route: x/t + (sigma_t/t) * grad log p_t(x).

    Exact for any score oracle of the time-t marginal; with the analytic KDE
    score it reproduces the plug-in field.  Undefined at t = 0.
    """
    if t == 0.0:
        raise NumericalError("score route divides by t; use the plug-in limit at t=0")
    x = np.asarray(x, dtype=np.float64)
    return x / t + (sched.sigma(t) / t) * np.asarray(score_at(x), dtype=np.float64)


def affine_postmap(x_tilde: np.ndarray, z: np.ndarray, sigma_t: float) -> np.ndarray:
    """Blend x_tilde + (z - x_tilde) / sigma_t applied after the attention readout."""
    if not sigma_t > 0.0:
        raise ValueError(f"sigma_t must be positive, got {sigma_t!r}")
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    return x_tilde + (z - x_tilde) / sigma_t


def attention_realized_velocity(
    support: SupportSet,
    sched: PathSchedule,
    x: np.ndarray,
    t: float,
) -> np.ndarray:
    """One Gaussian-kernel attention head plus the affine post-map.

    Literally: query x/t against keys/values s_i with logits
    -||x/t - s_i||^2 / (2 h(t)^2), then blend the readout.  Agrees with the
    plug-in field to roundoff for t bounded away from 0; the de-scaled query
    does not exist at t = 0, so that endpoint is refused here and served by
    the plug-in closed form instead.
    """
    if t == 0.0:
        raise NumericalError("attention realization needs x/t; undefined at t=0")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericalError("velocity evaluated at a non-finite state")
    x_tilde = x / t
    readout = local_mean(x_tilde, support, IsotropicGaussian(sched.bandwidth(t)))
    return affine_postmap(x_tilde, readout, sched.sigma(t))


def dot_product_lift(
    x_tilde: np.ndarray, s: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Feature lift turning the Gaussian logit into a plain inner product.

    Query [x/h, -||x||^2/(2h^2), 1] against key [s/h, 1, -||s||^2/(2h^2)]
    gives Q.K = -||x - s||^2 / (2 h^2) exactly.  The maps are nonlinear and
    unscaled, so this is a lift into d+2 dimensions, not standard scaled
    dot-product attention.
    """
    if not h > 0.0:
        raise ValueError(f"bandwidth must be positive, got {h!r}")
    x_tilde = np.atleast_1d(np.asarray(x_tilde, dtype=np.float64))
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if x_tilde.shape != s.shape:
        raise ConfigError("query and key must share a dimension")
    h2 = 2.0 * h * h
    q = np.concatenate([x_tilde / h, [-(x_tilde @ x_tilde) / h2, 1.0]])
    k = np.concatenate([s / h, [1.0, -(s @ s) / h2]])
    return q, k, float(q @ k)


@dataclass(frozen=True, eq=False)
class MultiHeadParams:
    """Projection stacks for H-head cross-attention.

    w_q, w_k, w_v: (H, d_k, d_model); w_o: (H, d_model, d_k).  The usual
    convention H * d_k = d_model is available through `random` but not
    enforced on direct construction.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    def __post_init__(self) -> None:
        w_q = np.asarray(self.w_q, dtype=np.float64)
        w_k = np.asarray(self.w_k, dtype=np.float64)
        w_v = np.asarray(self.w_v, dtype=np.float64)
        w_o = np.asarray(self.w_o, dtype=np.float64)
        if w_q.ndim != 3:
            raise ConfigError("projections must be stacked as (H, d_k, d_model)")
        h, d_k, d_model = w_q.shape
        if w_k.shape != (h, d_k, d_model) or w_v.shape != (h, d_k, d_model):
            raise ConfigError("w_k / w_v shapes must match w_q")
        if w_o.shape != (h, d_model, d_k):
            raise ConfigError("w_o must be stacked as (H, d_model, d_k)")
        for name, arr in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v), ("w_o", w_o)):
            object.__setattr__(self, name, _readonly(arr))

    @property
    def n_heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_k(self) -> int:
        return self.w_q.shape[1]

    @property
    def d_model(self) -> int:
        return self.w_q.shape[2]

    @classmethod
    def random(cls, d_model: int, n_heads: int, rng: np.random.Generator) -> "MultiHeadParams":
        if d_model % n_heads != 0:
            raise ConfigError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        d_k = d_model // n_heads
        scale = 1.0 / np.sqrt(d_model)
        return cls(
            w_q=rng.standard_normal((n_heads, d_k, d_model)) * scale,
            w_k=rng.standard_normal((n_heads, d_k, d_model)) * scale,
            w_v=rng.standard_normal((n_heads, d_k, d_model)) * scale,
            w_o=rng.standard_normal((n_heads, d_model, d_k)) * scale,
        )


def multihead_forward(params: MultiHeadParams, q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Standard multi-head cross-attention of one query against m key rows.

    Equivalent to summing H generalized kernel smoothers: head h reweights
    the value rows W_v z_i under the bilinear kernel
    exp((W_q q).(W_k z_i)/sqrt(d_k)) and W_o maps the readout back.
    """
    q = np.asarray(q, dtype=np.float64)
    keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    if q.shape != (params.d_model,):
        raise ConfigError(f"query shape {q.shape} != (d_model,) = ({params.d_model},)")
    if keys.shape[1] != params.d_model:
        raise ConfigError(f"key width {keys.shape[1]} != d_model {params.d_model}")
    out = np.zeros(params.d_model)
    root = np.sqrt(params.d_k)
    for h in range(params.n_heads):
        lg = (keys @ params.w_k[h].T) @ (params.w_q[h] @ q) / root
        alpha = softmax_weights(lg)
        out += params.w_o[h] @ (alpha @ (keys @ params.w_v[h].T))
    return out


def logit_rank(params: MultiHeadParams, head: int, rel_tol: float = 1e-10) -> int:
    """Numerical rank of the head's bilinear logit matrix W_q' W_k / sqrt(d_k)."""
    if not 0 <= head < params.n_heads:
        raise IndexError(f"head {head} out of range for {params.n_heads} heads")
    a = params.w_q[head].T @ params.w_k[head] / np.sqrt(params.d_k)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))
