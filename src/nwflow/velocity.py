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
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, NumericalError, _count, _scale
from .kernels import (
    IsotropicGaussian,
    SupportSet,
    _smooth,
    _spd_metric,
    local_mean,
    softmax_weights,
)
from .schedule import PathSchedule

__all__ = [
    "PluginField",
    "velocity_from_score",
    "affine_postmap",
    "attention_realized_velocity",
    "dot_product_lift",
    "multihead_forward",
]

# Evaluation contract shared by every concrete field: (x, t) -> v, where x is a single point
# (d,) or a batch (n, d) and t is a float in [0, 1] or, for a batch, an (n, 1) column of
# per-row times (`integrate` passes one when the chunks it advances together differ in t).
VelocityField = Callable[[np.ndarray, Union[float, np.ndarray]], np.ndarray]


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
            metric, chol = _spd_metric(self.metric, self.support.d)
            chol_support = SupportSet(self.support.points @ chol)
            object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "_chol_support", chol_support)

    def __call__(self, x: np.ndarray, t: Union[float, np.ndarray]) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise NumericalError("velocity evaluated at a non-finite state")
        xs = np.atleast_2d(x)
        if xs.shape[1] != self.support.d:
            raise ConfigError(f"state dimension {xs.shape[1]} != support dimension {self.support.d}")
        sig = self.schedule.sigma(t)
        if self.chol is None:
            means = _smooth(xs, self.support, t, sig)
        else:
            means = _smooth(xs @ self.chol, self._chol_support, t, sig, self.support._kv[2])
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
    sigma_t = _scale(sigma_t, "sigma_t")
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
    h = _scale(h, "bandwidth")
    x_tilde = np.atleast_1d(np.asarray(x_tilde, dtype=np.float64))
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if x_tilde.shape != s.shape:
        raise ConfigError("query and key must share a dimension")
    h2 = 2.0 * h * h
    q = np.concatenate([x_tilde / h, [-(x_tilde @ x_tilde) / h2, 1.0]])
    k = np.concatenate([s / h, [1.0, -(s @ s) / h2]])
    return q, k, float(q @ k)


def multihead_forward(
    w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray, w_o: np.ndarray, q: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Standard multi-head cross-attention of one query against m key rows.

    w_q, w_k, w_v: (H, d_k, d_model); w_o: (H, d_model, d_k).  Equivalent to
    summing H generalized kernel smoothers: head h reweights the value rows
    W_v z_i under the bilinear kernel exp((W_q q).(W_k z_i)/sqrt(d_k)) and
    W_o maps the readout back.
    """
    w_q, w_k, w_v, w_o = (np.asarray(w, dtype=np.float64) for w in (w_q, w_k, w_v, w_o))
    if w_q.ndim != 3:
        raise ConfigError("projections must be stacked as (H, d_k, d_model)")
    n_heads, d_k, d_model = w_q.shape
    if w_k.shape != w_q.shape or w_v.shape != w_q.shape:
        raise ConfigError("w_k / w_v shapes must match w_q")
    if w_o.shape != (n_heads, d_model, d_k):
        raise ConfigError("w_o must be stacked as (H, d_model, d_k)")
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if q.shape != (d_model,):
        raise ConfigError(f"query shape {q.shape} != (d_model,) = ({d_model},)")
    if keys.ndim != 2 or keys.shape[0] == 0 or keys.shape[1] != d_model:
        raise ConfigError(f"keys shape {keys.shape} is not a nonempty (m, d_model) = (m, {d_model}) matrix")
    out = np.zeros(d_model)
    root = np.sqrt(_count(d_k, "d_k"))
    for h in range(n_heads):
        lg = (keys @ w_k[h].T) @ (w_q[h] @ q) / root
        alpha = softmax_weights(lg)
        out += w_o[h] @ (alpha @ (keys @ w_v[h].T))
    return out
