"""Client-side DP-AdamW: moment updates, bias corrections, aligned step.

The building blocks take their mechanisms as arguments (a warm-start
vector, the noise standard deviation to subtract, an alignment
direction); the round's client loop in ``federation`` picks a variant's
from ``AdamWParams``' switches. Every vector may also be an (S, d) stack
with one row per client. With m_hat = g and a preconditioner of 1.0,
``local_step`` is the plain DP-SGD step of the FedAvg baseline.

Known erratum handling: the source update rule prints the weight-decay
term with a sign that would grow weights; this implementation applies
standard decoupled AdamW decay (theta shrinks by eta*lambda*theta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import ConfigurationError


class DivergenceError(RuntimeError):
    """A run's first non-finite number: parameters after a local step or
    the server's sum, a gradient entry at the clip, or a round's metrics."""


@dataclass(frozen=True)
class AdamWParams:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    gamma: float = 0.0  # weight of the alignment direction
    warm_start: bool = True  # v starts at the broadcast block means
    bias_correction: bool = True  # v_hat less the DP noise variance
    identity_preconditioner: bool = False  # ablation: step along m_hat

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigurationError("betas must lie in [0, 1)")
        if not (0 < self.lr < math.inf and 0 < self.adam_eps < math.inf  # NaN too
                and 1.0 / self.adam_eps < math.inf):  # the preconditioner's clamp
            raise ConfigurationError("lr and adam_eps must be finite and > 0,"
                                     " adam_eps >= ~5.6e-309 (1/adam_eps finite)")
        if not (0 <= self.weight_decay < math.inf and 0 <= self.gamma < math.inf):
            raise ConfigurationError(
                "weight_decay and gamma must be finite and >= 0")


@dataclass
class DPAdamWState:
    """Per-client optimizer state for one round."""

    m: np.ndarray
    v: np.ndarray
    k: int
    params: AdamWParams


def init_round(shape, params: AdamWParams,
               v_broadcast: np.ndarray | None = None) -> DPAdamWState:
    """Fresh state at the start of a round, of shape d or (S, d) for S
    clients; v starts at the (d,) v_broadcast in every row, or at 0."""
    m = np.zeros(shape)
    if v_broadcast is None:
        return DPAdamWState(m=m, v=np.zeros(shape), k=0, params=params)
    v = np.asarray(v_broadcast, dtype=np.float64)
    if v.shape != m.shape[-1:]:
        raise ConfigurationError("v broadcast dim mismatch")
    if np.any(v < 0):
        raise ConfigurationError("v broadcast must be non-negative")
    return DPAdamWState(m=m, v=np.broadcast_to(v, m.shape).copy(), k=0,
                        params=params)


def moment_update(state: DPAdamWState, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """EMA update of (m, v) followed by initialization-bias correction."""
    p = state.params
    state.k += 1
    state.m = p.beta1 * state.m + (1.0 - p.beta1) * g
    state.v = p.beta2 * state.v + (1.0 - p.beta2) * (g * g)
    m_hat = state.m / (1.0 - p.beta1 ** state.k)
    v_hat = state.v / (1.0 - p.beta2 ** state.k)
    return m_hat, v_hat


def corrected_preconditioner(v_hat: np.ndarray, noise_std: float,
                             eps: float) -> np.ndarray:
    """1 / (sqrt(max(v_hat - noise_std^2, 0)) + eps); for an (S, d) v_hat,
    noise_std may be an (S, 1) column of the clients' stds.

    Subtracting the DP noise variance restores the non-private scaling of
    the adaptive step; the clamp keeps the output in (0, 1/eps].
    """
    arg = np.maximum(v_hat - noise_std * noise_std, 0.0)
    return 1.0 / (np.sqrt(arg) + eps)


def local_step(theta: np.ndarray, m_hat: np.ndarray,
               precond: np.ndarray | float, delta_g: np.ndarray | None,
               params: AdamWParams) -> np.ndarray:
    """One AdamW step with decoupled weight decay; it adds
    gamma * delta_g only when a direction is given."""
    update = m_hat * precond
    if delta_g is not None and params.gamma != 0.0:
        update = update + params.gamma * delta_g
    new_theta = theta - params.lr * update
    if params.weight_decay != 0.0:
        new_theta = new_theta - params.lr * params.weight_decay * theta
    if not (math.isfinite(new_theta.sum()) or np.isfinite(new_theta).all()):
        raise DivergenceError(
            "non-finite parameters after local step "
            f"(|theta|_max={np.max(np.abs(theta)):.3e}, "
            f"|update|_max={np.max(np.abs(update)):.3e})")
    return new_theta
