"""Client-side DP-AdamW: moment updates, bias corrections, aligned step.

Covers both the aggregated variant (warm-started second moment, noise
bias correction, alignment toward the previous round's global descent
direction) and the plain local-AdamW baseline, plus a DP-SGD step for
the FedAvg baseline.

Known erratum handling: the source update rule prints the weight-decay
term with a sign that would grow weights; this implementation applies
standard decoupled AdamW decay (theta shrinks by eta*lambda*theta).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import ConfigurationError

VARIANTS = ("dp_fedadamw", "dp_local_adamw", "dp_fedavg_sgd")


class DivergenceError(RuntimeError):
    """Raised when an update produces non-finite parameters."""


@dataclass(frozen=True)
class AdamWParams:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    align_coef: float = 0.0  # gamma

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigurationError("betas must lie in [0, 1)")
        if self.eps <= 0 or self.lr <= 0:
            raise ConfigurationError("lr and eps must be > 0")
        if self.weight_decay < 0 or self.align_coef < 0:
            raise ConfigurationError("weight_decay and align_coef must be >= 0")


@dataclass
class DPAdamWState:
    """Per-client optimizer state for one round."""

    m: np.ndarray
    v: np.ndarray
    k: int
    params: AdamWParams


def init_round(dim: int, params: AdamWParams, variant: str,
               v_broadcast: np.ndarray | None = None,
               warm_start: bool = True) -> DPAdamWState:
    """Fresh state at the start of a round.

    ``dp_fedadamw`` warm-starts v from the broadcast block means (when
    enabled and available); the local baseline always starts from zero.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    v = np.zeros(dim)
    if variant == "dp_fedadamw" and warm_start and v_broadcast is not None:
        v_broadcast = np.asarray(v_broadcast, dtype=np.float64)
        if v_broadcast.shape != (dim,):
            raise ConfigurationError("v broadcast dim mismatch")
        if np.any(v_broadcast < 0):
            raise ConfigurationError("v broadcast must be non-negative")
        v = v_broadcast.copy()
    return DPAdamWState(m=np.zeros(dim), v=v, k=0, params=params)


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
    """1 / (sqrt(max(v_hat - noise_std^2, 0)) + eps).

    Subtracting the DP noise variance restores the non-private scaling of
    the adaptive step; the clamp keeps the output in (0, 1/eps].
    """
    arg = np.maximum(v_hat - noise_std * noise_std, 0.0)
    return 1.0 / (np.sqrt(arg) + eps)


def local_step(theta: np.ndarray, m_hat: np.ndarray, precond: np.ndarray,
               delta_g: np.ndarray | None, params: AdamWParams) -> np.ndarray:
    """One aligned AdamW step with decoupled weight decay."""
    update = m_hat * precond
    if params.align_coef != 0.0:
        if delta_g is None:
            raise ConfigurationError("alignment enabled but no direction given")
        update = update + params.align_coef * delta_g
    new_theta = theta - params.lr * update
    if params.weight_decay != 0.0:
        new_theta = new_theta - params.lr * params.weight_decay * theta
    if not np.all(np.isfinite(new_theta)):
        raise DivergenceError(
            "non-finite parameters after local step "
            f"(|theta|_max={np.max(np.abs(theta)):.3e}, "
            f"|update|_max={np.max(np.abs(update)):.3e})")
    return new_theta


def sgd_local_step(theta: np.ndarray, g: np.ndarray, lr: float,
                   weight_decay: float = 0.0) -> np.ndarray:
    """Plain (DP-)SGD step with optional decoupled decay."""
    new_theta = theta - lr * g
    if weight_decay != 0.0:
        new_theta = new_theta - lr * weight_decay * theta
    if not np.all(np.isfinite(new_theta)):
        raise DivergenceError("non-finite parameters after SGD step")
    return new_theta
