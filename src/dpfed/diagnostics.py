"""Round-level measurements: cross-client moment variance, client drift,
and Monte-Carlo probes of the DP-induced second-moment bias.

Drift is reported as the mean squared distance of client endpoints to
their mean, a translation-invariant choice. The cross-client variance is
computed on the full per-coordinate second-moment vectors, i.e. on the
quantity that block aggregation is meant to stabilize.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import ConfigurationError
from .dp import DOMAIN_PROBE, DPConfig, NoiseStream
from .optimizer import AdamWParams, init_round, moment_update


def cross_client_var_v(v_vectors: np.ndarray) -> float:
    """Mean over coordinates of the unbiased variance across S clients' v."""
    if len(v_vectors) < 2:
        raise ConfigurationError("need at least 2 clients for a variance")
    return float(np.var(np.asarray(v_vectors), axis=0, ddof=1).mean())


def client_drift(endpoints: np.ndarray) -> float:
    """Mean squared distance of S client endpoints (rows) to their mean."""
    if len(endpoints) < 2:
        raise ConfigurationError("need at least 2 clients for drift")
    stacked = np.asarray(endpoints)
    centered = stacked - stacked.mean(axis=0, keepdims=True)
    return float(np.mean(np.sum(centered * centered, axis=1)))


@dataclass
class BiasProbeResult:
    mean_v: np.ndarray
    mean_v_corrected: np.ndarray
    se_v: np.ndarray
    se_v_corrected: np.ndarray


def bias_probe(cfg: DPConfig, batch_size: int, g: np.ndarray, k_steps: int,
               n_mc: int, beta2: float, stream: NoiseStream) -> BiasProbeResult:
    """Monte-Carlo estimate of E[v] after k steps of constant gradient g,
    privatized as a mean over batches of ``batch_size`` rows.

    Requires the clipping-inactive regime (||g|| < C): only there does the
    additive shift (sigma*C/b)^2 describe the DP bias exactly. With
    sigma = 0 the recursion is deterministic and mean_v equals
    (1 - beta2^k) * g*g up to floating round-off.
    """
    g = np.asarray(g, dtype=np.float64)
    if k_steps < 1:
        raise ConfigurationError("bias probe needs k_steps >= 1")
    if np.linalg.norm(g) >= cfg.clip_norm:
        raise ConfigurationError(
            "bias probe needs ||g|| < C (clipping-inactive regime)")
    tau = cfg.noise_std(batch_size)
    if tau > 0.0 and not n_mc >= 2:  # one run has no standard error
        raise ConfigurationError("bias probe needs n_mc >= 2 when sigma > 0")
    runs = 1 if tau == 0.0 else int(n_mc)
    rng = stream.rng((DOMAIN_PROBE,))
    # One row per run, driven by the update the clients run.
    state = init_round((runs, len(g)), AdamWParams(beta2=beta2))
    for _ in range(k_steps):
        gt = g[None, :]
        if tau > 0.0:
            gt = gt + tau * rng.standard_normal(state.m.shape)
        _, v_hat = moment_update(state, gt)
    v = state.v
    corrected = v_hat - tau * tau
    if runs == 1:  # sigma = 0: the one run is exact
        se_v = se_v_corrected = np.zeros(len(g))
    else:
        se_v, se_v_corrected = (x.std(axis=0, ddof=1) * (1.0 / np.sqrt(runs))
                                for x in (v, corrected))
    return BiasProbeResult(mean_v=v.mean(axis=0),
                           mean_v_corrected=corrected.mean(axis=0),
                           se_v=se_v, se_v_corrected=se_v_corrected)
