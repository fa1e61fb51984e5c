"""Round orchestration: client sampling, local runs, server aggregation.

One round follows the synchronous protocol: the server broadcasts
(theta, block means of v, alignment direction), each selected client runs
K private local steps, and the server folds the reports in ascending
client-id order, so parallel and serial execution agree bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (BlockLayout, ConfigurationError, block_mean,
                     broadcast_blocks)
from .dp import (DOMAIN_BATCH, DOMAIN_CLIENTS, DPConfig, NoiseStream,
                 clip_batch, noisy_batch_mean)
from .models import Model
from .optimizer import (AdamWParams, corrected_preconditioner, init_round,
                        local_step, moment_update)

# The variant names; each maps to its communication strategy.
STRATEGY_BY_VARIANT = {
    "dp_fedadamw": "agg_mean_v",
    "dp_local_adamw": "noagg",
    "dp_fedavg_sgd": "noagg",
}


@dataclass
class RoundState:
    """Server-side state entering round t."""

    theta: np.ndarray
    v_bar: np.ndarray  # (B,) block means of the clients' second moments
    delta_g: np.ndarray
    t: int = 0

    @classmethod
    def initial(cls, theta: np.ndarray, layout: BlockLayout) -> "RoundState":
        # First round: no alignment signal and an all-zero warm start,
        # so round 0 reduces to the local baseline.
        return cls(theta=np.asarray(theta, dtype=np.float64),
                   v_bar=np.zeros(layout.num_blocks),
                   delta_g=np.zeros(len(theta)), t=0)


@dataclass
class ClientReport:
    """What one client sends back, plus simulator-side observables."""

    client_id: int
    delta: np.ndarray
    block_v: np.ndarray  # (B,) block means of the final second moment
    # Observables for diagnostics; not part of the uplink payload.
    v_full: np.ndarray | None = None
    theta_end: np.ndarray | None = None


@dataclass(frozen=True)
class ClientOptions:
    """Ablation switches for the aggregated variant."""

    warm_start: bool = True
    bias_correction: bool = True
    identity_preconditioner: bool = False


def sample_clients(num_clients: int, num_selected: int,
                   stream: NoiseStream, t: int) -> np.ndarray:
    """Uniform without-replacement subset, deterministic per (seed, t)."""
    if not 1 <= num_selected <= num_clients:
        raise ConfigurationError("need 1 <= S <= N")
    rng = stream.rng((DOMAIN_CLIENTS, t))
    chosen = rng.choice(num_clients, size=num_selected, replace=False)
    return np.sort(chosen)


def run_client(model: Model, round_state: RoundState, client_id: int,
               X: np.ndarray, y: np.ndarray, dp_cfg: DPConfig,
               opt: AdamWParams, variant: str, local_steps: int,
               stream: NoiseStream,
               options: ClientOptions = ClientOptions()) -> ClientReport:
    """K private local steps of one client; returns its report."""
    if variant not in STRATEGY_BY_VARIANT:
        raise ConfigurationError(f"unknown variant {variant!r}")
    # The variant's mechanisms, resolved once: only dp_fedadamw warm-starts,
    # removes the noise bias and aligns; dp_fedavg_sgd steps along g itself.
    fedadamw = variant == "dp_fedadamw"
    sgd = variant == "dp_fedavg_sgd"
    v0 = (broadcast_blocks(round_state.v_bar, model.layout)
          if fedadamw and options.warm_start else None)
    tau = dp_cfg.noise_std if fedadamw and options.bias_correction else 0.0
    delta_g = round_state.delta_g if fedadamw else None
    state = init_round(model.d, opt, v0)
    t = round_state.t
    theta = round_state.theta.copy()
    n = len(y)
    if n != dp_cfg.client_dataset_size:
        raise ConfigurationError("dp_cfg dataset size does not match client data")
    for k in range(1, local_steps + 1):
        rng = stream.rng((DOMAIN_BATCH, t, client_id, k))
        idx = np.sort(rng.choice(n, size=dp_cfg.batch_size, replace=False))
        grads = model.per_sample_grads(theta, X[idx], y[idx])
        clipped = clip_batch(grads, dp_cfg.clip_norm)
        g = noisy_batch_mean(clipped, dp_cfg, stream, key=(t, client_id, k))
        if sgd:
            m_hat, precond = g, 1.0
        else:
            m_hat, v_hat = moment_update(state, g)
            precond = (1.0 if options.identity_preconditioner
                       else corrected_preconditioner(v_hat, tau, opt.eps))
        theta = local_step(theta, m_hat, precond, delta_g, opt)
    delta = theta - round_state.theta
    block_v = block_mean(np.maximum(state.v, 0.0), model.layout)
    return ClientReport(client_id=client_id, delta=delta, block_v=block_v,
                        v_full=state.v.copy(), theta_end=theta)


def aggregate(round_state: RoundState, reports: list[ClientReport],
              local_steps: int, lr: float) -> RoundState:
    """Server update: average deltas, alignment direction, block means."""
    if not reports:
        raise ConfigurationError("cannot aggregate an empty round")
    reports = sorted(reports, key=lambda r: r.client_id)
    S = len(reports)
    delta_sum = np.zeros_like(round_state.theta)
    v_sum = np.zeros_like(reports[0].block_v)
    for r in reports:
        delta_sum = delta_sum + r.delta
        v_sum = v_sum + r.block_v
    return RoundState(
        theta=round_state.theta + delta_sum / S,
        v_bar=v_sum / S,
        delta_g=-delta_sum / (S * local_steps * lr),
        t=round_state.t + 1,
    )


def run_round(round_state: RoundState, model: Model,
              client_data: list[tuple[np.ndarray, np.ndarray]],
              dp_cfgs: list[DPConfig], opt: AdamWParams, variant: str,
              local_steps: int, num_selected: int, stream: NoiseStream,
              options: ClientOptions = ClientOptions(),
              ) -> tuple[RoundState, list[ClientReport]]:
    """One full synchronous round over a sampled client subset."""
    selected = sample_clients(len(client_data), num_selected, stream,
                              round_state.t)
    reports = []
    for cid in selected:
        X, y = client_data[cid]
        reports.append(run_client(model, round_state, int(cid), X, y,
                                  dp_cfgs[cid], opt, variant, local_steps,
                                  stream, options))
    new_state = aggregate(round_state, reports, local_steps, opt.lr)
    return new_state, reports


def payload_count(variant_or_strategy: str, d: int, num_blocks: int,
                  ) -> tuple[int, int]:
    """(uplink, downlink) float counts per client per round.

    Strategies: ``noagg`` sends only the delta both ways being plain FedAvg
    traffic; ``agg_v`` uploads the full second moment; ``agg_mean_v``
    uploads one mean per block, and the server broadcast additionally
    carries the block means and the dense alignment direction.
    """
    if not 1 <= num_blocks <= d:
        raise ConfigurationError("need 1 <= B <= d")
    strategy = STRATEGY_BY_VARIANT.get(variant_or_strategy, variant_or_strategy)
    if strategy == "noagg":
        return d, d
    if strategy == "agg_v":
        return 2 * d, 2 * d + d
    if strategy == "agg_mean_v":
        return d + num_blocks, d + num_blocks + d
    raise ConfigurationError(f"unknown strategy {variant_or_strategy!r}")
