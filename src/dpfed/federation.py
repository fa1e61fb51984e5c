"""Round orchestration: client sampling, local runs, server aggregation.

One round follows the synchronous protocol: the server broadcasts
(theta, block means of v, alignment direction), each selected client runs
K private local steps, and the server folds the reports in ascending
client-id order. The selected clients run together: their parameters,
moments and reports are the rows of (S, ·) arrays and their batches are
one gather from the pooled rows, so a local step is one call per layer
for the round. Each client keeps its own generator and batch size, every
row-wise operation is per row and the matmuls run per client, so a
client's row is bitwise the one it gets when ``run_client`` runs it alone.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .blocks import (BlockLayout, ConfigurationError, block_mean,
                     broadcast_blocks)
from .data import FederatedDataset
from .dp import (DOMAIN_BATCH, DOMAIN_CLIENTS, DPConfig, NoiseStream,
                 noisy_batch_mean)
from .models import Model
from .optimizer import (AdamWParams, DivergenceError, corrected_preconditioner,
                        init_round, local_step, moment_update)

# DP-FedAdamW's three fixes, as its baselines run them: switched off.
FIXES_OFF = {"warm_start": False, "bias_correction": False, "gamma": 0.0}
# Each variant's payload strategy and the AdamWParams settings its clients
# do not read: a baseline's fixes are off, and dp_fedavg_sgd keeps no moments.
VARIANTS = {
    "dp_fedadamw": ("agg_mean_v", ()),
    "dp_local_adamw": ("noagg", tuple(FIXES_OFF)),
    "dp_fedavg_sgd": ("noagg", (*FIXES_OFF, "beta1", "beta2", "adam_eps",
                                "identity_preconditioner")),
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
class RoundReport:
    """What a round's S clients send back, plus simulator observables."""

    client_ids: np.ndarray  # (S,)
    delta: np.ndarray  # (S, d)
    block_v: np.ndarray  # (S, B) block means of the final second moments
    # Observables for diagnostics; not part of the uplink payload.
    v: np.ndarray  # (S, d) final second moments
    theta: np.ndarray  # (S, d) final parameters


def sample_clients(num_clients: int, num_selected: int,
                   stream: NoiseStream, t: int) -> np.ndarray:
    """Uniform without-replacement subset, deterministic per (seed, t)."""
    if not 1 <= num_selected <= num_clients:
        raise ConfigurationError("need 1 <= S <= N")
    rng = stream.rng((DOMAIN_CLIENTS, t))
    chosen = rng.choice(num_clients, size=num_selected, replace=False)
    return np.sort(chosen)


def run_client(model: Model, round_state: RoundState, client_ids,
               fed: FederatedDataset, dp_cfg: DPConfig, opt: AdamWParams,
               variant: str, local_steps: int, stream: NoiseStream,
               ) -> RoundReport:
    """K private local steps of each client in ``client_ids``, one or more
    strictly ascending ids of clients of ``fed``; returns their report,
    rows in that order.
    A client's batch size floor(s * R) for its R rows and its noise std
    follow from its row count; its K batches and noise vectors come from
    one generator keyed (t, client), so its report does not depend on the
    others."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    ids, num_clients = np.asarray(client_ids), len(fed.bounds) - 1
    if not (ids.ndim == 1 and ids.size and ids.dtype.kind in "iu"
            and 0 <= ids[0] and ids[-1] < num_clients
            and (ids[1:] > ids[:-1]).all()):
        raise ConfigurationError(
            "client_ids must be one or more strictly ascending integers in "
            f"[0, {num_clients}), got {ids.tolist()}")
    X, y = fed.X, fed.y
    starts = [fed.bounds[cid] for cid in client_ids]
    counts = [fed.bounds[cid + 1] - lo for cid, lo in zip(client_ids, starts)]
    sizes = [dp_cfg.batch_size(n) for n in counts]
    rows = [0, *itertools.accumulate(sizes)]  # client i's batch rows
    offsets = np.repeat(starts, sizes)  # each batch row's client start
    unread = VARIANTS[variant][1]  # the fixes among them are switched off
    opt = replace(opt, **{k: v for k, v in FIXES_OFF.items() if k in unread})
    v0 = (broadcast_blocks(round_state.v_bar, model.layout)
          if opt.warm_start else None)
    tau = (np.array([[dp_cfg.noise_std(b)] for b in sizes])
           if opt.bias_correction else 0.0)
    state = init_round((len(sizes), model.d), opt, v0)
    theta = np.tile(round_state.theta, (len(sizes), 1))
    rngs = [stream.rng((DOMAIN_BATCH, round_state.t, cid))
            for cid in client_ids]
    for _ in range(local_steps):
        idx = np.concatenate([rng.choice(n, size=b, replace=False)
                              for rng, n, b in zip(rngs, counts, sizes)])
        idx += offsets
        idx.sort()  # sorts each client's rows: their ranges are disjoint
        grads = model.per_sample_grads(theta, X[idx], y[idx], rows)
        g = noisy_batch_mean(grads, dp_cfg, rngs, rows)
        if variant == "dp_fedavg_sgd":  # no moments: a step along g
            m_hat, precond = g, 1.0
        else:
            m_hat, v_hat = moment_update(state, g)
            precond = (1.0 if opt.identity_preconditioner
                       else corrected_preconditioner(v_hat, tau, opt.adam_eps))
        theta = local_step(theta, m_hat, precond, round_state.delta_g, opt)
    return RoundReport(ids, theta - round_state.theta,
                       block_mean(state.v, model.layout), state.v, theta)


def aggregate(round_state: RoundState, report: RoundReport,
              local_steps: int, lr: float) -> RoundState:
    """Server update: average deltas, alignment direction, block means,
    folding the rows one by one in the report's (ascending id) order."""
    S = len(report.client_ids)
    if not S:
        raise ConfigurationError("cannot aggregate an empty round")
    delta_sum = np.zeros_like(round_state.theta)
    v_sum = np.zeros_like(report.block_v[0])
    # Row by row: sum(axis=0) adds an (S, 1) stack pairwise from S = 8.
    for delta, block_v in zip(report.delta, report.block_v):
        delta_sum = delta_sum + delta
        v_sum = v_sum + block_v
    theta = round_state.theta + delta_sum / S
    if not np.isfinite(theta).all():  # finite deltas can sum past the range
        raise DivergenceError("non-finite parameters after aggregation")
    return RoundState(
        theta=theta,
        v_bar=v_sum / S,
        delta_g=-delta_sum / (S * local_steps * lr),
        t=round_state.t + 1,
    )


def run_round(round_state: RoundState, model: Model, fed: FederatedDataset,
              dp_cfg: DPConfig, opt: AdamWParams, variant: str,
              local_steps: int, num_selected: int, stream: NoiseStream,
              ) -> tuple[RoundState, RoundReport]:
    """One full synchronous round over a sampled client subset."""
    selected = sample_clients(len(fed.bounds) - 1, num_selected, stream,
                              round_state.t)
    report = run_client(model, round_state, selected, fed, dp_cfg, opt,
                        variant, local_steps, stream)
    return aggregate(round_state, report, local_steps, opt.lr), report


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
    strategy = VARIANTS.get(variant_or_strategy, (variant_or_strategy,))[0]
    if strategy == "noagg":
        return d, d
    if strategy == "agg_v":
        return 2 * d, 2 * d + d
    if strategy == "agg_mean_v":
        return d + num_blocks, d + num_blocks + d
    raise ConfigurationError(f"unknown strategy {variant_or_strategy!r}")
