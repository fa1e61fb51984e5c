"""The benchmark's workloads and the checks every run of them must pass.

Each workload is a ``RunConfig`` with the values of the acceptance config
it is named after (``SUPERIORITY_BASE``, ``VAR_BASE``, ``DRIFT_BASE`` in
``tests/test_acceptance.py``). The values are copied here on purpose, so
an edit to the tests cannot silently move the benchmark. Only ``rounds``
differs: it is chosen so one ``run()`` takes well under a second on a
2-core Xeon. Short runs give each measured window about a hundred runs,
enough for a 90th percentile, and each run falls mostly in one of the
machine's speed states (see README.md). ``mlp2_blobs`` keeps its
acceptance length.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, replace

from dpfed.accounting import PrivacyLedger, compose_and_convert
from dpfed.blocks import ConfigurationError
from dpfed.data import dirichlet_partition, make_blobs
from dpfed.dp import NoiseStream
from dpfed.federation import payload_count
from dpfed.models import build_model
from dpfed.runner import METRICS_COLUMNS, RunConfig


# Inputs (run seeds) measured per benchmark seed. The cost of one run()
# depends on the data, through the Dirichlet client sizes and the share of
# rows that are clipped; several inputs per seed keep that from
# dominating the spread across benchmark seeds.
INPUTS_PER_SEED = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: RunConfig
    dim: int  # model dimension d the acceptance config documents

    def at(self, seed: int, output_dir: str, rounds: int | None = None,
           ) -> RunConfig:
        """The config at the first seed >= ``seed`` that gives valid data."""
        while not self.valid_data(seed):
            seed += 1
        return replace(self.config, seed=seed, output_dir=output_dir,
                       rounds=self.config.rounds if rounds is None else rounds)

    def inputs(self, seed: int, output_dir: str, rounds: int | None = None,
               ) -> list[RunConfig]:
        """The INPUTS_PER_SEED configs one benchmark seed measures.

        Their seeds are distinct and start at ``INPUTS_PER_SEED * seed``,
        each in its own output directory.
        """
        out, next_seed = [], INPUTS_PER_SEED * seed
        for _ in range(INPUTS_PER_SEED):
            config = self.at(next_seed, output_dir, rounds)
            out.append(replace(config, output_dir=os.path.join(
                output_dir, f"run-seed{config.seed}")))
            next_seed = config.seed + 1
        return out

    def valid_data(self, seed: int) -> bool:
        """Whether every client has a non-empty batch, floor(s * R) >= 1.

        With Dirichlet alpha = 0.1 some seeds give a client fewer than
        1/s rows (11 of seeds 0-399 for SUPERIORITY_BASE, from 67 on),
        and run() rightly rejects that config with ConfigurationError.
        Such a seed is not an input the benchmark can measure.
        """
        c = self.config
        if c.dataset != "blobs":
            return True
        stream = NoiseStream(seed)
        X, y = make_blobs(c.num_classes, c.num_features, c.num_samples,
                          stream)
        try:
            fed = dirichlet_partition(X, y, c.num_clients, c.alpha, stream)
        except ConfigurationError:
            return False
        return all(int(c.sample_rate * len(y_i)) >= 1
                   for _, y_i in fed.clients)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="logistic_blobs",
        why=("SUPERIORITY_BASE: d=210, 10 unequal Dirichlet clients (4 to 408 "
             "rows), K=10; clip_batch dominates, so clip and client-batching "
             "changes show here"),
        config=RunConfig(
            variant="dp_fedadamw", model="logistic", dataset="blobs",
            num_classes=10, num_clients=10, rounds=4, local_steps=10,
            sample_rate=0.2, clip_norm=0.1, noise_multiplier=1.0, lr=1e-2,
            weight_decay=0.01, gamma=0.5, adam_eps=1e-2, beta2=0.9,
            alpha=0.1),
        dim=210),
    Workload(
        name="mlp2_blobs",
        why=("VAR_BASE: the same DP layer at d=506, K=5; not a benchmark "
             "workload, since its loss stays above the rounds=0 loss on "
             "some seeds (see README.md)"),
        config=RunConfig(
            variant="dp_fedadamw", model="mlp2", dataset="blobs",
            num_clients=10, rounds=20, local_steps=5, sample_rate=0.2,
            clip_norm=1.0, noise_multiplier=1.0, lr=0.3, weight_decay=0.01,
            gamma=0.5, adam_eps=1e-2, beta2=0.999, alpha=0.1),
        dim=506),
    Workload(
        name="quadratic_drift",
        why=("DRIFT_BASE: d=5, 2 equal clients of 10-row batches; accounting "
             "and per-call overhead dominate, so clip and batching changes "
             "should not move it"),
        config=RunConfig(
            variant="dp_fedadamw", model="quadratic", dataset="quadratics",
            dim=5, num_clients=2, rounds=20, local_steps=10, sample_rate=0.2,
            samples_per_client=50, heterogeneity=1.0, clip_norm=1.0,
            noise_multiplier=1.0, lr=0.05, weight_decay=0.0, gamma=0.5,
            adam_eps=1e-2, beta2=0.9),
        dim=5),
)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class RunChecker:
    """Correctness checks for the runs of one workload at one seed.

    Every run must produce a finite final loss below the seed's
    ``rounds=0`` loss, ``eps_rdp`` equal to what the public ledger gives
    for t events of (sigma, q, K), payload columns equal to
    ``payload_count(...) * S``, and artifacts byte-identical to the first
    run at the same config.
    """

    def __init__(self, config: RunConfig, dim: int, init_loss: float):
        self.config = config
        self.init_loss = init_loss
        model = build_model(config.model, dim=config.dim,
                            num_features=config.num_features,
                            num_classes=config.num_classes,
                            hidden=config.hidden)
        if model.d != dim:
            raise ValueError(f"{config.model} has d={model.d}, expected {dim}")
        up, down = payload_count(config.variant, model.d,
                                 model.layout.num_blocks)
        S = config.selected_clients
        self.uplink, self.downlink = str(up * S), str(down * S)
        ledger = PrivacyLedger()
        self.eps_by_round = []
        for _ in range(config.rounds):
            ledger.add_event(config.noise_multiplier, config.sample_rate,
                             config.local_steps)
            self.eps_by_round.append(
                compose_and_convert(ledger, config.delta).epsilon)
        self.artifacts: dict[str, tuple[bytes, bytes]] = {}

    def problems(self, config: RunConfig, summary, csv_bytes: bytes,
                 json_bytes: bytes) -> list[str]:
        """Every check the run fails, as readable strings (empty if none)."""
        out = []
        loss = summary.final_loss
        if not math.isfinite(loss):
            out.append(f"final_loss is {loss}")
        elif not loss < self.init_loss:
            out.append(f"final_loss {loss} not below rounds=0 loss "
                       f"{self.init_loss}")
        header, *lines = csv_bytes.decode().splitlines()
        cells = [ln.split(",") for ln in lines]
        if (tuple(header.split(",")) != METRICS_COLUMNS
                or any(len(c) != len(METRICS_COLUMNS) for c in cells)):
            out.append("metrics.csv does not have the expected columns")
            cells = []
        rows = [dict(zip(METRICS_COLUMNS, c)) for c in cells]
        if len(rows) != config.rounds:
            out.append(f"{len(rows)} metrics rows for {config.rounds} rounds")
        for row, eps in zip(rows, self.eps_by_round):
            if row["eps_rdp"] != format(eps, ".17g"):
                out.append(f"round {row['t']}: eps_rdp {row['eps_rdp']} != "
                           f"ledger {eps!r}")
                break
        if self.eps_by_round and summary.eps_rdp != self.eps_by_round[-1]:
            out.append(f"summary eps_rdp {summary.eps_rdp} != ledger "
                       f"{self.eps_by_round[-1]}")
        if any(r["uplink"] != self.uplink or r["downlink"] != self.downlink
               for r in rows):
            out.append(f"payload columns != ({self.uplink}, {self.downlink})")
        first = self.artifacts.setdefault(config.config_hash(),
                                          (csv_bytes, json_bytes))
        if first != (csv_bytes, json_bytes):
            out.append("artifacts differ from the first run at this seed")
        return out
