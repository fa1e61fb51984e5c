"""Config-driven experiment orchestration.

A run is fully described by a RunConfig (parsable from a flat key=value
file); given the same config and seed it writes byte-identical metrics
CSV and summary JSON. Wall time is returned on the RunSummary object but
deliberately kept out of the JSON so the artifact stays deterministic.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .accounting import PrivacyLedger, compose_and_convert, third_party_epsilon
from .blocks import ConfigurationError
from .data import (FederatedDataset, dirichlet_partition, load_csv,
                   make_blobs, make_client_quadratics, quadratic_client_data)
from .diagnostics import MetricRecord, client_drift, cross_client_var_v
from .dp import DOMAIN_INIT, DPConfig, NoiseStream
from .federation import (STRATEGY_BY_VARIANT, ClientOptions, RoundState,
                         payload_count, run_round)
from .models import build_model
from .optimizer import AdamWParams, DivergenceError

METRICS_COLUMNS = ("t", "global_loss", "global_acc", "var_v", "drift",
                   "uplink", "downlink", "eps_rdp", "eps_paper")

# Fields that do not change what a run computes.
_NON_SEMANTIC_FIELDS = ("output_dir",)

_BOOL_FIELDS = {"warm_start", "bias_correction", "identity_preconditioner"}
_PARSERS = {"int": int, "float": float}  # keyed by string annotations


@dataclass(frozen=True)
class RunConfig:
    variant: str = "dp_fedadamw"
    model: str = "logistic"
    dataset: str = "blobs"          # blobs | quadratics | path to CSV
    dim: int = 5                    # quadratic model dimension
    num_features: int = 20
    num_classes: int = 10
    hidden: int = 16
    num_samples: int = 5000
    heterogeneity: float = 1.0      # quadratic center spread
    jitter: float = 0.1             # quadratic within-client spread
    num_clients: int = 10
    participation: float = 1.0      # l; S = ceil(l * N)
    rounds: int = 50
    local_steps: int = 5
    sample_rate: float = 0.1        # s
    samples_per_client: int = 50    # R for the quadratic dataset
    clip_norm: float = 0.1
    noise_multiplier: float = 1.0
    delta: float = 1e-5
    lr: float = 1e-3
    weight_decay: float = 0.0
    gamma: float = 0.5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    alpha: float = 0.1
    warm_start: bool = True
    bias_correction: bool = True
    identity_preconditioner: bool = False
    seed: int = 0
    output_dir: str = "runs/out"

    def __post_init__(self):
        if self.variant not in STRATEGY_BY_VARIANT:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.model not in ("quadratic", "logistic", "mlp2"):
            raise ConfigurationError(f"unknown model {self.model!r}")
        if not (0 < self.participation <= 1):
            raise ConfigurationError("participation must be in (0, 1]")
        if self.rounds < 0 or self.local_steps < 1 or self.num_clients < 1:
            raise ConfigurationError("invalid rounds / local_steps / clients")
        if not (0 < self.sample_rate <= 1):
            raise ConfigurationError("sample_rate must be in (0, 1]")
        if not (0 < self.delta < 1):
            raise ConfigurationError("delta must lie in (0, 1)")
        if self.alpha <= 0 or self.lr <= 0:
            raise ConfigurationError("alpha and lr must be > 0")

    @property
    def selected_clients(self) -> int:
        return max(1, math.ceil(self.participation * self.num_clients))

    def semantic_items(self) -> list[tuple[str, str]]:
        return [(f.name, repr(getattr(self, f.name)))
                for f in fields(self) if f.name not in _NON_SEMANTIC_FIELDS]

    def config_hash(self) -> str:
        payload = "\n".join(f"{k}={v}" for k, v in sorted(self.semantic_items()))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def parse_config_file(path, overrides: dict | None = None) -> RunConfig:
    """Flat key = value file, one key per line, # comments."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    if overrides:
        values.update({k: str(v) for k, v in overrides.items() if v is not None})
    return config_from_strings(values)


def config_from_strings(values: dict[str, str]) -> RunConfig:
    kwargs = {}
    field_types = {f.name: f.type for f in fields(RunConfig)}
    for key, val in values.items():
        if key not in field_types:
            raise ConfigurationError(f"unknown config key {key!r}")
        if key in _BOOL_FIELDS:
            if val.lower() not in ("true", "false", "1", "0"):
                raise ConfigurationError(f"{key} must be true/false")
            kwargs[key] = val.lower() in ("true", "1")
        elif field_types[key] in _PARSERS:
            try:
                kwargs[key] = _PARSERS[field_types[key]](val)
            except ValueError:
                raise ConfigurationError(f"{key}: cannot parse {val!r}") from None
        else:
            kwargs[key] = val
    return RunConfig(**kwargs)


@dataclass
class RunSummary:
    final_loss: float
    final_accuracy: float
    eps_rdp: float
    eps_paper: float
    wall_time_s: float
    config_hash: str
    metrics: list[MetricRecord]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _build_problem(config: RunConfig, stream: NoiseStream):
    """Model plus per-client datasets and DP configs."""
    if config.model == "quadratic":
        if config.dataset != "quadratics":
            raise ConfigurationError("quadratic model requires dataset=quadratics")
        centers = make_client_quadratics(config.dim, config.num_clients,
                                         config.heterogeneity, stream)
        fed = quadratic_client_data(centers, config.samples_per_client,
                                    stream, config.jitter)
        model = build_model("quadratic", dim=config.dim)
    else:
        if config.dataset == "blobs":
            X, y = make_blobs(config.num_classes, config.num_features,
                              config.num_samples, stream)
        elif config.dataset == "quadratics":
            raise ConfigurationError("classification models need labeled data")
        else:
            X, y = load_csv(config.dataset)
        fed = dirichlet_partition(X, y, config.num_clients, config.alpha, stream)
        model = build_model(config.model, num_features=X.shape[1],
                            num_classes=int(y.max()) + 1, hidden=config.hidden)
    dp_cfgs = [DPConfig(config.clip_norm, config.noise_multiplier,
                        config.sample_rate, len(y_i))
               for _, y_i in fed.clients]
    return model, fed, dp_cfgs


def _global_metrics(model, fed: FederatedDataset, theta) -> tuple[float, float]:
    X = np.concatenate([c[0] for c in fed.clients])
    y = np.concatenate([c[1] for c in fed.clients])
    loss = model.batch_loss(theta, X, y)
    pred = model.predict(theta, X)
    acc = float("nan") if pred is None else float(np.mean(pred == y))
    return loss, acc


def run(config: RunConfig) -> RunSummary:
    """Execute T rounds, writing metrics.csv and summary.json; a diverged
    run leaves only metrics.csv, with the rounds completed before it."""
    start = time.perf_counter()
    out_dir = os.environ.get("OUTPUT_DIR", config.output_dir)

    stream = NoiseStream(config.seed)
    model, fed, dp_cfgs = _build_problem(config, stream)
    theta0 = model.init_params(stream.rng((DOMAIN_INIT,)))
    state = RoundState.initial(theta0, model.layout)
    opt = AdamWParams(lr=config.lr, beta1=config.beta1, beta2=config.beta2,
                      eps=config.adam_eps, weight_decay=config.weight_decay,
                      align_coef=(config.gamma
                                  if config.variant == "dp_fedadamw" else 0.0))
    options = ClientOptions(warm_start=config.warm_start,
                            bias_correction=config.bias_correction,
                            identity_preconditioner=config.identity_preconditioner)
    ledger = PrivacyLedger()
    per_client_payload = payload_count(config.variant, model.d,
                                       model.layout.num_blocks)

    records: list[MetricRecord] = []
    eps_rdp = 0.0
    eps_paper = 0.0
    for _ in range(config.rounds):
        try:
            state, reports = run_round(
                state, model, fed.clients, dp_cfgs, opt, config.variant,
                config.local_steps, config.selected_clients, stream, options)
        except DivergenceError:
            _write_metrics_csv(out_dir, records)
            raise
        if config.noise_multiplier > 0:
            ledger.add_event(config.noise_multiplier, config.sample_rate,
                             config.local_steps)
            eps_rdp = compose_and_convert(ledger, config.delta).epsilon
            eps_paper = third_party_epsilon(
                config.sample_rate, state.t, config.local_steps, config.delta,
                config.noise_multiplier)
        else:  # released without noise: no finite guarantee
            eps_rdp = eps_paper = math.inf
        loss, acc = _global_metrics(model, fed, state.theta)
        many = len(reports) >= 2
        records.append(MetricRecord(
            t=state.t, global_loss=loss, global_accuracy=acc,
            var_v=cross_client_var_v([r.v_full for r in reports])
            if many else float("nan"),
            drift=client_drift([r.theta_end for r in reports])
            if many else float("nan"),
            uplink_floats=per_client_payload[0] * len(reports),
            downlink_floats=per_client_payload[1] * len(reports),
            eps_rdp=eps_rdp, eps_paper=eps_paper))

    final_loss, final_acc = _global_metrics(model, fed, state.theta)
    _write_metrics_csv(out_dir, records)
    summary = RunSummary(final_loss=final_loss, final_accuracy=final_acc,
                         eps_rdp=eps_rdp, eps_paper=eps_paper,
                         wall_time_s=time.perf_counter() - start,
                         config_hash=config.config_hash(), metrics=records)
    _write_summary_json(out_dir, config, summary)
    return summary


def _write_text(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(text)


def _write_metrics_csv(out_dir: str, records: list[MetricRecord]) -> None:
    lines = [",".join(METRICS_COLUMNS)]
    for r in records:
        lines.append(",".join([
            str(r.t), _fmt(r.global_loss), _fmt(r.global_accuracy),
            _fmt(r.var_v), _fmt(r.drift), str(r.uplink_floats),
            str(r.downlink_floats), _fmt(r.eps_rdp), _fmt(r.eps_paper)]))
    _write_text(out_dir, "metrics.csv", "\n".join(lines) + "\n")


def _write_summary_json(out_dir: str, config: RunConfig,
                        summary: RunSummary) -> None:
    payload = {
        "config_hash": summary.config_hash,
        "variant": config.variant,
        "model": config.model,
        "seed": config.seed,
        "rounds": config.rounds,
        "final_loss": summary.final_loss,
        "final_accuracy": summary.final_accuracy,
        "eps_rdp": summary.eps_rdp,
        "eps_paper": summary.eps_paper,
    }
    _write_text(out_dir, "summary.json",
                json.dumps(payload, indent=2, allow_nan=True) + "\n")


def compare(configs: list[RunConfig], seeds: list[int],
            axes: tuple[str, ...] = (),
            output_dir: str | None = None) -> list[dict]:
    """Paired-seed sweep over configs differing only in declared axes.

    Returns one row per (config, seed) plus per-config mean/std rows;
    writes comparison.csv when an output directory is given.
    """
    ignore = set(axes) | set(_NON_SEMANTIC_FIELDS) | {"seed"}
    reference = {k: v for k, v in configs[0].semantic_items() if k not in ignore}
    for cfg in configs[1:]:
        other = {k: v for k, v in cfg.semantic_items() if k not in ignore}
        if other != reference:
            diff = {k for k in other if other[k] != reference.get(k)}
            raise ConfigurationError(
                f"configs differ outside declared axes: {sorted(diff)}")
    rows = []
    for ci, cfg in enumerate(configs):
        losses, accs = [], []
        for seed in seeds:
            run_dir = (os.path.join(output_dir, f"c{ci}_s{seed}")
                       if output_dir else
                       os.path.join(cfg.output_dir, f"c{ci}_s{seed}"))
            summary = run(replace(cfg, seed=seed, output_dir=run_dir))
            losses.append(summary.final_loss)
            accs.append(summary.final_accuracy)
            rows.append({"config": ci, "config_hash": summary.config_hash,
                         "seed": seed, "kind": "run",
                         "final_loss": summary.final_loss,
                         "final_accuracy": summary.final_accuracy})
        rows.append({"config": ci, "config_hash": cfg.config_hash(),
                     "seed": -1, "kind": "aggregate",
                     "final_loss": float(np.mean(losses)),
                     "final_accuracy": float(np.mean(accs)),
                     "loss_std": float(np.std(losses)),
                     "accuracy_std": float(np.std(accs))})
    if output_dir:
        cols = ("config", "config_hash", "seed", "kind", "final_loss",
                "final_accuracy", "loss_std", "accuracy_std")
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(
                _fmt(row[c]) if isinstance(row.get(c), float)
                else str(row.get(c, "")) for c in cols))
        _write_text(output_dir, "comparison.csv", "\n".join(lines) + "\n")
    return rows
