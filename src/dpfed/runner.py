"""Config-driven experiment orchestration.

A run is fully described by a RunConfig (parsable from a flat key=value
file); given the same config and seed it writes byte-identical metrics
CSV and summary JSON. Wall time is returned on the RunSummary object but
deliberately kept out of the JSON so the artifact stays deterministic.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .accounting import PrivacyLedger, compose_and_convert
from .blocks import ConfigurationError
from .data import (dirichlet_partition, load_csv, make_blobs,
                   make_client_quadratics, quadratic_client_data)
from .diagnostics import client_drift, cross_client_var_v
from .dp import DOMAIN_INIT, DPConfig, NoiseStream
from .federation import VARIANTS, RoundState, payload_count, run_round
from .models import build_model
from .optimizer import AdamWParams, DivergenceError

METRICS_COLUMNS = ("t", "global_loss", "global_acc", "var_v", "drift",
                   "uplink", "downlink", "eps_rdp")


class MetricRecord(NamedTuple):
    """One row of metrics.csv, field for field in METRICS_COLUMNS' order."""

    t: int
    global_loss: float
    global_accuracy: float  # nan for regression-style models
    var_v: float
    drift: float
    uplink_floats: int
    downlink_floats: int
    eps_rdp: float


# Fields that do not change what a run computes.
_NON_SEMANTIC_FIELDS = ("output_dir",)
# Fields read only by some variants (federation.VARIANTS), models or
# datasets: a run that ignores them hashes them at their defaults, so one
# computation has one hash.
_QUADRATIC_FIELDS = ("dim", "heterogeneity", "jitter", "samples_per_client")
_BLOBS_FIELDS = ("num_features", "num_classes", "num_samples")
_CLASSIFIER_FIELDS = (*_BLOBS_FIELDS, "hidden", "alpha")

_LEAST = {"rounds": 0, "seed": 0, "local_steps": 1, "num_clients": 1, "dim": 1,
          "num_features": 1, "num_samples": 1, "samples_per_client": 1,
          "num_classes": 2}  # smallest values (mlp2's hidden: build_model)
_BOOLS = {"true": True, "1": True, "false": False, "0": False}
_PARSERS = {"int": int, "float": lambda text: float(text) + 0.0,  # -0 is 0.0
            "str": str, "bool": lambda text: _BOOLS[text.lower()]}  # by annotation


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
    adam_eps: float = 1e-2
    alpha: float = 0.1
    warm_start: bool = True
    bias_correction: bool = True
    identity_preconditioner: bool = False
    seed: int = 0
    output_dir: str = "runs/out"

    def __post_init__(self):
        for f in fields(self):  # a value from Python, a file or a flag alike
            value = getattr(self, f.name)
            text = type(value)  # what an error shows while value has no text
            try:  # a str field takes text or a path: str(None) is no path
                if f.type == "str" and not isinstance(value, (str, os.PathLike)):
                    raise ValueError
                text = str(value)  # an int past 4300 digits has none
                object.__setattr__(self, f.name, _PARSERS[f.type](text))
            except (KeyError, ValueError):
                raise ConfigurationError(f"{f.name}: cannot parse {text!r}") from None
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if (self.model == "quadratic") != (self.dataset == "quadratics"):
            raise ConfigurationError("dataset=quadratics goes with "
                                     "model=quadratic, and only with it")
        if not (0 < self.participation <= 1):
            raise ConfigurationError("participation must be in (0, 1]")
        for key, least in _LEAST.items():
            if getattr(self, key) < least:
                raise ConfigurationError(f"{key} must be >= {least}")
        if self.model != "quadratic" and self.num_clients < 2:  # a partition
            raise ConfigurationError("num_clients must be >= 2")
        if self.dataset == "blobs" and self.num_clients > self.num_samples:
            raise ConfigurationError("num_clients must be <= num_samples")
        build_model(self.model, dim=self.dim, num_features=self.num_features,
                    num_classes=self.num_classes, hidden=self.hidden)
        for key in ("heterogeneity", "jitter"):  # spreads of the quadratics
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{key} must be finite and >= 0")
        if not (0 < self.delta < 1):
            raise ConfigurationError("delta must lie in (0, 1)")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):  # NaN fails too
            raise ConfigurationError("alpha must be finite and > 0")
        # The optimizer's and the DP mechanism's checks, for every variant:
        # a bad value fails here, before any data is built.
        self._settings(AdamWParams)
        dp_cfg = self._settings(DPConfig)
        if self.model == "quadratic":  # every client holds R rows
            dp_cfg.batch_size(self.samples_per_client)

    def _settings(self, cls):
        """An AdamWParams or DPConfig of this config's same-named fields."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    @property
    def selected_clients(self) -> int:
        # ceil of the written decimal: in floats 0.55 * 100 is 55.00000000000001
        return max(1, math.ceil(Fraction(str(self.participation))
                                * self.num_clients))

    def _ignored_fields(self) -> set[str]:
        """The fields this run's variant, model and dataset do not read."""
        ignored = set(VARIANTS[self.variant][1])
        if self.model == "quadratic":
            return ignored | set(_CLASSIFIER_FIELDS)
        ignored.update(_QUADRATIC_FIELDS)
        if self.model == "logistic":
            ignored.add("hidden")
        if self.dataset != "blobs":  # a CSV fixes its features and classes
            ignored.update(_BLOBS_FIELDS)
        return ignored

    def config_hash(self) -> str:
        ignored = self._ignored_fields()
        items = sorted((f.name, repr(f.default if f.name in ignored
                                     else getattr(self, f.name)))
                       for f in fields(self) if f.name not in _NON_SEMANTIC_FIELDS)
        payload = "\n".join(f"{k}={v}" for k, v in items)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def parse_config_file(path, overrides: dict | None = None) -> RunConfig:
    """UTF-8 key = value file, BOM optional, one key a line, # comments."""
    values: dict = {}
    linenos: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")  # newlines already translated
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"{path}: cannot read config file ({type(exc).__name__})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in linenos:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}"
                                     f" (first on line {linenos[key]})")
        values[key], linenos[key] = val, lineno
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_strings(values)


def config_from_strings(values: dict) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    for key in values:
        if key not in names:
            raise ConfigurationError(f"unknown config key {key!r}")
    return RunConfig(**values)


@dataclass
class RunSummary:
    """A run's result: eps_rdp, the composed RDP bound, is its one epsilon."""

    final_loss: float
    final_accuracy: float
    eps_rdp: float
    wall_time_s: float
    config_hash: str
    metrics: list[MetricRecord]


def _build_problem(config: RunConfig, stream: NoiseStream):
    """Model, per-client datasets and the run's DP mechanism; the model is
    the config's, but a CSV supplies its own feature and class counts."""
    num_features, num_classes = config.num_features, config.num_classes
    dp_cfg = config._settings(DPConfig)
    if config.model == "quadratic":
        centers = make_client_quadratics(config.dim, config.num_clients,
                                         config.heterogeneity, stream)
        fed = quadratic_client_data(centers, config.samples_per_client,
                                    stream, config.jitter)
    else:
        if config.dataset == "blobs":
            X, y = make_blobs(config.num_classes, config.num_features,
                              config.num_samples, stream)
        else:
            X, y = load_csv(config.dataset)
            num_features, num_classes = X.shape[1], int(y.max()) + 1
        fed = dirichlet_partition(X, y, config.num_clients, config.alpha, stream)
        for lo, hi in zip(fed.bounds, fed.bounds[1:]):
            dp_cfg.batch_size(hi - lo)  # a client without one full batch fails
    model = build_model(config.model, dim=config.dim, num_features=num_features,
                        num_classes=num_classes, hidden=config.hidden)
    return model, fed, dp_cfg


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is DivergenceError
def run(config: RunConfig) -> RunSummary:
    """Execute T rounds, writing metrics.csv and summary.json; a run that
    stops early, for any reason, writes only its completed rows."""
    start = time.perf_counter()

    stream = NoiseStream(config.seed)
    model, fed, dp_cfg = _build_problem(config, stream)
    try:  # once the config is known to be valid, before any round runs
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output_dir {config.output_dir!r} cannot be "
                                 f"a directory ({type(exc).__name__})") from None
    for name in ("metrics.csv", "summary.json"):
        if os.path.isdir(os.path.join(config.output_dir, name)):
            raise ConfigurationError(f"output_dir {config.output_dir!r} holds "
                                     f"a directory named {name}")
    theta0 = model.init_params(stream.rng((DOMAIN_INIT,)))
    state = RoundState.initial(theta0, model.layout)
    opt = config._settings(AdamWParams)
    ledger = PrivacyLedger()
    per_client_payload = payload_count(config.variant, model.d,
                                       model.layout.num_blocks)

    records: list[MetricRecord] = []
    eps_rdp = 0.0
    selected = config.selected_clients  # Fraction arithmetic: once a run
    try:
        for _ in range(config.rounds):
            state, report = run_round(
                state, model, fed, dp_cfg, opt, config.variant,
                config.local_steps, selected, stream)
            ledger.add_event(config.noise_multiplier, config.sample_rate,
                             config.local_steps)  # sigma = 0 charges inf
            eps_rdp = compose_and_convert(ledger, config.delta).epsilon
            loss, acc = model.evaluate(state.theta, fed.X, fed.y)
            S = len(report.client_ids)
            spread = ((cross_client_var_v(report.v), client_drift(report.theta))
                      if S >= 2 else ())  # var_v and drift; NaN for S = 1
            if not np.isfinite((loss, *spread)).all():
                raise DivergenceError(f"non-finite metrics in round {state.t}")
            records.append(MetricRecord(
                state.t, loss, acc, *(spread or (math.nan, math.nan)),
                per_client_payload[0] * S, per_client_payload[1] * S, eps_rdp))
    finally:  # a finished, diverged or interrupted run alike
        _write_text(config.output_dir, "metrics.csv",
                    csv_text(METRICS_COLUMNS, records))
        stale = os.path.join(config.output_dir, "summary.json")
        if len(records) < config.rounds and os.path.exists(stale):
            os.remove(stale)  # a stopped run keeps no earlier run's summary

    if records:  # theta has not moved since the last round's evaluation
        last = records[-1]
        final_loss, final_acc = last.global_loss, last.global_accuracy
    else:
        final_loss, final_acc = model.evaluate(state.theta, fed.X, fed.y)
    summary = RunSummary(final_loss=final_loss, final_accuracy=final_acc,
                         eps_rdp=eps_rdp, wall_time_s=time.perf_counter() - start,
                         config_hash=config.config_hash(), metrics=records)
    _write_text(config.output_dir, "summary.json", json.dumps({
        "config_hash": summary.config_hash, "variant": config.variant,
        "model": config.model, "seed": config.seed, "rounds": config.rounds,
        "final_loss": final_loss, "final_accuracy": final_acc,
        "eps_rdp": eps_rdp}, indent=2, allow_nan=True) + "\n")
    return summary


def _write_text(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(text)


def csv_text(columns, rows) -> str:
    """Header plus one line per row; floats keep 17 significant digits."""
    lines = [",".join(columns)]
    lines += [",".join(format(float(x), ".17g") if isinstance(x, float)
                       else str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def compare(configs: list[RunConfig], seeds: list[int],
            axes: tuple[str, ...] = (), *, output_dir: str) -> list[dict]:
    """Paired-seed sweep over configs that differ only in declared axes,
    or in fields that neither config of a pair reads.

    Returns one row per (config, seed) plus per-config mean/std rows and
    writes them to output_dir/comparison.csv, each run to its own
    output_dir/c<config>_s<seed>.
    """
    if not configs or not seeds:
        raise ConfigurationError("compare needs configs and seeds")
    seeds = [replace(configs[0], seed=s).seed for s in seeds]  # as a run's
    if len(set(seeds)) != len(seeds):  # a repeat would rerun one directory
        raise ConfigurationError(f"compare seeds must be distinct: {seeds}")
    unknown = sorted(set(axes) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ConfigurationError(f"compare axes are not config keys: {unknown}")
    ignore = set(axes) | set(_NON_SEMANTIC_FIELDS) | {"seed"}
    for a, b in itertools.combinations(configs, 2):  # a field read by either
        skip = ignore | (a._ignored_fields() & b._ignored_fields())
        diff = [f.name for f in fields(RunConfig) if f.name not in skip
                and getattr(a, f.name) != getattr(b, f.name)]
        if diff:
            raise ConfigurationError(
                f"configs differ outside declared axes: {diff}")
    rows = []
    for ci, cfg in enumerate(configs):
        losses, accs = [], []
        for seed in seeds:
            run_dir = os.path.join(output_dir, f"c{ci}_s{seed}")
            try:
                summary = run(replace(cfg, seed=seed, output_dir=run_dir))
            except (ConfigurationError, DivergenceError) as exc:
                raise type(exc)(f"{run_dir}: {exc}") from exc
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
    cols = ("config", "config_hash", "seed", "kind", "final_loss",
            "final_accuracy", "loss_std", "accuracy_std")
    _write_text(output_dir, "comparison.csv", csv_text(
        cols, ([row.get(c, "") for c in cols] for row in rows)))
    return rows
