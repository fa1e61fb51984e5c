"""Print the sha256 of metrics.csv and of summary.json for a fixed matrix
of runs, one line per run: its label, then the two hashes in that order.

Two source trees write byte-identical artifacts on this matrix exactly
when this script prints the same lines for both. A change that moves only
``config_hash`` shows in the second column alone. The ``dpfed`` package is
imported from PYTHONPATH (this tree's ``src`` if it is not set), so one
copy of the script checks any tree:

    PYTHONPATH=src python tools/artifact_hashes.py > after.txt
    PYTHONPATH=../parent/src python tools/artifact_hashes.py > before.txt
    diff before.txt after.txt

The matrix is every workload of ``bench/workloads.py`` at its own length,
x 3 variants x seeds 0-9, plus each workload with one mechanism changed
(warm start off, bias correction off, identity preconditioner,
participation 0.5, sigma = 0, gamma = lambda = 0) x seeds 0-1, plus
{logistic, mlp2} x 3 variants x seeds 0-1 on a CSV the script writes,
which keeps CSV ingestion in the matrix, plus
{logistic_blobs, quadratic_drift} x the two baselines x each client-loop
switch (warm start off, bias correction off, identity preconditioner,
gamma = 0) at seed 0, which checks that a baseline ignores or honours
each, plus the shipped ``configs/default.cfg`` (10 quadratic clients, so
the server folds more than two clients' rows) read through
``parse_config_file`` at seeds 0-1: 156 sets. A config the tree rejects
prints its error in place of the hashes.

One more line follows the matrix: the sha256 of the ``comparison.csv`` that
``compare`` writes for a finished sweep of ``configs/default.cfg`` at
rounds = 5, gamma in {0, 0.5} and seeds 0-1. That sweep is kept out of
``matrix()``, which stays the 156 single runs.
"""
from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("dp_fedadamw", "dp_local_adamw", "dp_fedavg_sgd")
ABLATIONS = {
    "warm_start=0": dict(warm_start=False),
    "bias_correction=0": dict(bias_correction=False),
    "identity_preconditioner=1": dict(identity_preconditioner=True),
    "participation=0.5": dict(participation=0.5),
    "sigma=0": dict(noise_multiplier=0.0),
    "gamma=lambda=0": dict(gamma=0.0, weight_decay=0.0),
}
# The CSV sets name their file relative to the working directory, so
# their config hash, which includes the path, is the same on every run.
BLOBS_CSV = "blobs.csv"
CSV_RUN = dict(dataset=BLOBS_CSV, num_clients=4, alpha=1.0,
               rounds=4, local_steps=3, sample_rate=0.5, clip_norm=0.5)
# The client loop's switches, on the two baselines of these workloads.
SWITCHES = {
    "warm_start=0": dict(warm_start=False),
    "bias_correction=0": dict(bias_correction=False),
    "identity_preconditioner=1": dict(identity_preconditioner=True),
    "gamma=0": dict(gamma=0.0),
}
SWITCH_WORKLOADS = ("logistic_blobs", "quadratic_drift")
DEFAULT_CFG = "configs/default.cfg"
SWEEP_GAMMAS, SWEEP_SEEDS = (0.0, 0.5), (0, 1)


def write_blobs_csv(path: str) -> None:
    """Three Gaussian blobs in 6 features, 240 rows."""
    import numpy as np
    rng = np.random.default_rng(0)
    y = np.arange(240) % 3
    X = rng.standard_normal((240, 6)) + 2.0 * np.eye(3, 6)[y]
    lines = [",".join([f"f{j + 1}" for j in range(6)] + ["label"])]
    lines += [",".join([*map(repr, row), str(label)])
              for row, label in zip(X.tolist(), y.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def matrix(workloads):
    """(label, config) for every set, in a fixed order."""
    for name, w in workloads.items():
        for variant in VARIANTS:
            for seed in range(10):
                yield (f"{name} {variant} seed={seed}",
                       replace(w.config, variant=variant, seed=seed))
        for label, change in ABLATIONS.items():
            for seed in range(2):
                yield (f"{name} {label} seed={seed}",
                       replace(w.config, seed=seed, **change))
    base = replace(workloads["logistic_blobs"].config, **CSV_RUN)
    for model in ("logistic", "mlp2"):
        for variant in VARIANTS:
            for seed in range(2):
                yield (f"{BLOBS_CSV} {model} {variant} seed={seed}",
                       replace(base, model=model, variant=variant, seed=seed))
    for name in SWITCH_WORKLOADS:
        for variant in VARIANTS[1:]:
            for label, change in SWITCHES.items():
                yield (f"{name} {variant} {label} seed=0",
                       replace(workloads[name].config, variant=variant,
                               seed=0, **change))
    from dpfed.runner import parse_config_file
    for seed in range(2):
        yield (f"{DEFAULT_CFG} seed={seed}",
               parse_config_file(ROOT / DEFAULT_CFG, {"seed": seed}))


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before NumPy loads, as bench/run.py does
    sys.path += [str(ROOT / "src"), str(ROOT / "bench")]  # after PYTHONPATH
    import workloads
    from dpfed.blocks import ConfigurationError
    from dpfed.optimizer import DivergenceError
    from dpfed.runner import compare, parse_config_file, run
    print(f"dpfed from {Path(sys.modules['dpfed'].__file__).parent}",
          file=sys.stderr)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # where the CSV sets' relative dataset path points
        try:
            write_blobs_csv(BLOBS_CSV)
            for i, (label, config) in enumerate(matrix(workloads.WORKLOADS)):
                out = os.path.join(tmp, str(i))
                try:
                    run(replace(config, output_dir=out))
                except (ConfigurationError, DivergenceError) as exc:
                    print(f"{label} error: {exc}", flush=True)
                    continue
                hashes = [hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
                          for name in ("metrics.csv", "summary.json")]
                print(label, *hashes, flush=True)
            label = f"{DEFAULT_CFG} rounds=5 compare gamma=0,0.5 seeds=0-1"
            base = parse_config_file(ROOT / DEFAULT_CFG, {"rounds": 5})
            out = os.path.join(tmp, "sweep")
            try:
                compare([replace(base, gamma=g) for g in SWEEP_GAMMAS],
                        list(SWEEP_SEEDS), axes=("gamma",), output_dir=out)
            except (ConfigurationError, DivergenceError) as exc:
                print(f"{label} error: {exc}", flush=True)
            else:
                print(label, hashlib.sha256(Path(
                    out, "comparison.csv").read_bytes()).hexdigest(), flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
