"""Per-sample clipping and noisy mini-batch mean.

The privatized gradient of one local step is the mean of clipped
per-sample gradients plus Gaussian noise with per-coordinate standard
deviation ``sigma * C / b``, where b = floor(s * R) for a client of R
rows. A client's batches and noise in one round come from one generator
keyed by (run seed, round, client), so trajectories are reproducible and
clients can run in any order on disjoint streams.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .blocks import ConfigurationError

# Domain tags keeping keyed RNG streams disjoint across uses of one seed.
DOMAIN_BATCH = 1
DOMAIN_CLIENTS = 2
DOMAIN_INIT = 3
DOMAIN_DATA = 4


@dataclass(frozen=True)
class DPConfig:
    """The run's per-step DP mechanism (C, sigma, s); one per run."""

    clip_norm: float
    noise_multiplier: float
    sample_rate: float = 1.0

    def __post_init__(self):
        if not (self.clip_norm > 0 and math.isfinite(self.clip_norm)):
            raise ConfigurationError("clip_norm must be finite and > 0")
        if not (self.noise_multiplier >= 0 and math.isfinite(self.noise_multiplier)):
            raise ConfigurationError("noise_multiplier (sigma) must be finite and >= 0")
        if not (0 < self.sample_rate <= 1):
            raise ConfigurationError("sample_rate must be in (0, 1]")

    def batch_size(self, num_rows: int) -> int:
        """floor(s * R) for a client of R rows; it must be >= 1."""
        b = int(self.sample_rate * num_rows)
        if b < 1:
            raise ConfigurationError(
                f"floor(sample_rate * {num_rows} rows) must be >= 1")
        return b

    def noise_std(self, batch_size: int) -> float:
        """Per-coordinate std of the noise on a batch mean: sigma*C/b."""
        if batch_size < 1:
            raise ConfigurationError("batch size must be >= 1")
        return self.noise_multiplier * self.clip_norm / batch_size


class NoiseStream:
    """Deterministic generators keyed by integer tuples.

    Identical (seed, key) pairs reproduce the same stream; distinct keys
    yield independent streams.
    """

    def __init__(self, run_seed: int):
        self.run_seed = int(run_seed)

    def rng(self, key: tuple[int, ...]) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.run_seed, *(int(k) for k in key)]))


def _row_norms(g: np.ndarray) -> np.ndarray:
    # Batched 1x1 matmuls run the same dot as 1-D np.linalg.norm, so each
    # norm is bitwise equal to it; norm(axis=1) and einsum are not.
    return np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0, 0])


def clip_batch(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    """Rescale each row of an (n, d) matrix to L2 norm at most clip_norm.

    Rows below the threshold are copied unchanged. The rescale loop runs
    until every recomputed norm is <= clip_norm, which makes the
    operation exactly idempotent.
    """
    if clip_norm <= 0:
        raise ConfigurationError("clip_norm must be > 0")
    grads = np.ascontiguousarray(grads, dtype=np.float64)
    norms = _row_norms(grads)
    # A NaN/inf entry makes its norm non-finite; a finite row's may overflow.
    if not (math.isfinite(norms.sum()) or np.isfinite(grads).all()):
        raise ConfigurationError("gradient contains non-finite entries")
    # One multiply, which also makes the copy: by C/||g|| over C, and by
    # exactly 1.0, which leaves the row bitwise unchanged, at or below it.
    out = grads * (clip_norm / np.maximum(norms, clip_norm))[:, None]
    norms = _row_norms(out)  # every row re-checked in place, without a gather
    rows = np.flatnonzero(norms > clip_norm)
    norms = norms[rows]
    while rows.size:  # only the rows that rescaling rounded up past C
        out[rows] = part = out[rows] * (clip_norm / norms)[:, None]
        norms = _row_norms(part)
        over = norms > clip_norm
        rows, norms = rows[over], norms[over]
    return out


def noisy_batch_mean(grads: np.ndarray, cfg: DPConfig,
                     rng: np.random.Generator | None) -> np.ndarray:
    """Mean of the clipped per-sample gradients plus Gaussian noise from rng.

    The rows are clipped here, so the guarantee does not rest on the
    caller. They are summed in the order given.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] == 0:
        raise ConfigurationError("expected non-empty (n, d) batch of gradients")
    clipped = clip_batch(grads, cfg.clip_norm)
    b, d = clipped.shape
    mean = clipped.sum(axis=0) / b
    if cfg.noise_multiplier > 0:
        if rng is None:
            raise ConfigurationError("a generator is required when sigma > 0")
        mean = mean + cfg.noise_std(b) * rng.standard_normal(d)
    return mean
