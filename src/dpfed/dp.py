"""Per-sample clipping and noisy mini-batch mean.

The privatized gradient of one local step is the mean of clipped
per-sample gradients plus Gaussian noise with per-coordinate standard
deviation ``sigma * C / b``, where b = floor(s * R) for a client of R
rows. A client's batches and noise in one round come from one generator
keyed by (run seed, round, client), so trajectories are reproducible and
clients can run in any order on disjoint streams.

A model hands its gradients over factored, one (E, A) pair per layer
(see ``models``): sample i's gradient on layer l is E_l[i] (x) [A_l[i], 1],
so its squared norm is sum_l ||E_l[i]||^2 (||A_l[i]||^2 + 1). The batch is
clipped without forming its (n, d) rows: ``clip_batch`` clips the narrow
carrier U = [E_l * s_l] with s_l = sqrt(||A_l||^2 + 1) per row, whose row
norms are the gradient norms, each layer's scale s_l is divided back out,
and the layer's clipped sum is E'^T A plus the column sum of E'. The
carrier is clipped at C (1 - 2^-40), not at C: rounding in s_l, in the
division by it and in the carrier's computed norm moves an assembled
row's norm off its carrier norm by a relative error of about
(in + out) / 2 units of 2^-53, while the margin is 8192 such units, so
every assembled row stays at or below C for any desk-scale layer. A
batch of one layer without input (A of shape (n, 0), the quadratic) is
its own carrier: its rows are E, clipped at C and summed in order. The
per-layer loop with its carrier clipped at C gives the same bytes, but
costs about 11 us more per call (13 -> 24 us for the clipped sum at
S = 2, d = 5, 20 rows on one Xeon core), about 2 ms of the 200 calls of
a ``quadratic_drift`` benchmark run, so the quadratic keeps its branch.

A round's S clients are clipped as one batch: client i's rows are
rows[i]:rows[i + 1] of the factors, every clip operation is per row, and
each client's rows are summed and noised on their own, so its mean is
bitwise the one its batch gives alone. Each client's E'^T A and column
sums are written straight into its row of the one (S, d) result.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
import math
import operator

import numpy as np

from .blocks import ConfigurationError
from .optimizer import DivergenceError

# Domain tags keeping keyed RNG streams disjoint across uses of one seed.
DOMAIN_BATCH = 1
DOMAIN_CLIENTS = 2
DOMAIN_INIT = 3
DOMAIN_DATA = 4
DOMAIN_PROBE = 97  # diagnostics.bias_probe's generator

# Factored batches clip their carrier at C times this (module docstring).
_CARRIER_CLIP = 1.0 - 2.0 ** -40


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

    @functools.cached_property
    def _rate(self) -> tuple[int, int]:
        # s as written, exactly: in floats 0.7 * 90 is 62.99999999999999
        return Fraction(str(self.sample_rate)).as_integer_ratio()

    def batch_size(self, num_rows: int) -> int:
        """floor(s * R) for a client of R rows; it must be >= 1."""
        num, den = self._rate
        b = num * num_rows // den
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
        self.run_seed = run_seed  # checked with every key

    def rng(self, key: tuple[int, ...]) -> np.random.Generator:
        try:  # operator.index takes NumPy integers and rejects 1.5
            entropy = [operator.index(k) for k in (self.run_seed, *key)]
            return np.random.default_rng(np.random.SeedSequence(entropy))
        except (TypeError, ValueError):  # SeedSequence rejects -1
            raise ConfigurationError("seed and key entries must be integers "
                                     f">= 0: {(self.run_seed, *key)}") from None


def _row_norms(g: np.ndarray) -> np.ndarray:
    # vecdot runs the same dot as 1-D np.linalg.norm, so each norm is
    # bitwise equal to it; norm(axis=1) and einsum are not.
    return np.sqrt(np.vecdot(g, g))


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
    if not (math.isfinite(np.add.reduce(norms)) or np.isfinite(grads).all()):
        raise DivergenceError("non-finite gradient entries")
    # One multiply, which also makes the copy: by C/||g|| over C, and by
    # exactly 1.0, which leaves the row bitwise unchanged, at or below it.
    out = grads * (clip_norm / np.maximum(norms, clip_norm))[:, None]
    norms = _row_norms(out)  # every row re-checked in place, without a gather
    rows = (norms > clip_norm).nonzero()[0]
    norms = norms[rows]
    while rows.size:  # only the rows that rescaling rounded up past C
        out[rows] = part = out[rows] * (clip_norm / norms)[:, None]
        norms = _row_norms(part)
        over = norms > clip_norm
        rows, norms = rows[over], norms[over]
    return out


def noisy_batch_mean(grads, cfg: DPConfig, rngs, rows) -> np.ndarray:
    """The (S, d) stack of S clients' noisy means of clipped gradients.

    ``grads`` is a model's per-layer (E, A) factors (see ``models``) of
    the S clients' batches, client i's at rows rows[i]:rows[i + 1], and
    ``rngs`` their S generators: client i's mean is that of its b clipped
    rows E[j] (x) [A[j], 1], flat in block order, plus noise of its own b
    drawn from rngs[i]. The rows are clipped here, so the guarantee does
    not rest on the caller; a non-finite gradient entry is a DivergenceError."""
    bounds = list(zip(rows[:-1], rows[1:]))
    b = [hi - lo for lo, hi in bounds]
    if min(b) == 0:
        raise ConfigurationError("expected a non-empty batch of gradients")
    if len(grads) == 1 and not grads[0][1].shape[1]:  # no input: rows E
        clipped = clip_batch(grads[0][0], cfg.clip_norm)
        mean = np.array([clipped[lo:hi].sum(axis=0) for lo, hi in bounds])
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            scales = [np.sqrt(np.vecdot(A, A) + 1.0)[:, None] for _, A in grads]
            scaled = np.concatenate(
                [E * s for (E, _), s in zip(grads, scales)], axis=1)
        carrier = clip_batch(scaled, cfg.clip_norm * _CARRIER_CLIP)
        mean = np.empty((len(b), sum(E.shape[1] * (A.shape[1] + 1)
                                     for E, A in grads)))
        c = col = 0  # this layer's first carrier column and first entry
        for (E, A), s in zip(grads, scales):
            n_out, n_in = E.shape[1], A.shape[1]
            e = carrier[:, c:c + n_out]
            e /= s  # in place: this layer's clipped output errors E'
            W = mean[:, col:col + n_out * n_in].reshape(len(b), n_out, n_in)
            bias = mean[:, col + n_out * n_in:col + n_out * (n_in + 1)]
            for Wi, bi, (lo, hi) in zip(W, bias, bounds):  # client rows
                np.matmul(e[lo:hi].T, A[lo:hi], out=Wi)
                e[lo:hi].sum(axis=0, out=bi)
            c, col = c + n_out, col + n_out * (n_in + 1)
    mean /= np.array(b)[:, None]
    if cfg.noise_multiplier > 0:
        if any(r is None for r in rngs):
            raise ConfigurationError("a generator is required when sigma > 0")
        std = np.array([cfg.noise_std(n) for n in b])
        noise = np.empty_like(mean)
        for r, row in zip(rngs, noise):
            r.standard_normal(out=row)
        mean = mean + std[:, None] * noise
    return mean
