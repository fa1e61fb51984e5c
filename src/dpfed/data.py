"""Synthetic datasets and Dirichlet non-IID partitioning.

The default desk-scale corpus is 10-class Gaussian blobs (p = 20,
5000 samples) split across N = 10 clients; smaller Dirichlet
concentrations produce more skewed class distributions per client.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .blocks import ConfigurationError
from .dp import DOMAIN_DATA, NoiseStream

MAX_PARTITION_RETRIES = 100


@dataclass(frozen=True)
class FederatedDataset:
    """Every client's rows in one read-only pooled (X, y), client by
    client: client i owns rows bounds[i]:bounds[i + 1]."""

    X: np.ndarray
    y: np.ndarray
    bounds: tuple[int, ...]  # N + 1 ascending row offsets, 0 to len(y)

    def __post_init__(self):
        self.X.flags.writeable = self.y.flags.writeable = False

    @property
    def clients(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-client (features, labels) views of the pooled rows."""
        return [(self.X[lo:hi], self.y[lo:hi])
                for lo, hi in zip(self.bounds, self.bounds[1:])]


def dirichlet_partition(X: np.ndarray, y: np.ndarray, num_clients: int,
                        alpha: float, stream: NoiseStream) -> FederatedDataset:
    """Assign each class's samples to clients by Dir(alpha) proportions.

    The whole partition is re-drawn (bounded retries) whenever a client
    ends up empty; silent reassignment would bias the heterogeneity.
    A client's rows keep their order in X.
    """
    if num_clients < 2:
        raise ConfigurationError("num_clients must be >= 2")
    if alpha <= 0:
        raise ConfigurationError("alpha must be > 0")
    y = np.asarray(y)
    if num_clients > len(y):  # no draw could give every client a row
        raise ConfigurationError(
            f"num_clients={num_clients} exceeds the {len(y)} rows to partition")
    classes = np.unique(y)
    rng = stream.rng((DOMAIN_DATA, 0))
    # Each row's client, in the narrowest type: NumPy radix-sorts a stable
    # argsort of 8- and 16-bit integers, several times faster than int64.
    owner = np.empty(len(y), dtype=np.min_scalar_type(num_clients - 1))
    for _ in range(MAX_PARTITION_RETRIES):
        for c in classes:
            idx = np.flatnonzero(y == c)
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(num_clients, alpha))
            counts = rng.multinomial(len(idx), props)
            owner[idx] = np.repeat(np.arange(num_clients), counts)
        sizes = np.bincount(owner, minlength=num_clients)
        if sizes.all():
            order = np.argsort(owner, kind="stable")  # by client, then row
            return FederatedDataset(
                X[order], y[order],
                (0, *itertools.accumulate(sizes.tolist())))
    raise ConfigurationError(
        f"num_clients={num_clients} left a client empty in each of "
        f"{MAX_PARTITION_RETRIES} draws (alpha={alpha}, {len(y)} rows)")


def make_blobs(num_classes: int, num_features: int, num_samples: int,
               stream: NoiseStream) -> tuple[np.ndarray, np.ndarray]:
    """Labeled Gaussian blobs, centers N(0, 4 I), unit within-class spread."""
    rng = stream.rng((DOMAIN_DATA, 1))
    centers = 2.0 * rng.standard_normal((num_classes, num_features))
    y = rng.integers(0, num_classes, num_samples)
    X = rng.standard_normal((num_samples, num_features))
    X += centers[y]  # in place: each entry is the sum centers[y] + noise
    return X, y


def make_client_quadratics(dim: int, num_clients: int, heterogeneity: float,
                           stream: NoiseStream) -> np.ndarray:
    """Per-client quadratic centers a_i = a_mean + heterogeneity * u_i."""
    rng = stream.rng((DOMAIN_DATA, 2))
    mean_center = rng.standard_normal(dim)
    offsets = rng.standard_normal((num_clients, dim))
    return mean_center[None, :] + heterogeneity * offsets


def quadratic_client_data(centers: np.ndarray, samples_per_client: int,
                          stream: NoiseStream, jitter: float = 0.1,
                          ) -> FederatedDataset:
    """Datasets for the quadratic model: features are noisy copies of
    each client's center, labels are unused placeholders."""
    rng = stream.rng((DOMAIN_DATA, 3))
    num_clients, dim = centers.shape
    n = num_clients * samples_per_client
    # One draw of every client's noise: the generator fills it client by
    # client, as one (samples_per_client, dim) draw per client would.
    X = (np.repeat(centers, samples_per_client, axis=0)
         + jitter * rng.standard_normal((n, dim)))
    return FederatedDataset(X, np.zeros(n, dtype=np.int64),
                            tuple(range(0, n + 1, samples_per_client)))


def load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Tabular ingestion: header f1..fp,label with p >= 1, features at
    most 1e150 in size (no clip's squared norm overflows), labels ints >= 0
    with every class 0..max, max >= 1. Errors name ``dataset`` and path."""
    def error(message: str) -> ConfigurationError:
        return ConfigurationError(f"{message} (dataset {path})")

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise error(f"cannot read CSV: {exc}") from None
    if len(header) < 2 or header[-1] != "label" or any(
            h != f"f{i + 1}" for i, h in enumerate(header[:-1])):
        raise error("CSV header must be f1..fp,label with p >= 1")
    if not rows:
        raise error("CSV has no data rows")
    if any(len(row) != len(header) for row in rows):
        raise error(f"every CSV row must have {len(header)} fields")
    try:
        X = np.array([[float(v) for v in row[:-1]] for row in rows])
        labels = np.array([float(row[-1]) for row in rows])
    except ValueError:
        raise error("CSV fields must be numbers") from None
    if not np.all(np.abs(X) <= 1e150):  # NaN fails it too
        raise error("CSV features must be finite and at most 1e150 in size")
    if not np.all((labels >= 0) & (labels % 1 == 0)):
        raise error("CSV labels must be integers >= 0")
    if not 2 <= len(np.unique(labels)) == labels.max() + 1:
        raise error("CSV labels must cover classes 0..max, max >= 1")
    return X, labels.astype(np.int64)
