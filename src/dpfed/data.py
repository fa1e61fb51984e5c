"""Synthetic datasets and Dirichlet non-IID partitioning.

The default desk-scale corpus is 10-class Gaussian blobs (p = 20,
5000 samples) split across N = 10 clients; smaller Dirichlet
concentrations produce more skewed class distributions per client.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .blocks import ConfigurationError
from .dp import DOMAIN_DATA, NoiseStream

MAX_PARTITION_RETRIES = 100


@dataclass
class FederatedDataset:
    """Per-client (features, labels) arrays."""

    clients: list[tuple[np.ndarray, np.ndarray]]


def dirichlet_partition(X: np.ndarray, y: np.ndarray, num_clients: int,
                        alpha: float, stream: NoiseStream) -> FederatedDataset:
    """Assign each class's samples to clients by Dir(alpha) proportions.

    The whole partition is re-drawn (bounded retries) whenever a client
    ends up empty; silent reassignment would bias the heterogeneity.
    """
    if num_clients < 2:
        raise ConfigurationError("need at least 2 clients")
    if alpha <= 0:
        raise ConfigurationError("alpha must be > 0")
    y = np.asarray(y)
    classes = np.unique(y)
    rng = stream.rng((DOMAIN_DATA, 0))
    for _ in range(MAX_PARTITION_RETRIES):
        assignment = [[] for _ in range(num_clients)]
        for c in classes:
            idx = np.flatnonzero(y == c)
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(num_clients, alpha))
            counts = rng.multinomial(len(idx), props)
            start = 0
            for client, count in enumerate(counts):
                assignment[client].extend(idx[start:start + count])
                start += count
        if all(assignment):
            clients = [(X[np.sort(ids)], y[np.sort(ids)])
                       for ids in map(np.asarray, assignment)]
            return FederatedDataset(clients)
    raise ConfigurationError(
        f"could not produce non-empty clients in {MAX_PARTITION_RETRIES} draws")


def make_blobs(num_classes: int, num_features: int, num_samples: int,
               stream: NoiseStream, center_scale: float = 2.0,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Labeled Gaussian blobs with unit within-class spread."""
    rng = stream.rng((DOMAIN_DATA, 1))
    centers = center_scale * rng.standard_normal((num_classes, num_features))
    y = rng.integers(0, num_classes, num_samples)
    X = centers[y] + rng.standard_normal((num_samples, num_features))
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
    clients = []
    for center in centers:
        X = center[None, :] + jitter * rng.standard_normal(
            (samples_per_client, len(center)))
        clients.append((X, np.zeros(samples_per_client, dtype=np.int64)))
    return FederatedDataset(clients)


def load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Tabular ingestion; header must be f1..fp,label, features finite,
    labels ints >= 0 with every class 0..max present."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[-1] != "label" or any(
                h != f"f{i + 1}" for i, h in enumerate(header[:-1])):
            raise ConfigurationError("CSV header must be f1..fp,label")
        rows = [row for row in reader if row]
    if any(len(row) != len(header) for row in rows):
        raise ConfigurationError(f"every CSV row must have {len(header)} fields")
    try:
        X = np.array([[float(v) for v in row[:-1]] for row in rows])
        labels = np.array([float(row[-1]) for row in rows])
    except ValueError:
        raise ConfigurationError("CSV fields must be numbers") from None
    if not np.all(np.isfinite(X)):
        raise ConfigurationError("CSV features must be finite")
    if not np.all((labels >= 0) & (labels % 1 == 0)):
        raise ConfigurationError("CSV labels must be integers >= 0")
    if len(np.unique(labels)) != labels.max(initial=-1) + 1:
        raise ConfigurationError("CSV labels must cover every class 0..max")
    return X, labels.astype(np.int64)
