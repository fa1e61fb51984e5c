"""Desk-scale differentiable models with exact per-sample gradients.

Three model kinds share one interface over flat parameter vectors:

* ``quadratic`` -- 0.5 * (theta - a)^T D (theta - a) with a per-sample
  center ``a`` (the sample's feature vector) and diagonal curvature D.
* ``logistic`` -- multinomial logistic regression, cross-entropy loss.
* ``mlp2`` -- one tanh hidden layer, then linear + softmax cross-entropy.

Gradients are analytic. ``per_sample_grads`` evaluates many samples at
once but returns one gradient row per sample, which DP clipping needs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockLayout, ConfigurationError


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class Model:
    """Common interface: flat dim ``d``, a BlockLayout, loss and gradients."""

    kind: str
    d: int
    layout: BlockLayout

    def batch_loss(self, theta, X, y) -> float:
        raise NotImplementedError

    def per_sample_grads(self, theta, X, y) -> np.ndarray:
        """(n, d) matrix of individual sample gradients."""
        raise NotImplementedError

    def predict(self, theta, X) -> np.ndarray | None:
        return None

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, self.d)

    def _check_dim(self, theta):
        if theta.shape != (self.d,):
            raise ConfigurationError(
                f"theta dim {theta.shape} does not match model dim {self.d}")


@dataclass
class QuadraticModel(Model):
    """0.5 * sum_j D_j (theta_j - a_j)^2 with sample features as center a."""

    dim: int
    curvature: np.ndarray | None = None
    kind: str = field(default="quadratic", init=False)

    def __post_init__(self):
        self.d = self.dim
        if self.curvature is None:
            self.curvature = np.ones(self.d)
        self.curvature = np.asarray(self.curvature, dtype=np.float64)
        if self.curvature.shape != (self.d,) or np.any(self.curvature <= 0):
            raise ConfigurationError("curvature must be positive, length d")
        self.layout = BlockLayout.from_sizes([("all", self.d)])

    def batch_loss(self, theta, X, y):
        self._check_dim(theta)
        r = theta[None, :] - X
        return float(0.5 * np.mean(np.sum(self.curvature * r * r, axis=1)))

    def per_sample_grads(self, theta, X, y):
        self._check_dim(theta)
        return self.curvature * (theta[None, :] - X)


@dataclass
class LogisticModel(Model):
    """Multinomial logistic regression; blocks {weights, bias}."""

    num_features: int
    num_classes: int
    kind: str = field(default="logistic", init=False)

    def __post_init__(self):
        p, c = self.num_features, self.num_classes
        self.d = c * p + c
        self.layout = BlockLayout.from_sizes([("weights", c * p), ("bias", c)])

    def _unpack(self, theta):
        p, c = self.num_features, self.num_classes
        return theta[:c * p].reshape(c, p), theta[c * p:]

    def batch_loss(self, theta, X, y):
        self._check_dim(theta)
        W, b = self._unpack(theta)
        logp = _log_softmax(X @ W.T + b)
        return float(-logp[np.arange(len(y)), y].mean())

    def per_sample_grads(self, theta, X, y):
        self._check_dim(theta)
        W, b = self._unpack(theta)
        n = len(y)
        err = _softmax(X @ W.T + b)
        err[np.arange(n), y] -= 1.0
        grads = np.empty((n, self.d))
        np.einsum("nc,np->ncp", err, X,
                  out=grads[:, :W.size].reshape(n, *W.shape))
        grads[:, W.size:] = err
        return grads

    def predict(self, theta, X):
        W, b = self._unpack(theta)
        return np.argmax(X @ W.T + b, axis=1)


@dataclass
class MLP2Model(Model):
    """Single tanh hidden layer then softmax; blocks {W1, b1, W2, b2}."""

    num_features: int
    num_classes: int
    hidden: int = 16
    kind: str = field(default="mlp2", init=False)

    def __post_init__(self):
        p, h, c = self.num_features, self.hidden, self.num_classes
        self.d = h * p + h + c * h + c
        self.layout = BlockLayout.from_sizes(
            [("W1", h * p), ("b1", h), ("W2", c * h), ("b2", c)])

    def _unpack(self, theta):
        p, h, c = self.num_features, self.hidden, self.num_classes
        i = 0
        W1 = theta[i:i + h * p].reshape(h, p); i += h * p
        b1 = theta[i:i + h]; i += h
        W2 = theta[i:i + c * h].reshape(c, h); i += c * h
        b2 = theta[i:]
        return W1, b1, W2, b2

    def batch_loss(self, theta, X, y):
        self._check_dim(theta)
        W1, b1, W2, b2 = self._unpack(theta)
        a1 = np.tanh(X @ W1.T + b1)
        logp = _log_softmax(a1 @ W2.T + b2)
        return float(-logp[np.arange(len(y)), y].mean())

    def per_sample_grads(self, theta, X, y):
        self._check_dim(theta)
        W1, b1, W2, b2 = self._unpack(theta)
        n = len(y)
        a1 = np.tanh(X @ W1.T + b1)
        err = _softmax(a1 @ W2.T + b2)
        err[np.arange(n), y] -= 1.0
        dz1 = (err @ W2) * (1.0 - a1 * a1)
        grads = np.empty((n, self.d))
        gW1, gb1, gW2, gb2 = (grads[:, s] for s in self.layout.slices())
        np.einsum("nh,np->nhp", dz1, X, out=gW1.reshape(n, *W1.shape))
        gb1[:] = dz1
        np.einsum("nc,nh->nch", err, a1, out=gW2.reshape(n, *W2.shape))
        gb2[:] = err
        return grads

    def predict(self, theta, X):
        W1, b1, W2, b2 = self._unpack(theta)
        a1 = np.tanh(X @ W1.T + b1)
        return np.argmax(a1 @ W2.T + b2, axis=1)


def build_model(kind: str, *, dim: int = 5, num_features: int = 20,
                num_classes: int = 10, hidden: int = 16) -> Model:
    if kind == "quadratic":
        return QuadraticModel(dim)
    if kind == "logistic":
        return LogisticModel(num_features, num_classes)
    if kind == "mlp2":
        return MLP2Model(num_features, num_classes, hidden)
    raise ConfigurationError(f"unknown model kind: {kind!r}")
