"""Desk-scale differentiable models with exact per-sample gradients.

Three model kinds share one interface over flat parameter vectors:

* ``quadratic`` -- 0.5 * ||theta - a||^2 with a per-sample center ``a``
  (the sample's feature vector).
* ``logistic`` -- multinomial logistic regression, cross-entropy loss.
* ``mlp2`` -- one tanh hidden layer, then linear + softmax cross-entropy.

Both classifiers are one ``SoftmaxModel``, with zero or ``hidden`` units.

Gradients are analytic. ``per_sample_grads`` evaluates many samples at
once and returns each sample's gradient in factored form, one (E, A)
pair per layer in block order: sample i's gradient on a (W, b) layer is
E[i] (x) [A[i], 1], its W block E[i] A[i]^T flattened and then its b block
E[i]. DP clipping reads each row's norm from the factors and never forms
the (n, d) matrix. The quadratic model's one "layer" is a bias without
input: it returns [(E, A)] with A of shape (n, 0), so its rows are E.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockLayout, ConfigurationError


def _row_max(z: np.ndarray) -> np.ndarray:
    """z.max(axis=-1, keepdims=True) of a 2-D z, reduced across the rows of
    z.T: max is exact in any order and NaN and inf propagate as in max, and
    with a few columns this runs several times faster."""
    return np.maximum.reduce(np.ascontiguousarray(z.T), axis=0)[:, None]


def _softmax(z: np.ndarray) -> np.ndarray:
    e = z - _row_max(z)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _log_softmax_at(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log softmax(z[i])[y[i]] per row i: the full log-softmax's z - max,
    exp, sum and log, subtracted at the label entries only. z is left
    unchanged: the exp runs in place on the shifted copy, after the label
    entries are read from it."""
    z = z - _row_max(z)
    at = z[np.arange(len(y)), y]
    return at - np.log(np.exp(z, out=z).sum(axis=-1))


class Model:
    """Common interface: flat dim ``d``, a BlockLayout, loss and gradients.
    Each model's ``evaluate(theta, X, y)`` is the (mean loss, accuracy) of
    one theta, the accuracy NaN for a model without classes."""

    d: int
    layout: BlockLayout

    def batch_loss(self, theta, X, y) -> float:
        return self.evaluate(theta, X, y)[0]

    def per_sample_grads(self, theta, X, y, rows=None
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer factors (E, A) of the n sample gradients, in block
        order: E is the layer's (n, out) output error, A its (n, in) input.

        An (S, d) theta stacks S clients' parameters; client i's samples
        are rows[i]:rows[i + 1] of X and y. A 1-D theta is one client."""
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, self.d)

    def _check_dim(self, theta):
        if theta.shape != (self.d,):
            raise ConfigurationError(
                f"theta dim {theta.shape} does not match model dim {self.d}")

    def _stack(self, theta, n, rows):
        """theta as an (S, d) stack and its clients' (start, end) rows; a
        1-D theta is one client of all n rows."""
        if theta.ndim == 1:
            self._check_dim(theta)
            return theta[None], [(0, n)]
        if (theta.shape[1:] != (self.d,) or rows is None
                or len(rows) != len(theta) + 1):
            raise ConfigurationError(
                f"theta {theta.shape} does not match model dim {self.d} "
                "and one (start, end) row range per client")
        return theta, list(zip(rows[:-1], rows[1:]))


@dataclass
class QuadraticModel(Model):
    """0.5 * ||theta - a||^2 with sample features as center a."""

    dim: int

    def __post_init__(self):
        self.d = self.dim
        self.layout = BlockLayout.from_sizes([self.d])

    def evaluate(self, theta, X, y):
        self._check_dim(theta)
        r = theta[None, :] - X
        return float(0.5 * np.mean(np.sum(r * r, axis=1))), float("nan")

    def per_sample_grads(self, theta, X, y, rows=None):
        theta, bounds = self._stack(theta, len(X), rows)
        centers = np.repeat(theta, [hi - lo for lo, hi in bounds], axis=0)
        return [(centers - X, X[:, :0])]


@dataclass
class SoftmaxModel(Model):
    """Softmax cross-entropy classifier: ``hidden`` tanh units between the
    features and the logits, or none (multinomial logistic regression).

    One (W, b) pair per layer, blocks {W1, b1[, W2, b2]} in that order.
    """

    num_features: int
    num_classes: int
    hidden: int = 0

    def __post_init__(self):
        if self.hidden < 0:
            raise ConfigurationError("hidden must be >= 0")
        widths = [self.num_features, *([self.hidden] if self.hidden else []),
                  self.num_classes]
        shapes = list(zip(widths[1:], widths[:-1]))  # (out, in) per layer
        self.layout = BlockLayout.from_sizes(
            [size for n_out, n_in in shapes for size in (n_out * n_in, n_out)])
        self.d = self.layout.dim
        s = self.layout.slices()
        self._layers = [(s[2 * i], shape, s[2 * i + 1])
                        for i, shape in enumerate(shapes)]

    def _forward(self, theta, X, rows=None):
        """Each layer's (input, per-client W), the logits and the clients'
        row bounds; the matmuls run per client, each into its rows of the
        layer's one (n, out) output, and row-wise ops on all rows."""
        theta, bounds = self._stack(theta, len(X), rows)
        layers, a = [], X
        for w, shape, b in self._layers:
            if layers:
                a = np.tanh(z, out=z)
            Ws = [t[w].reshape(shape) for t in theta]
            layers.append((a, Ws))
            z = np.empty((len(a), shape[0]))
            for (lo, hi), W, t in zip(bounds, Ws, theta):
                np.matmul(a[lo:hi], W.T, out=z[lo:hi])
                z[lo:hi] += t[b]
        return layers, z, bounds

    def per_sample_grads(self, theta, X, y, rows=None):
        layers, z, bounds = self._forward(theta, X, rows)
        err = _softmax(z)  # d loss / d z, then back through each layer
        err[np.arange(len(y)), y] -= 1.0
        factors = []
        for i in range(len(layers) - 1, -1, -1):
            a, Ws = layers[i]
            factors.append((err, a))
            if i:
                back = np.empty_like(a)
                for (lo, hi), W in zip(bounds, Ws):
                    np.matmul(err[lo:hi], W, out=back[lo:hi])
                err = np.multiply(back, 1.0 - a * a, out=back)
        return factors[::-1]

    def predict(self, theta, X):
        return np.argmax(self._forward(theta, X)[1], axis=1)

    def evaluate(self, theta, X, y):
        z = self._forward(theta, X)[1]  # one forward pass for both
        return (float(-_log_softmax_at(z, y).mean()),
                float(np.mean(np.argmax(z, axis=1) == y)))


def build_model(kind: str, *, dim: int = 5, num_features: int = 20,
                num_classes: int = 10, hidden: int = 16) -> Model:
    if kind == "quadratic":
        return QuadraticModel(dim)
    if kind == "logistic":
        return SoftmaxModel(num_features, num_classes)
    if kind == "mlp2":
        if hidden < 1:
            raise ConfigurationError("mlp2 needs hidden >= 1")
        return SoftmaxModel(num_features, num_classes, hidden)
    raise ConfigurationError(f"unknown model kind: {kind!r}")
