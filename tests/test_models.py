import math
import tracemalloc

import numpy as np
import pytest

from conftest import dense_grads
from dpfed.blocks import ConfigurationError
from dpfed.data import make_blobs
from dpfed.dp import NoiseStream
from dpfed.models import (QuadraticModel, _log_softmax_at, _row_max, _softmax,
                          build_model)

RNG = np.random.default_rng(12345)


def central_difference(f, theta, coords, step=1e-6):
    """Independent finite-difference gradient oracle."""
    out = {}
    for j in coords:
        tp, tm = theta.copy(), theta.copy()
        tp[j] += step
        tm[j] -= step
        out[j] = (f(tp) - f(tm)) / (2 * step)
    return out


def random_batch(model, rng, n=1):
    """(X, y) with n rows: centers for the quadratic, labeled points else."""
    if isinstance(model, QuadraticModel):
        return rng.standard_normal((n, model.d)), np.zeros(n, dtype=np.int64)
    return (rng.standard_normal((n, model.num_features)),
            rng.integers(model.num_classes, size=n))


def make(kind):
    if kind == "quadratic":
        return build_model("quadratic", dim=6)
    return build_model(kind, num_features=5, num_classes=3, hidden=4)


def test_quadratic_loss_at_minimum():
    m = make("quadratic")
    a = RNG.standard_normal(m.d)
    assert m.batch_loss(a.copy(), a[None, :], np.zeros(1, dtype=int)) == 0.0


def test_logistic_loss_at_zero_is_log_classes():
    m = make("logistic")
    X, y = random_batch(m, RNG)
    assert m.batch_loss(np.zeros(m.d), X, y) == pytest.approx(math.log(3),
                                                              rel=1e-12)


def test_mlp2_loss_matches_independent_forward():
    # Oracle: a from-scratch forward pass written without reusing model code.
    m = make("mlp2")
    rng = np.random.default_rng(0)
    theta = m.init_params(rng)
    X, y = random_batch(m, rng)
    p, h, c = 5, 4, 3
    i = 0
    W1 = theta[i:i + h * p].reshape(h, p); i += h * p
    b1 = theta[i:i + h]; i += h
    W2 = theta[i:i + c * h].reshape(c, h); i += c * h
    b2 = theta[i:]
    hidden = np.tanh(W1.dot(X[0]) + b1)
    logits = W2.dot(hidden) + b2
    probs = np.exp(logits) / np.exp(logits).sum()
    expected = -math.log(probs[y[0]])
    assert m.batch_loss(theta, X, y) == pytest.approx(expected, rel=1e-12)


def test_quadratic_grad_analytic():
    m = make("quadratic")
    theta = RNG.standard_normal(m.d)
    X, y = random_batch(m, RNG)
    [(E, A)] = m.per_sample_grads(theta, X, y)
    assert A.shape == (len(X), 0)  # a layer without input: its rows are E
    assert np.array_equal(dense_grads([(E, A)]), theta - X)
    assert np.allclose(dense_grads(m.per_sample_grads(theta, X, y))[0],
                       theta - X[0])


def test_logistic_grad_at_zero_structure():
    m = make("logistic")
    X, y = random_batch(m, RNG)
    g = dense_grads(m.per_sample_grads(np.zeros(m.d), X, y))[0]
    err = np.full(3, 1.0 / 3.0)
    err[y[0]] -= 1.0
    expected = np.concatenate([np.outer(err, X[0]).ravel(), err])
    assert np.allclose(g, expected, rtol=1e-12)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp2"])
def test_gradient_matches_finite_differences(kind):
    m = make(kind)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        theta = rng.standard_normal(m.d)
        X, y = random_batch(m, rng)
        g = dense_grads(m.per_sample_grads(theta, X, y))[0]
        coords = rng.choice(m.d, size=min(5, m.d), replace=False)
        fd = central_difference(lambda th: m.batch_loss(th, X, y), theta,
                                coords)
        for j, fdj in fd.items():
            assert abs(g[j] - fdj) / (1 + abs(fdj)) < 1e-5
            checked += 1


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp2"])
def test_batched_grads_match_per_sample(kind):
    # Row i of a multi-row call must be the gradient of sample i alone:
    # a finite-difference check on every coordinate catches both a wrong
    # gradient and another sample leaking into the row.
    m = make(kind)
    rng = np.random.default_rng(11)
    theta = rng.standard_normal(m.d)
    X, y = random_batch(m, rng, n=8)
    batched = dense_grads(m.per_sample_grads(theta, X, y))
    assert batched.shape == (8, m.d)
    for i in range(8):
        fd = central_difference(
            lambda th: m.batch_loss(th, X[i:i + 1], y[i:i + 1]), theta,
            range(m.d))
        for j, fdj in fd.items():
            assert abs(batched[i, j] - fdj) / (1 + abs(fdj)) < 1e-5


def test_per_sample_grads_match_blockwise_concatenation():
    # The factors are bitwise each layer's (output error, input) pair of an
    # independent backward pass, and the rows they stand for are the
    # einsum blocks concatenated in layout order. The oracle unpacks theta
    # by its own slices, for a batch of 9 rows and an empty one.
    rng = np.random.default_rng(19)
    p, h, c = 5, 4, 3
    for kind in ("logistic", "mlp2"):
        for n in (9, 0):
            m = make(kind)
            theta = rng.standard_normal(m.d)
            X, y = random_batch(m, rng, n=n)
            if kind == "logistic":
                W, b = theta[:c * p].reshape(c, p), theta[c * p:]
                err = _softmax(X @ W.T + b)
                err[np.arange(n), y] -= 1.0
                factors = [(err, X)]
                blocks = [np.einsum("nc,np->ncp", err, X).reshape(n, c * p),
                          err]
            else:
                W1, b1 = theta[:h * p].reshape(h, p), theta[h * p:h * p + h]
                W2 = theta[h * p + h:h * p + h + c * h].reshape(c, h)
                b2 = theta[h * p + h + c * h:]
                a1 = np.tanh(X @ W1.T + b1)
                err = _softmax(a1 @ W2.T + b2)
                err[np.arange(n), y] -= 1.0
                dz1 = (err @ W2) * (1.0 - a1 * a1)
                factors = [(dz1, X), (err, a1)]
                blocks = [np.einsum("nh,np->nhp", dz1, X).reshape(n, h * p),
                          dz1,
                          np.einsum("nc,nh->nch", err, a1).reshape(n, c * h),
                          err]
            got = m.per_sample_grads(theta, X, y)
            assert len(got) == len(factors)
            for (E, A), (E0, A0) in zip(got, factors):
                assert np.array_equal(E, E0) and np.array_equal(A, A0)
            expected = np.concatenate(blocks, axis=1)
            assert dense_grads(got).shape == (n, m.d)
            assert np.array_equal(dense_grads(got), expected)


def test_mlp2_needs_a_hidden_unit():
    # hidden = 0 would be a logistic model run under the mlp2 name.
    for hidden in (0, -1):
        with pytest.raises(ConfigurationError, match="hidden"):
            build_model("mlp2", num_features=5, num_classes=3, hidden=hidden)
    assert [m.layout.sizes.tolist() for m in map(make, ("logistic", "mlp2"))
            ] == [[15, 3], [20, 4, 12, 3]]


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp2"])
def test_empty_batch_gives_zero_rows(kind):
    # A sampler that can draw no row (Poisson subsampling) needs factors
    # of 0 rows, which stand for a (0, d) gradient matrix.
    m = make(kind)
    X, y = random_batch(m, np.random.default_rng(17), n=0)
    factors = m.per_sample_grads(np.zeros(m.d), X, y)
    assert all(len(E) == 0 for E, _ in factors)
    assert dense_grads(factors).shape == (0, m.d)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp2"])
def test_batch_loss_is_mean_of_losses(kind):
    m = make(kind)
    rng = np.random.default_rng(13)
    theta = rng.standard_normal(m.d) * 0.3
    X, y = random_batch(m, rng, n=6)
    mean_loss = np.mean([m.batch_loss(theta, X[i:i + 1], y[i:i + 1])
                         for i in range(6)])
    assert m.batch_loss(theta, X, y) == pytest.approx(mean_loss, rel=1e-12)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp2"])
def test_evaluate_is_batch_loss_and_accuracy(kind):
    # The global evaluation's one pass gives bitwise the loss and the
    # accuracy of batch_loss and predict; the quadratic has no accuracy.
    m = make(kind)
    rng = np.random.default_rng(23)
    theta = rng.standard_normal(m.d)
    X, y = random_batch(m, rng, n=40)
    loss, acc = m.evaluate(theta, X, y)
    assert loss == m.batch_loss(theta, X, y)
    if kind == "quadratic":
        assert math.isnan(acc)
        return
    assert acc == float(np.mean(m.predict(theta, X) == y))
    assert 0 < acc < 1
    # Reference: the full log-softmax matrix, read at the labels.
    z = m._forward(theta, X)[1]
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    assert loss == float(-logp[np.arange(len(y)), y].mean())


@pytest.mark.parametrize("kind", ["logistic", "mlp2"])
def test_one_client_theta_is_the_stack_of_one(kind):
    # A 1-D theta runs the (S, d) path with S = 1: the forward pass and the
    # global evaluation are bitwise those of theta[None] over all n rows.
    m = make(kind)
    rng = np.random.default_rng(29)
    theta = rng.standard_normal(m.d)
    X, y = random_batch(m, rng, n=40)
    layers, z, _ = m._forward(theta, X)
    layers1, z1, _ = m._forward(theta[None], X, (0, 40))
    assert z.tobytes() == z1.tobytes()
    for (a, _), (a1, _) in zip(layers, layers1):
        assert a.tobytes() == a1.tobytes()
    loss, acc = m.evaluate(theta, X, y)
    assert loss == float(-_log_softmax_at(z1, y).mean())
    assert acc == float(np.mean(np.argmax(z1, axis=1) == y))


def test_mlp2_stacked_backward_equals_each_client_alone():
    # Each client's hidden-layer error comes from its own W2 and rows,
    # written into its rows of one buffer: bitwise its own backward pass.
    m = make("mlp2")
    rng = np.random.default_rng(31)
    rows = (0, 1, 7, 7 + 12)
    theta = rng.standard_normal((3, m.d))
    X, y = random_batch(m, rng, n=rows[-1])
    got = m.per_sample_grads(theta, X, y, rows)
    for i, (lo, hi) in enumerate(zip(rows[:-1], rows[1:])):
        alone = m.per_sample_grads(theta[i], X[lo:hi], y[lo:hi])
        for (E, A), (E1, A1) in zip(got, alone):
            assert E[lo:hi].tobytes() == E1.tobytes()
            assert A[lo:hi].tobytes() == A1.tobytes()


def test_log_softmax_at_leaves_its_argument_unchanged():
    z = RNG.standard_normal((6, 4))
    before = z.copy()
    _log_softmax_at(z, np.array([0, 1, 2, 3, 0, 1]))
    _softmax(z)
    assert z.tobytes() == before.tobytes()


def test_evaluate_peak_memory_is_bounded_by_the_logits():
    # On logistic_blobs-sized data (5000 rows, 20 features, 10 classes)
    # the evaluation holds the logits and one shifted copy, each written
    # in place, and a few per-row vectors: at most 2.5x the logits' bytes.
    m = build_model("logistic", num_features=20, num_classes=10)
    X, y = make_blobs(10, 20, 5000, NoiseStream(0))
    theta = m.init_params(np.random.default_rng(0))
    m.evaluate(theta, X, y)
    tracemalloc.start()
    try:
        m.evaluate(theta, X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 5000 * 10 * 8


def test_row_max_equals_max_over_last_axis():
    special = np.array([[0.0, -0.0, -1.0], [-0.0, 0.0, -2.0],
                        [-0.0, -0.0, -3.0], [np.nan, 1.0, 2.0],
                        [1.0, np.inf, 2.0], [-np.inf, -np.inf, -np.inf],
                        [-np.inf, 3.0, np.nan], [np.inf, np.nan, 0.0]])
    for z in (special, RNG.standard_normal((7, 10)),
              RNG.standard_normal((1, 1))):
        np.testing.assert_array_equal(_row_max(z),
                                      z.max(axis=-1, keepdims=True))
    # A tie at +-0 may pick either zero; the softmax outputs are bitwise
    # those of the max either way.
    ties = special[:3]
    shifted = ties - ties.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    assert _softmax(ties).tobytes() == (
        e / e.sum(axis=-1, keepdims=True)).tobytes()
    logp = shifted - np.log(e.sum(axis=-1, keepdims=True))
    for label in range(3):
        y = np.full(3, label)
        assert _log_softmax_at(ties, y).tobytes() == logp[:, label].tobytes()


def test_quadratic_average_minimizer_is_mean_center():
    # Unique minimizer of the average of client losses (D = I) is the
    # average of centers; used as convergence ground truth elsewhere.
    m = make("quadratic")
    centers = RNG.standard_normal((4, m.d))
    y = np.zeros(4, dtype=int)
    theta_star = centers.mean(axis=0)
    base = m.batch_loss(theta_star, centers, y)
    for _ in range(10):
        other = theta_star + 0.1 * RNG.standard_normal(m.d)
        assert m.batch_loss(other, centers, y) > base


def test_dimension_mismatch_rejected():
    for kind in ("quadratic", "logistic", "mlp2"):
        m = make(kind)
        X, y = random_batch(m, RNG)
        with pytest.raises(ConfigurationError):
            m.batch_loss(np.zeros(m.d + 1), X, y)
        with pytest.raises(ConfigurationError):
            m.per_sample_grads(np.zeros(m.d + 1), X, y)
