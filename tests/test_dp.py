import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_grads
from dpfed import dp
from dpfed.blocks import ConfigurationError
from dpfed.dp import DPConfig, NoiseStream, clip_batch, noisy_batch_mean
from dpfed.models import build_model
from dpfed.optimizer import DivergenceError


def cfg(C=0.1, sigma=1.0, s=1.0):
    return DPConfig(C, sigma, s)


def reference_clip(g, clip_norm):
    """Straight-line per-row clip: the oracle for the vectorized clip_batch."""
    norm = np.linalg.norm(g)
    if norm <= clip_norm:
        return g.copy()
    out = g * (clip_norm / norm)
    n = np.linalg.norm(out)
    while n > clip_norm:
        out = out * (clip_norm / n)
        n = np.linalg.norm(out)
    return out


def factors_at_norms(kind, norms, rng):
    """A model's factors for len(norms) samples, each row's E rescaled on
    every layer so that its dense gradient has the given norm."""
    m = build_model(kind, num_features=6, num_classes=4, hidden=5)
    n = len(norms)
    factors = m.per_sample_grads(rng.standard_normal(m.d),
                                 rng.standard_normal((n, 6)),
                                 rng.integers(4, size=n))
    scale = np.asarray(norms) / np.linalg.norm(dense_grads(factors), axis=1)
    return [(E * scale[:, None], A) for E, A in factors]


def mean_of(grads, c, rng):
    """One client's noisy mean: noisy_batch_mean over a round of S = 1."""
    return noisy_batch_mean(grads, c, [rng], (0, len(grads[0][0])))[0]


def rows(G):
    """Gradient rows G as factors: one layer without input."""
    return [(G, G[:, :0])]


def clip_one(g, C):
    return clip_batch(np.asarray(g, dtype=np.float64)[None, :], C)[0]


@pytest.mark.parametrize("shape", [(10, 5), (100, 10), (80, 210), (400, 506)])
def test_row_norms_match_per_row_dot_bitwise(shape):
    rng = np.random.default_rng(shape[1])
    g = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, (shape[0], 1))
    expected = np.array([np.sqrt(np.dot(row, row)) for row in g])
    assert np.array_equal(dp._row_norms(g), expected)


@pytest.mark.parametrize("d", [5, 210, 506])
def test_clip_batch_matches_reference_bitwise(d):
    rng = np.random.default_rng(d)
    C = 0.7
    n = 2000
    grads = rng.standard_normal((n, d))
    scales = 10.0 ** rng.uniform(-3, 3, n)  # row norms span 1e-3..1e3
    grads *= (scales / np.linalg.norm(grads, axis=1))[:, None]
    grads[:20] = 0.0
    for i in range(20, 60):  # rows rescaled to C; most land exactly on it
        row = rng.standard_normal(d)
        grads[i] = reference_clip(row * (C / np.linalg.norm(row)), C)
    assert sum(np.linalg.norm(g) == C for g in grads) >= 1
    out = clip_batch(grads, C)
    expected = np.stack([reference_clip(g, C) for g in grads])
    assert np.array_equal(out, expected)
    assert np.sum(np.any(out != grads, axis=1)) > n // 4  # many rows rescaled


def test_clip_rechecks_rows_that_round_past_threshold(monkeypatch):
    # Rows whose first rescale lands above C, a row exactly at C, a zero
    # row, a row below C and rows far above it, in one batch.
    C, d = 0.7, 16
    rng = np.random.default_rng(21)
    past, at_c = [], []
    while len(past) < 3 or not at_c:
        row = rng.standard_normal(d) * 3.0
        once = row * (C / np.linalg.norm(row))
        if np.linalg.norm(once) > C:
            past.append(row)
        elif np.linalg.norm(once) == C:
            at_c.append(once)
    grads = np.vstack([*past[:3], at_c[0], np.zeros(d), np.full(d, 0.01),
                       rng.standard_normal((4, d)) * 50.0])
    sizes = []

    def counted(g):
        sizes.append(g.shape[0])
        return row_norms(g)

    row_norms = dp._row_norms
    monkeypatch.setattr(dp, "_row_norms", counted)
    out = clip_batch(grads, C)
    assert np.array_equal(out, np.stack([reference_clip(g, C) for g in grads]))
    assert np.array_equal(out[3:6], grads[3:6])  # at C, zero, below C
    # All rows of the input, all rows of the rescaled copy, then only the
    # rows whose one rescale rounded past C, never more on a repeat.
    once = [g * (C / np.linalg.norm(g)) for g in grads
            if np.linalg.norm(g) > C]
    past_c = sum(np.linalg.norm(g) > C for g in once)
    assert sizes[:3] == [10, 10, past_c] and past_c >= 3
    assert all(a >= b for a, b in zip(sizes[2:], sizes[3:]))


def test_clip_shrinks_to_threshold():
    g = np.array([0.12, 0.16])  # norm 0.2
    out = clip_one(g, 0.1)
    assert np.linalg.norm(out) == pytest.approx(0.1, rel=1e-12)
    cos = np.dot(out, g) / (np.linalg.norm(out) * np.linalg.norm(g))
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_clip_noop_below_threshold():
    g = np.array([0.03, 0.04])  # norm 0.05
    assert np.array_equal(clip_one(g, 0.1), g)


def test_clip_returns_a_copy():
    g = np.array([[0.03, 0.04], [3.0, 4.0]])
    before = g.copy()
    out = clip_batch(g, 0.1)
    out[0, 0] = 9.0
    assert np.array_equal(g, before)


def test_clip_zero():
    assert np.array_equal(clip_one(np.zeros(3), 0.1), np.zeros(3))


def test_clip_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DivergenceError):
            clip_one(np.array([bad, 1.0]), 0.1)
        with pytest.raises(DivergenceError):
            clip_batch(np.array([[0.0, 1.0], [bad, 0.0]]), 0.1)
        # Also next to a finite row whose norm overflows to inf.
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            clip_batch(np.array([[1e200, -1e200], [0.5, bad]]), 0.1)


def test_clip_row_whose_norm_overflows():
    # A finite row with ||g||^2 past the float range has an inf norm: it
    # is accepted and clipped to a zero row that keeps its signs, bitwise
    # as the per-row reference does.
    grads = np.array([[1e200, -3e199, 2e200, -1e-3],
                      [0.03, -0.04, 0.0, 0.0],
                      [3.0, 4.0, 0.0, -0.0]])
    with np.errstate(over="ignore"):
        out = clip_batch(grads, 0.1)
        expected = np.stack([reference_clip(g, 0.1) for g in grads])
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))
    assert not out[0].any() and np.array_equal(np.signbit(out[0]),
                                               np.signbit(grads[0]))


def test_clip_rejects_nonpositive_threshold():
    with pytest.raises(ConfigurationError):
        clip_batch(np.ones((2, 3)), 0.0)


@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=10),
       st.floats(1e-3, 10))
@settings(max_examples=200, deadline=None)
def test_clip_never_increases_norm_and_idempotent(vals, C):
    g = np.array(vals)
    once = clip_one(g, C)
    assert np.linalg.norm(once) <= C or np.linalg.norm(once) <= np.linalg.norm(g)
    assert np.linalg.norm(once) <= C + 0.0
    assert np.array_equal(clip_one(once, C), once)
    assert np.array_equal(once, reference_clip(g, C))


def test_zero_noise_is_exact_mean():
    rng = np.random.default_rng(0)
    grads = rng.standard_normal((10, 4)) * 0.01
    out = mean_of(rows(grads), cfg(sigma=0.0), None)  # none clipped
    assert np.allclose(out, grads.mean(axis=0), rtol=1e-12, atol=1e-15)


def test_zero_noise_large_clip_equals_plain_batch_gradient():
    rng = np.random.default_rng(1)
    grads = rng.standard_normal((10, 4))
    out = mean_of(rows(grads), DPConfig(1e6, 0.0, 1.0), None)
    assert np.allclose(out, grads.mean(axis=0), rtol=1e-12)


def test_noise_is_the_generators_next_normal_draw():
    # The clipped rows summed in the given order, divided by b, plus
    # sigma*C/b times the next standard-normal vector of the generator.
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((10, 5)) * 0.05
    c = cfg(C=0.1, sigma=1.5)
    out = mean_of(rows(raw), c, NoiseStream(3).rng((1, 2, 3)))
    clean = np.sum(clip_batch(raw, c.clip_norm), axis=0) / 10
    z = NoiseStream(3).rng((1, 2, 3)).standard_normal(5)
    assert np.array_equal(out, clean + c.noise_std(10) * z)
    # The quadratic's factors, whose rows theta - X are raw, bit for bit.
    grads = build_model("quadratic", dim=5).per_sample_grads(
        np.zeros(5), -raw, None)
    assert np.array_equal(
        mean_of(grads, c, NoiseStream(3).rng((1, 2, 3))), out)


def test_noise_needs_a_generator():
    with pytest.raises(ConfigurationError, match="generator"):
        mean_of(rows(np.zeros((4, 2))), cfg(sigma=1.0), None)


def test_determinism_and_key_separation():
    grads = rows(np.zeros((10, 4)))
    stream = NoiseStream(7)
    a = mean_of(grads, cfg(), stream.rng((1, 2, 3)))
    b = mean_of(grads, cfg(), stream.rng((1, 2, 3)))
    c = mean_of(grads, cfg(), stream.rng((1, 2, 4)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_seed_and_key_are_integers_never_truncated():
    # NumPy integers key the stream Python's do; 1.5 or -1 keys none.
    draw = NoiseStream(1).rng((1, 2)).random()
    assert NoiseStream(np.int64(1)).rng((np.uint8(1), np.int64(2))).random() == draw
    for seed, key in ((1.5, (1, 2)), (1, (1, 2.7)), (1, (np.float64(2.0),)),
                      (-1, (1,)), (1, (1, -2))):
        with pytest.raises(ConfigurationError, match="integers >= 0"):
            NoiseStream(seed).rng(key)


def test_noisy_batch_mean_clips_its_batch():
    # Raw per-sample gradients, most rows far above C: the mechanism must
    # clip them itself, giving bitwise what a pre-clipped batch gives.
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((10, 5)) * 10.0 ** rng.uniform(-3, 2, (10, 1))
    c = cfg(C=0.1)
    assert np.sum(np.linalg.norm(raw, axis=1) > c.clip_norm) >= 5
    stream = NoiseStream(5)
    assert np.array_equal(
        mean_of(rows(raw), c, stream.rng((0, 1, 2))),
        mean_of(rows(clip_batch(raw, c.clip_norm)), c, stream.rng((0, 1, 2))))
    exact = mean_of(rows(raw), cfg(C=0.1, sigma=0.0), None)
    assert np.linalg.norm(exact) <= 0.1


def test_empty_batch_rejected():
    with pytest.raises(ConfigurationError):
        mean_of(rows(np.zeros((0, 3))), cfg(), NoiseStream(0).rng((0,)))
    for kind in ("logistic", "mlp2"):
        with pytest.raises(ConfigurationError):
            mean_of(factors_at_norms(kind, [], np.random.default_rng(0)),
                    cfg(), NoiseStream(0).rng((0,)))


@pytest.mark.parametrize("kind", ["logistic", "mlp2"])
def test_factored_mean_matches_dense_clip(kind):
    # The carrier clip gives the mean of clip_batch over the dense rows
    # the factors stand for. Single rows below, at and above C and zero
    # rows are compared with the dense clip at C itself (the carrier's
    # 2^-40 margin is below 1e-12); batches of 9 with the dense clip at
    # the carrier's level.
    rng = np.random.default_rng(31)
    C = 0.7
    c = cfg(C=C, sigma=0.0)
    norms = [0.0, 1e-3 * C, 0.5 * C, C, np.nextafter(C, 2), 1.5 * C, 1e3 * C]
    for norm in norms:
        factors = factors_at_norms(kind, [norm], rng)
        got = mean_of(factors, c, None)
        expected = clip_batch(dense_grads(factors), C)[0]
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(
            expected)
    for trial in range(20):
        batch = (rng.choice(norms, size=9) if trial % 2
                 else C * 10.0 ** rng.uniform(-2, 2, 9))
        factors = factors_at_norms(kind, batch, rng)
        got = mean_of(factors, c, None)
        expected = np.sum(clip_batch(dense_grads(factors),
                                     C * dp._CARRIER_CLIP), axis=0) / 9
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(
            expected)


def test_mixed_layers_take_the_carrier_margin(monkeypatch):
    # A layer without input beside one with input: the batch is clipped
    # through the carrier at C (1 - 2^-40), and matches the dense clip.
    rng = np.random.default_rng(33)
    C = 0.7
    levels = []

    def recorded(g, clip_norm):
        levels.append(clip_norm)
        return clip_batch(g, clip_norm)

    monkeypatch.setattr(dp, "clip_batch", recorded)
    for trial in range(10):
        factors = factors_at_norms("logistic", C * 10.0 ** rng.uniform(
            -2, 2, 9), rng)
        bias = rng.standard_normal((9, 3)) * 10.0 ** rng.uniform(-2, 1)
        factors.insert(trial % 2, (bias, bias[:, :0]))
        got = mean_of(factors, cfg(C=C, sigma=0.0), None)
        expected = np.sum(clip_batch(dense_grads(factors),
                                     C * dp._CARRIER_CLIP), axis=0) / 9
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(
            expected)
    assert levels == [C * dp._CARRIER_CLIP] * 10


def test_factored_row_whose_scale_overflows():
    # A feature of 1e200 overflows its row's carrier scale. The step is
    # rejected, without a numpy warning: for that row alone, as one row
    # of one of 3 clients, and with a NaN beside it. load_csv keeps such
    # features out of a run.
    m = build_model("logistic", num_features=3, num_classes=4)
    rng = np.random.default_rng(47)
    X = rng.standard_normal((9, 3))
    X[1, 0] = 1e200
    factors = m.per_sample_grads(rng.uniform(-0.1, 0.1, m.d), X,
                                 rng.integers(4, size=9))
    c = cfg(C=0.1, sigma=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="non-finite"):
            mean_of([(E[1:2], A[1:2]) for E, A in factors], c, None)
        with pytest.raises(DivergenceError, match="non-finite"):
            noisy_batch_mean(factors, c, [None] * 3, (0, 4, 6, 9))
        factors[0][1][2, 1] = np.nan
        with pytest.raises(DivergenceError, match="non-finite"):
            noisy_batch_mean(factors, c, [None] * 3, (0, 4, 6, 9))


def test_factored_rows_never_exceed_clip_norm():
    # A one-row batch's mean is its assembled clipped row. Over 100k rows
    # with norms from 1e-3 C to 1e3 C, many landing on C, none is past C.
    # Each row is its own client of one round, which gives bitwise its
    # one-row batch alone (every clip operation is per row).
    rng = np.random.default_rng(37)
    C = 0.7
    worst = 0.0
    for kind in ("logistic", "mlp2"):
        norms = C * np.concatenate([10.0 ** rng.uniform(-3, 3, 40_000),
                                    np.ones(10_000)])
        factors = factors_at_norms(kind, norms, rng)
        means = noisy_batch_mean(factors, cfg(C=C, sigma=0.0),
                                 [None] * len(norms), range(len(norms) + 1))
        worst = max(worst, dp._row_norms(means).max())
    assert worst <= C


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factored_nonfinite_rejected(bad):
    rng = np.random.default_rng(41)
    for layer in (0, 1):
        for which in (0, 1):  # E, then A
            factors = factors_at_norms("mlp2", [0.5, 2.0, 0.0], rng)
            factors[layer][which][1, 2] = bad
            with pytest.raises(DivergenceError):
                mean_of(factors, cfg(sigma=0.0), None)


def test_monte_carlo_mean_and_variance():
    # CLT oracle: over 1e5 keyed draws the empirical mean stays within
    # 4 sigma/sqrt(n) of the clean mean and the per-coordinate variance
    # within 5% of (sigma*C/(sR))^2.
    n_draws = 100_000
    c = cfg(C=0.1, sigma=1.0, s=1.0)
    g = np.full((10, 2), 0.01)
    stream = NoiseStream(11)
    rng = stream.rng((0, 99))
    tau = c.noise_std(10)
    clean = g.mean(axis=0)
    outs = clean[None, :] + tau * rng.standard_normal((n_draws, 2))
    # single draw through the public path, same distribution family
    one = mean_of(rows(g), c, stream.rng((0, 0, 1)))
    assert one.shape == clean.shape
    emp_mean = outs.mean(axis=0)
    emp_var = outs.var(axis=0)
    assert np.all(np.abs(emp_mean - clean) < 4 * tau / np.sqrt(n_draws))
    assert np.all(np.abs(emp_var - tau**2) < 0.05 * tau**2)


def test_monte_carlo_through_public_path():
    # Unbiasedness of the public operation itself: 20k successive draws
    # from one generator, as a client's K local steps make them.
    n_draws = 20_000
    c = cfg(C=0.1, sigma=1.0, s=1.0)
    g = np.full((10, 2), 0.01)
    rng = NoiseStream(13).rng((0, 0))
    tau = c.noise_std(10)
    acc = np.zeros(2)
    acc2 = np.zeros(2)
    for _ in range(n_draws):
        out = mean_of(rows(g), c, rng)
        acc += out
        acc2 += out * out
    mean = acc / n_draws
    var = acc2 / n_draws - mean**2
    assert np.all(np.abs(mean - 0.01) < 5 * tau / np.sqrt(n_draws))
    assert np.all(np.abs(var - tau**2) < 0.05 * tau**2)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DPConfig(0.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        DPConfig(0.1, -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        DPConfig(0.1, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        DPConfig(0.1, 1.0, 0.01).batch_size(10)  # floor(s*R) = 0
    with pytest.raises(ConfigurationError):
        cfg().noise_std(0)


def test_batch_size_is_floor_of_s_times_rows():
    c = cfg(s=0.2)
    assert [c.batch_size(R) for R in (5, 9, 10, 49, 408)] == [1, 1, 2, 9, 81]
    with pytest.raises(ConfigurationError):
        c.batch_size(4)


def test_batch_size_floors_the_written_decimal():
    # In floats 0.7 * 90 is 62.99999999999999 and 0.29 * 100 is
    # 28.999999999999996; the batch is the floor of the exact product.
    assert cfg(s=0.7).batch_size(90) == 63
    assert cfg(s=0.29).batch_size(100) == 29
    # For the rates the acceptance and benchmark configs use, the float
    # product already floors exactly: no batch size moves.
    for s in (0.1, 0.2, 0.5):
        c = cfg(s=s)
        assert all(c.batch_size(R) == int(s * R)
                   for R in range(math.ceil(1 / s), 5001))


def test_noise_std_formula():
    assert cfg(C=0.1, sigma=1.0, s=1.0).noise_std(10) == pytest.approx(0.01)
    c = cfg(C=0.2, sigma=2.0, s=0.5)
    assert c.noise_std(c.batch_size(20)) == pytest.approx(0.04)
