import numpy as np
import pytest

from dpfed.blocks import BlockLayout, ConfigurationError, broadcast_blocks
from dpfed.dp import DPConfig
from dpfed.optimizer import (AdamWParams, DivergenceError,
                             corrected_preconditioner, init_round, local_step,
                             moment_update)


def params(**kw):
    defaults = dict(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    defaults.update(kw)
    return AdamWParams(**defaults)


def test_init_round_zero_broadcast():
    st = init_round(4, params(), v_broadcast=np.zeros(4))
    assert np.all(st.m == 0) and np.all(st.v == 0) and st.k == 0


def test_init_round_warm_start_from_block_means():
    layout = BlockLayout.from_sizes([("a", 2), ("b", 2)])
    vb = broadcast_blocks(np.array([1.5, 3.5]), layout)
    st = init_round(4, params(), v_broadcast=vb)
    assert np.array_equal(st.v, [1.5, 1.5, 3.5, 3.5])
    assert st.v is not vb


def test_init_round_rejects_bad_broadcast():
    with pytest.raises(ConfigurationError):
        init_round(4, params(), v_broadcast=np.zeros(3))
    with pytest.raises(ConfigurationError):
        init_round(2, params(), v_broadcast=np.array([1.0, -1.0]))


def test_first_step_bias_correction_identity():
    st = init_round(3, params())
    g = np.array([0.1, -0.2, 0.3])
    m_hat, v_hat = moment_update(st, g)
    assert np.allclose(m_hat, g, rtol=1e-12)
    assert np.allclose(v_hat, g * g, rtol=1e-12)


def test_constant_gradient_limit():
    st = init_round(2, params())
    g = np.array([0.5, -1.0])
    for _ in range(20_000):
        m_hat, v_hat = moment_update(st, g)
    assert np.allclose(m_hat, g, rtol=1e-9)
    assert np.allclose(v_hat, g * g, rtol=1e-9)


def test_preconditioner_at_noise_floor_is_inverse_eps():
    tau = 0.01
    v_hat = np.full(3, tau * tau)
    out = corrected_preconditioner(v_hat, tau, 1e-8)
    assert np.all(out == 1.0 / 1e-8)


def test_preconditioner_zero_noise_reduces_to_vanilla_bitwise():
    rng = np.random.default_rng(0)
    v_hat = rng.uniform(0, 1, 1000)
    eps = 1e-8
    assert np.array_equal(corrected_preconditioner(v_hat, 0.0, eps),
                          1.0 / (np.sqrt(v_hat) + eps))


def test_preconditioner_direct_substitution():
    # sigma=1, C=0.1, sR=10 -> correction 1e-4; v_hat = 0.0101
    cfg = DPConfig(0.1, 1.0, 1.0, 10)
    eps = 1e-8
    out = corrected_preconditioner(np.array([0.0101]), cfg.noise_std, eps)
    assert out[0] == pytest.approx(1.0 / (0.1 + eps), rel=1e-12)


def test_preconditioner_clamp_bounds():
    rng = np.random.default_rng(1)
    v_hat = rng.uniform(0, 1e-3, 10_000)
    out = corrected_preconditioner(v_hat, 0.02, 1e-8)
    assert np.all(out > 0) and np.all(out <= 1.0 / 1e-8)


def test_local_step_reduces_to_adamw_without_extras():
    p = params(weight_decay=0.0, align_coef=0.0)
    theta = np.array([1.0, -2.0])
    m_hat = np.array([0.3, 0.1])
    precond = np.array([2.0, 4.0])
    out = local_step(theta, m_hat, precond, None, p)
    assert np.array_equal(out, theta - p.lr * m_hat * precond)


def test_local_step_pure_decay():
    p = params(weight_decay=0.01)
    theta = np.array([1.0, -2.0])
    out = local_step(theta, np.zeros(2), np.ones(2), np.zeros(2), p)
    assert np.allclose(out, (1 - p.lr * p.weight_decay) * theta, rtol=1e-12)


def test_local_step_matches_straight_line_oracle():
    # Independent straight-line reimplementation of one inner iteration,
    # compared bitwise on a fixed seed-0 instance.
    rng = np.random.default_rng(0)
    p = params(lr=0.05, weight_decay=0.01, align_coef=0.5)
    cfg = DPConfig(0.1, 1.0, 1.0, 10)
    theta = rng.standard_normal(4)
    delta_g = rng.standard_normal(4)
    g = 0.05 * rng.standard_normal(4)

    st = init_round(4, p)
    m_hat, v_hat = moment_update(st, g)
    precond = corrected_preconditioner(v_hat, cfg.noise_std, p.eps)
    got = local_step(theta, m_hat, precond, delta_g, p)

    m = (1 - p.beta1) * g
    v = (1 - p.beta2) * (g * g)
    mh = m / (1 - p.beta1)
    vh = v / (1 - p.beta2)
    tau2 = cfg.noise_std * cfg.noise_std
    pc = 1.0 / (np.sqrt(np.maximum(vh - tau2, 0.0)) + p.eps)
    expected = theta - p.lr * (mh * pc + p.align_coef * delta_g)
    expected = expected - p.lr * p.weight_decay * theta
    assert np.array_equal(got, expected)


def test_local_step_divergence_detected():
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        local_step(np.array([1e308]), np.array([-1e308]),
                   np.array([1e8]), None, params(lr=1e8))


# The FedAvg baseline's SGD step: local_step with m_hat = g and a
# preconditioner of 1.0.
def test_sgd_step_basics():
    theta = np.array([1.0, 2.0])
    p = params(lr=0.1, weight_decay=0.01)
    assert np.array_equal(local_step(theta, np.zeros(2), 1.0, None,
                                     params(lr=0.1)), theta)
    g = np.array([0.3, -0.7])
    assert np.array_equal(local_step(theta, g, 1.0, None, p),
                          theta - p.lr * g - p.lr * p.weight_decay * theta)


def test_sgd_quadratic_loss_nonincreasing():
    center = np.array([2.0, -1.0])
    theta = np.zeros(2)
    prev = np.inf
    for _ in range(50):
        loss = 0.5 * np.sum((theta - center) ** 2)
        assert loss <= prev
        prev = loss
        theta = local_step(theta, theta - center, 1.0, None, params(lr=0.1))
