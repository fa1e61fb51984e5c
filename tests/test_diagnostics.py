import numpy as np
import pytest

from dpfed.blocks import ConfigurationError
from dpfed.diagnostics import bias_probe, client_drift, cross_client_var_v
from dpfed.dp import DPConfig, NoiseStream

BETA2 = 0.999


def test_var_identical_clients_is_zero():
    v = np.array([1.0, 2.0, 3.0])
    assert cross_client_var_v([v, v.copy(), v.copy()]) == 0.0


def test_var_hand_arithmetic():
    assert cross_client_var_v([np.array([0.0]), np.array([2.0])]) == 2.0


def test_var_matches_two_pass_oracle():
    rng = np.random.default_rng(0)
    vs = [rng.uniform(0, 1, 20) for _ in range(7)]
    got = cross_client_var_v(vs)
    # naive two-pass reimplementation
    stacked = np.stack(vs)
    mean = stacked.sum(axis=0) / 7
    var = ((stacked - mean) ** 2).sum(axis=0) / 6
    assert got == pytest.approx(var.mean(), rel=1e-12)


def test_var_needs_two_clients():
    with pytest.raises(ConfigurationError):
        cross_client_var_v([np.zeros(3)])


def test_drift_identical_endpoints_zero():
    th = np.array([1.0, 2.0])
    assert client_drift([th, th.copy()]) == 0.0


def test_drift_symmetric_pair():
    u = np.array([0.5, -1.0, 2.0])
    assert client_drift([u, -u]) == pytest.approx(np.dot(u, u), rel=1e-12)


def test_drift_translation_invariant():
    rng = np.random.default_rng(1)
    pts = [rng.standard_normal(4) for _ in range(5)]
    shift = rng.standard_normal(4)
    a = client_drift(pts)
    b = client_drift([p + shift for p in pts])
    assert a == pytest.approx(b, rel=1e-9)


def test_bias_probe_zero_noise_deterministic():
    cfg = DPConfig(0.1, 0.0, 1.0)
    g = np.array([0.05, -0.03])
    k = 25
    res = bias_probe(cfg, 10, g, k, 10_000, BETA2, NoiseStream(0))
    assert np.allclose(res.mean_v, (1 - BETA2**k) * g * g, rtol=1e-12)
    assert np.allclose(res.mean_v_corrected, g * g, rtol=1e-12)


def test_bias_probe_detects_noise_shift():
    # The Challenge-2 identity: E[v]/(1-beta2^k) exceeds g*g by tau^2.
    cfg = DPConfig(0.1, 1.0, 1.0)
    tau2 = cfg.noise_std(10)**2
    g = np.array([0.05, 0.05])
    k, n_mc = 50, 10_000
    res = bias_probe(cfg, 10, g, k, n_mc, BETA2, NoiseStream(1))
    shift = res.mean_v / (1 - BETA2**k) - g * g
    se = res.se_v / (1 - BETA2**k)
    assert np.all(np.abs(shift - tau2) < 5 * se)
    # corrected estimator is unbiased for g*g
    assert np.all(np.abs(res.mean_v_corrected - g * g) < 5 * res.se_v_corrected)


def test_bias_probe_rejects_active_clipping():
    cfg = DPConfig(0.1, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        bias_probe(cfg, 10, np.array([0.2, 0.2]), 10, 1000, BETA2,
                   NoiseStream(0))


@pytest.mark.parametrize("n_mc", [0, 1])
def test_bias_probe_rejects_too_few_runs_under_noise(n_mc):
    # With tau > 0 one run has no standard error and zero runs no mean.
    with pytest.raises(ConfigurationError, match="n_mc"):
        bias_probe(DPConfig(0.1, 1.0, 1.0), 10, np.array([0.05, 0.05]), 10,
                   n_mc, BETA2, NoiseStream(0))
    # Without noise the one run is exact, whatever n_mc says.
    res = bias_probe(DPConfig(0.1, 0.0, 1.0), 10, np.array([0.05, 0.05]), 10,
                     n_mc, BETA2, NoiseStream(0))
    assert np.array_equal(res.se_v, np.zeros(2))
