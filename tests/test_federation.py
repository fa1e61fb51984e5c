import numpy as np
import pytest

from dpfed.blocks import ConfigurationError
from dpfed.dp import DPConfig, NoiseStream
from dpfed.federation import (ClientOptions, ClientReport, RoundState,
                              aggregate, payload_count, run_client, run_round,
                              sample_clients)
from dpfed.models import build_model
from dpfed.optimizer import AdamWParams


def quadratic_setup(num_clients=2, dim=3, sigma=0.0, seed=0):
    model = build_model("quadratic", dim=dim)
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_clients, dim))
    data = [(np.tile(c, (10, 1)), np.zeros(10, dtype=np.int64))
            for c in centers]
    cfgs = [DPConfig(10.0, sigma, 1.0, 10) for _ in range(num_clients)]
    return model, data, cfgs, centers


def test_sample_clients_all():
    assert np.array_equal(sample_clients(5, 5, NoiseStream(0), 0),
                          np.arange(5))


def test_sample_clients_deterministic():
    a = sample_clients(20, 7, NoiseStream(3), 4)
    b = sample_clients(20, 7, NoiseStream(3), 4)
    assert np.array_equal(a, b)
    c = sample_clients(20, 7, NoiseStream(3), 5)
    assert not np.array_equal(a, c)


def test_sample_clients_invalid():
    with pytest.raises(ConfigurationError):
        sample_clients(3, 4, NoiseStream(0), 0)


def test_sample_clients_uniform_frequency():
    # Monte-Carlo uniformity oracle over 1e5 draws.
    N, S, draws = 6, 2, 100_000
    stream = NoiseStream(5)
    counts = np.zeros(N)
    for t in range(draws):
        counts[sample_clients(N, S, stream, t)] += 1
    p = S / N
    se = np.sqrt(p * (1 - p) / draws)
    freq = counts / draws
    assert np.all(np.abs(freq - p) < 3 * se + 1e-12)


def test_run_round_zero_deltas_leave_state():
    model, data, cfgs, _ = quadratic_setup()
    state = RoundState.initial(np.zeros(3), model.layout)
    reports = [ClientReport(i, np.zeros(3), np.zeros(1)) for i in range(2)]
    new = aggregate(state, reports, local_steps=4, lr=0.1)
    assert np.array_equal(new.theta, state.theta)
    assert np.all(new.delta_g == 0)


def test_delta_g_cancellation():
    # S=1, K=1, delta = -eta*u  ->  Delta_G = u
    model, _, _, _ = quadratic_setup()
    state = RoundState.initial(np.zeros(3), model.layout)
    u = np.array([1.0, -2.0, 0.5])
    eta = 0.25
    rep = ClientReport(0, -eta * u, np.zeros(1))
    new = aggregate(state, [rep], local_steps=1, lr=eta)
    assert np.allclose(new.delta_g, u, rtol=1e-12)
    assert np.allclose(new.theta, -eta * u, rtol=1e-12)


def test_run_round_matches_hand_computed_quadratic():
    # Two clients, one plain-SGD local step, no noise: every quantity of
    # the round has a closed form computed independently here.
    model, data, cfgs, centers = quadratic_setup(sigma=0.0)
    theta0 = np.array([0.5, -0.5, 1.0])
    state = RoundState.initial(theta0, model.layout)
    opt = AdamWParams(lr=0.1)
    stream = NoiseStream(0)
    new_state, reports = run_round(state, model, data, cfgs, opt,
                                   "dp_fedavg_sgd", 1, 2, stream)
    # gradient of client i at theta0 is theta0 - center_i, clipped (C=10,
    # inactive), so delta_i = -lr * (theta0 - center_i)
    deltas = [-0.1 * (theta0 - c) for c in centers]
    expected_theta = theta0 + np.mean(deltas, axis=0)
    expected_dg = -np.sum(deltas, axis=0) / (2 * 1 * 0.1)
    assert np.allclose(new_state.theta, expected_theta, rtol=1e-12)
    assert np.allclose(new_state.delta_g, expected_dg, rtol=1e-12)
    assert new_state.t == 1


def test_aggregation_linearity_power_of_two_scale():
    model, data, cfgs, _ = quadratic_setup(num_clients=3)
    state = RoundState.initial(np.zeros(3), model.layout)
    rng = np.random.default_rng(2)
    reports = [ClientReport(i, rng.standard_normal(3), np.zeros(1))
               for i in range(3)]
    scaled = [ClientReport(r.client_id, 2.0 * r.delta, r.block_v)
              for r in reports]
    base = aggregate(state, reports, 4, 0.1)
    doubled = aggregate(state, scaled, 4, 0.1)
    assert np.array_equal(doubled.theta - state.theta,
                          2.0 * (base.theta - state.theta))
    assert np.array_equal(doubled.delta_g, 2.0 * base.delta_g)


def test_round_trajectory_deterministic():
    model, data, cfgs, _ = quadratic_setup(sigma=1.0)
    opt = AdamWParams(lr=0.01, align_coef=0.5)
    outs = []
    for _ in range(2):
        state = RoundState.initial(np.zeros(3), model.layout)
        stream = NoiseStream(9)
        for _ in range(3):
            state, _ = run_round(state, model, data, cfgs, opt,
                                 "dp_fedadamw", 2, 2, stream)
        outs.append(state.theta.copy())
    assert np.array_equal(outs[0], outs[1])


def test_client_failure_aborts_round():
    model, data, cfgs, _ = quadratic_setup()
    state = RoundState.initial(np.zeros(3), model.layout)
    bad = [(data[0][0], data[0][1][:5])]  # dataset size mismatch
    with pytest.raises(ConfigurationError):
        run_client(model, state, 0, bad[0][0], bad[0][1], cfgs[0],
                   AdamWParams(lr=0.1), "dp_fedavg_sgd", 1, NoiseStream(0))


def client_reports(variant, round_state, opt, sigma=1.0):
    model, data, cfgs, _ = quadratic_setup(sigma=sigma)
    return [run_client(model, round_state, i, X, y, cfgs[i], opt, variant, 3,
                       NoiseStream(7)) for i, (X, y) in enumerate(data)]


def reports_equal(a, b):
    return all(ra.client_id == rb.client_id
               and all(np.array_equal(getattr(ra, f), getattr(rb, f))
                       for f in ("delta", "block_v", "v_full", "theta_end"))
               for ra, rb in zip(a, b))


@pytest.mark.parametrize("variant", ["dp_local_adamw", "dp_fedavg_sgd"])
def test_baselines_ignore_broadcast_and_direction(variant):
    # Only dp_fedadamw reads the broadcast block means and the alignment
    # direction; the baselines must give bitwise the reports they give
    # from a blank round state.
    theta = np.array([0.5, -0.5, 1.0])
    blank = RoundState(theta, np.zeros(1), np.zeros(3), t=2)
    rich = RoundState(theta, np.full(1, 4.0), np.array([1.0, -2.0, 3.0]), t=2)
    opt = AdamWParams(lr=0.05)
    assert reports_equal(client_reports(variant, blank, opt),
                         client_reports(variant, rich, opt))
    aligned = AdamWParams(lr=0.05, align_coef=0.5)
    assert not reports_equal(client_reports("dp_fedadamw", blank, aligned),
                             client_reports("dp_fedadamw", rich, aligned))


def test_unknown_variant_rejected_by_run_client():
    state = RoundState(np.zeros(3), np.zeros(1), np.zeros(3))
    with pytest.raises(ConfigurationError, match="unknown variant"):
        client_reports("dp_fedyogi", state, AdamWParams(lr=0.1))


def test_payload_counts():
    d, B = 5_700_000, 1000
    up_noagg, down_noagg = payload_count("noagg", d, B)
    up_aggv, _ = payload_count("agg_v", d, B)
    up_mean, down_mean = payload_count("agg_mean_v", d, B)
    assert up_aggv / up_noagg == 2.0
    assert up_mean == d + B
    assert up_mean / up_noagg < 1.01
    assert down_noagg == d
    assert down_mean == 2 * d + B


def test_payload_variant_names_and_degenerate_layout():
    assert payload_count("dp_local_adamw", 100, 4) == (100, 100)
    assert payload_count("dp_fedavg_sgd", 100, 4) == (100, 100)
    assert payload_count("dp_fedadamw", 100, 4) == (104, 204)
    assert payload_count("agg_mean_v", 100, 100)[0] == 200  # B = d limit


def test_payload_invalid():
    with pytest.raises(ConfigurationError):
        payload_count("noagg", 10, 11)
    with pytest.raises(ConfigurationError):
        payload_count("bogus", 10, 2)


def test_warm_start_and_alignment_flow_through():
    model, data, cfgs, _ = quadratic_setup(sigma=1.0)
    opt = AdamWParams(lr=0.01, align_coef=0.5)
    state = RoundState.initial(np.zeros(3), model.layout)
    stream = NoiseStream(4)
    state, reports = run_round(state, model, data, cfgs, opt, "dp_fedadamw",
                               3, 2, stream)
    assert state.v_bar.shape == (1,) and np.all(state.v_bar > 0)
    state2, _ = run_round(state, model, data, cfgs, opt, "dp_fedadamw",
                          3, 2, stream)
    assert state2.t == 2
