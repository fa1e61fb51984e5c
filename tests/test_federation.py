from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import federated
from dpfed.blocks import ConfigurationError
from dpfed.dp import DPConfig, NoiseStream
from dpfed.federation import (VARIANTS, RoundReport, RoundState, aggregate,
                              payload_count, run_client, run_round,
                              sample_clients)
from dpfed.models import build_model
from dpfed.optimizer import AdamWParams, DivergenceError


def quadratic_setup(num_clients=2, dim=3, sigma=0.0, seed=0):
    model = build_model("quadratic", dim=dim)
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_clients, dim))
    data = federated([(np.tile(c, (10, 1)), np.zeros(10, dtype=np.int64))
                      for c in centers])
    return model, data, DPConfig(10.0, sigma, 1.0), centers


def delta_report(deltas):
    """A report of the (S, d) deltas, with all other per-client rows 0."""
    S, d = deltas.shape
    return RoundReport(np.arange(S), deltas, np.zeros((S, 1)),
                       np.zeros((S, d)), np.zeros((S, d)))


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
    model, data, cfg, _ = quadratic_setup()
    state = RoundState.initial(np.zeros(3), model.layout)
    new = aggregate(state, delta_report(np.zeros((2, 3))), local_steps=4,
                    lr=0.1)
    assert np.array_equal(new.theta, state.theta)
    assert np.all(new.delta_g == 0)


def test_delta_g_cancellation():
    # S=1, K=1, delta = -eta*u  ->  Delta_G = u
    model, _, _, _ = quadratic_setup()
    state = RoundState.initial(np.zeros(3), model.layout)
    u = np.array([1.0, -2.0, 0.5])
    eta = 0.25
    new = aggregate(state, delta_report((-eta * u)[None]), local_steps=1,
                    lr=eta)
    assert np.allclose(new.delta_g, u, rtol=1e-12)
    assert np.allclose(new.theta, -eta * u, rtol=1e-12)


def test_aggregate_overflow_is_divergence():
    # Two finite deltas of 1e308 sum past the float range: the new theta
    # is inf, which the server step reports as a divergence.
    model, _, _, _ = quadratic_setup()
    state = RoundState.initial(np.zeros(3), model.layout)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError,
                                                   match="non-finite"):
        aggregate(state, delta_report(np.full((2, 3), 1e308)), 1, 0.1)
    # A round without clients has no mean to take.
    with pytest.raises(ConfigurationError, match="empty round"):
        aggregate(state, delta_report(np.zeros((0, 3))), 1, 0.1)


def test_aggregate_folds_block_means_row_by_row():
    # The server adds the rows one at a time in ascending id order. On an
    # (S, 1) stack, numpy's sum(axis=0) adds pairwise once S >= 8, and on
    # these ten rows it gives other bits.
    block_v = np.random.default_rng(1).uniform(0.0, 1.0, (10, 1))
    fold = np.zeros(1)
    for row in block_v:
        fold = fold + row
    assert not np.array_equal(fold / 10, block_v.sum(axis=0) / 10)
    report = RoundReport(np.arange(10), np.zeros((10, 3)), block_v,
                         np.zeros((10, 3)), np.zeros((10, 3)))
    state = RoundState.initial(np.zeros(3), build_model("quadratic",
                                                        dim=3).layout)
    assert np.array_equal(aggregate(state, report, 1, 0.1).v_bar, fold / 10)


def test_run_round_matches_hand_computed_quadratic():
    # Two clients, one plain-SGD local step, no noise: every quantity of
    # the round has a closed form computed independently here.
    model, data, cfg, centers = quadratic_setup(sigma=0.0)
    theta0 = np.array([0.5, -0.5, 1.0])
    state = RoundState.initial(theta0, model.layout)
    opt = AdamWParams(lr=0.1)
    stream = NoiseStream(0)
    new_state, _ = run_round(state, model, data, cfg, opt,
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
    model, data, cfg, _ = quadratic_setup(num_clients=3)
    state = RoundState.initial(np.zeros(3), model.layout)
    rng = np.random.default_rng(2)
    report = delta_report(rng.standard_normal((3, 3)))
    scaled = replace(report, delta=2.0 * report.delta)
    base = aggregate(state, report, 4, 0.1)
    doubled = aggregate(state, scaled, 4, 0.1)
    assert np.array_equal(doubled.theta - state.theta,
                          2.0 * (base.theta - state.theta))
    assert np.array_equal(doubled.delta_g, 2.0 * base.delta_g)


def test_round_trajectory_deterministic():
    model, data, cfg, _ = quadratic_setup(sigma=1.0)
    opt = AdamWParams(lr=0.01, gamma=0.5)
    outs = []
    for _ in range(2):
        state = RoundState.initial(np.zeros(3), model.layout)
        stream = NoiseStream(9)
        for _ in range(3):
            state, _ = run_round(state, model, data, cfg, opt,
                                 "dp_fedadamw", 2, 2, stream)
        outs.append(state.theta.copy())
    assert np.array_equal(outs[0], outs[1])


def test_client_failure_aborts_round():
    model, data, _, _ = quadratic_setup()
    state = RoundState.initial(np.zeros(3), model.layout)
    X, y = data.clients[1]
    small = federated([data.clients[0], (X[:4], y[:4])])  # floor(0.2 * 4) = 0
    with pytest.raises(ConfigurationError, match="must be >= 1"):
        run_round(state, model, small, DPConfig(10.0, 0.0, 0.2),
                  AdamWParams(lr=0.1), "dp_fedavg_sgd", 1, 2, NoiseStream(0))


REPORT_FIELDS = ("client_ids", "delta", "block_v", "v", "theta")


def stacked(reports):
    """Reports of one or more clients as one report, rows in list order."""
    return RoundReport(*(np.concatenate([getattr(r, f) for r in reports])
                         for f in REPORT_FIELDS))


def client_reports(variant, round_state, opt, sigma=1.0):
    model, data, cfg, _ = quadratic_setup(sigma=sigma)
    return stacked([run_client(model, round_state, [i], data, cfg, opt,
                               variant, 3, NoiseStream(7))
                    for i in range(len(data.clients))])


def reports_equal(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in REPORT_FIELDS)


def test_client_order_does_not_change_reports():
    # Each client draws its batches and noise from its own (t, client)
    # generator, so running a round's clients in ascending or descending
    # id order gives bitwise the same reports.
    model = build_model("quadratic", dim=3)
    rng = np.random.default_rng(3)
    data = federated([(rng.standard_normal((12, 3)),
                       np.zeros(12, dtype=np.int64)) for _ in range(4)])
    state = RoundState(rng.standard_normal(3), np.full(1, 0.5),
                       rng.standard_normal(3), t=3)
    opt = AdamWParams(lr=0.05, gamma=0.5)
    stream = NoiseStream(8)

    def reports(order):
        return stacked(sorted((run_client(model, state, [i], data,
                                          DPConfig(1.0, 1.0, 0.5), opt,
                                          "dp_fedadamw", 3, stream)
                               for i in order),
                              key=lambda r: r.client_ids[0]))

    ascending = reports(range(4))
    assert reports_equal(ascending, reports(reversed(range(4))))
    assert not np.array_equal(ascending.delta[0], ascending.delta[1])


@pytest.mark.parametrize("variant", ["dp_local_adamw", "dp_fedavg_sgd"])
def test_baselines_ignore_broadcast_and_direction(variant):
    # Only dp_fedadamw reads the broadcast block means and the alignment
    # direction; the baselines must give bitwise the reports they give
    # from a blank round state, and ignore the alignment coefficient.
    theta = np.array([0.5, -0.5, 1.0])
    blank = RoundState(theta, np.zeros(1), np.zeros(3), t=2)
    rich = RoundState(theta, np.full(1, 4.0), np.array([1.0, -2.0, 3.0]), t=2)
    opt = AdamWParams(lr=0.05)
    aligned = AdamWParams(lr=0.05, gamma=0.5)
    plain = client_reports(variant, blank, opt)
    assert reports_equal(plain, client_reports(variant, rich, opt))
    assert reports_equal(plain, client_reports(variant, rich, aligned))
    assert not reports_equal(client_reports("dp_fedadamw", blank, aligned),
                             client_reports("dp_fedadamw", rich, aligned))


# A value other than axis_round_problem's for each AdamWParams setting.
OTHER_SETTINGS = dict(lr=0.03, beta1=0.5, beta2=0.99, adam_eps=0.1,
                      weight_decay=0.1, gamma=0.25, warm_start=False,
                      bias_correction=False, identity_preconditioner=True)


@pytest.mark.parametrize("key", OTHER_SETTINGS)
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_run_client_reads_the_settings_the_table_does_not_list(variant, key):
    # config_hash hashes a setting at its default where VARIANTS lists it
    # as unread, so changing it must leave the report bitwise alone, and
    # changing any other setting must move it. With sigma > 0 and a
    # non-zero theta, v_bar and delta_g every setting has a way to act.
    assert set(OTHER_SETTINGS) == {f.name for f in fields(AdamWParams)}
    model, data, state, opt = axis_round_problem("logistic")
    assert all(np.all(x) for x in (state.theta, state.v_bar, state.delta_g))

    def report(settings):
        return run_client(model, state, [0, 1, 2, 3], data,
                          DPConfig(0.5, 1.0, 0.5), settings, variant, 3,
                          NoiseStream(5))

    changed = replace(opt, **{key: OTHER_SETTINGS[key]})
    assert (reports_equal(report(opt), report(changed))
            == (key in VARIANTS[variant][1]))


def test_unknown_variant_rejected_by_run_client():
    state = RoundState(np.zeros(3), np.zeros(1), np.zeros(3))
    with pytest.raises(ConfigurationError, match="unknown variant"):
        client_reports("dp_fedyogi", state, AdamWParams(lr=0.1))


@pytest.mark.parametrize("ids", [[2], [-1], [0, 0], [1, 0]],
                         ids=["past_N", "negative", "repeated", "descending"])
def test_run_client_rejects_ids_not_strictly_ascending_in_range(ids):
    # A step draws every client's batch and sorts the pooled row indices
    # once, which keeps each client's rows in place only for ascending,
    # distinct ids of existing clients (here N = 2).
    state = RoundState(np.zeros(3), np.zeros(1), np.zeros(3))
    model, data, cfg, _ = quadratic_setup()
    with pytest.raises(ConfigurationError, match="client_ids"):
        run_client(model, state, ids, data, cfg, AdamWParams(lr=0.1),
                   "dp_fedadamw", 3, NoiseStream(7))


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
    model, data, cfg, _ = quadratic_setup(sigma=1.0)
    opt = AdamWParams(lr=0.01, gamma=0.5)
    state = RoundState.initial(np.zeros(3), model.layout)
    stream = NoiseStream(4)
    state, _ = run_round(state, model, data, cfg, opt, "dp_fedadamw", 3, 2,
                         stream)
    assert state.v_bar.shape == (1,) and np.all(state.v_bar > 0)
    state2, _ = run_round(state, model, data, cfg, opt, "dp_fedadamw",
                          3, 2, stream)
    assert state2.t == 2


def axis_round_problem(kind, sizes=(2, 7, 12, 5), seed=11):
    """A model, clients of unequal row counts and a round state with a
    warm start and an alignment direction."""
    rng = np.random.default_rng(seed)
    model = build_model(kind, dim=3, num_features=4, num_classes=3, hidden=5)
    width = 3 if kind == "quadratic" else 4
    data = federated([(rng.standard_normal((n, width)),
                       rng.integers(3, size=n)) for n in sizes])
    state = RoundState(rng.uniform(-0.5, 0.5, model.d),
                       rng.uniform(0.0, 0.1, model.layout.num_blocks),
                       rng.standard_normal(model.d), t=3)
    opt = AdamWParams(lr=0.05, beta2=0.9, adam_eps=1e-2, weight_decay=0.01,
                      gamma=0.5)
    return model, data, state, opt


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp2"])
def test_round_reports_equal_one_run_client_per_client(kind, variant, sigma):
    # A round runs its selected clients as rows of one state; each report
    # must be bitwise the one run_client gives that client alone. The
    # batches are 1, 3, 6 and 2 rows, C clips some rows and not others,
    # and 3 of the 4 clients take part.
    model, data, state, opt = axis_round_problem(kind)
    cfg = DPConfig(0.5, sigma, 0.5)
    stream = NoiseStream(5)
    _, report = run_round(state, model, data, cfg, opt, variant, 3, 3,
                          stream)
    ids = report.client_ids
    expected = stacked([run_client(model, state, [i], data, cfg, opt,
                                   variant, 3, stream) for i in ids])
    assert len(ids) == 3 and reports_equal(report, expected)

