"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test registers its verdict with the conftest hook, which prints one
pass/fail line per criterion in the terminal summary. Paired-seed
criteria (7, 8, 9) use fixed tuned configurations; all randomness is
keyed off explicit seeds, so the suite is deterministic.
"""
import math
import time
from dataclasses import replace

import numpy as np

from conftest import dense_grads, record_result
from dpfed.accounting import (PrivacyLedger, compose_and_convert,
                              gaussian_rdp, server_budget,
                              subsampled_gaussian_rdp)
from dpfed.data import make_client_quadratics, quadratic_client_data
from dpfed.diagnostics import bias_probe
from dpfed.dp import DPConfig, NoiseStream, clip_batch
from dpfed.federation import (RoundState, payload_count, run_client,
                              run_round)
from dpfed.models import QuadraticModel, build_model
from dpfed.optimizer import AdamWParams, corrected_preconditioner
from dpfed.runner import Rounds, RunConfig, run

BETA2 = 0.999
PROBE_CFG = DPConfig(clip_norm=0.1, noise_multiplier=1.0, sample_rate=1.0)
PROBE_B = 10                                 # tau = sigma*C/b = 0.01
PROBE_G = np.array([0.05, 0.05, -0.05])      # ||g|| < C, clipping inactive
PROBE_K, PROBE_MC = 50, 20_000


def check(criterion, passed, detail=""):
    record_result(criterion, bool(passed), detail)
    assert passed, f"criterion {criterion}: {detail}"


def probe():
    return bias_probe(PROBE_CFG, PROBE_B, PROBE_G, PROBE_K, PROBE_MC, BETA2,
                      NoiseStream(0))


def test_criterion_01_bias_identity():
    start = time.perf_counter()
    res = probe()
    elapsed = time.perf_counter() - start
    denom = 1.0 - BETA2 ** PROBE_K
    tau2 = PROBE_CFG.noise_std(PROBE_B) ** 2
    shift = res.mean_v / denom - PROBE_G * PROBE_G
    se = res.se_v / denom
    dev = np.abs(shift - tau2)
    check(1, np.all(dev <= 5 * se) and elapsed < 30,
          f"max dev {dev.max():.2e} vs 5*SE {5 * se.max():.2e}, {elapsed:.1f}s")


def test_criterion_02_unbiased_correction():
    start = time.perf_counter()
    res = probe()
    elapsed = time.perf_counter() - start
    denom = 1.0 - BETA2 ** PROBE_K
    corrected_dev = np.abs(res.mean_v_corrected - PROBE_G * PROBE_G)
    corrected_ok = np.all(corrected_dev <= 5 * res.se_v_corrected)
    # with correction disabled the same data shows the shift at > 5 sigma
    raw_shift = np.abs(res.mean_v / denom - PROBE_G * PROBE_G)
    detected = np.all(raw_shift > 5 * res.se_v / denom)
    check(2, corrected_ok and detected and elapsed < 30,
          f"corrected within {corrected_dev.max():.2e}, raw shift at "
          f"{(raw_shift / (res.se_v / denom)).min():.0f} sigma, {elapsed:.1f}s")


def test_criterion_03_preconditioner_reduction_and_clamp():
    rng = np.random.default_rng(0)
    v_hat = rng.uniform(0, 1e6, 1_000_000)
    eps = 1e-8
    exact = np.array_equal(corrected_preconditioner(v_hat, 0.0, eps),
                           1.0 / (np.sqrt(v_hat) + eps))
    out = corrected_preconditioner(v_hat, 0.3, eps)
    clamped = np.all(out > 0) and np.all(out <= 1.0 / eps)
    check(3, exact and clamped,
          f"sigma=0 bit-exact: {exact}, clamp bound on 1e6 inputs: {clamped}")


def test_criterion_04_gradient_oracle():
    start = time.perf_counter()
    models = [build_model("quadratic", dim=6),
              build_model("logistic", num_features=5, num_classes=3),
              build_model("mlp2", num_features=5, num_classes=3, hidden=4)]
    rng = np.random.default_rng(42)
    worst = 0.0
    for m in models:
        for _ in range(100):
            theta = rng.standard_normal(m.d)
            if isinstance(m, QuadraticModel):
                X, y = rng.standard_normal((1, m.d)), np.zeros(1, dtype=int)
            else:
                X = rng.standard_normal((1, m.num_features))
                y = np.array([rng.integers(m.num_classes)])
            g = dense_grads(m.per_sample_grads(theta, X, y))[0]
            fd = np.empty(m.d)
            h = 1e-6
            for j in range(m.d):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd[j] = (m.batch_loss(tp, X, y)
                         - m.batch_loss(tm, X, y)) / (2 * h)
            worst = max(worst, np.max(np.abs(g - fd) / (1 + np.abs(fd))))
    elapsed = time.perf_counter() - start
    check(4, worst < 1e-5 and elapsed < 10,
          f"worst relative error {worst:.2e} over 300 pairs, {elapsed:.1f}s")


def test_criterion_05_clipping_contract():
    rng = np.random.default_rng(1)
    C = 0.7
    ok_norm = ok_idem = True
    scales = 10.0 ** rng.uniform(-3, 3, 100_000)
    dims = rng.integers(1, 20, 100_000)
    for scale, d in zip(scales, dims):
        g = scale * rng.standard_normal(d)
        c1 = clip_batch(g[None, :], C)[0]
        if np.linalg.norm(c1) > C:
            ok_norm = False
            break
        if not np.array_equal(clip_batch(c1[None, :], C)[0], c1):
            ok_idem = False
            break
    check(5, ok_norm and ok_idem,
          f"post-clip norm <= C: {ok_norm}, exact idempotence: {ok_idem}")


def test_criterion_06_accountant():
    delta = 1e-5
    # (a) composition additivity, exact
    a1 = PrivacyLedger()
    a1.add_event(1.2, 0.05, 37)
    a1.add_event(1.2, 0.05, 63)
    a2 = PrivacyLedger()
    a2.add_event(1.2, 0.05, 100)
    add_ok = (compose_and_convert(a1, delta).epsilon
              == compose_and_convert(a2, delta).epsilon)

    # (b) monotonicity on a 3x3x3 lattice of (sigma, q, steps)
    def eps(sigma, q, steps):
        ledger = PrivacyLedger()
        ledger.add_event(sigma, q, steps)
        return compose_and_convert(ledger, delta).epsilon

    sigmas, qs, steps_list = [0.8, 1.0, 1.5], [0.01, 0.1, 0.5], [10, 100, 1000]
    grid = {(s, q, n): eps(s, q, n)
            for s in sigmas for q in qs for n in steps_list}
    mono_ok = True
    for s in sigmas:
        for q in qs:
            mono_ok &= grid[(s, q, 10)] <= grid[(s, q, 100)] <= grid[(s, q, 1000)]
    for s in sigmas:
        for n in steps_list:
            mono_ok &= grid[(s, 0.01, n)] <= grid[(s, 0.1, n)] <= grid[(s, 0.5, n)]
    for q in qs:
        for n in steps_list:
            mono_ok &= grid[(1.5, q, n)] <= grid[(1.0, q, n)] <= grid[(0.8, q, n)]

    # (c) subsampled bound never exceeds the full-batch bound
    rng = np.random.default_rng(3)
    sub_ok = True
    for _ in range(100):
        zeta = int(rng.integers(2, 40))
        sigma = float(rng.uniform(0.5, 4.0))
        q = float(rng.uniform(1e-4, 1.0))
        sub_ok &= (subsampled_gaussian_rdp(zeta, sigma, q)
                   <= gaussian_rdp(zeta, sigma) + 1e-15)

    # (d) closed form at order 2
    exact_ok = gaussian_rdp(2, 1.0) == 1.0

    # (e) third-party scaling instantiation: sqrt(N/l) factor
    b = server_budget(1.0, delta, 50, 0.1)
    scale_ok = math.isclose(b.epsilon, math.sqrt(500.0), rel_tol=1e-12)

    check(6, add_ok and mono_ok and sub_ok and exact_ok and scale_ok,
          f"additivity {add_ok}, monotone {mono_ok}, subsample bound {sub_ok}, "
          f"order-2 value {exact_ok}, sqrt(N/l) {scale_ok}")


DRIFT_BASE = RunConfig(
    variant="dp_fedadamw", model="quadratic", dataset="quadratics", dim=5,
    num_clients=2, rounds=30, local_steps=10, sample_rate=0.2,
    samples_per_client=50, heterogeneity=1.0, clip_norm=1.0,
    noise_multiplier=1.0, lr=0.05, weight_decay=0.0, gamma=0.5,
    adam_eps=1e-2, beta2=0.9, output_dir="runs/acceptance/drift")


def test_criterion_07_drift_reduction(tmp_path):
    start = time.perf_counter()
    base = replace(DRIFT_BASE, output_dir=str(tmp_path))
    wins = 0
    for seed in range(5):
        drifts = {}
        for gamma in (0.5, 0.0):
            summary = run(replace(base, seed=seed, gamma=gamma))
            drifts[gamma] = np.mean([r.drift for r in summary.metrics[4:30]])
        wins += drifts[0.5] < drifts[0.0]
    elapsed = time.perf_counter() - start
    check(7, wins >= 4 and elapsed < 60, f"{wins}/5 seeds, {elapsed:.1f}s")


def test_alignment_alone_leaves_drift_unchanged(tmp_path):
    # gamma * Delta_G is one unpreconditioned vector added to every
    # client's step, in effect server momentum. With the identity
    # preconditioner, no noise and no clipping it moves both clients
    # alike, so the translation-invariant drift does not move with gamma.
    base = replace(DRIFT_BASE, identity_preconditioner=True,
                   noise_multiplier=0.0, clip_norm=1e6,
                   output_dir=str(tmp_path))
    for seed in range(5):
        drift = {gamma: np.array([r.drift for r in run(replace(
            base, seed=seed, gamma=gamma)).metrics]) for gamma in (0.5, 0.0)}
        assert np.all(drift[0.0] > 0)
        assert np.all(np.abs(drift[0.5] - drift[0.0]) <= 1e-12 * drift[0.0])


def pooled_mean_loss(rounds):
    """The loss at the mean of every client's rows, a quadratic run's
    exact minimiser, on the run's own data."""
    X = rounds.fed.X
    return rounds.model.evaluate(X.mean(axis=0), X, None)[0]


def test_fedavg_converges_to_the_pooled_mean(tmp_path):
    # Without noise or clipping, FedAvg's fixed point on heterogeneous
    # quadratics is the minimiser of the pooled loss, the mean of every
    # client's rows: the final loss sits within 1e-4 of the loss there.
    base = replace(DRIFT_BASE, variant="dp_fedavg_sgd", noise_multiplier=0.0,
                   clip_norm=1e6, heterogeneity=4.0, num_clients=8,
                   output_dir=str(tmp_path))
    for seed in range(3):
        config = replace(base, seed=seed)
        floor = pooled_mean_loss(Rounds(config))
        gap = run(config).final_loss - floor
        assert 0 <= gap < 1e-4, (seed, gap)


def test_linear_speedup_on_iid_clients():
    # The paper's linearly accelerated rate: on iid clients (heterogeneity
    # 0), with noise and clipping, FedAvg's steady-state gap to the pooled
    # optimum shrinks in proportion to the number of clients. 16x the
    # clients should give a 16x smaller gap; a factor of 2 either way passes.
    base = replace(DRIFT_BASE, variant="dp_fedavg_sgd", heterogeneity=0.0,
                   noise_multiplier=1.0, clip_norm=1.0, participation=1.0,
                   rounds=60)

    def gap(config):  # the last 20 rounds' mean loss above the optimum
        rounds = Rounds(config)
        losses = [record.global_loss for record in rounds]
        return np.mean(losses[-20:]) - pooled_mean_loss(rounds)

    gaps = {n: np.mean([gap(replace(base, num_clients=n, seed=seed))
                        for seed in range(4)]) for n in (2, 32)}
    assert 8 <= gaps[2] / gaps[32] <= 32, gaps


VAR_BASE = RunConfig(
    variant="dp_fedadamw", model="mlp2", dataset="blobs", num_clients=10,
    rounds=20, local_steps=5, sample_rate=0.2, clip_norm=1.0,
    noise_multiplier=1.0, lr=0.3, weight_decay=0.01, gamma=0.5,
    adam_eps=1e-2, beta2=0.999, alpha=0.1,
    output_dir="runs/acceptance/var")


def test_criterion_08_variance_stabilization(tmp_path):
    start = time.perf_counter()
    base = replace(VAR_BASE, output_dir=str(tmp_path))
    wins = 0
    for seed in range(5):
        warm = run(replace(base, seed=seed))
        cold = run(replace(base, seed=seed, warm_start=False))
        avg = lambda s: np.mean([r.var_v for r in s.metrics])
        wins += avg(warm) < avg(cold)
    elapsed = time.perf_counter() - start
    check(8, wins >= 4 and elapsed < 120, f"{wins}/5 seeds, {elapsed:.1f}s")


SUPERIORITY_BASE = RunConfig(
    variant="dp_fedadamw", model="logistic", dataset="blobs",
    num_classes=10, num_clients=10, rounds=50, local_steps=10,
    sample_rate=0.2, clip_norm=0.1, noise_multiplier=1.0, lr=1e-2,
    weight_decay=0.01, gamma=0.5, adam_eps=1e-2, beta2=0.9, alpha=0.1,
    output_dir="runs/acceptance/superiority")


def test_criterion_09_optimizer_superiority(tmp_path):
    start = time.perf_counter()
    base = replace(SUPERIORITY_BASE, output_dir=str(tmp_path))
    wins = 0
    improves = True
    for seed in range(5):
        init_loss = run(replace(base, seed=seed, rounds=0)).final_loss
        fed = run(replace(base, seed=seed)).final_loss
        local = run(replace(base, seed=seed,
                            variant="dp_local_adamw")).final_loss
        wins += fed <= local
        improves &= fed < init_loss and local < init_loss
    elapsed = time.perf_counter() - start
    check(9, wins >= 4 and improves and elapsed < 180,
          f"{wins}/5 seeds, both beat init loss: {improves}, {elapsed:.1f}s")


def test_criterion_10_communication_accounting():
    d, B = 5_700_000, 1000
    up_noagg, _ = payload_count("noagg", d, B)
    up_aggv, _ = payload_count("agg_v", d, B)
    up_mean, _ = payload_count("agg_mean_v", d, B)
    ratio2 = up_aggv / up_noagg == 2.0
    near1 = up_mean == d + B and up_mean / up_noagg < 1.01
    pattern = up_aggv == 11_400_000 and up_noagg == 5_700_000
    check(10, ratio2 and near1 and pattern,
          f"Agg-v/NoAgg = {up_aggv / up_noagg}, "
          f"Agg-mean-v/NoAgg = {up_mean / up_noagg:.6f}")


def test_criterion_11_determinism(tmp_path):
    cfg = replace(VAR_BASE, rounds=3, output_dir=str(tmp_path / "a"))
    run(cfg)
    run(replace(cfg, output_dir=str(tmp_path / "b")))
    csv_same = ((tmp_path / "a" / "metrics.csv").read_bytes()
                == (tmp_path / "b" / "metrics.csv").read_bytes())
    json_same = ((tmp_path / "a" / "summary.json").read_bytes()
                 == (tmp_path / "b" / "summary.json").read_bytes())
    check(11, csv_same and json_same,
          f"CSV byte-identical: {csv_same}, JSON byte-identical: {json_same}")


def _reduction_problem():
    model = build_model("quadratic", dim=4)
    stream = NoiseStream(7)
    centers = make_client_quadratics(4, 3, 1.0, stream)
    fed = quadratic_client_data(centers, 20, stream, 0.1)
    return model, fed, DPConfig(1.0, 0.0, 0.5), stream


def test_criterion_12_reductions():
    model, data, dp_cfg, stream = _reduction_problem()
    theta0 = model.init_params(stream.rng((3,)))
    opt = AdamWParams(lr=0.05, beta2=0.9, adam_eps=1e-2, weight_decay=0.0,
                      gamma=0.0, warm_start=False)

    # sigma=0, gamma=0, lambda=0, warm-start off: bit-identical variants
    trajectories = {}
    for variant in ("dp_fedadamw", "dp_local_adamw"):
        state = RoundState.initial(theta0, model.layout)
        thetas = []
        for _ in range(5):
            state, _ = run_round(state, model, data, dp_cfg, opt, variant,
                                 5, 3, stream)
            thetas.append(state.theta.copy())
        trajectories[variant] = thetas
    bitwise = all(np.array_equal(a, b)
                  for a, b in zip(trajectories["dp_fedadamw"],
                                  trajectories["dp_local_adamw"]))

    # identity preconditioner + beta1=0 reduces to plain local SGD per step
    sgd_opt = replace(opt, beta1=0.0)
    id_opt = replace(sgd_opt, identity_preconditioner=True)
    state = RoundState.initial(theta0, model.layout)
    max_step_err = 0.0
    for k in range(1, 6):
        adam_like = run_client(model, state, [0], data, dp_cfg, id_opt,
                               "dp_fedadamw", k, stream)
        sgd = run_client(model, state, [0], data, dp_cfg, sgd_opt,
                         "dp_fedavg_sgd", k, stream)
        max_step_err = max(max_step_err, float(np.max(np.abs(
            adam_like.theta - sgd.theta))))
    check(12, bitwise and max_step_err < 1e-12,
          f"variant trajectories bit-identical: {bitwise}, "
          f"max per-step SGD deviation {max_step_err:.2e}")
