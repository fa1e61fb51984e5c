import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfed import cli, runner
from dpfed.accounting import PrivacyLedger, compose_and_convert
from dpfed.blocks import ConfigurationError
from dpfed.cli import main as cli_main
from dpfed.federation import VARIANTS, payload_count
from dpfed.models import build_model
from dpfed.optimizer import DivergenceError
from dpfed.runner import (METRICS_COLUMNS, Rounds, RunConfig, compare,
                          config_from_strings, csv_text, parse_config_file,
                          run)


def small_config(tmp_path, **kw):
    defaults = dict(variant="dp_fedadamw", model="quadratic",
                    dataset="quadratics", dim=3, num_clients=3, rounds=2,
                    local_steps=2, sample_rate=0.5, samples_per_client=10,
                    clip_norm=1.0, noise_multiplier=1.0, lr=0.01,
                    adam_eps=1e-2, seed=0, output_dir=str(tmp_path / "out"))
    defaults.update(kw)
    return RunConfig(**defaults)


def test_zero_rounds_run(tmp_path):
    cfg = small_config(tmp_path, rounds=0)
    summary = run(cfg)
    assert summary.eps_rdp == 0.0
    assert math.isfinite(summary.final_loss)
    csv = (tmp_path / "out" / "metrics.csv").read_text()
    assert csv == ",".join(METRICS_COLUMNS) + "\n"  # header only
    assert (tmp_path / "out" / "summary.json").exists()


def test_zero_noise_reports_infinite_epsilon(tmp_path, capsys):
    # Without noise nothing is private: a run of >= 1 round must not
    # claim a finite epsilon, in any artifact or on the command line.
    summary = run(small_config(tmp_path, noise_multiplier=0.0))
    assert summary.eps_rdp == math.inf
    assert all(r.eps_rdp == math.inf for r in summary.metrics)
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["inf"] * 2
    text = (tmp_path / "out" / "summary.json").read_text()
    assert '"eps_rdp": Infinity' in text
    assert json.loads(text)["eps_rdp"] == math.inf
    zero = run(small_config(tmp_path, noise_multiplier=0.0, rounds=0))
    assert zero.eps_rdp == 0.0
    rc = cli_main(["run", "--model", "quadratic", "--dataset", "quadratics",
                   "--dim", "3", "--num_clients", "3", "--rounds", "1",
                   "--local_steps", "1", "--sample_rate", "0.5",
                   "--samples_per_client", "10", "--noise_multiplier", "0",
                   "--output_dir", str(tmp_path / "cli")])
    assert rc == 0
    assert "eps_rdp=inf wall_time_s=" in capsys.readouterr().out


def test_divergence_keeps_completed_rounds(tmp_path, monkeypatch):
    full = run(small_config(tmp_path, rounds=4,
                            output_dir=str(tmp_path / "a")))
    assert len(full.metrics) == 4
    expected = (tmp_path / "a" / "metrics.csv").read_text().splitlines(True)
    calls = []
    real_run_round = runner.run_round

    def diverge_on_third_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise DivergenceError("non-finite parameters (injected)")
        return real_run_round(*args, **kwargs)

    monkeypatch.setattr(runner, "run_round", diverge_on_third_call)
    with pytest.raises(DivergenceError):
        run(small_config(tmp_path, rounds=4, output_dir=str(tmp_path / "b")))
    got = (tmp_path / "b" / "metrics.csv").read_text()
    assert got == "".join(expected[:3])  # header + the 2 completed rounds
    assert not (tmp_path / "b" / "summary.json").exists()


@pytest.mark.parametrize("stop", [DivergenceError, KeyboardInterrupt])
def test_stopped_run_keeps_its_rows_and_no_stale_summary(tmp_path,
                                                          monkeypatch, stop):
    # A run stopped in round 3 of 4, by a divergence or by an interrupt,
    # leaves the header and its 2 rows, and removes the summary.json that
    # an earlier finished run left in the same directory.
    cfg = small_config(tmp_path, rounds=4)
    run(cfg)
    out = tmp_path / "out"
    expected = (out / "metrics.csv").read_text().splitlines(True)
    assert (out / "summary.json").exists()
    calls = []
    real_run_round = runner.run_round

    def stop_on_third_call(*args):
        calls.append(1)
        if len(calls) == 3:
            raise stop()
        return real_run_round(*args)

    monkeypatch.setattr(runner, "run_round", stop_on_third_call)
    with pytest.raises(stop):
        run(cfg)
    assert (out / "metrics.csv").read_text() == "".join(expected[:3])
    assert not (out / "summary.json").exists()


def test_rounds_are_built_before_any_round_and_write_nothing(tmp_path,
                                                           monkeypatch):
    # Every draw and data check is made when Rounds is built, so a bad
    # input fails there; the rounds run only when it is iterated, once.
    # Each round is charged after its run_round returns, so nothing is
    # composed before round 1 and a round that raises is never charged.
    calls = []
    for name in ("run_round", "compose_and_convert"):
        real = getattr(runner, name)
        monkeypatch.setattr(runner, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    monkeypatch.chdir(tmp_path)
    cfg = small_config(tmp_path, rounds=3)
    rounds = Rounds(cfg)
    assert not calls and not list(tmp_path.iterdir())
    with pytest.raises(ConfigurationError, match="missing.csv"):
        Rounds(RunConfig(dataset=str(tmp_path / "missing.csv")))
    assert len(list(rounds)) == 3
    assert calls == ["run_round", "compose_and_convert"] * 3
    assert list(rounds) == [] and len(calls) == 6  # no second pass


@pytest.mark.parametrize("participation", [1.0, 0.3])  # S = 3 and S = 1
def test_rounds_yield_the_records_run_writes(tmp_path, participation):
    cfg = small_config(tmp_path, rounds=3, participation=participation)
    records = list(Rounds(cfg))
    summary = run(cfg)
    assert len(records) == len(summary.metrics) == 3
    for ours, its in zip(records, summary.metrics):  # S = 1 has NaN spread
        assert all(type(a) is type(b)
                   and (a == b or (math.isnan(a) and math.isnan(b)))
                   for a, b in zip(ours, its))
    assert (csv_text(METRICS_COLUMNS, records).encode()
            == (tmp_path / "out" / "metrics.csv").read_bytes())


@pytest.mark.parametrize("sigma", [0.0, 1.0])  # sigma = 0 charges inf
@pytest.mark.parametrize("rate", [0.2, 1.0])
def test_epsilons_equal_a_ledger_charged_round_by_round(sigma, rate):
    # A run's eps_rdp column and dpfed account both read this sequence.
    cfg = RunConfig(noise_multiplier=sigma, sample_rate=rate, local_steps=3,
                    rounds=4, delta=1e-3)
    ledger, expected = PrivacyLedger(), []
    for _ in range(cfg.rounds):
        ledger.add_event(sigma, rate, 3)
        expected.append(compose_and_convert(ledger, 1e-3).epsilon)
    eps = list(cfg.epsilons())
    assert all(type(e) is float for e in eps) and eps == expected  # bitwise
    assert all(e == math.inf for e in eps) == (sigma == 0)


def test_rerun_byte_identical(tmp_path):
    cfg = small_config(tmp_path)
    run(cfg)
    first_csv = (tmp_path / "out" / "metrics.csv").read_bytes()
    first_json = (tmp_path / "out" / "summary.json").read_bytes()
    run(cfg)
    assert (tmp_path / "out" / "metrics.csv").read_bytes() == first_csv
    assert (tmp_path / "out" / "summary.json").read_bytes() == first_json


def test_in_process_equals_fresh_process(tmp_path):
    # no hidden global state: a second sequential run in this process
    # matches a run in a subprocess-free fresh construction
    a = run(small_config(tmp_path, output_dir=str(tmp_path / "a")))
    b = run(small_config(tmp_path, output_dir=str(tmp_path / "b")))
    assert a.final_loss == b.final_loss
    assert [r.global_loss for r in a.metrics] == [r.global_loss for r in b.metrics]


def test_csv_schema_and_float_roundtrip(tmp_path):
    cfg = small_config(tmp_path)
    summary = run(cfg)
    lines = (tmp_path / "out" / "metrics.csv").read_text(
        encoding="utf-8").split("\n")
    assert lines[0] == "t,global_loss,global_acc,var_v,drift,uplink,downlink,eps_rdp"
    assert lines[-1] == ""  # trailing LF
    body = lines[1:-1]
    assert len(body) == cfg.rounds
    last = body[-1].split(",")
    assert int(last[0]) == cfg.rounds
    # 17-significant-digit floats round-trip exactly
    assert float(last[1]) == summary.final_loss
    assert len(last) == 8 and float(last[7]) == summary.eps_rdp
    # Each line is its record, field for field: ints as str, floats .17g.
    assert body == [",".join(str(x) if isinstance(x, int) else
                             format(x, ".17g") for x in record)
                    for record in summary.metrics]


def payload_columns(cfg, num_features, num_classes):
    """The uplink and downlink cells of every row, for a model of these sizes."""
    model = build_model(cfg.model, dim=cfg.dim, num_features=num_features,
                        num_classes=num_classes, hidden=cfg.hidden)
    up, down = payload_count(cfg.variant, model.d, model.layout.num_blocks)
    S = cfg.selected_clients
    return [[str(up * S), str(down * S)]] * cfg.rounds


@pytest.mark.parametrize("sizes, seed, payload", [
    (dict(num_classes=2, num_features=3, num_samples=4, sample_rate=1.0),
     0, ["20", "36"]),
    (dict(num_classes=10, num_samples=20, sample_rate=0.5), 8, ["424", "844"])])
def test_blobs_run_trains_the_configs_model(tmp_path, sizes, seed, payload):
    # These draws lack their top class, yet the run's model is the config's,
    # the one config_hash and the benchmark's checker describe.
    cfg = RunConfig(**sizes, num_clients=2, rounds=2, local_steps=2,
                    seed=seed, output_dir=str(tmp_path / "out"))
    rounds = Rounds(cfg)
    assert rounds.fed.y.max() + 1 < cfg.num_classes
    assert (rounds.model.num_features, rounds.model.num_classes) == (
        cfg.num_features, cfg.num_classes)
    summary = run(cfg)
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:]
    assert ([row.split(",")[5:7] for row in rows]
            == payload_columns(cfg, cfg.num_features, cfg.num_classes)
            == [payload] * 2)
    assert summary.final_loss > 0  # a one-class softmax gave -0.0


def test_csv_run_sizes_its_model_from_the_file(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("f1,f2,f3,label\n" + "".join(
        f"{i % 7 / 7},{-i / 90},{i % 3 - 1},{i % 3}\n" for i in range(90)))
    cfg = RunConfig(dataset=str(path), num_clients=3, rounds=2, local_steps=2,
                    sample_rate=0.5, output_dir=str(tmp_path / "out"))
    run(cfg)
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[5:7] for row in rows] == payload_columns(cfg, 3, 3)


def test_readme_lists_the_metrics_columns():
    # Quoted whole, so a column list that only starts with it is stale too.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert f"`{','.join(METRICS_COLUMNS)}`" in readme.read_text("utf-8")


def test_summary_json_fields(tmp_path):
    cfg = small_config(tmp_path)
    summary = run(cfg)
    payload = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert list(payload) == ["config_hash", "variant", "model", "seed",
                             "rounds", "final_loss", "final_accuracy",
                             "eps_rdp"]
    assert payload["config_hash"] == cfg.config_hash()
    assert payload["final_loss"] == summary.final_loss


def test_output_dir_env_is_ignored(tmp_path, monkeypatch):
    # Only the config says where a run writes: an OUTPUT_DIR variable must
    # not send every run of a sweep into one directory.
    elsewhere = tmp_path / "elsewhere"
    monkeypatch.setenv("OUTPUT_DIR", str(elsewhere))
    run(small_config(tmp_path))
    assert (tmp_path / "out" / "metrics.csv").exists()
    cfgs = [small_config(tmp_path, gamma=g) for g in (0.0, 0.5)]
    compare(cfgs, [0, 1], axes=("gamma",), output_dir=str(tmp_path / "cmp"))
    written = sorted(p.parent.name
                     for p in (tmp_path / "cmp").glob("*/summary.json"))
    assert written == ["c0_s0", "c0_s1", "c1_s0", "c1_s1"]
    assert (tmp_path / "cmp" / "comparison.csv").exists()
    assert not elsewhere.exists()


def test_default_config_lowers_the_loss(tmp_path):
    # The defaults are a working run: the loss after 5 rounds ends below
    # the loss at the initial parameters.
    start = run(RunConfig(rounds=0, output_dir=str(tmp_path / "r0")))
    end = run(RunConfig(rounds=5, output_dir=str(tmp_path / "r5")))
    assert end.final_loss < start.final_loss


# A value other than the default for each field that only some variants read.
VARIANT_FIELDS = dict(warm_start=False, bias_correction=False, gamma=0.0,
                      beta1=0.5, beta2=0.9, adam_eps=0.5,
                      identity_preconditioner=True)
UNREAD_BY_VARIANT = {
    "dp_local_adamw": ("warm_start", "bias_correction", "gamma"),
    "dp_fedavg_sgd": tuple(VARIANT_FIELDS),
}


def test_config_hash_semantics(tmp_path):
    base = small_config(tmp_path)
    assert base.config_hash() == small_config(tmp_path).config_hash()
    # output_dir is not semantic
    moved = small_config(tmp_path, output_dir=str(tmp_path / "other"))
    assert moved.config_hash() == base.config_hash()
    # every semantic knob changes the hash
    assert small_config(tmp_path, lr=0.02).config_hash() != base.config_hash()
    assert small_config(tmp_path, seed=1).config_hash() != base.config_hash()
    # dp_fedadamw reads every field that only some variants read, and
    # dp_local_adamw reads the moment ones.
    for key, value in VARIANT_FIELDS.items():
        assert (small_config(tmp_path, **{key: value}).config_hash()
                != base.config_hash()), key
    local = small_config(tmp_path, variant="dp_local_adamw")
    for key in set(VARIANT_FIELDS) - set(UNREAD_BY_VARIANT["dp_local_adamw"]):
        assert (small_config(tmp_path, variant="dp_local_adamw",
                             **{key: VARIANT_FIELDS[key]}).config_hash()
                != local.config_hash()), key


def test_config_hash_ignores_fields_the_run_does_not_read(tmp_path):
    # logistic reads no hidden layer: one computation, one hash, and
    # compare accepts the pair as differing nowhere; mlp2 tells them apart.
    quick = dict(num_samples=200, num_clients=3, rounds=1, local_steps=1,
                 sample_rate=0.5, output_dir=str(tmp_path / "r"))
    pair = [RunConfig(hidden=8, **quick), RunConfig(hidden=16, **quick)]
    assert pair[0].config_hash() == pair[1].config_hash()
    rows = compare(pair, [0], output_dir=str(tmp_path / "cmp"))
    assert len({row["config_hash"] for row in rows}) == 1
    mlp2 = [RunConfig(model="mlp2", hidden=h, **quick) for h in (8, 16)]
    assert mlp2[0].config_hash() != mlp2[1].config_hash()
    with pytest.raises(ConfigurationError, match="hidden"):
        compare(mlp2, [0], output_dir=str(tmp_path / "mlp2"))
    assert not (tmp_path / "mlp2").exists()
    # Blobs read no quadratic field, a CSV takes its shape from the file,
    # and the quadratic model reads no classifier field.
    assert (RunConfig(dim=9, jitter=0.5).config_hash()
            == RunConfig().config_hash())
    assert RunConfig(num_classes=3).config_hash() != RunConfig().config_hash()
    assert (RunConfig(dataset="d.csv", num_features=3).config_hash()
            == RunConfig(dataset="d.csv").config_hash())
    assert (small_config(tmp_path, num_classes=3, hidden=2, alpha=5.0)
            .config_hash() == small_config(tmp_path).config_hash())
    assert (small_config(tmp_path, dim=4).config_hash()
            != small_config(tmp_path).config_hash())


@pytest.mark.parametrize("variant", sorted(UNREAD_BY_VARIANT))
@pytest.mark.parametrize("model", ["quadratic", "logistic"])
def test_config_hash_ignores_fields_the_variant_does_not_read(
        tmp_path, variant, model):
    # A baseline computes the same run whatever such a field says, so it
    # writes the same metrics.csv under one hash.
    data = ({} if model == "quadratic" else
            dict(model="logistic", dataset="blobs", num_samples=200))
    base = small_config(tmp_path, variant=variant, **data)
    run(base)
    expected = (tmp_path / "out" / "metrics.csv").read_bytes()
    for key in UNREAD_BY_VARIANT[variant]:
        changed = small_config(tmp_path, variant=variant,
                               output_dir=str(tmp_path / key), **data,
                               **{key: VARIANT_FIELDS[key]})
        assert changed.config_hash() == base.config_hash(), key
        run(changed)
        assert (tmp_path / key / "metrics.csv").read_bytes() == expected, key


def test_selected_clients_ceiling():
    cfg = RunConfig(num_clients=10, participation=0.25)
    assert cfg.selected_clients == 3  # ceil(0.25 * 10)
    assert RunConfig(num_clients=10, participation=1.0).selected_clients == 10
    # l * N in floats rounds past the integer (0.55 * 100 = 55.00000000000001)
    for participation, clients, selected in ((0.55, 100, 55), (0.07, 100, 7),
                                             (0.14, 50, 7)):
        cfg = RunConfig(num_clients=clients, participation=participation)
        assert cfg.selected_clients == selected


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(variant="nope")
    with pytest.raises(ConfigurationError):
        RunConfig(participation=0.0)
    with pytest.raises(ConfigurationError):
        RunConfig(sample_rate=1.5)
    with pytest.raises(ConfigurationError):
        RunConfig(delta=1.0)
    with pytest.raises(ConfigurationError):
        RunConfig(rounds=-1)
    with pytest.raises(ConfigurationError, match="quadratics"):
        RunConfig(model="quadratic", dataset="blobs")
    with pytest.raises(ConfigurationError, match="quadratics"):
        RunConfig(model="logistic", dataset="quadratics")


DP_SETTINGS = {
    "clip_norm_zero": dict(clip_norm=0.0),
    "clip_norm_negative": dict(clip_norm=-1.0),
    "clip_norm_nan": dict(clip_norm=float("nan")),
    "clip_norm_inf": dict(clip_norm=float("inf")),
    "sigma_negative": dict(noise_multiplier=-1.0),
    "sigma_nan": dict(noise_multiplier=float("nan")),
    "sigma_inf": dict(noise_multiplier=float("inf")),
    "sample_rate_nan": dict(sample_rate=float("nan")),
}


@pytest.mark.parametrize("kw", DP_SETTINGS.values(), ids=DP_SETTINGS)
def test_dp_settings_checked_when_config_is_built(kw):
    with pytest.raises(ConfigurationError):
        RunConfig(**kw)


INVALID_CONFIG = {
    "model_dataset": dict(model="quadratic", dataset="blobs"),
    "beta1": dict(beta1=1.5),
    "gamma": dict(gamma=-1.0),
    "gamma_nan": dict(gamma=float("nan")),
    "adam_eps": dict(adam_eps=0.0),
    "weight_decay": dict(weight_decay=-1.0),
    "no_batch": dict(samples_per_client=1),  # floor(0.5 * 1) = 0
}


@pytest.mark.parametrize("kw", INVALID_CONFIG.values(), ids=INVALID_CONFIG)
def test_mismatched_model_dataset_writes_nothing(tmp_path, kw):
    # Rejected when the RunConfig is built (model and dataset, optimizer
    # settings, a quadratic client without one batch): no output directory
    # may appear.
    with pytest.raises(ConfigurationError):
        run(small_config(tmp_path, **kw))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_cli_optimizer_settings_checked_for_every_variant(tmp_path, capsys,
                                                          variant):
    rc = cli_main(["run", "--variant", variant, "--gamma", "-1",
                   "--model", "quadratic", "--dataset", "quadratics",
                   "--dim", "3", "--num_clients", "3", "--rounds", "1",
                   "--local_steps", "1", "--sample_rate", "0.5",
                   "--samples_per_client", "10",
                   "--output_dir", str(tmp_path / "out")])
    assert rc == 2
    assert "gamma" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# a comment line\n"
        "variant = dp_local_adamw\n"
        "rounds = 3   # inline comment\n"
        "lr = 0.5\n"
        "warm_start = false\n"
        "\n")
    cfg = parse_config_file(path)
    assert cfg.variant == "dp_local_adamw"
    assert cfg.rounds == 3 and cfg.lr == 0.5 and cfg.warm_start is False
    # CLI-style overrides win over file keys
    cfg2 = parse_config_file(path, overrides={"lr": "0.25"})
    assert cfg2.lr == 0.25
    # A byte-order mark before the first key is skipped, as load_csv does.
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert parse_config_file(bom) == cfg


def test_parse_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(bad)
    with pytest.raises(ConfigurationError):
        config_from_strings({"not_a_key": "1"})
    with pytest.raises(ConfigurationError):
        config_from_strings({"warm_start": "maybe"})
    with pytest.raises(ConfigurationError):
        config_from_strings({"rounds": "abc"})
    with pytest.raises(ConfigurationError):
        config_from_strings({"rounds": "2.5"})
    with pytest.raises(ConfigurationError):
        config_from_strings({"lr": "fast"})


@given(st.dictionaries(
    st.sampled_from([f.name for f in fields(RunConfig)]),
    st.one_of(st.text(max_size=12), st.integers().map(str),
              st.floats().map(str))))
@settings(max_examples=300, deadline=None)
def test_config_from_strings_returns_config_or_configuration_error(values):
    try:
        cfg = config_from_strings(values)
    except ConfigurationError:
        return
    assert isinstance(cfg, RunConfig)


# Each group is one written value in several Python spellings.
EQUIVALENT = [("noise_multiplier", (1, 1.0, "1")), ("gamma", (-0.0, 0.0, "-0")),
              ("gamma", (np.float64(0.5), 0.5)), ("seed", (np.int64(3), 3, "3")),
              ("warm_start", ("false", False, np.False_)),
              ("dataset", (Path("d.csv"), "d.csv"))]


@pytest.mark.parametrize("key,values", EQUIVALENT,
                         ids=[f"{k}={v[-1]}" for k, v in EQUIVALENT])
def test_a_value_is_parsed_from_its_written_form(key, values):
    # A value from Python, a file line or a flag is parsed from str(value),
    # so one written value is one config, of the annotated type, one hash.
    configs = [RunConfig(**{key: value}) for value in values]
    assert all(cfg == configs[0] for cfg in configs)
    assert len({cfg.config_hash() for cfg in configs}) == 1
    assert {type(getattr(cfg, key)) for cfg in configs} == {
        type(getattr(RunConfig(), key))}


REJECTED = {"rounds=2.5": ("rounds", 2.5), "seed=1.5": ("seed", 1.5),
            "dim=True": ("dim", True), "gamma=True": ("gamma", True),
            "warm_start=2": ("warm_start", 2),
            "output_dir=None": ("output_dir", None),
            "lr=10**400": ("lr", 10**400),
            "rounds=10**5000": ("rounds", 10**5000)}  # no str(): no text


@pytest.mark.parametrize("key,value", REJECTED.values(), ids=REJECTED)
def test_a_value_that_is_not_its_type_is_rejected_naming_the_key(key, value):
    # Not truncated (1.5 is no seed 1), not read by truthiness ("2" is no
    # bool), not a directory named None, not an int past the float range
    # nor one too long to write.
    with pytest.raises(ConfigurationError, match=key):
        RunConfig(**{key: value})


RAW_VALUES = st.one_of(
    st.integers(), st.floats(), st.sampled_from([math.nan, math.inf, -math.inf,
                                                 -0.0]),
    st.booleans(), st.none(), st.text(max_size=12),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats().map(np.float64),
    st.booleans().map(np.bool_))


@given(st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)]),
                       RAW_VALUES))
@settings(max_examples=300, deadline=None)
def test_run_config_from_python_values_returns_config_or_configuration_error(
        values):
    try:
        cfg = RunConfig(**values)
    except ConfigurationError:
        return
    assert all(type(getattr(cfg, f.name)).__name__ == f.type
               for f in fields(cfg))


def test_numpy_seeds_run_and_compare(tmp_path):
    # A NumPy seed is the seed it writes: summary.json and comparison.csv
    # hold plain integers.
    run(small_config(tmp_path, seed=np.int64(0)))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 0
    rows = compare([small_config(tmp_path)], list(np.arange(2)),
                   output_dir=str(tmp_path / "cmp"))
    assert [row["seed"] for row in rows] == [0, 1, -1]
    assert (tmp_path / "cmp" / "comparison.csv").exists()


def test_compare_rejects_a_seed_written_twice(tmp_path):
    # 0 and "0" are one seed: a sweep over both would run c0_s0 twice.
    with pytest.raises(ConfigurationError, match="distinct"):
        compare([small_config(tmp_path)], [0, "0"],
                output_dir=str(tmp_path / "cmp"))
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
def test_cli_unreadable_config_file_exits_2(tmp_path, capsys, command, kind):
    # A config file that cannot be read as UTF-8 text is an input error:
    # no traceback, an error naming the file, nothing written.
    path = tmp_path / "exp.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes("model = quadratic  # \xe9t\xe9\n".encode("latin-1"))
    rc = cli_main([command, "--config", str(path),
                   "--output_dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert not (tmp_path / "out").exists()


def test_duplicate_config_key_is_rejected(tmp_path, capsys):
    # A repeated key is a typo or a merge leftover, not a later override.
    path = tmp_path / "exp.cfg"
    path.write_text("rounds = 1\nlr = 0.5\nrounds = 2\n")
    with pytest.raises(ConfigurationError,
                       match=r"exp.cfg:3: duplicate key 'rounds' .*line 1"):
        parse_config_file(path)
    rc = cli_main(["run", "--config", str(path),
                   "--output_dir", str(tmp_path / "out")])
    assert rc == 2
    assert "duplicate key 'rounds'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # A flag still overrides the file's one value for a key.
    path.write_text("rounds = 1\nlr = 0.5\n")
    assert parse_config_file(path, overrides={"rounds": "2"}).rounds == 2


def test_shipped_default_config_parses():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    cfg = parse_config_file(os.path.join(root, "configs", "default.cfg"))
    assert cfg.model == "quadratic" and cfg.rounds == 50
    assert cfg.gamma == 0.5 and cfg.noise_multiplier == 1.0


def test_default_config_alignment_beats_gamma_zero(tmp_path):
    # Paired-seed comparison oracle on the shipped demo configuration:
    # the alignment term (gamma = 0.5) lowers the final loss vs gamma = 0.
    from dataclasses import replace

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    base = parse_config_file(os.path.join(root, "configs", "default.cfg"),
                             overrides={"output_dir": str(tmp_path)})
    wins = 0
    for seed in range(5):
        aligned = run(replace(base, seed=seed)).final_loss
        plain = run(replace(base, seed=seed, gamma=0.0)).final_loss
        wins += aligned < plain
    assert wins >= 4


def test_compare_degenerate(tmp_path):
    cfg = small_config(tmp_path)
    rows = compare([cfg], [0], output_dir=str(tmp_path / "cmp"))
    kinds = [r["kind"] for r in rows]
    assert kinds == ["run", "aggregate"]
    table = (tmp_path / "cmp" / "comparison.csv").read_text().split("\n")
    assert table[0].startswith("config,config_hash,seed,kind")
    assert len(table) == 4  # header + run row + aggregate row + trailing LF


def test_compare_axis_sweep(tmp_path):
    cfgs = [small_config(tmp_path, gamma=g) for g in (0.0, 0.5)]
    rows = compare(cfgs, [0, 1], axes=("gamma",),
                   output_dir=str(tmp_path / "sweep"))
    run_rows = [r for r in rows if r["kind"] == "run"]
    agg_rows = [r for r in rows if r["kind"] == "aggregate"]
    assert len(run_rows) == 4 and len(agg_rows) == 2
    for r in agg_rows:
        assert r["loss_std"] >= 0.0


def test_compare_rejects_undeclared_differences(tmp_path):
    cfgs = [small_config(tmp_path), small_config(tmp_path, lr=0.5)]
    with pytest.raises(ConfigurationError):
        compare(cfgs, [0], axes=("gamma",), output_dir=str(tmp_path / "cmp"))
    assert not (tmp_path / "cmp").exists()


def test_compare_judges_fields_by_their_written_values(tmp_path):
    # logistic reads no hidden layer, so its hashed view resets hidden to
    # its default; the written 8 equals mlp2's 8 and is no difference.
    quick = dict(num_samples=200, num_clients=3, rounds=1, local_steps=1,
                 sample_rate=0.5, hidden=8)
    models = [RunConfig(model=m, **quick) for m in ("logistic", "mlp2")]
    rows = compare(models, [0], axes=("model",),
                   output_dir=str(tmp_path / "models"))
    assert len(rows) == 4
    with pytest.raises(ConfigurationError, match="hidden"):
        compare([models[0], replace(models[1], hidden=16)], [0],
                axes=("model",), output_dir=str(tmp_path / "bad"))
    # dp_fedavg_sgd reads no beta2, dp_fedadamw does: equal values pass,
    # different ones are an undeclared difference.
    variants = [small_config(tmp_path, variant=v, beta2=0.9)
                for v in ("dp_fedadamw", "dp_fedavg_sgd")]
    rows = compare(variants, [0], axes=("variant",),
                   output_dir=str(tmp_path / "variants"))
    assert len(rows) == 4
    with pytest.raises(ConfigurationError, match="beta2"):
        compare([variants[0], replace(variants[1], beta2=0.5)], [0],
                axes=("variant",), output_dir=str(tmp_path / "bad"))
    assert not (tmp_path / "bad").exists()


def test_compare_rejects_unknown_axes(tmp_path):
    # A misspelt axis would declare nothing and let the sweep run.
    cfg = small_config(tmp_path)
    with pytest.raises(ConfigurationError, match="gama"):
        compare([cfg, cfg], [0], axes=("gama",),
                output_dir=str(tmp_path / "cmp"))
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("seeds", ["a", ",", "0,x", "0,0", "3,1,3"])
def test_cli_compare_rejects_bad_seeds(tmp_path, capsys, seeds):
    # A repeated seed would run twice into one c0_s<seed> directory and
    # report a spread of 0, so it is rejected before any run.
    path = tmp_path / "exp.cfg"
    path.write_text("model = quadratic\ndataset = quadratics\n")
    rc = cli_main(["compare", "--config", str(path), "--seeds", seeds,
                   "--output_dir", str(tmp_path / "cmp")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_compare_rejects_no_configs(tmp_path):
    # The CLI requires --config, so only the function sees an empty list.
    with pytest.raises(ConfigurationError):
        compare([], [0], output_dir=str(tmp_path / "cmp"))


QUADRATIC_CFG = ("model = quadratic\ndataset = quadratics\ndim = 3\n"
                 "num_clients = 3\nrounds = 2\nlocal_steps = 2\n"
                 "sample_rate = 0.5\nsamples_per_client = 10\ngamma = 0\n")
LOGISTIC_CFG = ("num_samples = 200\nnum_clients = 3\nrounds = 1\n"
                "local_steps = 1\nsample_rate = 0.5\nhidden = 0\n")


@pytest.mark.filterwarnings("error")
def test_compare_failure_names_the_run(tmp_path, capsys):
    # A sweep that stops on one run's error says which run, with the class
    # (and so the exit code) the run raised; the runs before it keep their
    # directories, and no comparison.csv is written for an unfinished sweep.
    (tmp_path / "a.cfg").write_text(QUADRATIC_CFG)
    (tmp_path / "b.cfg").write_text(QUADRATIC_CFG + "lr = 1e160\n")
    out = tmp_path / "sweep"
    rc = cli_main(["compare", "--config", str(tmp_path / "a.cfg"),
                   "--config", str(tmp_path / "b.cfg"), "--axes", "lr",
                   "--seeds", "0,1", "--output_dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'c1_s0'}: non-finite metrics in round 1\n")
    assert sorted(os.listdir(out)) == ["c0_s0", "c0_s1", "c1_s0"]
    # A run's data check is named the same way: at seed 67, Dir(0.1) leaves
    # a client with one row, and so without one batch.
    blobs = RunConfig(num_samples=200, sample_rate=0.2, rounds=1)
    with pytest.raises(ConfigurationError) as info:
        compare([blobs], [67], output_dir=str(tmp_path / "small"))
    assert str(info.value) == (f"{tmp_path / 'small' / 'c0_s67'}: "
                               "floor(sample_rate * 1 rows) must be >= 1")


def test_cli_compare_writes_the_rows_it_returns(tmp_path, capsys,
                                                monkeypatch):
    # A finished sweep prints where its table is, and the table is the rows
    # compare() returns, one line each, in csv_text's format.
    returned = []
    monkeypatch.setattr(cli, "compare", lambda *args, **kw: returned.append(
        compare(*args, **kw)) or returned[-1])
    (tmp_path / "a.cfg").write_text(QUADRATIC_CFG)
    (tmp_path / "b.cfg").write_text(QUADRATIC_CFG + "lr = 0.02\n")
    out = tmp_path / "sweep"
    rc = cli_main(["compare", "--config", str(tmp_path / "a.cfg"),
                   "--config", str(tmp_path / "b.cfg"), "--axes", "lr",
                   "--seeds", "0,1", "--output_dir", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote {out}/comparison.csv\n"
    cols = ("config", "config_hash", "seed", "kind", "final_loss",
            "final_accuracy", "loss_std", "accuracy_std")
    [rows] = returned
    assert len(rows) == 6
    assert (out / "comparison.csv").read_bytes() == csv_text(
        cols, ([row.get(c, "") for c in cols] for row in rows)).encode()


@pytest.mark.parametrize("stop", [DivergenceError, KeyboardInterrupt])
def test_stopped_sweep_keeps_its_runs_and_no_stale_table(tmp_path,
                                                         monkeypatch, stop):
    # A sweep stopped at c1_s0, by a divergence or by an interrupt, leaves
    # no comparison.csv, not even the one an earlier finished sweep wrote in
    # the same directory. The runs before c1_s0 keep their directories, and
    # the earlier sweep's c1_s1 is left as it was.
    out = tmp_path / "sweep"
    cfgs = [small_config(tmp_path, lr=lr) for lr in (0.01, 0.02)]
    compare(cfgs, [0, 1], axes=("lr",), output_dir=str(out))
    assert (out / "comparison.csv").exists()
    if stop is DivergenceError:
        cfgs[1] = small_config(tmp_path, lr=1e160)
    else:
        calls = []
        real_run_round = runner.run_round

        def stop_in_c1_s0(*args):
            calls.append(1)
            if len(calls) == 5:  # c0_s0 and c0_s1 ran two rounds each
                raise stop()
            return real_run_round(*args)

        monkeypatch.setattr(runner, "run_round", stop_in_c1_s0)
    with pytest.raises(stop):
        compare(cfgs, [0, 1], axes=("lr",), output_dir=str(out))
    assert sorted(os.listdir(out)) == ["c0_s0", "c0_s1", "c1_s0", "c1_s1"]
    assert (out / "c1_s0" / "metrics.csv").read_text() == (
        ",".join(METRICS_COLUMNS) + "\n")
    assert not (out / "c1_s0" / "summary.json").exists()


BLOBS_SWEEP = dict(num_samples=200, num_clients=3, rounds=1, local_steps=1,
                   sample_rate=0.5)
QUADRATIC_SWEEP = dict(BLOBS_SWEEP, model="quadratic", dataset="quadratics",
                       dim=3, samples_per_client=10)
DATA_FREE = {  # a sweep's first config, and its second, which breaks a rule
    "one_client": (BLOBS_SWEEP, dict(num_clients=1), "num_clients"),
    "clients_past_rows": (BLOBS_SWEEP, dict(num_samples=4, num_clients=5),
                          "num_clients"),
    "no_quadratic_batch": (QUADRATIC_SWEEP,
                           dict(samples_per_client=4, sample_rate=0.2),
                           "floor(sample_rate * 4 rows)"),
}


@pytest.mark.parametrize("base,change,named", DATA_FREE.values(),
                         ids=DATA_FREE)
def test_data_free_rules_checked_when_config_is_built(tmp_path, capsys, base,
                                                      change, named):
    # A rule that needs no data rejects the config when it is built, so a
    # sweep that names it runs nothing, not its first config's c0_s0.
    with pytest.raises(ConfigurationError) as info:
        RunConfig(**{**base, **change})
    assert named in str(info.value)
    for name, values in (("a", base), ("b", {**base, **change})):
        (tmp_path / f"{name}.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in values.items()))
    rc = cli_main(["compare", "--config", str(tmp_path / "a.cfg"),
                   "--config", str(tmp_path / "b.cfg"),
                   "--axes", ",".join(change), "--seeds", "0",
                   "--output_dir", str(tmp_path / "sweep")])
    assert rc == 2 and named in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.filterwarnings("error")
def test_mlp2_hidden_checked_when_config_is_built(tmp_path, capsys):
    # mlp2's hidden rule needs no data: the config is rejected when it is
    # built, so a sweep that names it runs nothing and leaves nothing.
    with pytest.raises(ConfigurationError, match="hidden"):
        RunConfig(model="mlp2", hidden=0)
    (tmp_path / "logistic.cfg").write_text(LOGISTIC_CFG)
    (tmp_path / "mlp2.cfg").write_text(LOGISTIC_CFG + "model = mlp2\n")
    rc = cli_main(["compare", "--config", str(tmp_path / "logistic.cfg"),
                   "--config", str(tmp_path / "mlp2.cfg"), "--axes", "model",
                   "--seeds", "0,1", "--output_dir", str(tmp_path / "sweep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "hidden" in err and err.count("\n") == 1
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("sigma, every", [
    pytest.param("1", 1, id="1"), pytest.param("0", 1, id="0"),
    pytest.param("1", 2, id="1-every2")])
def test_cli_account_rows_equal_the_run_eps(tmp_path, capsys, sigma, every):
    # dpfed account and a run read one per-round eps sequence and print each
    # eps alike: the table's rows are the run's eps_rdp column, every
    # every-th round and the last, byte for byte.
    shared = ["--noise_multiplier", sigma, "--sample_rate", "0.5",
              "--local_steps", "2", "--rounds", "3", "--delta", "1e-3"]
    assert cli_main(["account", *shared, "--every", str(every)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert cli_main(["run", *shared, "--model", "quadratic", "--dataset",
                     "quadratics", "--dim", "3", "--num_clients", "3",
                     "--samples_per_client", "10",
                     "--output_dir", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:]
    eps = [row.split(",")[-1] for row in rows]
    assert table == ["round,eps_rdp", *(f"{t},{e}" for t, e in
                                        enumerate(eps, 1)
                                        if t % every == 0 or t == 3)]
    assert (eps == ["inf"] * 3) == (sigma == "0")


def test_cli_run_with_config_and_flags(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("model = quadratic\ndataset = quadratics\n"
                    "dim = 3\nnum_clients = 3\nrounds = 1\nlocal_steps = 1\n"
                    "sample_rate = 0.5\nsamples_per_client = 10\n"
                    "adam_eps = 1e-2\nlr = 0.01\n")
    rc = cli_main(["run", "--config", str(path),
                   "--output_dir", str(tmp_path / "cli_out"),
                   "--rounds", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final_loss=" in out and "eps_rdp=" in out
    csv = (tmp_path / "cli_out" / "metrics.csv").read_text().split("\n")
    assert len(csv) == 4  # header + 2 rounds + trailing LF


def test_cli_account_table(capsys):
    rc = cli_main(["account", "--noise_multiplier", "1.0",
                   "--sample_rate", "0.1", "--local_steps", "5",
                   "--rounds", "4", "--every", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "round,eps_rdp"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [2, 4]
    eps = [float(l.split(",")[1]) for l in lines[1:]]
    assert 0 < eps[0] < eps[1]


@pytest.mark.parametrize("every", ["0", "-1"])
def test_cli_account_every_must_be_positive(capsys, every):
    rc = cli_main(["account", "--noise_multiplier", "1.0",
                   "--sample_rate", "0.1", "--local_steps", "1",
                   "--rounds", "3", "--every", every])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("flag,value,named", [
    ("--noise_multiplier", "nan", "sigma"),
    ("--noise_multiplier", "-1", "sigma"),
    ("--sample_rate", "1.5", "sample_rate"),
    ("--local_steps", "0", "local_steps"), ("--rounds", "-1", "rounds"),
    ("--delta", "1", "delta")])
def test_cli_account_rejected_input_prints_nothing(capsys, flag, value,
                                                   named):
    # The error names the bad input, and stdout stays empty: no header.
    args = {"--noise_multiplier": "1.0", "--sample_rate": "0.1",
            "--local_steps": "1", "--rounds": "2", flag: value}
    rc = cli_main(["account", *(x for kv in args.items() for x in kv)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and named in captured.err
    assert captured.out == ""


def test_cli_account_zero_sigma_is_unbounded(tmp_path, capsys):
    # The same rule as a run: no noise, no finite guarantee.
    rc = cli_main(["account", "--noise_multiplier", "0",
                   "--sample_rate", "0.1", "--local_steps", "1",
                   "--rounds", "3", "--every", "2"])
    assert rc == 0
    assert capsys.readouterr().out == "round,eps_rdp\n2,inf\n3,inf\n"
    summary = run(small_config(tmp_path, noise_multiplier=0.0, rounds=3))
    assert summary.eps_rdp == math.inf


QUICK_RUN = ["--model", "quadratic", "--dataset", "quadratics", "--dim", "3",
             "--num_clients", "3", "--rounds", "1", "--local_steps", "1",
             "--sample_rate", "0.5", "--samples_per_client", "10"]
QUICK_LOGISTIC = ["--num_samples", "200", "--num_clients", "3", "--rounds", "1",
                  "--local_steps", "1", "--sample_rate", "0.5"]
MALFORMED = [(QUICK_RUN, k, v) for k, v in [
    ("dim", "-2"), ("dim", "0"), ("seed", "-1"), ("heterogeneity", "nan"),
    ("heterogeneity", "inf"), ("heterogeneity", "1e200"), ("jitter", "nan"),
    ("jitter", "1e300"), ("lr", "inf"),
    ("weight_decay", "inf"), ("gamma", "inf"), ("adam_eps", "inf")]] + [
    (QUICK_LOGISTIC, k, v) for k, v in [
        ("num_classes", "0"), ("num_classes", "1"), ("num_features", "0"),
        ("num_samples", "0"), ("alpha", "inf"), ("dataset", "missing.csv"),
        ("dataset", "bad_header.csv"), ("dataset", "one_class.csv"),
        ("dataset", "huge_feature.csv"), ("num_clients", "1"),
        ("num_clients", "300"), ("model", "cnn")]
] + [([*QUICK_LOGISTIC, "--model", "mlp2"], "hidden", "0"),
     # Two classes under Dir(1e-300): each class goes to one client, so a
     # third client is empty in every draw. Ten classes fill all three.
     ([*QUICK_LOGISTIC, "--num_classes", "2"], "alpha", "1e-300")]
CSV_FILES = {
    "bad_header.csv": "x1,x2,label\n0.1,0.2,0\n0.3,0.4,1\n",
    "one_class.csv": "f1,f2,label\n" + "".join(f"{i / 10},{-i / 7},0\n"
                                                for i in range(200)),
    # 2e150 would overflow a classifier's clip: rejected at load.
    "huge_feature.csv": "f1,f2,label\n" + "".join(
        f"{2e150 if i == 7 else i / 10},{-i / 7},{i % 2}\n"
        for i in range(200)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("base,key,value", MALFORMED,
                         ids=[f"{k}={v}" for _, k, v in MALFORMED])
def test_cli_malformed_input_exits_2_naming_the_key(tmp_path, capsys, base,
                                                    key, value):
    # Rejected before any round, with one error line naming the input: no
    # traceback, no warning, no misleading cause, no output directory. A
    # quadratic feature past 1e150, a CSV's bound, is malformed too.
    if key == "dataset":  # a CSV error also names the file
        path = tmp_path / value
        if value in CSV_FILES:
            path.write_text(CSV_FILES[value])
        value = str(path)
    rc = cli_main(["run", *base, f"--{key}", value,
                   "--output_dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and err.count("\n") == 1
    assert key != "dataset" or value in err
    assert not (tmp_path / "out").exists()


def test_adam_eps_with_infinite_reciprocal_rejected(tmp_path, capsys):
    # 1/eps is the preconditioner's clamp: below ~5.6e-309 it overflows,
    # which used to end the run as a divergence after numpy warnings.
    with pytest.raises(ConfigurationError, match="adam_eps"):
        RunConfig(adam_eps=1e-320)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli_main(["run", "--rounds", "2", "--local_steps", "2",
                       "--adam_eps", "1e-320",
                       "--output_dir", str(tmp_path / "out")])
    assert rc == 2 and caught == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "adam_eps" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_single_class_csv_exits_2(tmp_path, capsys):
    # One class leaves nothing to classify: rejected before any round.
    path = tmp_path / "one.csv"
    path.write_text("f1,f2,label\n"
                    + "".join(f"{i / 10},{-i / 7},0\n" for i in range(200)))
    rc = cli_main(["run", "--dataset", str(path), "--num_clients", "3",
                   "--rounds", "3", "--local_steps", "2", "--sample_rate",
                   "0.5", "--output_dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: CSV labels")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", ["1e-160", "1e-200"])
def test_tiny_sigma_is_unbounded(tmp_path, capsys, sigma):
    # Noise too small for a finite RDP curve gives inf, as sigma = 0 does,
    # in the budget table and in a run, without a floating-point warning.
    rc = cli_main(["account", "--noise_multiplier", sigma,
                   "--sample_rate", "0.2", "--local_steps", "10",
                   "--rounds", "2"])
    summary = run(small_config(tmp_path, noise_multiplier=float(sigma)))
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["inf", "inf"]
    assert summary.eps_rdp == math.inf


@pytest.mark.parametrize("command,where", [
    pytest.param(command, where, id=where if command == "run" else
                 f"{where}-{command}") for command in ("run", "compare")
    for where in ("file", "under_file", "artifact_is_dir")])
def test_cli_unusable_output_dir_exits_2_before_any_round(tmp_path, capsys,
                                                          monkeypatch, command,
                                                          where):
    # An output_dir that is a file, lies under one, or holds a directory
    # named like an artifact is rejected with its path before round 1, not
    # with a traceback after the last round. A sweep checks its table's
    # path before its first run, so no c0_s0 appears.
    out = tmp_path / "taken"
    artifact = "metrics.csv" if command == "run" else "comparison.csv"
    if where == "artifact_is_dir":
        (out / artifact).mkdir(parents=True)
    else:
        out.write_text("")
        out = out / ("x" if where == "under_file" else "")
    rounds = []
    real_run_round = runner.run_round
    monkeypatch.setattr(runner, "run_round", lambda *args: rounds.append(1)
                        or real_run_round(*args))
    if command == "run":
        args = ["run", *QUICK_RUN]
    else:
        (tmp_path / "a.cfg").write_text(QUADRATIC_CFG)
        args = ["compare", "--config", str(tmp_path / "a.cfg"), "--seeds", "0"]
    rc = cli_main([*args, "--output_dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output_dir") and str(out) in err
    assert where != "artifact_is_dir" or f"a directory named {artifact}" in err
    assert not rounds and not (out / "c0_s0").exists()
    assert where == "artifact_is_dir" or (tmp_path / "taken").read_text() == ""


def test_cli_invalid_config_exit_code(capsys):
    rc = cli_main(["run", "--variant", "bogus"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unparsable_flag_exit_code(capsys):
    rc = cli_main(["run", "--rounds", "abc"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_cli_divergence_exit_code(tmp_path, capsys):
    rc = cli_main(["run", "--model", "quadratic", "--dataset", "quadratics",
                   "--dim", "3", "--num_clients", "3", "--rounds", "2",
                   "--local_steps", "2", "--sample_rate", "0.5",
                   "--samples_per_client", "10", "--lr", "1e308",
                   "--gamma", "1e308", "--output_dir", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: non-finite parameters")
    assert "final_loss=" not in captured.out


DIVERGENT = {  # with test_cli_divergence_exit_code's lr = gamma = 1e308
    "quadratic": ["--model", "quadratic", "--dataset", "quadratics",
                  "--dim", "3", "--samples_per_client", "10"],
    "logistic": ["--model", "logistic", "--num_samples", "400"],
    "mlp2": ["--model", "mlp2", "--num_samples", "400"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", DIVERGENT)
def test_cli_divergence_ends_alike_wherever_it_shows(tmp_path, capsys, model):
    # By seed, the blow-up first shows in a local step, in the server's
    # sum or as a non-finite gradient at the clip. Each is a divergence
    # (exit 1) that keeps the rows of the rounds completed before it: the
    # bytes a run of just those rounds writes.
    def cli_run(seed, rounds, out):
        return cli_main([
            "run", *DIVERGENT[model], "--num_clients", "3",
            "--rounds", str(rounds), "--local_steps", "2",
            "--sample_rate", "0.5", "--lr", "1e308", "--gamma", "1e308",
            "--seed", str(seed), "--output_dir", str(out)])

    for seed in range(20):
        out = tmp_path / f"s{seed}"
        assert cli_run(seed, 2, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite") and err.count("\n") == 1
        assert not (out / "summary.json").exists()
        rows = (out / "metrics.csv").read_text().splitlines(True)
        assert rows[0] == ",".join(METRICS_COLUMNS) + "\n" and len(rows) <= 2
        assert cli_run(seed, len(rows) - 1, tmp_path / "done") == 0
        assert (tmp_path / "done" / "metrics.csv").read_text() == "".join(rows)


@pytest.mark.filterwarnings("error")
def test_non_finite_metric_is_divergence_but_documented_nan_is_not(
        tmp_path, capsys):
    # lr = 1e160 keeps theta finite, but the loss and the drift overflow:
    # a divergence before the round's row is kept. With S = 1, var_v and
    # drift are NaN by definition, global_acc is NaN for the quadratic,
    # and eps_rdp is inf at sigma = 0: none of these ends a run.
    out = tmp_path / "out"
    rc = cli_main(["run", *DIVERGENT["quadratic"], "--num_clients", "3",
                   "--rounds", "2", "--local_steps", "2", "--sample_rate",
                   "0.5", "--lr", "1e160", "--gamma", "0",
                   "--output_dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite metrics in round 1\n"
    assert (out / "metrics.csv").read_text() == ",".join(METRICS_COLUMNS) + "\n"
    one = run(small_config(tmp_path, participation=0.3, noise_multiplier=0.0))
    assert len(one.metrics) == 2 and all(
        math.isnan(r.var_v) and math.isnan(r.drift)
        and math.isnan(r.global_accuracy) and r.eps_rdp == math.inf
        for r in one.metrics)


def test_import_loads_no_scipy():
    # SciPy is a test and benchmark dependency only; scipy.special alone
    # costs a process ~0.2 s of start-up and ~18 MB of peak RSS. Nor does
    # the import build a log-factorial table: the first curve does.
    src = str(Path(runner.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import sys, dpfed, dpfed.cli, dpfed.runner; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
            "print(dpfed.accounting._log_factorials.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "0"]
