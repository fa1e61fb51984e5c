import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfed import runner
from dpfed.blocks import ConfigurationError
from dpfed.cli import main as cli_main
from dpfed.optimizer import DivergenceError
from dpfed.runner import (METRICS_COLUMNS, RunConfig, compare,
                          config_from_strings, parse_config_file, run)


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
    assert summary.eps_rdp == 0.0 and summary.eps_paper == 0.0
    assert math.isfinite(summary.final_loss)
    csv = (tmp_path / "out" / "metrics.csv").read_text()
    assert csv == ",".join(METRICS_COLUMNS) + "\n"  # header only
    assert (tmp_path / "out" / "summary.json").exists()


def test_zero_noise_reports_infinite_epsilon(tmp_path, capsys):
    # Without noise nothing is private: a run of >= 1 round must not
    # claim a finite epsilon, in any artifact or on the command line.
    summary = run(small_config(tmp_path, noise_multiplier=0.0))
    assert summary.eps_rdp == math.inf and summary.eps_paper == math.inf
    assert all(r.eps_rdp == math.inf and r.eps_paper == math.inf
               for r in summary.metrics)
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-2:] for row in rows] == [["inf", "inf"]] * 2
    text = (tmp_path / "out" / "summary.json").read_text()
    assert '"eps_rdp": Infinity' in text and '"eps_paper": Infinity' in text
    assert json.loads(text)["eps_rdp"] == math.inf
    zero = run(small_config(tmp_path, noise_multiplier=0.0, rounds=0))
    assert zero.eps_rdp == 0.0 and zero.eps_paper == 0.0
    rc = cli_main(["run", "--model", "quadratic", "--dataset", "quadratics",
                   "--dim", "3", "--num_clients", "3", "--rounds", "1",
                   "--local_steps", "1", "--sample_rate", "0.5",
                   "--samples_per_client", "10", "--noise_multiplier", "0",
                   "--output_dir", str(tmp_path / "cli")])
    assert rc == 0
    assert "eps_rdp=inf eps_paper=inf" in capsys.readouterr().out


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
    assert lines[0] == "t,global_loss,global_acc,var_v,drift,uplink,downlink,eps_rdp,eps_paper"
    assert lines[-1] == ""  # trailing LF
    body = lines[1:-1]
    assert len(body) == cfg.rounds
    last = body[-1].split(",")
    assert int(last[0]) == cfg.rounds
    # 17-significant-digit floats round-trip exactly
    assert float(last[1]) == summary.final_loss
    assert float(last[7]) == summary.eps_rdp
    assert float(last[8]) == summary.eps_paper


def test_summary_json_fields(tmp_path):
    cfg = small_config(tmp_path)
    summary = run(cfg)
    payload = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert list(payload) == ["config_hash", "variant", "model", "seed",
                             "rounds", "final_loss", "final_accuracy",
                             "eps_rdp", "eps_paper"]
    assert payload["config_hash"] == cfg.config_hash()
    assert payload["final_loss"] == summary.final_loss


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("OUTPUT_DIR", str(override))
    run(small_config(tmp_path))
    assert (override / "metrics.csv").exists()
    assert not (tmp_path / "out").exists()


def test_config_hash_semantics(tmp_path):
    base = small_config(tmp_path)
    assert base.config_hash() == small_config(tmp_path).config_hash()
    # output_dir is not semantic
    moved = small_config(tmp_path, output_dir=str(tmp_path / "other"))
    assert moved.config_hash() == base.config_hash()
    # every semantic knob changes the hash
    assert small_config(tmp_path, lr=0.02).config_hash() != base.config_hash()
    assert small_config(tmp_path, seed=1).config_hash() != base.config_hash()
    assert (small_config(tmp_path, warm_start=False).config_hash()
            != base.config_hash())


def test_selected_clients_ceiling():
    cfg = RunConfig(num_clients=10, participation=0.25)
    assert cfg.selected_clients == 3  # ceil(0.25 * 10)
    assert RunConfig(num_clients=10, participation=1.0).selected_clients == 10


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


INVALID_AT_RUN = {
    "model_dataset": dict(model="quadratic", dataset="blobs"),
    "beta1": dict(beta1=1.5),
    "gamma": dict(gamma=-1.0),
    "adam_eps": dict(adam_eps=0.0),
    "weight_decay": dict(weight_decay=-1.0),
}


@pytest.mark.parametrize("kw", INVALID_AT_RUN.values(), ids=INVALID_AT_RUN)
def test_mismatched_model_dataset_writes_nothing(tmp_path, kw):
    # Rejected by run(), not by RunConfig: no output directory may appear.
    cfg = small_config(tmp_path, **kw)
    with pytest.raises(ConfigurationError):
        run(cfg)
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
        compare(cfgs, [0], axes=("gamma",))


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
    assert lines[0] == "round,eps_rdp,eps_paper"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [2, 4]
    eps = [float(l.split(",")[1]) for l in lines[1:]]
    assert 0 < eps[0] < eps[1]


def test_cli_invalid_config_exit_code(capsys):
    rc = cli_main(["run", "--variant", "bogus"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unparsable_flag_exit_code(capsys):
    rc = cli_main(["run", "--rounds", "abc"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli_main(["run", "--model", "quadratic", "--dataset", "quadratics",
                       "--dim", "3", "--num_clients", "3", "--rounds", "2",
                       "--local_steps", "2", "--sample_rate", "0.5",
                       "--samples_per_client", "10", "--lr", "1e308",
                       "--gamma", "1e308",
                       "--output_dir", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: non-finite parameters")
    assert "final_loss=" not in captured.out
