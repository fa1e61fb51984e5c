"""The byte-identity tool (tools/artifact_hashes.py) still builds its matrix,
and the benchmark's workloads are still the acceptance configs.

The tool's full run takes tens of seconds, so this suite only loads the
script and the benchmark's workloads by path, counts the sets it would run,
reads each set's config back from text and compares the workloads' hashes.
"""
import importlib.util
import sys
from dataclasses import fields, replace
from pathlib import Path

from dpfed.runner import parse_config_file
from test_acceptance import DRIFT_BASE, SUPERIORITY_BASE, VAR_BASE

ROOT = Path(__file__).resolve().parent.parent


def load(path, name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered while it runs: its dataclasses look their module up there
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def matrix(monkeypatch):
    tool = load(ROOT / "tools" / "artifact_hashes.py", "artifact_hashes",
                monkeypatch)
    workloads = load(ROOT / "bench" / "workloads.py", "bench_workloads",
                     monkeypatch)
    return list(tool.matrix(workloads.WORKLOADS))


def test_matrix_has_156_distinct_sets(monkeypatch):
    labels = [label for label, _ in matrix(monkeypatch)]
    assert len(labels) == len(set(labels)) == 156


def test_matrix_configs_round_trip_through_text(monkeypatch, tmp_path):
    # Each config written as key = str(value) lines reads back as itself,
    # under its own hash: what a run's written config.cfg relies on.
    path = tmp_path / "run.cfg"
    for label, config in matrix(monkeypatch):
        path.write_text("".join(f"{f.name} = {getattr(config, f.name)}\n"
                                for f in fields(config)), encoding="utf-8")
        back = parse_config_file(path)
        assert back == config, label
        assert back.config_hash() == config.config_hash(), label


def test_workloads_are_the_acceptance_configs(monkeypatch):
    # bench/workloads.py copies each acceptance config's values on purpose,
    # so a test edit cannot move the benchmark; the copies differ only in
    # their rounds and must compute what their source computes.
    workloads = load(ROOT / "bench" / "workloads.py", "bench_workloads",
                     monkeypatch).WORKLOADS
    for name, base in (("logistic_blobs", SUPERIORITY_BASE),
                       ("mlp2_blobs", VAR_BASE),
                       ("quadratic_drift", DRIFT_BASE)):
        config = replace(workloads[name].config, rounds=base.rounds)
        assert config.config_hash() == base.config_hash(), name
