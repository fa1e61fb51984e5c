"""The byte-identity tool (tools/artifact_hashes.py) still builds its matrix.

Its full run takes tens of seconds, so this suite only loads the script
and the benchmark's workloads by path, counts the sets it would run and
reads each set's config back from text.
"""
import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

from dpfed.runner import parse_config_file

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
