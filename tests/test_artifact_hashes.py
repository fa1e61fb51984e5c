"""The byte-identity tool (tools/artifact_hashes.py) still builds its matrix.

Its full run takes tens of seconds, so this suite only loads the script
and the benchmark's workloads by path and counts the sets it would run.
"""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path, name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered while it runs: its dataclasses look their module up there
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_matrix_has_156_distinct_sets(monkeypatch):
    tool = load(ROOT / "tools" / "artifact_hashes.py", "artifact_hashes",
                monkeypatch)
    workloads = load(ROOT / "bench" / "workloads.py", "bench_workloads",
                     monkeypatch)
    labels = [label for label, _ in tool.matrix(workloads.WORKLOADS)]
    assert len(labels) == len(set(labels)) == 156
