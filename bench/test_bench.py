"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dpfed import runner
from dpfed.blocks import ConfigurationError

import harness
from tracing import SPAN_NAMES, Tracer, dpfed_modules
from workloads import WORKLOADS, RunChecker

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCHMARKED = {w["name"] for w in SPEC["workloads"]}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert _units("end_to_end") == harness.END_TO_END_UNITS
    assert _units("per_layer") == harness.per_layer_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_named_metric(name, trace, tmp_path):
    report = harness.measure(name, seed=3, seconds=0, trace=trace, rounds=2,
                             out_root=tmp_path)
    section = "per_layer" if trace else "end_to_end"
    got = {k: m["unit"] for k, m in report["metrics"].items()}
    assert got == _units(section)
    assert report["attempted"] >= 4
    if name in BENCHMARKED:
        assert report["correct"] and report["failed"] == 0, report["messages"]
    if trace:
        called = {k.rsplit(".", 1)[0] for k, m in report["metrics"].items()
                  if k.endswith(".calls") and m["value"] > 0}
        assert {"runner.run", "federation.run_round", "dp.clip_batch",
                "accounting.compose_and_convert"} <= called
    else:
        assert all(m["value"] > 0 for m in report["metrics"].values())


def snapshot_bindings() -> dict[tuple[int, str], object]:
    """Every attribute of every dpfed module and class, by identity."""
    out = {}
    for mod in dpfed_modules():
        for attr, value in vars(mod).items():
            out[(id(mod), attr)] = value
            if (isinstance(value, type)
                    and value.__module__.startswith("dpfed")):
                for cattr, cvalue in vars(value).items():
                    out[(id(value), cattr)] = cvalue
    return out


def test_traced_run_restores_every_binding():
    before = snapshot_bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert runner.run is not before[(id(runner), "run")]
            raise RuntimeError("abort inside the traced block")
    after = snapshot_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [(0, 0, 0.0, 10.0, -1, 0), (1, 1, 1.0, 4.0, 0, 0),
                    (2, 1, 5.0, 6.0, 0, 0)]
    out = tracer.summary(runs=1)
    assert out[SPAN_NAMES[0]] == (1, pytest.approx(6e3), pytest.approx(1e7))
    assert out[SPAN_NAMES[1]] == (2, pytest.approx(4e3), pytest.approx(2e6))


def test_checker_flags_each_kind_of_wrong_output(tmp_path):
    workload = WORKLOADS["quadratic_drift"]
    config = workload.at(0, str(tmp_path), rounds=2)
    init = runner.run(replace(config, rounds=0)).final_loss
    summary = runner.run(config)
    csv = (tmp_path / "metrics.csv").read_bytes()
    js = (tmp_path / "summary.json").read_bytes()
    checker = RunChecker(config, workload.dim, init)
    assert checker.problems(config, summary, csv, js) == []

    lines = csv.decode().splitlines()
    cols = lines[1].split(",")
    bad_eps = lines[:1] + [",".join(cols[:7] + ["0.5"] + cols[8:])] + lines[2:]
    bad_up = lines[:1] + [",".join(cols[:5] + ["1"] + cols[6:])] + lines[2:]
    for bad in (bad_eps, bad_up):
        fresh = RunChecker(config, workload.dim, init)
        assert fresh.problems(config, summary,
                              ("\n".join(bad) + "\n").encode(), js)
    assert checker.problems(config, summary, csv + b"\n", js)
    assert RunChecker(config, workload.dim, summary.final_loss).problems(
        config, summary, csv, js)


def test_seeds_without_a_batch_for_every_client_are_skipped(tmp_path):
    workload = WORKLOADS["logistic_blobs"]
    with pytest.raises(ConfigurationError):
        runner.run(replace(workload.config, seed=104, rounds=0,
                           output_dir=str(tmp_path)))
    assert workload.at(104, str(tmp_path)).seed == 105
    assert workload.at(3, str(tmp_path)).seed == 3


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
