"""Measurement loop of the dpfed benchmark.

One invocation measures one workload at one seed for a fixed number of
seconds, in one process, one ``run()`` after another (a closed loop with
a single caller). With tracing off it reports the end-to-end metrics;
with tracing on it alternates untraced and traced runs and reports the
per-layer breakdown plus the tracing overhead. Every run is checked (see
``workloads.RunChecker``) and a run that raises or fails a check counts
as failed.
"""
from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from dpfed import runner

import machine
from tracing import SPAN_NAMES, Tracer
from workloads import WORKLOADS, RunChecker, sha256

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "round_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

COUNT_UNITS = {
    "dp.clip_batch.rows": "count",
    "dp.clip_batch.clipped_frac": "ratio",
    "federation.uplink_floats": "floats/round",
    "federation.downlink_floats": "floats/round",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.us_per_call"] = "us"
    units.update(COUNT_UNITS)
    return units


class RoundClock:
    """Entry times of ``run_round`` as the runner calls it."""

    def __init__(self):
        self.entries: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        original = runner.run_round

        def clocked(*args, **kwargs):
            self.entries.append(time.perf_counter())
            return original(*args, **kwargs)

        runner.run_round = clocked
        try:
            yield self
        finally:
            runner.run_round = original


class CheckedRuns:
    """Checked runs of one workload's inputs for one benchmark seed."""

    def __init__(self, workload: str, seed: int, trace: bool,
                 rounds: int | None = None, out_root: Path = OUT_ROOT):
        self.workload = WORKLOADS[workload]
        self.out_dir = out_root / f"{workload}-seed{seed}-trace{int(trace)}"
        self.inputs = self.workload.inputs(seed, str(self.out_dir), rounds)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.fingerprints: dict[int, set[str]] = {}
        self.final_loss: dict[int, float] = {}
        self.checkers: dict[int, RunChecker] = {}
        for config in self.inputs:
            base = self.run(replace(config, rounds=0))
            self.checkers[config.seed] = RunChecker(
                config, self.workload.dim,
                base[0].final_loss if base else float("inf"))

    def run(self, config):
        """One run(); (summary, t_start, t_end) or None if it raised.

        A run that completes but fails a check is still returned, so its
        time is measured; it counts as failed all the same.
        """
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            summary = runner.run(config)
            t1 = time.perf_counter()
        except Exception:  # any exception is one failed run, reported
            self.failed += 1
            self.messages.append(traceback.format_exc(limit=3))
            return None
        if config.rounds:
            out = Path(config.output_dir)
            csv_bytes = (out / "metrics.csv").read_bytes()
            json_bytes = (out / "summary.json").read_bytes()
            self.fingerprints.setdefault(config.seed, set()).add(
                sha256(csv_bytes))
            self.final_loss[config.seed] = summary.final_loss
            problems = self.checkers[config.seed].problems(
                config, summary, csv_bytes, json_bytes)
            if problems:
                self.failed += 1
                self.messages.extend(problems)
        return summary, t0, t1


def _quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            rounds: int | None = None, out_root: Path = OUT_ROOT) -> dict:
    """Measure one workload; returns the full report as a dict.

    The inputs are run in turn until ``seconds`` have passed and each has
    run at least once, so every input sees the whole window.
    """
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine.facts(),
              "probe_ms_before": machine.speed_probe_ms()}
    checked = CheckedRuns(workload, seed, trace, rounds, out_root)
    inputs = checked.inputs
    report["run_seeds"] = [c.seed for c in inputs]
    clock = RoundClock()
    tracer = Tracer()
    # (input index, run s, setup s, client-steps per s of the round loop)
    runs: list[tuple[int, float, float, float]] = []
    intervals: list[float] = []
    traced_s: list[tuple[int, float]] = []  # (input index, run s)
    last = None

    def untraced(i, config):
        clock.entries = []
        with clock.installed():
            out = checked.run(config)
        if out is not None:
            _, t0, t1 = out
            first = clock.entries[0]
            steps = (config.rounds * config.selected_clients
                     * config.local_steps)
            runs.append((i, t1 - t0, first - t0, steps / (t1 - first)))
            intervals.extend(np.diff(clock.entries).tolist())
        return out

    def traced(i, config):
        tracer.run_id += 1
        with tracer.installed():
            out = checked.run(config)
        if out is not None:
            traced_s.append((i, out[2] - out[1]))
        return out

    deadline = time.perf_counter() + seconds
    step = (untraced, traced) if trace else (untraced,)
    n = 0
    while n < len(inputs) or time.perf_counter() < deadline:
        i = n % len(inputs)
        for fn in step:
            last = fn(i, inputs[i]) or last
        n += 1
        if not runs and checked.failed and n >= len(inputs):
            break  # every run raises

    # This process ran only this workload, so its peak RSS is the
    # workload's (ru_maxrss is in KiB on Linux).
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["probe_ms_after"] = machine.speed_probe_ms()
    completed = {r[0] for r in runs}
    if trace:
        completed &= {t[0] for t in traced_s}
    if len(completed) < len(inputs) or last is None:
        raise RuntimeError("some input never ran to completion:\n"
                           + "\n".join(checked.messages))

    summary = last[0]
    metrics: dict[str, float] = {}
    if trace:
        n_traced = tracer.run_id + 1
        for name, (calls, self_ms, us) in tracer.summary(n_traced).items():
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_ms"] = self_ms
            metrics[f"{name}.us_per_call"] = us
        rows = tracer.clip_rows
        metrics["dp.clip_batch.rows"] = rows // n_traced
        metrics["dp.clip_batch.clipped_frac"] = (
            tracer.clip_rescaled / rows if rows else 0.0)
        metrics["federation.uplink_floats"] = summary.metrics[0].uplink_floats
        metrics["federation.downlink_floats"] = (
            summary.metrics[0].downlink_floats)
        metrics["trace.overhead_frac"] = (
            _quantile([t[1] for t in traced_s], 90)
            / _quantile([r[1] for r in runs], 90) - 1.0)
        tracer.write_spans(checked.out_dir / "spans.csv")
        units = per_layer_units()
        report["samples"] = {"untraced_runs": len(runs),
                             "traced_runs": n_traced}
    else:
        # The 90th percentile, not the median: this machine's speed
        # switches between a fast and a ~1.6x slower state for seconds at
        # a time, so a median flips with the share of slow time in the
        # window, while the slow state is present in every window (see
        # README.md).
        metrics["run_s"] = _quantile([r[1] for r in runs], 90)
        metrics["setup_s"] = _quantile([r[2] for r in runs], 90)
        metrics["steps_per_s"] = _quantile([r[3] for r in runs], 10)
        metrics["round_ms_p90"] = _quantile(intervals, 90) * 1e3
        metrics["peak_rss_mb"] = peak_rss
        units = END_TO_END_UNITS
        report["samples"] = {"runs": len(runs),
                             "round_intervals": len(intervals)}
        report["run_s_quantiles"] = {
            f"p{q}": _quantile([r[1] for r in runs], q)
            for q in (25, 50, 75, 90)}
    report["run_samples"] = runs
    report["round_intervals_s"] = intervals
    report["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in metrics.items()}
    report["info"] = {
        "final_loss": checked.final_loss,
        "init_loss": {s: c.init_loss for s, c in checked.checkers.items()},
        "error_rate": checked.failed / checked.attempted,
        "rounds": inputs[0].rounds,
        "metrics_csv_sha256": {s: sorted(f)
                               for s, f in checked.fingerprints.items()},
    }
    # Repeats of an input, traced or not, must write the same bytes; the
    # checker counts any difference as a failed run.
    report["correct"] = checked.failed == 0
    report["attempted"] = checked.attempted
    report["failed"] = checked.failed
    report["messages"] = checked.messages
    with open(checked.out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict, out=sys.stdout) -> None:
    """Readable lines, then the one-line JSON result as the last line."""
    info = report["info"]
    w = out.write
    w(f"dpfed benchmark  workload={report['workload']} "
      f"seed={report['seed']} (run seeds {report['run_seeds']}) "
      f"trace={report['trace']} seconds={report['seconds']} "
      f"samples={report['samples']}\n")
    for name, m in report["metrics"].items():
        w(f"  {name:<44} {m['value']:>16.6g} {m['unit']}\n")
    for seed, loss in info["final_loss"].items():
        w(f"  {'final_loss':<44} {loss:>16.10g} loss (run seed {seed}; "
          f"rounds=0: {info['init_loss'][seed]:.6g})\n")
    w(f"  {'error_rate':<44} {info['error_rate']:>16.6g} ratio "
      f"({report['failed']} failed of {report['attempted']} runs)\n")
    if "run_s_quantiles" in report:
        w("  run() wall time over all runs: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in report["run_s_quantiles"].items())
          + "\n")
    for seed, digests in info["metrics_csv_sha256"].items():
        w(f"  metrics.csv sha256 (run seed {seed}): {', '.join(digests)}\n")
    w(f"  speed probe: {report['probe_ms_before']:.2f} ms before, "
      f"{report['probe_ms_after']:.2f} ms after\n")
    w(f"  machine: {json.dumps(report['machine'], sort_keys=True)}\n")
    for msg in report["messages"]:
        w(f"  FAILED: {msg.strip()}\n")
    w(json.dumps({"correct": report["correct"],
                  "attempted": report["attempted"],
                  "failed": report["failed"],
                  "metrics": report["metrics"]}) + "\n")
