"""The benchmark's tracer (bench/tracing.py) still finds what it wraps.

``bench`` lies outside this suite's testpaths, so without this test a
deleted or renamed traced function would only fail ``pytest bench``.
"""
import importlib.util
from pathlib import Path

from dpfed import federation
from dpfed.runner import RunConfig, run

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_function(tmp_path):
    tracing = load_tracing()
    original = federation.run_client
    tracer = tracing.Tracer()
    with tracer.installed():
        assert federation.run_client is not original
        tracer.run_id = 0
        run(RunConfig(model="quadratic", dataset="quadratics", dim=3,
                      num_clients=2, rounds=1, local_steps=2,
                      sample_rate=0.5, samples_per_client=10,
                      output_dir=str(tmp_path)))
    assert federation.run_client is original
    assert {name for name, *_ in tracing._targets()} == set(tracing.SPAN_NAMES)
    calls = tracer.summary(1)
    assert calls["federation.run_client"][0] == 2
    assert calls["optimizer.local_step"][0] == 4
    # noisy_batch_mean clips its own batch: one clip_batch call inside
    # each of its calls, so its self time excludes the clip.
    assert calls["dp.noisy_batch_mean"][0] == 4
    assert calls["dp.clip_batch"][0] == 4
    names = {idx: tracing.SPAN_NAMES[n] for idx, n, *_ in tracer.spans}
    clip_parents = {names[span[4]] for span in tracer.spans
                    if names[span[0]] == "dp.clip_batch"}
    assert clip_parents == {"dp.noisy_batch_mean"}
    # One generator per client round: each run_client span encloses
    # exactly one NoiseStream.rng call, for its K batches and K noises.
    parent_of = {span[0]: span[4] for span in tracer.spans}
    rng_calls = {idx: 0 for idx, n, *_ in tracer.spans
                 if tracing.SPAN_NAMES[n] == "federation.run_client"}
    for idx, n, *_ in tracer.spans:
        if tracing.SPAN_NAMES[n] == "dp.NoiseStream.rng":
            up = parent_of[idx]
            while up != -1 and up not in rng_calls:
                up = parent_of[up]
            if up != -1:
                rng_calls[up] += 1
    assert list(rng_calls.values()) == [1, 1]
