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
    # The round runs its 2 clients as rows of one state in one run_client
    # call: each layer is called once per local step for both clients,
    # not once per client.
    assert calls["federation.run_round"][0] == 1
    assert calls["federation.run_client"][0] == 1
    assert calls["models.per_sample_grads"][0] == 2
    assert calls["optimizer.local_step"][0] == 2
    # noisy_batch_mean clips its own batch: one clip_batch call inside
    # each of its calls, so its self time excludes the clip.
    assert calls["dp.noisy_batch_mean"][0] == 2
    assert calls["dp.clip_batch"][0] == 2
    names = {idx: tracing.SPAN_NAMES[n] for idx, n, *_ in tracer.spans}
    clip_parents = {names[span[4]] for span in tracer.spans
                    if names[span[0]] == "dp.clip_batch"}
    assert clip_parents == {"dp.noisy_batch_mean"}
    # One generator per client round: inside the run_round span,
    # run_client calls NoiseStream.rng once per selected client, for its
    # K batches and K noises, and sample_clients calls it once.
    parent_of = {span[0]: span[4] for span in tracer.spans}
    [round_idx] = [idx for idx, name in names.items()
                   if name == "federation.run_round"]
    rng_parents = []
    for idx, name in names.items():
        if name == "dp.NoiseStream.rng":
            up = parent_of[idx]
            while up not in (-1, round_idx):
                up = parent_of[up]
            if up == round_idx:
                rng_parents.append(names[parent_of[idx]])
    assert sorted(rng_parents) == ["federation.run_client"] * 2 + [
        "federation.sample_clients"]
