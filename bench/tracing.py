"""Per-layer spans recorded from outside dpfed.

The tracer replaces the public functions of each layer with timing
wrappers for the duration of a ``with tracer.installed():`` block and puts
the original objects back afterwards. A name bound with
``from .x import f`` is looked up in the importing module, so every
module attribute of the ``dpfed`` package that is the original function
is replaced, not only the defining one. Model methods are wrapped on each
model class that defines them.

Spans are kept in memory as (index, name, start, end, parent, run id)
and only summarised or written out after the measured runs.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

import dpfed  # noqa: F401  (imports every layer module)
from dpfed import models

# Layer -> public functions measured on it. ``Class.method`` entries are
# wrapped on the class; model methods are listed without a class, since
# each model kind defines its own.
LAYER_FUNCTIONS = {
    "models": ("per_sample_grads", "batch_loss", "predict"),
    "dp": ("clip_batch", "noisy_batch_mean", "NoiseStream.rng"),
    "optimizer": ("init_round", "moment_update", "corrected_preconditioner",
                  "local_step"),
    "blocks": ("block_mean", "broadcast_blocks"),
    "federation": ("run_round", "run_client", "sample_clients", "aggregate"),
    "accounting": ("compose_and_convert", "subsampled_gaussian_rdp",
                   "third_party_epsilon"),
    "diagnostics": ("cross_client_var_v", "client_drift"),
    "data": ("make_blobs", "dirichlet_partition", "make_client_quadratics",
             "quadratic_client_data"),
    "runner": ("run",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items()
                   for fn in fns)


def dpfed_modules():
    """The dpfed package and its loaded submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and name.split(".")[0] == "dpfed"]


def _targets():
    """(span name, owner, attribute, original) for every wrapped binding."""
    out = []
    modules = dpfed_modules()
    for layer, fns in LAYER_FUNCTIONS.items():
        layer_mod = sys.modules[f"dpfed.{layer}"]
        for fn in fns:
            name = f"{layer}.{fn}"
            if layer == "models":
                for cls in vars(models).values():
                    if (isinstance(cls, type) and issubclass(cls, models.Model)
                            and fn in vars(cls)):
                        out.append((name, cls, fn, vars(cls)[fn]))
            elif "." in fn:
                cls_name, attr = fn.split(".")
                cls = getattr(layer_mod, cls_name)
                out.append((name, cls, attr, vars(cls)[attr]))
            else:
                original = getattr(layer_mod, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            out.append((name, mod, attr, original))
    return out


class Tracer:
    """Records a span for every call into a layer's public functions."""

    def __init__(self):
        self.run_id = -1  # the caller advances it before each traced run
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self.clip_rows = 0
        self.clip_rescaled = 0
        self._count = 0
        self._stack: list[int] = []
        self._name_ids = {n: i for i, n in enumerate(SPAN_NAMES)}

    def _wrap(self, name: str, fn, after=None):
        name_id = self._name_ids[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = tracer._count
            tracer._count = idx + 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((idx, name_id, t0, t1, parent,
                                     tracer.run_id))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_clipped(self, args, result):
        # Outside the span: a row is rescaled iff clip_batch changed it.
        grads = np.asarray(args[0], dtype=np.float64)
        self.clip_rows += grads.shape[0]
        self.clip_rescaled += int(np.count_nonzero(
            np.any(result != grads, axis=1)))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs; always restore them."""
        replaced = []
        wrappers: dict[int, object] = {}
        try:
            for name, owner, attr, original in _targets():
                if id(original) not in wrappers:
                    after = (self._count_clipped if name == "dp.clip_batch"
                             else None)
                    wrappers[id(original)] = self._wrap(name, original, after)
                setattr(owner, attr, wrappers[id(original)])
                replaced.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)

    def summary(self, runs: int) -> dict[str, tuple[int, float, float]]:
        """name -> (calls per run, median self ms per run, median us per call).

        Self time is a span's duration minus the durations of its direct
        children; us per call is the median inclusive duration.
        """
        if not self.spans:
            return {n: (0, 0.0, 0.0) for n in SPAN_NAMES}
        arr = np.array(sorted(self.spans), dtype=np.float64)
        idx = arr[:, 0].astype(np.int64)
        if not np.array_equal(idx, np.arange(len(idx))):
            raise RuntimeError("span indices are not contiguous")
        name_id = arr[:, 1].astype(np.int64)
        dur = arr[:, 3] - arr[:, 2]
        parent = arr[:, 4].astype(np.int64)
        run_id = arr[:, 5].astype(np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            mask = name_id == i
            calls = int(np.count_nonzero(mask))
            if calls == 0:
                out[name] = (0, 0.0, 0.0)
                continue
            per_run = np.zeros(runs)
            np.add.at(per_run, run_id[mask], self_s[mask])
            out[name] = (calls // runs, float(np.median(per_run)) * 1e3,
                         float(np.median(dur[mask])) * 1e6)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,run\n")
            for idx, name_id, t0, t1, parent, run_id in sorted(self.spans):
                fh.write(f"{idx},{SPAN_NAMES[name_id]},{t0!r},{t1!r},"
                         f"{parent},{run_id}\n")

