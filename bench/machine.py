"""Machine facts and a fixed speed probe, recorded with every result.

Neither is used to rescale a metric: they let a reader tell a slow
machine from a slow change.
"""
from __future__ import annotations

import ctypes
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy


def _openblas() -> tuple[str, int | None]:
    """(config string, runtime thread count) of the loaded OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return "unknown", None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                      None)
                if get_config is None or get_threads is None:
                    continue
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return get_config().decode(), int(get_threads())
    return "unknown", None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def facts() -> dict:
    blas_config, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def speed_probe_ms(repeats: int = 7) -> float:
    """Median time of a constant NumPy loop (sort, matmul, elementwise)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128))
    b = rng.standard_normal(4096)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(40):
            acc += float((a @ a)[0, 0]) + float(np.sort(b)[0])
            acc += float(np.tanh(b).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3
