r"""dpfed benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 bench/run.py --workload logistic_blobs --seed 0 --seconds 55 \
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer breakdown. Readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full report (machine facts,
speed probe, fingerprints, failures) is also written to
``.bench_out/<workload>-seed<n>-trace<t>/report.json``, and a traced run
writes its spans to ``spans.csv`` beside it. See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Fixed here, at or below any nproc, so runs do not depend on how many
# cores the BLAS library would pick; must be set before NumPy loads.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "dpfed" / "__init__.py").is_file():
        print(f"error: no dpfed sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness  # after the BLAS settings, since it loads NumPy

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(harness.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    report = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    harness.print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
