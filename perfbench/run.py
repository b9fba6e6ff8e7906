"""The repository's benchmark: one workload, one seed, one result line.

Run from the checkout root::

    python3 perfbench/run.py --workload learned-manifest --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is the full row (host stamp, percentile used, sample counts, checks).
Exit code 0 means every verdict passed the known-answer check; 1 means a
check failed or the program raised; 2 means the checkout has no sources.
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spec  # noqa: E402
from perfbench.paths import add_source_paths  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not add_source_paths():
        print("perfbench: no src/repro in this checkout", file=sys.stderr)
        return 2
    # OpenBLAS sizes its pool once, at load: set the limit before numpy.
    for var in spec.BLAS_THREAD_VARS:
        os.environ[var] = str(spec.BLAS_THREADS)
    from perfbench import measure

    return measure.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spec.BLAS_THREADS,
    )


if __name__ == "__main__":
    sys.exit(main())
