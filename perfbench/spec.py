"""What the benchmark's entry point must know before numpy is imported.

The BLAS thread limit is an environment variable that OpenBLAS reads once
at load, so it is set from this module before any numerical module loads.
"""

from __future__ import annotations

#: Executor workers per workload.  Both run on one: on a shared 2-core
#: host two pooled workers ran the learned manifest ~5% slower than one
#: (the powerset kernels hold the GIL), and one busy thread leaves the
#: second core to the rest of the host instead of competing with it.
WORKERS = {
    "learned-manifest": 1,
    "retrain-reverify": 1,
}

#: The BLAS thread limit (BLAS threads x workers <= cores on any host).
#: The fig06 layers are at most 200 wide: a second BLAS thread left the
#: learned manifest's round time unchanged while doubling its CPU time.
BLAS_THREADS = 1

#: Environment variables that size the BLAS/OpenMP thread pools.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
