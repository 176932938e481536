"""Functional thread-parallel execution of color-scheduled kernels.

Demonstrates that the vectorized-BMC schedule really is parallel: all
vector groups of one color are processed concurrently by a thread pool
with a barrier between colors (Algorithm 2's ``#pragma omp parallel
for`` over line 3), and the result is bit-identical to the sequential
block kernel of :mod:`repro.serve.batch` at ``k = 1``. Python threads add overhead rather than speedup on small
problems (the GIL), so the *performance* figures come from
:mod:`repro.perfmodel`; this module establishes correctness of the
parallel schedule itself.
"""

from repro.parallel.executor import (
    ColorParallelExecutor,
    pool_stats,
    sptrsv_dbsr_lower_parallel,
    sptrsv_dbsr_upper_parallel,
)

__all__ = [
    "ColorParallelExecutor",
    "pool_stats",
    "sptrsv_dbsr_lower_parallel",
    "sptrsv_dbsr_upper_parallel",
]
