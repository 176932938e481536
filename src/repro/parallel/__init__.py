"""Functional thread-parallel execution of color-scheduled kernels.

Demonstrates that the vectorized-BMC schedule really is parallel: all
vector groups of one color are processed concurrently by a thread pool
with a barrier between colors (Algorithm 2's ``#pragma omp parallel
for`` over line 3), and the result is bit-identical to the sequential
block kernel of :mod:`repro.serve.batch` at ``k = 1``. The lower and
upper solves and both sweeps of the parallel ILU(0) apply run one
shared group-task body, and their op counts are the closed forms of
:mod:`repro.kernels.counts`, tallied once per completed sweep. Threads
work on colors, not on the block-row levels of
:mod:`repro.formats.dbsr_levels`: a 27pt bsize 8 operator has 96–112
levels against 8 colors, so a barrier per level would multiply the
barriers by 12–14. Python threads add overhead rather than
speedup on small problems (the GIL), so the *performance* figures come
from :mod:`repro.perfmodel`; this module establishes correctness of
the parallel schedule itself.
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
