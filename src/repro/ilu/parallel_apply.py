"""Thread-parallel application of the DBSR block ILU(0) factors.

Connects the color-barrier executor of :mod:`repro.parallel` to the
factored DBSR skeleton: two calls of the shared group-parallel sweep,
a forward unit-lower solve over the tiles ``[blk_ptr, dia_ptr)`` of
each block-row (colors ascending) and a backward solve over the tiles
``(dia_ptr, blk_ptr + 1)`` divided by the diagonal (colors descending)
— bit-identical to the sequential
:func:`repro.ilu.ilu0_dbsr.ilu0_apply_dbsr` (tested), demonstrating
that the paper's smoothing phase parallelizes exactly as claimed.

Pass a :class:`~repro.runtime.session.SolverSession` to reuse its
long-lived thread pool (one pool for a whole PCG solve instead of one
per preconditioner application) and to tally the application's op
counts: :func:`~repro.kernels.counts.ilu_apply_dbsr_counts`, charged
once after both sweeps complete.
"""

from __future__ import annotations

import numpy as np

from repro.ilu.ilu0_dbsr import DBSRILUFactors
from repro.kernels.counts import ilu_apply_dbsr_counts
from repro.ordering.vbmc import ColorSchedule
from repro.parallel.executor import open_executor, sweep_parallel, tally
from repro.simd.counters import OpCounter
from repro.utils.validation import require


def ilu0_apply_dbsr_parallel(factors: DBSRILUFactors, r: np.ndarray,
                             schedule: ColorSchedule,
                             n_workers: int = 2, session=None,
                             counter: OpCounter | None = None
                             ) -> np.ndarray:
    """Solve ``L U z = r`` with group-parallel sweeps.

    Both sweeps run on one executor, so a call without ``session``
    builds one pool, not two.
    """
    m = factors.matrix
    require(r.shape == (m.n_rows,), "r has wrong length")
    require(schedule.bsize == m.bsize, "schedule bsize mismatch")
    ptr = m.blk_ptr.tolist()
    dia = factors.dia_ptr.tolist()
    with open_executor(schedule, n_workers, session) as ex:
        y = sweep_parallel(ex, m, r, ptr[:-1], dia, None, forward=True)
        z = sweep_parallel(ex, m, y, [p + 1 for p in dia], ptr[1:],
                           factors.diag_vector(), forward=False)
    tally(ilu_apply_dbsr_counts(factors), session, counter)
    return z
