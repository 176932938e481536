"""Thread-parallel application of the DBSR block ILU(0) factors.

Connects the color-barrier executor of :mod:`repro.parallel` to the
factored DBSR skeleton: the forward unit-lower solve runs groups of a
color concurrently (colors ascending), the backward upper solve runs
colors descending — bit-identical to the sequential
:func:`repro.ilu.ilu0_dbsr.ilu0_apply_dbsr` (tested), demonstrating
that the paper's smoothing phase parallelizes exactly as claimed.

Pass a :class:`~repro.runtime.session.SolverSession` to reuse its
long-lived thread pool (one pool for a whole PCG solve instead of one
per preconditioner application) and to tally the sweeps' op counts:
each group task counts into a private counter, merged deterministically
in group order after each color barrier.
"""

from __future__ import annotations

import numpy as np

from repro.ilu.ilu0_dbsr import DBSRILUFactors
from repro.ordering.vbmc import ColorSchedule
from repro.parallel.executor import ColorParallelExecutor
from repro.simd.counters import OpCounter
from repro.utils.validation import require


def ilu0_apply_dbsr_parallel(factors: DBSRILUFactors, r: np.ndarray,
                             schedule: ColorSchedule,
                             n_workers: int = 2, session=None,
                             counter: OpCounter | None = None
                             ) -> np.ndarray:
    """Solve ``L U z = r`` with group-parallel sweeps.

    Each group task runs the block kernel's
    :func:`~repro.serve.batch.sweep_block_rows` over the group's
    block-rows at ``k = 1``, on shared padded buffers.
    """
    from repro.serve.batch import sweep_block_rows

    m = factors.matrix
    bs = m.bsize
    n = m.n_rows
    require(r.shape == (n,), "r has wrong length")
    require(schedule.bsize == bs, "schedule bsize mismatch")
    blk_ptr = m.blk_ptr
    item = m.values.itemsize
    idx_item = m.blk_ind.itemsize + m.blk_offset.itemsize
    vals = m.values[:, :, None]
    anchors = (m.anchors + bs).tolist()
    ptr = blk_ptr.tolist()
    dia = factors.dia_ptr.tolist()
    lo_fwd, hi_fwd = ptr[:-1], dia
    lo_bwd, hi_bwd = [p + 1 for p in dia], ptr[1:]
    diag = factors.diag_vector()[:, None]

    sink = counter if counter is not None else (
        session.counter if session is not None else None)
    group_counters: dict[int, OpCounter] = {}

    def _tally(group: int, rows: range, n_tiles: int,
               backward: bool) -> None:
        """Closed-form tallies of one group's sweep over ``n_tiles``
        off-diagonal tiles; the backward sweep also loads and divides
        by each row's diagonal tile."""
        if sink is None:
            return
        nr = len(rows)
        t = n_tiles + (nr if backward else 0)  # value tiles loaded
        gc = group_counters[group] = OpCounter(bsize=bs)
        gc.vload += 2 * n_tiles + nr + (nr if backward else 0)
        gc.vfma += n_tiles
        gc.vdiv += nr if backward else 0
        gc.vstore += nr
        gc.sload += 2 * t
        gc.bytes_values += t * bs * item
        gc.bytes_index += t * idx_item + nr * blk_ptr.itemsize
        gc.bytes_vector += (n_tiles + 2 * nr) * bs * item

    def on_color(color, groups):
        for g in groups:
            gc = group_counters.pop(g, None)
            if gc is not None:
                sink.merge(gc)

    dtype = np.result_type(m.values, r)
    yp = np.zeros((n + 2 * bs, 1), dtype=dtype)
    zp = np.zeros_like(yp)
    R, Y = np.asarray(r)[:, None], yp[bs:bs + n]

    def forward_task(group: int) -> None:
        rows = schedule.block_rows_of_group(group)
        sweep_block_rows(yp, vals, anchors, lo_fwd, hi_fwd, R, None,
                         rows)
        _tally(group, rows, sum(hi_fwd[rows.start:rows.stop])
               - sum(lo_fwd[rows.start:rows.stop]), backward=False)

    def backward_task(group: int) -> None:
        rows = schedule.block_rows_of_group(group)
        sweep_block_rows(zp, vals, anchors, lo_bwd, hi_bwd, Y, diag,
                         reversed(rows))
        _tally(group, rows, sum(hi_bwd[rows.start:rows.stop])
               - sum(lo_bwd[rows.start:rows.stop]), backward=True)

    on_color_cb = on_color if sink is not None else None
    if session is not None:
        ex = session.executor(schedule)
        ex.run_forward(forward_task, on_color=on_color_cb)
        ex.run_backward(backward_task, on_color=on_color_cb)
    else:
        with ColorParallelExecutor(schedule, n_workers) as ex:
            ex.run_forward(forward_task, on_color=on_color_cb)
            ex.run_backward(backward_task, on_color=on_color_cb)
    return zp[bs:bs + n, 0].copy()
