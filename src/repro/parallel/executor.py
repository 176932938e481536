"""Color-barrier thread pool execution and the one parallel sweep.

The executor maps one task per vector group, synchronizing between
colors. Group tasks only read ``x`` entries produced by earlier colors
(the vectorized-BMC independence guarantee), so concurrent execution
within a color is race-free.

:func:`sweep_parallel` is the one group-parallel sweep: the lower and
upper solves here and both sweeps of
:func:`~repro.ilu.parallel_apply.ilu0_apply_dbsr_parallel` call it with
their own tile bounds. Workers only compute; once a sweep completes the
caller tallies its closed form from :mod:`repro.kernels.counts` on the
calling thread, and a sweep that raises tallies nothing.

Pools can be shared: pass an existing ``ThreadPoolExecutor`` (e.g. the
one owned by a :class:`~repro.runtime.session.SolverSession`) via the
``pool`` argument and the executor will reuse it without ever shutting
it down, so a long-lived runtime pays thread start-up once instead of
per sweep. Pool constructions are tallied in :data:`pool_stats` so
tests can assert how many pools a solve really created.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

import numpy as np

from repro.observe import trace
from repro.resilience import hooks

from repro.formats.dbsr import DBSRMatrix
from repro.kernels.counts import sptrsv_dbsr_counts
from repro.ordering.vbmc import ColorSchedule
from repro.simd.counters import OpCounter
from repro.utils.validation import check_positive, require


class _PoolStats:
    """Instrumentation: how many thread pools were ever constructed."""

    def __init__(self):
        self.created = 0


pool_stats = _PoolStats()


def _new_pool(n_workers: int) -> ThreadPoolExecutor:
    pool_stats.created += 1
    return ThreadPoolExecutor(max_workers=n_workers)


class ColorParallelExecutor:
    """Runs per-group tasks color by color on a thread pool.

    Parameters
    ----------
    schedule:
        The :class:`~repro.ordering.vbmc.ColorSchedule` to follow.
    n_workers:
        Thread count (ignored when ``pool`` is given).
    pool:
        Optional externally-owned ``ThreadPoolExecutor`` to reuse; the
        executor then neither creates nor shuts down any pool.
    """

    def __init__(self, schedule: ColorSchedule, n_workers: int = 2,
                 pool: ThreadPoolExecutor | None = None):
        self.schedule = schedule
        self.n_workers = check_positive(n_workers, "n_workers")
        self._owns_pool = pool is None
        self._pool = pool if pool is not None else _new_pool(self.n_workers)

    @staticmethod
    def _worker_task(task, group):
        """One pooled unit of work (the ``parallel.worker`` fault site)."""
        hooks.fire("parallel.worker", group=group)
        return task(group)

    def _run_color(self, task, groups) -> None:
        """Submit one color's groups; fail fast on the first exception.

        On a task failure every not-yet-started future is cancelled and
        the first (submission-order) exception is re-raised promptly,
        instead of letting the remaining queued work drain first.
        """
        futures = [self._pool.submit(self._worker_task, task, g)
                   for g in groups]
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        if not_done:  # a task failed while work was still queued/running
            for f in not_done:
                f.cancel()
            wait(not_done)  # let already-running tasks finish
        for f in futures:  # surface the first failure in group order
            if not f.cancelled():
                f.result()

    def _run(self, task, colors, direction: str) -> None:
        """Run ``task(group)`` for every group, color by color in the
        order of ``colors``, with a barrier after each color."""
        for color in colors:
            groups = self.schedule.groups_of_color(color)
            self._run_color(task, groups)
            trace.event("executor.barrier", color=color,
                        n_groups=len(groups), direction=direction)

    def run_forward(self, task) -> None:
        """Run ``task(group)`` for every group, colors in order."""
        self._run(task, range(self.schedule.n_colors), "forward")

    def run_backward(self, task) -> None:
        """Run ``task(group)`` for every group, colors reversed."""
        self._run(task, reversed(range(self.schedule.n_colors)),
                  "backward")

    def shutdown(self) -> None:
        """Shut down the pool — only if this executor created it."""
        if self._owns_pool:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "ColorParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def open_executor(schedule: ColorSchedule, n_workers: int,
                  session=None) -> ColorParallelExecutor:
    """An executor on ``session``'s shared pool, else on a pool of its
    own (shut down when the executor is left)."""
    if session is not None:
        return session.executor(schedule)
    return ColorParallelExecutor(schedule, n_workers)


def sweep_parallel(ex: ColorParallelExecutor, matrix: DBSRMatrix,
                   b: np.ndarray, lo: list, hi: list,
                   diag: np.ndarray | None, forward: bool) -> np.ndarray:
    """One group-parallel Algorithm-2 sweep over tiles ``lo[i]:hi[i]``
    of each block-row, following ``ex.schedule``; returns ``x``.

    Each group task runs the block kernel's
    :func:`~repro.serve.batch.sweep_block_rows` over the group's
    block-rows (reversed for a backward sweep) at ``k = 1``, on one
    shared padded buffer. The lower, upper and both ILU(0) sweeps all
    run this body.
    """
    from repro.serve.batch import sweep_block_rows

    n, bs = matrix.n_rows, matrix.bsize
    schedule = ex.schedule
    xp = np.zeros((n + 2 * bs, 1), dtype=np.result_type(matrix.values, b))
    B = np.asarray(b)[:, None]
    d = None if diag is None else np.asarray(diag)[:, None]
    vals = matrix.values[:, :, None]
    anchors = (matrix.anchors + bs).tolist()

    def task(group: int) -> None:
        rows = schedule.block_rows_of_group(group)
        sweep_block_rows(xp, vals, anchors, lo, hi, B, d,
                         rows if forward else reversed(rows))

    (ex.run_forward if forward else ex.run_backward)(task)
    return xp[bs:bs + n, 0].copy()


def tally(counts: OpCounter, session=None,
          counter: OpCounter | None = None) -> None:
    """Charge a completed sweep's closed-form ``counts`` to ``counter``
    if given, else to ``session``'s ledger (under its lock)."""
    if counter is not None:
        counter.merge(counts)
    elif session is not None:
        session.tally(counts)


def _sptrsv_parallel(matrix: DBSRMatrix, b: np.ndarray,
                     schedule: ColorSchedule,
                     diag: np.ndarray | None, n_workers: int,
                     forward: bool, session=None,
                     counter: OpCounter | None = None) -> np.ndarray:
    """A whole-row parallel sweep, tallied as
    :func:`~repro.kernels.counts.sptrsv_dbsr_counts` once it completes."""
    require(b.shape == (matrix.n_rows,), "b has wrong length")
    require(schedule.bsize == matrix.bsize, "schedule bsize mismatch")
    ptr = matrix.blk_ptr.tolist()
    with open_executor(schedule, n_workers, session) as ex:
        x = sweep_parallel(ex, matrix, b, ptr[:-1], ptr[1:], diag,
                           forward)
    tally(sptrsv_dbsr_counts(matrix, divide=diag is not None),
          session, counter)
    return x


def sptrsv_dbsr_lower_parallel(lower: DBSRMatrix, b: np.ndarray,
                               schedule: ColorSchedule,
                               diag: np.ndarray | None = None,
                               n_workers: int = 2, session=None,
                               counter: OpCounter | None = None
                               ) -> np.ndarray:
    """Thread-parallel Algorithm 2 (forward); bit-identical to the
    block kernel :func:`~repro.serve.batch.sptrsv_dbsr_lower_multi` at
    ``k = 1`` (what :func:`~repro.kernels.sptrsv_dbsr.sptrsv_dbsr_lower`
    runs).

    Pass ``session`` (a :class:`~repro.runtime.session.SolverSession`)
    to reuse its long-lived thread pool and tally the sweep's
    closed-form op counts into its ledger; pass ``counter`` to collect
    them standalone instead.
    """
    return _sptrsv_parallel(lower, b, schedule, diag, n_workers,
                            forward=True, session=session,
                            counter=counter)


def sptrsv_dbsr_upper_parallel(upper: DBSRMatrix, b: np.ndarray,
                               schedule: ColorSchedule,
                               diag: np.ndarray | None = None,
                               n_workers: int = 2, session=None,
                               counter: OpCounter | None = None
                               ) -> np.ndarray:
    """Thread-parallel backward Algorithm 2; bit-identical to
    :func:`~repro.serve.batch.sptrsv_dbsr_upper_multi` at ``k = 1``."""
    return _sptrsv_parallel(upper, b, schedule, diag, n_workers,
                            forward=False, session=session,
                            counter=counter)
