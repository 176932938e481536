"""Color-barrier thread pool execution.

The executor maps one task per vector group, synchronizing between
colors. Group tasks only read ``x`` entries produced by earlier colors
(the vectorized-BMC independence guarantee), so concurrent execution
within a color is race-free.

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

    def run_forward(self, task, on_color=None) -> None:
        """Run ``task(group)`` for every group, colors in order.

        ``on_color(color, groups)``, if given, runs on the calling
        thread after each color's barrier — the deterministic merge
        point for per-group/worker op counters.
        """
        for color in range(self.schedule.n_colors):
            groups = self.schedule.groups_of_color(color)
            self._run_color(task, groups)
            trace.event("executor.barrier", color=color,
                        n_groups=len(groups), direction="forward")
            if on_color is not None:
                on_color(color, groups)

    def run_backward(self, task, on_color=None) -> None:
        """Run ``task(group)`` for every group, colors reversed."""
        for color in range(self.schedule.n_colors - 1, -1, -1):
            groups = self.schedule.groups_of_color(color)
            self._run_color(task, groups)
            trace.event("executor.barrier", color=color,
                        n_groups=len(groups), direction="backward")
            if on_color is not None:
                on_color(color, groups)

    def shutdown(self) -> None:
        """Shut down the pool — only if this executor created it."""
        if self._owns_pool:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "ColorParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _tally_group(matrix: DBSRMatrix, rows: range, divide: bool,
                 counter: OpCounter) -> None:
    """Closed-form Algorithm 2 tallies for one group's block-rows.

    Matches :func:`repro.kernels.counts.sptrsv_dbsr_counts` exactly
    when summed over all groups (plus the kernel-level ``blk_ptr``
    sentinel load charged once per sweep by the caller).
    """
    nr = len(rows)
    k = int(matrix.blk_ptr[rows.stop] - matrix.blk_ptr[rows.start])
    bs = matrix.bsize
    item = matrix.values.itemsize
    counter.vload += 2 * k + nr + (nr if divide else 0)
    counter.vfma += k
    counter.vstore += nr
    counter.vdiv += nr if divide else 0
    counter.sload += 2 * k
    counter.bytes_values += k * bs * item
    counter.bytes_index += (
        k * (matrix.blk_ind.itemsize + matrix.blk_offset.itemsize)
        + nr * matrix.blk_ptr.itemsize)
    counter.bytes_vector += (k + 2 * nr
                             + (nr if divide else 0)) * bs * item


def _sptrsv_parallel(matrix: DBSRMatrix, b: np.ndarray,
                     schedule: ColorSchedule,
                     diag: np.ndarray | None, n_workers: int,
                     forward: bool, session=None,
                     counter: OpCounter | None = None) -> np.ndarray:
    """Shared driver of the forward/backward parallel sweeps.

    Each group task runs the block kernel's
    :func:`~repro.serve.batch.sweep_block_rows` over the group's
    block-rows at ``k = 1``, on one shared padded buffer.
    """
    from repro.serve.batch import sweep_block_rows

    n = matrix.n_rows
    bs = matrix.bsize
    require(b.shape == (n,), "b has wrong length")
    require(schedule.bsize == bs, "schedule bsize mismatch")
    xp = np.zeros((n + 2 * bs, 1), dtype=np.result_type(matrix.values, b))
    B = np.asarray(b)[:, None]
    d = None if diag is None else np.asarray(diag)[:, None]
    vals = matrix.values[:, :, None]
    anchors = (matrix.anchors + bs).tolist()
    ptr = matrix.blk_ptr.tolist()
    lo, hi = ptr[:-1], ptr[1:]

    sink = counter if counter is not None else (
        session.counter if session is not None else None)
    group_counters: dict[int, OpCounter] = {}

    def task(group: int) -> None:
        rows = schedule.block_rows_of_group(group)
        sweep_block_rows(xp, vals, anchors, lo, hi, B, d,
                         rows if forward else reversed(rows))
        if sink is not None:
            gc = group_counters[group] = OpCounter(bsize=bs)
            _tally_group(matrix, rows, divide=d is not None, counter=gc)

    on_color = None
    if sink is not None:
        # One sweep-level sentinel blk_ptr load (the +1 of brow+1).
        sink.bytes_index += matrix.blk_ptr.itemsize

        def on_color(color, groups):
            # Deterministic merge point: group order, on the caller's
            # thread, after the color barrier.
            for g in groups:
                gc = group_counters.pop(g, None)
                if gc is not None:
                    sink.merge(gc)

    if session is not None:
        ex = session.executor(schedule)
        run = ex.run_forward if forward else ex.run_backward
        run(task, on_color=on_color)
    else:
        with ColorParallelExecutor(schedule, n_workers) as ex:
            run = ex.run_forward if forward else ex.run_backward
            run(task, on_color=on_color)
    return xp[bs:bs + n, 0].copy()


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
    to reuse its long-lived thread pool and accumulate op counts into
    its counter; pass ``counter`` to collect counts standalone.
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
