"""Tests for thread-parallel color-scheduled execution."""

import numpy as np
import pytest

from repro.formats.dbsr import DBSRMatrix
from repro.kernels.sptrsv_csr import split_triangular, sptrsv_csr, \
    sptrsv_csr_upper
from repro.parallel.executor import (
    ColorParallelExecutor,
    sptrsv_dbsr_lower_parallel,
    sptrsv_dbsr_upper_parallel,
)


@pytest.fixture(scope="module")
def setup(request):
    from repro.grids.problems import poisson_problem
    from repro.ordering.vbmc import build_vbmc

    p = poisson_problem((8, 8, 8), "27pt")
    vb = build_vbmc(p.grid, p.stencil, (2, 2, 2), 4)
    csr = vb.apply_matrix(p.matrix)
    L, D, U = split_triangular(csr)
    return (vb, L, D, U, DBSRMatrix.from_csr(L, 4),
            DBSRMatrix.from_csr(U, 4))


def test_parallel_lower_bit_identical(setup, rng):
    vb, L, D, U, Ld, Ud = setup
    b = rng.standard_normal(L.n_rows)
    ref = sptrsv_csr(L, D, b)
    for workers in (1, 2, 4):
        got = sptrsv_dbsr_lower_parallel(Ld, b, vb.schedule, diag=D,
                                         n_workers=workers)
        assert np.allclose(got, ref), workers


def test_parallel_upper_bit_identical(setup, rng):
    vb, L, D, U, Ld, Ud = setup
    b = rng.standard_normal(U.n_rows)
    ref = sptrsv_csr_upper(U, D, b)
    got = sptrsv_dbsr_upper_parallel(Ud, b, vb.schedule, diag=D,
                                     n_workers=4)
    assert np.allclose(got, ref)


def test_repeated_runs_deterministic(setup, rng):
    vb, L, D, U, Ld, Ud = setup
    b = rng.standard_normal(L.n_rows)
    runs = [sptrsv_dbsr_lower_parallel(Ld, b, vb.schedule, diag=D,
                                       n_workers=4)
            for _ in range(3)]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[1], runs[2])


def test_executor_color_barrier_ordering(setup):
    """Tasks of color c+1 never start before all of color c finish."""
    vb = setup[0]
    events = []
    import threading

    lock = threading.Lock()

    def task(group):
        sched = vb.schedule
        color = int(np.searchsorted(sched.color_group_ptr, group,
                                    side="right")) - 1
        with lock:
            events.append(color)

    with ColorParallelExecutor(vb.schedule, n_workers=4) as ex:
        ex.run_forward(task)
    assert events == sorted(events)
    with ColorParallelExecutor(vb.schedule, n_workers=4) as ex:
        events.clear()
        ex.run_backward(task)
    assert events == sorted(events, reverse=True)


def test_executor_propagates_exceptions(setup):
    vb = setup[0]

    def bad(group):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        with ColorParallelExecutor(vb.schedule, n_workers=2) as ex:
            ex.run_forward(bad)


def test_schedule_mismatch_rejected(setup, rng):
    vb, L, D, U, Ld, Ud = setup
    from repro.ordering.vbmc import ColorSchedule

    bad = ColorSchedule(bsize=8, points_per_block=2,
                        color_group_ptr=np.array([0, 1]))
    with pytest.raises(ValueError):
        sptrsv_dbsr_lower_parallel(Ld, rng.standard_normal(L.n_rows),
                                   bad, diag=D)


# Failure propagation ------------------------------------------------------

def test_failure_cancels_pending_work():
    """On a task exception, queued futures are cancelled and the error
    surfaces promptly instead of draining the remaining color."""
    import threading

    from repro.ordering.vbmc import ColorSchedule

    # One color, 16 independent groups.
    wide = ColorSchedule(bsize=1, points_per_block=1,
                         color_group_ptr=np.array([0, 16]))
    ran = []
    lock = threading.Lock()

    def bad(group):
        with lock:
            ran.append(group)
        if group == 0:
            raise RuntimeError("boom")

    # One worker: the failing first task is running while the rest of
    # the color is still queued; those must be cancelled, not run.
    with ColorParallelExecutor(wide, n_workers=1) as ex:
        with pytest.raises(RuntimeError, match="boom"):
            ex.run_forward(bad)
    assert len(ran) < 16


def test_pool_left_usable_after_failure(setup):
    vb = setup[0]

    def bad(group):
        raise RuntimeError("boom")

    seen = []
    with ColorParallelExecutor(vb.schedule, n_workers=2) as ex:
        with pytest.raises(RuntimeError):
            ex.run_forward(bad)
        ex.run_forward(seen.append)  # pool still drains work
    assert len(seen) == vb.schedule.n_groups


# Shared-pool reuse --------------------------------------------------------

def test_external_pool_is_reused_not_owned(setup):
    from concurrent.futures import ThreadPoolExecutor

    from repro.parallel.executor import pool_stats

    vb = setup[0]
    pool = ThreadPoolExecutor(max_workers=2)
    try:
        before = pool_stats.created
        seen = []
        with ColorParallelExecutor(vb.schedule, pool=pool) as ex:
            ex.run_forward(seen.append)
        assert pool_stats.created == before  # no new pool constructed
        # shutdown() must not have closed the external pool:
        assert pool.submit(lambda: 42).result() == 42
        assert len(seen) == vb.schedule.n_groups
    finally:
        pool.shutdown(wait=True)


def test_own_pool_creation_is_instrumented(setup):
    from repro.parallel.executor import pool_stats

    vb = setup[0]
    before = pool_stats.created
    with ColorParallelExecutor(vb.schedule, n_workers=2):
        pass
    assert pool_stats.created == before + 1


# Bit-identical determinism across grids/bsizes/worker counts --------------

def _tri_setup(dims, stencil, block_dims, bsize):
    from repro.grids.problems import poisson_problem
    from repro.ordering.vbmc import build_vbmc

    p = poisson_problem(dims, stencil)
    vb = build_vbmc(p.grid, p.stencil, block_dims, bsize)
    csr = vb.apply_matrix(p.matrix)
    L, D, U = split_triangular(csr)
    return (vb, D, DBSRMatrix.from_csr(L, bsize),
            DBSRMatrix.from_csr(U, bsize))


@pytest.mark.fast
@pytest.mark.parametrize("dims,stencil,block_dims,bsize", [
    ((8, 8, 8), "27pt", (2, 2, 2), 4),
    ((8, 8, 8), "7pt", (2, 2, 2), 2),
    ((8, 8), "9pt", (4, 4), 4),
])
def test_parallel_bit_identical_sweep(dims, stencil, block_dims, bsize,
                                      rng):
    """Exact (bit-level) equality with the sequential DBSR kernels for
    every worker count, repeated to catch ordering races."""
    from repro.kernels.sptrsv_dbsr import (
        sptrsv_dbsr_lower,
        sptrsv_dbsr_upper,
    )

    vb, D, Ld, Ud = _tri_setup(dims, stencil, block_dims, bsize)
    b = rng.standard_normal(Ld.n_rows)
    ref_lo = sptrsv_dbsr_lower(Ld, b, diag=D)
    ref_up = sptrsv_dbsr_upper(Ud, b, diag=D)
    for workers in (1, 2, 4):
        for _ in range(3):
            got_lo = sptrsv_dbsr_lower_parallel(
                Ld, b, vb.schedule, diag=D, n_workers=workers)
            got_up = sptrsv_dbsr_upper_parallel(
                Ud, b, vb.schedule, diag=D, n_workers=workers)
            assert np.array_equal(got_lo, ref_lo), (workers, "lower")
            assert np.array_equal(got_up, ref_up), (workers, "upper")


# Parallel-path op accounting ----------------------------------------------

def test_parallel_counter_is_deterministic(setup, rng):
    """Counter totals are identical run to run and across thread
    counts."""
    from repro.simd.counters import OpCounter

    vb, L, D, U, Ld, Ud = setup
    b = rng.standard_normal(L.n_rows)
    totals = set()
    for workers in (1, 2, 4):
        for _ in range(2):
            c = OpCounter(bsize=Ld.bsize)
            sptrsv_dbsr_lower_parallel(Ld, b, vb.schedule, diag=D,
                                       n_workers=workers, counter=c)
            totals.add((c.vload, c.vfma, c.vstore, c.vdiv,
                        c.total_bytes))
    assert len(totals) == 1



# One driver, closed-form tallies -----------------------------------------

@pytest.fixture(scope="module")
def ilu_factors(setup):
    from repro.grids.problems import poisson_problem
    from repro.ilu.ilu0_dbsr import ilu0_factorize_dbsr

    vb = setup[0]
    csr = vb.apply_matrix(poisson_problem((8, 8, 8), "27pt").matrix)
    return ilu0_factorize_dbsr(DBSRMatrix.from_csr(csr, 4))


@pytest.mark.parametrize("sink", ["counter", "session"])
@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("case", ["lower", "lower-nodiag", "upper",
                                  "upper-nodiag", "ilu"])
def test_parallel_counter_matches_closed_form(setup, ilu_factors, case,
                                              n_workers, sink):
    """Every parallel path tallies its kernel's closed form on every
    counter field, into ``counter=`` or the session ledger, and returns
    exactly the ``k = 1`` numpy-fast kernel's answer."""
    from dataclasses import replace

    from repro.backends import get_backend
    from repro.ilu.parallel_apply import ilu0_apply_dbsr_parallel
    from repro.kernels.counts import ilu_apply_dbsr_counts, \
        sptrsv_dbsr_counts
    from repro.runtime.session import SolverSession
    from repro.simd.counters import OpCounter, counter_to_dict

    vb, L, D, U, Ld, Ud = setup
    fast = get_backend("numpy-fast")
    b = np.random.default_rng(11).standard_normal(Ld.n_rows)
    if case == "ilu":
        def run(**kw):
            return ilu0_apply_dbsr_parallel(
                ilu_factors, b, vb.schedule, n_workers=n_workers, **kw)

        ref = fast.ilu_apply_dbsr_multi(ilu_factors, b[:, None])[:, 0]
        expect = ilu_apply_dbsr_counts(ilu_factors)
    else:
        forward = case.startswith("lower")
        diag = None if case.endswith("nodiag") else D
        matrix = Ld if forward else Ud
        fn = (sptrsv_dbsr_lower_parallel if forward
              else sptrsv_dbsr_upper_parallel)

        def run(**kw):
            return fn(matrix, b, vb.schedule, diag=diag,
                      n_workers=n_workers, **kw)

        ref = fast.sptrsv_dbsr_multi(matrix, b[:, None], diag,
                                     forward)[:, 0]
        expect = sptrsv_dbsr_counts(matrix, divide=diag is not None)
    if sink == "counter":
        got = OpCounter(bsize=expect.bsize)
        x = run(counter=got)
    else:
        with SolverSession(n_workers=n_workers) as s:
            x = run(session=s)
        got, expect = s.counter, replace(expect, bsize=1)
    assert np.array_equal(x, ref)
    assert counter_to_dict(got) == counter_to_dict(expect)


def test_failed_sweep_tallies_nothing(setup):
    """A sweep whose worker raises charges no counts."""
    from repro.resilience.errors import FaultInjected
    from repro.resilience.faults import FaultPlan, FaultSpec, inject
    from repro.runtime.session import SolverSession
    from repro.simd.counters import OpCounter, counter_to_dict

    vb, L, D, U, Ld, Ud = setup
    b = np.ones(Ld.n_rows)
    c = OpCounter(bsize=Ld.bsize)
    with SolverSession(n_workers=2) as s:
        for sink in ({"counter": c}, {"session": s}):
            # A fresh one-fire plan per sweep: two workers could spend
            # both fires of one shared two-fire plan in the first sweep.
            with inject(FaultPlan((FaultSpec("worker_exception"),))):
                with pytest.raises(FaultInjected):
                    sptrsv_dbsr_lower_parallel(Ld, b, vb.schedule,
                                               diag=D, **sink)
        assert counter_to_dict(s.counter) == \
            counter_to_dict(OpCounter(bsize=1))
    assert counter_to_dict(c) == counter_to_dict(OpCounter(bsize=c.bsize))
