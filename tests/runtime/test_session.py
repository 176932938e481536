"""Tests for the persistent SolverSession runtime."""

import numpy as np
import pytest

from repro.formats.dbsr import DBSRMatrix
from repro.ilu.ilu0_dbsr import ilu0_apply_dbsr, ilu0_factorize_dbsr
from repro.ilu.parallel_apply import ilu0_apply_dbsr_parallel
from repro.kernels.sptrsv_csr import split_triangular
from repro.parallel.executor import (
    pool_stats,
    sptrsv_dbsr_lower_parallel,
    sptrsv_dbsr_upper_parallel,
)
from repro.runtime.session import SolverSession
from repro.simd.counters import OpCounter
from repro.solvers.pcg import pcg

pytestmark = pytest.mark.fast


@pytest.fixture(scope="module")
def setup():
    from repro.grids.problems import poisson_problem
    from repro.ordering.vbmc import build_vbmc

    p = poisson_problem((8, 8, 8), "27pt")
    vb = build_vbmc(p.grid, p.stencil, (2, 2, 2), 4)
    csr = vb.apply_matrix(p.matrix)
    factors = ilu0_factorize_dbsr(DBSRMatrix.from_csr(csr, 4))
    return p, vb, csr, factors


def test_pool_is_lazy_and_single(setup):
    p, vb, csr, factors = setup
    with SolverSession(n_workers=2) as s:
        assert s.pools_created == 0  # nothing requested yet
        r = np.ones(csr.n_rows)
        for _ in range(3):
            ilu0_apply_dbsr_parallel(factors, r, vb.schedule, session=s)
        assert s.pools_created == 1


def test_full_pcg_solve_creates_exactly_one_pool(setup):
    """A complete PCG solve — parallel ILU(0) preconditioning every
    iteration — constructs exactly one thread pool, process-wide."""
    p, vb, csr, factors = setup
    b = csr.matvec(np.ones(csr.n_rows))
    before = pool_stats.created
    with SolverSession(n_workers=4) as s:

        def precond(r):
            return ilu0_apply_dbsr_parallel(factors, r, vb.schedule,
                                            session=s)

        x, hist = pcg(csr, b, precond, tol=1e-8, maxiter=50, session=s)
        assert hist.iterations > 1  # the pool really was reused
        assert np.allclose(x, 1.0, atol=1e-5)
        assert s.pools_created == 1
    assert pool_stats.created == before + 1


def test_parallel_ilu_apply_bit_identical_and_counted(setup):
    p, vb, csr, factors = setup
    rng = np.random.default_rng(7)
    r = rng.standard_normal(csr.n_rows)
    ref = ilu0_apply_dbsr(factors, r)
    c = OpCounter(bsize=4)
    for workers in (1, 2, 4):
        got = ilu0_apply_dbsr_parallel(factors, r, vb.schedule,
                                       n_workers=workers)
        assert np.array_equal(got, ref), workers
    got = ilu0_apply_dbsr_parallel(factors, r, vb.schedule,
                                   n_workers=4, counter=c)
    assert np.array_equal(got, ref)
    # Exact op totals from the factored skeleton: one FMA per
    # off-diagonal tile, one divide per block-row.
    m = factors.matrix
    n_lower = int((factors.dia_ptr - m.blk_ptr[:-1]).sum())
    n_upper = int((m.blk_ptr[1:] - factors.dia_ptr - 1).sum())
    assert c.vfma == n_lower + n_upper
    assert c.vdiv == m.brow
    assert c.bytes_values == (n_lower + n_upper + m.brow) \
        * m.bsize * m.values.itemsize


def test_session_sweep_counts_match_closed_form(setup):
    from repro.kernels.counts import sptrsv_dbsr_counts

    p, vb, csr, factors = setup
    L, D, U = split_triangular(csr)
    Ld = DBSRMatrix.from_csr(L, 4)
    Ud = DBSRMatrix.from_csr(U, 4)
    b = np.ones(csr.n_rows)
    with SolverSession(n_workers=2) as s:
        sptrsv_dbsr_lower_parallel(Ld, b, vb.schedule, diag=D,
                                   session=s)
        sptrsv_dbsr_upper_parallel(Ud, b, vb.schedule, diag=D,
                                   session=s)
        expect = sptrsv_dbsr_counts(Ld, divide=True)
        expect.merge(sptrsv_dbsr_counts(Ud, divide=True))
        assert s.counter.vfma == expect.vfma
        assert s.counter.total_bytes == expect.total_bytes
        assert s.pools_created == 1


def test_phase_records_time_and_counter_delta(setup):
    p, vb, csr, factors = setup
    L, D, _ = split_triangular(csr)
    Ld = DBSRMatrix.from_csr(L, 4)
    b = np.ones(csr.n_rows)
    with SolverSession(n_workers=2) as s:
        with s.phase("sweep"):
            sptrsv_dbsr_lower_parallel(Ld, b, vb.schedule, diag=D,
                                       session=s)
        with s.phase("sweep"):
            sptrsv_dbsr_lower_parallel(Ld, b, vb.schedule, diag=D,
                                       session=s)
        rec = s.phases["sweep"]
        assert rec.calls == 2
        assert rec.seconds > 0
        # The phase delta saw everything the session tallied.
        assert rec.counter.total_bytes == s.counter.total_bytes
        assert rec.counter.vfma == s.counter.vfma > 0


def test_timed_wrapper_records_calls():
    with SolverSession() as s:
        fn = s.timed("spmv", lambda v: v * 2)
        assert fn(21) == 42
        assert fn(1) == 2
        assert s.phases["spmv"].calls == 2


def test_session_close_allows_reopen(setup):
    p, vb, csr, factors = setup
    s = SolverSession(n_workers=2)
    r = np.ones(csr.n_rows)
    ilu0_apply_dbsr_parallel(factors, r, vb.schedule, session=s)
    s.close()
    # A new pool is created on next use after close().
    ilu0_apply_dbsr_parallel(factors, r, vb.schedule, session=s)
    assert s.pools_created == 2
    s.close()
