"""Real wall-clock microbenchmarks of the sparse kernels.

These complement the figure models with actually measured times: the
numpy-vectorized DBSR kernels process a whole tile per operation, so
even under the Python interpreter the contiguous-tile structure is
observable (fewer, wider operations than per-element CSR). The DBSR
matrices carry the block-row level schedule that ``compile_plan`` and
``DBSRSymgsSmoother`` attach, so the sweeps timed here are the served
ones.
"""

import numpy as np
import pytest

from repro.formats.dbsr import DBSRMatrix
from repro.formats.dbsr_levels import build_block_levels, schedule_sweeps
from repro.formats.sell import SELLMatrix
from repro.grids.problems import poisson_problem
from repro.kernels.sptrsv_csr import split_triangular, sptrsv_csr
from repro.kernels.sptrsv_dbsr import sptrsv_dbsr_lower
from repro.ordering.vbmc import build_vbmc
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def workload():
    p = poisson_problem((16, 16, 16), "27pt")
    vb = build_vbmc(p.grid, p.stencil, (4, 4, 4), 8)
    csr = vb.apply_matrix(p.matrix)
    dbsr = DBSRMatrix.from_csr(csr, 8)
    L, D, U = split_triangular(csr)
    Ld = DBSRMatrix.from_csr(L, 8)
    levels = build_block_levels(dbsr)
    for m in (dbsr, Ld):
        schedule_sweeps(m, levels, diag=D)
    x = make_rng(1).standard_normal(csr.n_cols)
    return p, csr, dbsr, L, D, Ld, x


def test_spmv_csr_wallclock(benchmark, workload):
    _, csr, _, _, _, _, x = workload
    y = benchmark(csr.matvec, x)
    assert np.isfinite(y).all()


def test_spmv_dbsr_wallclock(benchmark, workload):
    _, csr, dbsr, _, _, _, x = workload
    y = benchmark(dbsr.matvec, x)
    assert np.allclose(y, csr.matvec(x))


def test_spmv_sell_wallclock(benchmark, workload):
    _, csr, _, _, _, _, x = workload
    sell = SELLMatrix(csr, chunk=8, sigma=1)
    y = benchmark(sell.matvec, x)
    assert np.allclose(y, csr.matvec(x))


def test_sptrsv_csr_wallclock(benchmark, workload):
    _, _, _, L, D, _, x = workload
    b = x[: L.n_rows]
    sol = benchmark.pedantic(sptrsv_csr, args=(L, D, b), rounds=2,
                             iterations=1)
    assert np.isfinite(sol).all()


def test_sptrsv_dbsr_wallclock(benchmark, workload):
    _, _, _, L, D, Ld, x = workload
    b = x[: L.n_rows]
    sol = benchmark.pedantic(sptrsv_dbsr_lower, args=(Ld, b),
                             kwargs={"diag": D}, rounds=3,
                             iterations=1)
    assert np.allclose(sol, sptrsv_csr(L, D, b))


def test_dbsr_construction_wallclock(benchmark, workload):
    """Format conversion cost — the paper's step (2), paid once."""
    _, csr, _, _, _, _, _ = workload
    dbsr = benchmark(DBSRMatrix.from_csr, csr, 8)
    assert dbsr.n_tiles > 0


def test_block_ilu0_factorization_wallclock(benchmark, workload):
    from repro.ilu.ilu0_dbsr import ilu0_factorize_dbsr

    _, _, dbsr, _, _, _, _ = workload
    f = benchmark.pedantic(ilu0_factorize_dbsr, args=(dbsr,),
                           rounds=2, iterations=1)
    assert np.isfinite(f.matrix.values).all()


def test_symgs_csr_wallclock(benchmark, workload):
    from repro.kernels.symgs import symgs_csr

    _, csr, _, _, _, _, x = workload
    b = x[: csr.n_rows]
    xw = np.zeros(csr.n_rows)
    benchmark.pedantic(symgs_csr, args=(csr, csr.diagonal(), xw, b),
                       rounds=2, iterations=1)
    assert np.isfinite(xw).all()


def test_symgs_dbsr_wallclock(benchmark, workload):
    from repro.kernels.symgs import symgs_dbsr

    _, csr, dbsr, _, D, _, x = workload
    b = x[: csr.n_rows]
    xw = np.zeros(csr.n_rows)
    # D is the diagonal the workload stacked, so the served sweep runs.
    benchmark.pedantic(symgs_dbsr, args=(dbsr, D, xw, b),
                       rounds=3, iterations=1)
    # Each round is one more in-place sweep; equality with the CSR
    # sweeps is covered by the unit tests.
    assert np.isfinite(xw).all()


def test_symgs_sell_wallclock(benchmark, workload):
    from repro.kernels.symgs_sell import symgs_sell

    _, csr, dbsr, _, _, _, x = workload
    sell = SELLMatrix(csr, chunk=dbsr.bsize, sigma=1)
    b = x[: csr.n_rows]
    diag = csr.diagonal()
    xw = np.zeros(csr.n_rows)
    benchmark.pedantic(symgs_sell, args=(sell, diag, xw, b),
                       rounds=2, iterations=1)
    assert np.isfinite(xw).all()
