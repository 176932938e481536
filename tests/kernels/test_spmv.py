"""Unit tests for SpMV kernels and their instrumented twins."""

import numpy as np

from repro.formats.sell import SELLMatrix
from repro.kernels.spmv import (
    spmv,
    spmv_csr_counted,
    spmv_sell_counted,
)
from repro.serve.batch import spmv_dbsr_multi_counted
from repro.simd.engine import VectorEngine


def test_spmv_dispatch(problem_2d, rng):
    x = rng.standard_normal(problem_2d.n)
    assert np.allclose(spmv(problem_2d.matrix, x),
                       problem_2d.matrix.matvec(x))


def test_csr_counted_matches(problem_2d, rng):
    A = problem_2d.matrix
    x = rng.standard_normal(A.n_cols)
    eng = VectorEngine(1)
    y = spmv_csr_counted(A, x, eng)
    assert np.allclose(y, A.matvec(x))
    c = eng.counter
    assert c.sflop == 2 * A.nnz
    assert c.bytes_values == A.nnz * 8
    assert c.bytes_gathered == A.nnz * 8


def test_csr_counts_match_closed_form(problem_2d, rng):
    from repro.kernels.counts import spmv_csr_counts

    A = problem_2d.matrix
    eng = VectorEngine(1)
    spmv_csr_counted(A, rng.standard_normal(A.n_cols), eng)
    expect = spmv_csr_counts(A)
    assert eng.counter.sflop == expect.sflop
    assert eng.counter.bytes_values == expect.bytes_values
    assert eng.counter.bytes_gathered == expect.bytes_gathered


def test_sell_counted_matches(problem_2d, rng):
    A = problem_2d.matrix
    sell = SELLMatrix(A, chunk=4, sigma=1)
    x = rng.standard_normal(A.n_cols)
    eng = VectorEngine(4)
    y = spmv_sell_counted(sell, x, eng)
    assert np.allclose(y, A.matvec(x))
    assert eng.counter.vgather > 0  # SELL must gather


def test_dbsr_counted_matches(reordered_2d, rng):
    csr, dbsr = reordered_2d
    x = rng.standard_normal(csr.n_cols)
    eng = VectorEngine(dbsr.bsize)
    y = spmv_dbsr_multi_counted(dbsr, x[:, None], eng)[:, 0]
    assert np.allclose(y, csr.matvec(x))
    assert eng.counter.vgather == 0  # DBSR never gathers
    assert eng.counter.vfma == dbsr.n_tiles


def test_dbsr_spmv_counts_match_closed_form(reordered_2d, rng):
    from repro.kernels.counts import spmv_dbsr_counts

    csr, dbsr = reordered_2d
    eng = VectorEngine(dbsr.bsize)
    spmv_dbsr_multi_counted(dbsr, rng.standard_normal((csr.n_cols, 1)),
                            eng)
    expect = spmv_dbsr_counts(dbsr)
    assert eng.counter.vload == expect.vload
    assert eng.counter.vfma == expect.vfma
    assert eng.counter.vstore == expect.vstore
    assert eng.counter.bytes_values == expect.bytes_values
