"""DBSR block kernels: column identity, CSR agreement, byte amortization.

Every DBSR sweep is one ``(n, k)`` block kernel, so bit-identity is
pinned as: column ``j`` of a ``k``-wide call equals the ``k = 1`` call
on column ``j`` (``np.array_equal``), and the ``k = 1`` result matches
the CSR reference kernel to roundoff.
"""

import numpy as np
import pytest

from repro.formats.dbsr import DBSRMatrix
from repro.kernels.counts import sptrsv_dbsr_counts
from repro.kernels.sptrsv_csr import (
    split_triangular,
    sptrsv_csr,
    sptrsv_csr_upper,
)
from repro.kernels.symgs import symgs_csr
from repro.serve.batch import (
    spmv_dbsr_multi,
    spmv_dbsr_multi_counted,
    sptrsv_dbsr_lower_multi,
    sptrsv_dbsr_lower_multi_counted,
    sptrsv_dbsr_upper_multi,
    sptrsv_dbsr_upper_multi_counted,
    symgs_dbsr_multi,
)
from repro.simd.engine import VectorEngine


@pytest.fixture(scope="module")
def factors(reordered_3d):
    csr, dbsr = reordered_3d
    L, D, U = split_triangular(csr)
    return (dbsr, DBSRMatrix.from_csr(L, dbsr.bsize),
            DBSRMatrix.from_csr(U, dbsr.bsize), D, L, U)


@pytest.fixture(scope="module")
def rhs_block(factors):
    rng = np.random.default_rng(7)
    n = factors[0].n_rows
    return rng.standard_normal((n, 8))


def _assert_columns_equal_k1(X, kernel, B):
    for j in range(B.shape[1]):
        assert np.array_equal(X[:, j:j + 1], kernel(B[:, j:j + 1])), j


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_lower_multi_bitwise_equals_unbatched(factors, rhs_block, k):
    _, Ld, _, D, L, _ = factors
    B = rhs_block[:, :k]
    X = sptrsv_dbsr_lower_multi(Ld, B, diag=D)
    _assert_columns_equal_k1(
        X, lambda b: sptrsv_dbsr_lower_multi(Ld, b, diag=D), B)
    assert np.allclose(X[:, 0], sptrsv_csr(L, D, B[:, 0]))


@pytest.mark.parametrize("k", [1, 2, 8])
def test_upper_multi_bitwise_equals_unbatched(factors, rhs_block, k):
    _, _, Ud, D, _, U = factors
    B = rhs_block[:, :k]
    X = sptrsv_dbsr_upper_multi(Ud, B, diag=D)
    _assert_columns_equal_k1(
        X, lambda b: sptrsv_dbsr_upper_multi(Ud, b, diag=D), B)
    assert np.allclose(X[:, 0], sptrsv_csr_upper(U, D, B[:, 0]))


def test_lower_multi_unit_diag(factors, rhs_block):
    _, Ld, _, D, L, _ = factors
    B = rhs_block[:, :3]
    X = sptrsv_dbsr_lower_multi(Ld, B)
    _assert_columns_equal_k1(
        X, lambda b: sptrsv_dbsr_lower_multi(Ld, b), B)
    assert np.allclose(X[:, 0],
                       sptrsv_csr(L, D, B[:, 0], unit_diag=True))


@pytest.mark.parametrize("k", [1, 4])
def test_spmv_multi_bitwise_equals_counted_twin(factors, rhs_block, k):
    """The fast SpMV pins the canonical sequential-chain rounding
    (bitwise vs the counted twin); ``matvec``'s pairwise ``reduceat``
    summation only agrees to roundoff."""
    dbsr = factors[0]
    X = rhs_block[:, :k]
    Y = spmv_dbsr_multi(dbsr, X)
    engine = VectorEngine(dbsr.bsize, dtype=dbsr.values.dtype)
    assert np.array_equal(Y, spmv_dbsr_multi_counted(dbsr, X, engine))
    for j in range(k):
        assert np.allclose(Y[:, j], dbsr.matvec(X[:, j]),
                           rtol=1e-12, atol=1e-12)


def test_symgs_multi_bitwise_equals_unbatched(reordered_3d, rhs_block):
    csr, dbsr = reordered_3d
    diag = csr.diagonal()
    B = rhs_block[:, :4]
    X = symgs_dbsr_multi(dbsr, diag, np.zeros_like(B), B)
    _assert_columns_equal_k1(
        X, lambda b: symgs_dbsr_multi(dbsr, diag, np.zeros_like(b), b),
        B)
    x_csr = np.zeros(csr.n_rows)
    symgs_csr(csr, diag, x_csr, B[:, 0].copy())
    assert np.allclose(X[:, 0], x_csr)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_counted_twin_matches_closed_form(factors, rhs_block, k):
    _, Ld, _, D, _, _ = factors
    engine = VectorEngine(Ld.bsize)
    X = sptrsv_dbsr_lower_multi_counted(Ld, rhs_block[:, :k], engine,
                                        diag=D)
    closed = sptrsv_dbsr_counts(Ld, divide=True, k=k)
    c = engine.counter
    assert c.vload == closed.vload
    assert c.vfma == closed.vfma
    assert c.vstore == closed.vstore
    assert c.vdiv == closed.vdiv
    # (sload is modeled, not instrumented: index traffic is charged
    # via bytes_index.)
    assert c.bytes_values == closed.bytes_values
    assert c.bytes_index == closed.bytes_index
    assert c.bytes_vector == closed.bytes_vector
    # And it computes the fast kernel's answer bit for bit.
    assert np.array_equal(
        X, sptrsv_dbsr_lower_multi(Ld, rhs_block[:, :k], diag=D))


def test_counted_upper_twin_matches_closed_form(factors, rhs_block):
    _, _, Ud, D, _, _ = factors
    engine = VectorEngine(Ud.bsize)
    X = sptrsv_dbsr_upper_multi_counted(Ud, rhs_block[:, :3], engine,
                                        diag=D)
    closed = sptrsv_dbsr_counts(Ud, divide=True, k=3)
    assert engine.counter.bytes_values == closed.bytes_values
    assert engine.counter.total_vector_ops == closed.total_vector_ops
    assert np.array_equal(
        X, sptrsv_dbsr_upper_multi(Ud, rhs_block[:, :3], diag=D))


def test_multi_counts_reduce_to_single_rhs_counts(factors):
    """The one closed form is affine in ``k``: value bytes and index
    traffic are per sweep, everything else grows by the same step per
    added column — so ``k = 1`` is the single-RHS count."""
    _, Ld, _, _, _, _ = factors
    fields = ("vload", "vfma", "vstore", "vdiv", "sload",
              "bytes_values", "bytes_index", "bytes_vector")
    for divide in (False, True):
        c1 = sptrsv_dbsr_counts(Ld, divide=divide)
        assert c1 == sptrsv_dbsr_counts(Ld, divide=divide, k=1)
        c2 = sptrsv_dbsr_counts(Ld, divide=divide, k=2)
        for k in (3, 8):
            ck = sptrsv_dbsr_counts(Ld, divide=divide, k=k)
            for f in fields:
                step = getattr(c2, f) - getattr(c1, f)
                assert getattr(ck, f) == getattr(c1, f) + (k - 1) * step
        assert c2.bytes_values == c1.bytes_values
        assert c2.bytes_index == c1.bytes_index
        assert c1.vfma == Ld.n_tiles


def test_value_bytes_amortize_as_one_over_k(factors, rhs_block):
    """The serving claim: value-stream bytes per solve fall as 1/k."""
    _, Ld, _, D, _, _ = factors
    per_solve = []
    for k in (1, 2, 4, 8):
        engine = VectorEngine(Ld.bsize)
        sptrsv_dbsr_lower_multi_counted(Ld, rhs_block[:, :k], engine,
                                        diag=D)
        # Batch-level value bytes never grow with k...
        assert engine.counter.bytes_values \
            == Ld.n_tiles * Ld.bsize * Ld.values.itemsize
        per_solve.append(engine.counter.bytes_values / k)
    # ...so per-solve value bytes strictly decrease, exactly 1/k.
    assert all(b > a for b, a in zip(per_solve, per_solve[1:]))
    assert per_solve[0] / per_solve[-1] == pytest.approx(8.0)


def test_gather_free(factors, rhs_block):
    """Batched kernels must not introduce gathers."""
    _, Ld, _, D, _, _ = factors
    engine = VectorEngine(Ld.bsize)
    sptrsv_dbsr_lower_multi_counted(Ld, rhs_block, engine, diag=D)
    assert engine.counter.vgather == 0
    assert engine.counter.bytes_gathered == 0


def test_rhs_block_validation(factors):
    _, Ld, _, _, _, _ = factors
    with pytest.raises(ValueError):
        sptrsv_dbsr_lower_multi(Ld, np.zeros(Ld.n_rows))  # 1-D
    with pytest.raises(ValueError):
        sptrsv_dbsr_lower_multi(Ld, np.zeros((Ld.n_rows + 1, 2)))
