"""Unit tests for the DBSR SpTRSV (Algorithm 2).

The single-vector solves are ``k = 1`` calls of the block kernels; the
counted checks run the instrumented block twin at ``k = 1``.
"""

import numpy as np
import pytest

from repro.formats.dbsr import DBSRMatrix
from repro.kernels.sptrsv_csr import (
    split_triangular,
    sptrsv_csr,
    sptrsv_csr_upper,
)
from repro.kernels.sptrsv_dbsr import (
    check_dbsr_triangular,
    sptrsv_dbsr_lower,
    sptrsv_dbsr_upper,
)
from repro.serve.batch import (
    sptrsv_dbsr_lower_multi_counted,
    sptrsv_dbsr_upper_multi_counted,
)
from repro.simd.engine import VectorEngine


@pytest.fixture(scope="module", params=["2d", "3d"])
def triangles(request, reordered_2d=None, reordered_3d=None):
    # Resolve session fixtures lazily through the request.
    pair = request.getfixturevalue(
        "reordered_2d" if request.param == "2d" else "reordered_3d")
    csr, _ = pair
    L, D, U = split_triangular(csr)
    bs = pair[1].bsize
    return (L, D, U, DBSRMatrix.from_csr(L, bs),
            DBSRMatrix.from_csr(U, bs), bs)


def test_precondition_checks(triangles):
    L, D, U, Ld, Ud, bs = triangles
    assert check_dbsr_triangular(Ld, lower=True)
    assert check_dbsr_triangular(Ud, lower=False)
    assert not check_dbsr_triangular(Ud, lower=True)


def test_lower_solve_matches_csr(triangles, rng):
    L, D, U, Ld, Ud, bs = triangles
    b = rng.standard_normal(L.n_rows)
    assert np.allclose(sptrsv_dbsr_lower(Ld, b, diag=D),
                       sptrsv_csr(L, D, b))


def test_lower_solve_unit_diag(triangles, rng):
    L, D, U, Ld, Ud, bs = triangles
    b = rng.standard_normal(L.n_rows)
    assert np.allclose(sptrsv_dbsr_lower(Ld, b),
                       sptrsv_csr(L, D, b, unit_diag=True))


def test_upper_solve_matches_csr(triangles, rng):
    L, D, U, Ld, Ud, bs = triangles
    b = rng.standard_normal(U.n_rows)
    assert np.allclose(sptrsv_dbsr_upper(Ud, b, diag=D),
                       sptrsv_csr_upper(U, D, b))


def test_counted_twins_same_result_and_counts(triangles, rng):
    from repro.kernels.counts import sptrsv_dbsr_counts

    L, D, U, Ld, Ud, bs = triangles
    b = rng.standard_normal(L.n_rows)
    eng = VectorEngine(bs)
    x = sptrsv_dbsr_lower_multi_counted(Ld, b[:, None], eng, diag=D)
    assert np.array_equal(x[:, 0], sptrsv_dbsr_lower(Ld, b, diag=D))
    expect = sptrsv_dbsr_counts(Ld, divide=True)
    got = eng.counter
    for f in ("vload", "vstore", "vfma", "vdiv",
              "bytes_values", "bytes_index", "bytes_vector"):
        assert getattr(got, f) == getattr(expect, f), f


def test_counted_upper_twin(triangles, rng):
    L, D, U, Ld, Ud, bs = triangles
    b = rng.standard_normal(U.n_rows)
    eng = VectorEngine(bs)
    x = sptrsv_dbsr_upper_multi_counted(Ud, b[:, None], eng, diag=D)
    assert np.array_equal(x[:, 0], sptrsv_dbsr_upper(Ud, b, diag=D))
    assert eng.counter.vgather == 0  # gather-free (§III-D)


def test_gather_free_property(triangles, rng):
    """Algorithm 2 must not issue a single gather."""
    L, D, U, Ld, Ud, bs = triangles
    eng = VectorEngine(bs)
    sptrsv_dbsr_lower_multi_counted(
        Ld, rng.standard_normal((L.n_rows, 1)), eng, diag=D)
    assert eng.counter.vgather == 0
    assert eng.counter.bytes_gathered == 0


def test_wrong_length_rejected(triangles):
    L, D, U, Ld, Ud, bs = triangles
    with pytest.raises(ValueError):
        sptrsv_dbsr_lower(Ld, np.ones(L.n_rows + 1))


def test_float32_solve(triangles, rng):
    L, D, U, Ld, Ud, bs = triangles
    b = rng.standard_normal(L.n_rows).astype(np.float32)
    Lf = Ld.astype(np.float32)
    x = sptrsv_dbsr_lower(Lf, b, diag=D.astype(np.float32))
    ref = sptrsv_csr(L, D, b.astype(float))
    assert np.allclose(x, ref, atol=1e-3)
