"""Unit tests for the CSR format."""

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix


@pytest.fixture()
def small():
    dense = np.array([[4.0, -1.0, 0.0, 0.0],
                      [-1.0, 4.0, -1.0, 0.0],
                      [0.0, -1.0, 4.0, -1.0],
                      [0.0, 0.0, -1.0, 4.0]])
    return CSRMatrix.from_dense(dense), dense


def test_roundtrip(small):
    csr, dense = small
    assert np.array_equal(csr.to_dense(), dense)
    assert csr.nnz == np.count_nonzero(dense)


def test_from_coo_roundtrip(rng):
    dense = rng.standard_normal((7, 7))
    dense[np.abs(dense) < 0.8] = 0.0
    coo = COOMatrix.from_dense(dense)
    csr = CSRMatrix.from_coo(coo)
    assert np.array_equal(csr.to_dense(), dense)
    assert np.array_equal(csr.to_coo().to_dense(), dense)


def test_matvec(small, rng):
    csr, dense = small
    x = rng.standard_normal(4)
    assert np.allclose(csr.matvec(x), dense @ x)


def test_matvec_with_empty_rows():
    dense = np.zeros((4, 4))
    dense[0, 3] = 2.0
    dense[3, 0] = 5.0
    csr = CSRMatrix.from_dense(dense)
    x = np.arange(4.0)
    assert np.allclose(csr.matvec(x), dense @ x)


def test_diagonal(small):
    csr, dense = small
    assert np.array_equal(csr.diagonal(), np.diag(dense))


def test_diagonal_with_missing_entries():
    dense = np.array([[0.0, 1.0], [2.0, 3.0]])
    csr = CSRMatrix.from_dense(dense)
    assert np.array_equal(csr.diagonal(), [0.0, 3.0])


def test_tril_triu(small):
    csr, dense = small
    assert np.array_equal(csr.tril(strict=True).to_dense(),
                          np.tril(dense, -1))
    assert np.array_equal(csr.triu(strict=True).to_dense(),
                          np.triu(dense, 1))
    assert np.array_equal(csr.tril().to_dense(), np.tril(dense))
    assert np.array_equal(csr.triu().to_dense(), np.triu(dense))


def test_split_parts_reassemble(small):
    csr, dense = small
    total = (csr.tril(strict=True).to_dense()
             + np.diag(csr.diagonal())
             + csr.triu(strict=True).to_dense())
    assert np.array_equal(total, dense)


def test_permute_symmetric(small, rng):
    csr, dense = small
    perm = rng.permutation(4)
    permuted = csr.permute(perm)
    expect = np.zeros_like(dense)
    for i in range(4):
        for j in range(4):
            expect[perm[i], perm[j]] = dense[i, j]
    assert np.array_equal(permuted.to_dense(), expect)


def test_row_view(small):
    csr, dense = small
    cols, vals = csr.row(1)
    assert list(cols) == [0, 1, 2]
    assert np.allclose(vals, [-1.0, 4.0, -1.0])


def test_rows_sorted_after_unordered_input():
    indptr = [0, 2, 3]
    indices = [1, 0, 0]  # row 0 unsorted
    data = [2.0, 1.0, 3.0]
    csr = CSRMatrix(indptr, indices, data, (2, 2))
    cols, vals = csr.row(0)
    assert list(cols) == [0, 1]
    assert list(vals) == [1.0, 2.0]


def test_astype():
    csr = CSRMatrix.from_dense(np.eye(3))
    f32 = csr.astype(np.float32)
    assert f32.data.dtype == np.float32
    assert np.array_equal(f32.to_dense(), np.eye(3, dtype=np.float32))


def test_invalid_indptr_rejected():
    with pytest.raises(ValueError):
        CSRMatrix([0, 2], [0], [1.0], (2, 2))  # wrong length
    with pytest.raises(ValueError):
        CSRMatrix([0, 2, 1], [0, 1], [1.0, 2.0], (2, 2))  # decreasing


def test_column_out_of_range_rejected():
    with pytest.raises(ValueError):
        CSRMatrix([0, 1], [7], [1.0], (1, 2))


def test_memory_report(small):
    csr, _ = small
    rep = csr.memory_report()
    assert rep.format_name == "CSR"
    assert rep.arrays["row_ptr"] == 5 * 4
    assert rep.arrays["col_ind"] == csr.nnz * 4
    assert rep.arrays["values"] == csr.nnz * 8
    assert rep.total_bytes == 5 * 4 + csr.nnz * 12


def _lexsorted(indptr, indices, data):
    """The row sort as a plain lexsort (the reference)."""
    row_of = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    order = np.lexsort((indices, row_of))
    return indices[order], data[order]


@pytest.mark.parametrize("indptr, indices", [
    # Sorted, with an empty first row and a descent between rows.
    ([0, 0, 3, 5], [0, 2, 3, 1, 3]),
    # Duplicate columns inside a row, already non-decreasing.
    ([0, 3, 5, 5], [1, 1, 2, 0, 0]),
    # Unsorted inside a row, with duplicates.
    ([0, 4, 6, 6], [3, 1, 3, 0, 2, 1]),
    # Only the last row is out of order.
    ([0, 2, 4], [0, 1, 3, 2]),
    ([0, 0, 0], []),
])
def test_sort_rows_matches_lexsort_and_never_aliases(indptr, indices):
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.arange(len(indices), dtype=np.float64) + 1.0
    want_idx, want_data = _lexsorted(indptr, indices, data)
    csr = CSRMatrix(indptr, indices, data, (len(indptr) - 1, 4))
    assert np.array_equal(csr.indices, want_idx)
    assert np.array_equal(csr.data, want_data)
    assert not np.shares_memory(csr.indices, indices)
    assert not np.shares_memory(csr.data, data)
    indices[:] = 0
    data[:] = -1.0
    assert np.array_equal(csr.indices, want_idx)
    assert np.array_equal(csr.data, want_data)


def test_sort_rows_matches_lexsort_on_random_rows():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        counts = rng.integers(0, 5, n)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = rng.integers(0, 6, indptr[-1])
        if rng.random() < 0.5:
            indices, _ = _lexsorted(indptr, indices, indices)
        data = rng.standard_normal(indptr[-1])
        csr = CSRMatrix(indptr, indices, data, (n, 6))
        want_idx, want_data = _lexsorted(indptr, indices, data)
        assert np.array_equal(csr.indices, want_idx)
        assert np.array_equal(csr.data, want_data)
