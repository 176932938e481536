"""Unit tests for the COO format."""

import numpy as np
import pytest

from repro.formats.coo import COOMatrix


def test_construction_and_dense_roundtrip():
    dense = np.array([[1.0, 0.0, 2.0],
                      [0.0, 0.0, 0.0],
                      [3.0, 0.0, 4.0]])
    coo = COOMatrix.from_dense(dense)
    assert coo.nnz == 4
    assert np.array_equal(coo.to_dense(), dense)


def test_duplicates_are_summed():
    coo = COOMatrix([0, 0, 1], [1, 1, 2], [2.0, 3.0, 1.0], (2, 3))
    assert coo.nnz == 2
    assert coo.to_dense()[0, 1] == 5.0


def test_canonical_bits_match_lexsort_and_unique_merge(rng):
    # Duplicates, -0 entries and a NaN payload: the canonical triplets
    # equal, bit for bit, a sort by (row, col) followed by summing each
    # run of equal entries in input order from 0 (np.add.at over
    # np.unique's inverse).
    n = 40
    rows = rng.integers(0, n, 600)
    cols = rng.integers(0, n, 600)
    vals = rng.standard_normal(600)
    vals[::9] = -0.0
    vals[5] = np.array([0x7FF8_0000_0000_0123],
                       dtype=np.uint64).view(np.float64)[0]
    order = np.lexsort((cols, rows))
    keys = rows[order].astype(np.int64) * n + cols[order]
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros(len(uniq))
    np.add.at(merged, inverse, vals[order])
    for r, c, v in ((rows, cols, vals),
                    (np.arange(n), np.arange(n), np.full(n, -0.0))):
        coo = COOMatrix(r, c, v, (n, n))
        if r is rows:
            want_rows, want_cols, want = uniq // n, uniq % n, merged
        else:
            want_rows, want_cols, want = r, c, np.zeros(n)
        assert np.array_equal(coo.rows, want_rows)
        assert np.array_equal(coo.cols, want_cols)
        assert np.array_equal(coo.values.view(np.uint64),
                              want.view(np.uint64))


def test_canonical_order_sorted_by_row_then_col():
    coo = COOMatrix([1, 0, 1], [0, 2, 2], [1.0, 2.0, 3.0], (2, 3))
    rows = list(coo.rows)
    cols = list(coo.cols)
    assert rows == sorted(rows)
    assert (rows, cols) == ([0, 1, 1], [2, 0, 2])


def test_matvec_matches_dense(rng):
    dense = rng.standard_normal((6, 4))
    dense[dense < 0.3] = 0.0
    coo = COOMatrix.from_dense(dense)
    x = rng.standard_normal(4)
    assert np.allclose(coo.matvec(x), dense @ x)


def test_matmul_operator(rng):
    dense = np.eye(3) * 2
    coo = COOMatrix.from_dense(dense)
    x = rng.standard_normal(3)
    assert np.allclose(coo @ x, 2 * x)


def test_transpose():
    dense = np.array([[1.0, 2.0], [0.0, 3.0]])
    coo = COOMatrix.from_dense(dense)
    assert np.array_equal(coo.transpose().to_dense(), dense.T)


def test_out_of_range_indices_rejected():
    with pytest.raises(ValueError):
        COOMatrix([0], [5], [1.0], (2, 2))
    with pytest.raises(ValueError):
        COOMatrix([9], [0], [1.0], (2, 2))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        COOMatrix([0, 1], [0], [1.0], (2, 2))


def test_empty_matrix():
    coo = COOMatrix([], [], [], (3, 3))
    assert coo.nnz == 0
    assert np.array_equal(coo.to_dense(), np.zeros((3, 3)))
    assert np.array_equal(coo.matvec(np.ones(3)), np.zeros(3))


def test_memory_report_bytes():
    coo = COOMatrix([0, 1], [1, 0], [1.0, 2.0], (2, 2))
    rep = coo.memory_report()
    assert rep.nnz == 2
    assert rep.arrays["values"] == 2 * 8
    assert rep.index_bytes == 2 * 4 * 2  # rows + cols, int32
    assert rep.padding_values == 0


def test_matvec_wrong_length_rejected():
    coo = COOMatrix([0], [0], [1.0], (2, 2))
    with pytest.raises(ValueError):
        coo.matvec(np.ones(3))
