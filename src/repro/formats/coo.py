"""Coordinate (COO) sparse format.

COO is the interchange format: every other format in the library can be
built from a :class:`COOMatrix`, mirroring its role as the default
``.mtx`` representation the paper describes in §II-A.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE, MemoryReport, SparseMatrix
from repro.utils.validation import check_1d, require


class COOMatrix(SparseMatrix):
    """Sparse matrix stored as (row, col, value) triplets.

    Duplicate entries are summed on construction, matching the usual
    assembly semantics of finite-difference/finite-element codes.

    Parameters
    ----------
    rows, cols:
        Integer coordinate arrays of equal length.
    values:
        Floating point values, same length as the coordinates.
    shape:
        Matrix shape ``(n_rows, n_cols)``.
    """

    def __init__(self, rows, cols, values, shape):
        rows = check_1d(np.asarray(rows, dtype=INDEX_DTYPE), "rows")
        cols = check_1d(np.asarray(cols, dtype=INDEX_DTYPE), "cols")
        values = check_1d(np.asarray(values), "values")
        require(
            len(rows) == len(cols) == len(values),
            "rows, cols and values must have equal length",
        )
        n_rows, n_cols = int(shape[0]), int(shape[1])
        require(n_rows > 0 and n_cols > 0, "shape must be positive")
        if len(rows):
            require(rows.min() >= 0 and rows.max() < n_rows,
                    "row index out of range")
            require(cols.min() >= 0 and cols.max() < n_cols,
                    "col index out of range")
        self.shape = (n_rows, n_cols)

        # Canonicalize: sort by (row, col) and merge duplicates, summing
        # each run of equal keys in input order from 0. One stable sort
        # of int64 keys keeps few nnz-long arrays alive at once.
        if len(rows):
            keys = rows.astype(np.int64) * n_cols + cols
            del rows, cols
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            values = values[order]
            del order
            fresh = np.empty(len(keys), dtype=bool)
            fresh[0] = True
            np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
            if fresh.all():
                # 0 + v, as the merge below: -0 becomes +0.
                merged = values + 0
            else:
                merged = np.zeros(int(fresh.sum()), dtype=values.dtype)
                np.add.at(merged, np.cumsum(fresh) - 1, values)
                keys = keys[fresh]
            self.rows = (keys // n_cols).astype(INDEX_DTYPE)
            self.cols = (keys % n_cols).astype(INDEX_DTYPE)
            self.values = merged
        else:
            self.rows, self.cols, self.values = rows, cols, values

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def dtype(self):
        return self.values.dtype

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.rows, self.cols] = self.values
        return dense

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        require(x.shape == (self.n_cols,), "x has wrong length")
        y = np.zeros(self.n_rows, dtype=np.result_type(self.values, x))
        np.add.at(y, self.rows, self.values * x[self.cols])
        return y

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (new canonical COO)."""
        return COOMatrix(
            self.cols, self.rows, self.values,
            (self.n_cols, self.n_rows),
        )

    def memory_report(self) -> MemoryReport:
        return MemoryReport(
            format_name="COO",
            arrays={
                "rows": self.rows.nbytes,
                "cols": self.cols.nbytes,
                "values": self.values.nbytes,
            },
            nnz=self.nnz,
            stored_values=len(self.values),
            value_itemsize=self.values.itemsize,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build from a dense array, dropping exact zeros."""
        dense = np.asarray(dense)
        require(dense.ndim == 2, "dense must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls(rows, cols, dense[rows, cols], dense.shape)
