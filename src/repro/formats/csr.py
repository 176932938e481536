"""Compressed Sparse Row (CSR) format.

CSR is the workhorse baseline of the paper (Algorithm 1 SpTRSV, the CPO
HPCG variant, and the Fig. 11 storage comparison all use it).
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE, MemoryReport, SparseMatrix
from repro.utils.validation import check_1d, require


class CSRMatrix(SparseMatrix):
    """Sparse matrix in compressed sparse row layout.

    Parameters
    ----------
    indptr:
        Row pointer array of length ``n_rows + 1``.
    indices:
        Column indices, sorted within each row.
    data:
        Values aligned with ``indices``.
    shape:
        Matrix shape ``(n_rows, n_cols)``.
    """

    def __init__(self, indptr, indices, data, shape):
        indptr = check_1d(np.asarray(indptr, dtype=INDEX_DTYPE), "indptr")
        indices = check_1d(np.asarray(indices, dtype=INDEX_DTYPE), "indices")
        data = check_1d(np.asarray(data), "data")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        require(len(indptr) == n_rows + 1, "indptr must have n_rows+1 entries")
        require(indptr[0] == 0 and indptr[-1] == len(indices),
                "indptr endpoints inconsistent with indices")
        require(np.all(np.diff(indptr) >= 0), "indptr must be nondecreasing")
        require(len(indices) == len(data), "indices/data length mismatch")
        if len(indices):
            require(indices.min() >= 0 and indices.max() < n_cols,
                    "column index out of range")
        self.shape = (n_rows, n_cols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._sort_rows()

    def _sort_rows(self) -> None:
        """Sort column indices within each row (stable, vectorized).

        Rows already in non-decreasing order skip the sort; either way
        ``indices`` and ``data`` end up as fresh arrays, never aliasing
        the caller's buffers.
        """
        descent = self.indices[1:] < self.indices[:-1]
        starts = self.indptr[1:-1]
        # A descent from one row's last entry into the next row's
        # first entry is no disorder.
        descent[starts[(starts > 0) & (starts < len(self.indices))]
                - 1] = False
        if not descent.any():
            self.indices = self.indices.copy()
            self.data = self.data.copy()
            return
        n = self.n_rows
        row_of = np.repeat(np.arange(n, dtype=np.int64),
                           np.diff(self.indptr))
        order = np.lexsort((self.indices, row_of))
        self.indices = self.indices[order]
        self.data = self.data[order]

    # Construction helpers --------------------------------------------
    @classmethod
    def from_coo(cls, coo) -> "CSRMatrix":
        """Build from a canonical :class:`COOMatrix`."""
        counts = np.bincount(coo.rows, minlength=coo.n_rows)
        indptr = np.zeros(coo.n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, coo.cols.copy(), coo.values.copy(), coo.shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        from repro.formats.coo import COOMatrix

        return cls.from_coo(COOMatrix.from_dense(dense))

    def to_coo(self):
        from repro.formats.coo import COOMatrix

        rows = np.repeat(
            np.arange(self.n_rows, dtype=INDEX_DTYPE),
            np.diff(self.indptr),
        )
        return COOMatrix(rows, self.indices, self.data, self.shape)

    # Interface --------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def dtype(self):
        return self.data.dtype

    def astype(self, dtype) -> "CSRMatrix":
        """Return a copy with values cast to ``dtype``."""
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(),
            self.data.astype(dtype), self.shape,
        )

    def row(self, i: int) -> tuple:
        """Return ``(cols, vals)`` views of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        require(x.shape == (self.n_cols,), "x has wrong length")
        prod = self.data * x[self.indices]
        y = np.zeros(self.n_rows, dtype=prod.dtype)
        # reduceat mishandles empty rows; mask them explicitly.
        nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
        if len(nonempty):
            sums = np.add.reduceat(prod, self.indptr[nonempty])
            y[nonempty] = sums
        return y

    def diagonal(self) -> np.ndarray:
        """Return the main diagonal as a dense vector (zeros if absent)."""
        n = min(self.shape)
        diag = np.zeros(n, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        mask = rows == self.indices
        diag_rows = rows[mask]
        diag[diag_rows[diag_rows < n]] = self.data[mask][diag_rows < n]
        return diag

    def tril(self, strict: bool = False) -> "CSRMatrix":
        """Return the (strictly) lower-triangular part as CSR."""
        return self._tri(lower=True, strict=strict)

    def triu(self, strict: bool = False) -> "CSRMatrix":
        """Return the (strictly) upper-triangular part as CSR."""
        return self._tri(lower=False, strict=strict)

    def _tri(self, lower: bool, strict: bool) -> "CSRMatrix":
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        if lower:
            mask = self.indices < rows if strict else self.indices <= rows
        else:
            mask = self.indices > rows if strict else self.indices >= rows
        counts = np.bincount(rows[mask], minlength=self.n_rows)
        indptr = np.zeros(self.n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(indptr, self.indices[mask], self.data[mask],
                         self.shape)

    def permute(self, perm: np.ndarray) -> "CSRMatrix":
        """Return ``P A P^T`` where ``perm`` maps old index -> new index.

        Row *and* column indices are relabeled so that grid reorderings
        (MC/BMC/vectorized BMC) can be applied symmetrically, as the
        paper does in §III-A.
        """
        perm = np.asarray(perm)
        require(perm.shape == (self.n_rows,), "perm has wrong length")
        require(self.n_rows == self.n_cols,
                "symmetric permutation needs a square matrix")
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        new_rows = perm[rows]
        new_cols = perm[self.indices]
        from repro.formats.coo import COOMatrix

        return CSRMatrix.from_coo(
            COOMatrix(new_rows, new_cols, self.data, self.shape)
        )

    def memory_report(self) -> MemoryReport:
        return MemoryReport(
            format_name="CSR",
            arrays={
                "row_ptr": self.indptr.nbytes,
                "col_ind": self.indices.nbytes,
                "values": self.data.nbytes,
            },
            nnz=self.nnz,
            stored_values=len(self.data),
            value_itemsize=self.data.itemsize,
        )
