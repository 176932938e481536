"""Gauss–Seidel and symmetric Gauss–Seidel (SYMGS) smoothers.

SYMGS is HPCG's smoother: one in-place forward GS sweep followed by one
backward sweep over the full matrix. The CSR version is the reference;
the DBSR version runs the block kernel of :mod:`repro.serve.batch`,
which processes block-rows with the contiguous vector operations of
Algorithm 2, using the main-diagonal tile trick: the row-sum
accumulated over *all* tiles includes the diagonal contribution, which
is added back before dividing.
"""

from __future__ import annotations

import numpy as np

from repro.backends import resolve_backend
from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix
from repro.utils.validation import require


def gs_forward_csr(matrix: CSRMatrix, diag: np.ndarray, x: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """One in-place forward Gauss–Seidel sweep; returns updated ``x``."""
    n = matrix.n_rows
    require(x.shape == (n,) and b.shape == (n,), "vector length mismatch")
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        rowsum = data[lo:hi] @ x[indices[lo:hi]]
        x[i] += (b[i] - rowsum) / diag[i]
    return x


def gs_backward_csr(matrix: CSRMatrix, diag: np.ndarray, x: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """One in-place backward Gauss–Seidel sweep."""
    n = matrix.n_rows
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    for i in range(n - 1, -1, -1):
        lo, hi = indptr[i], indptr[i + 1]
        rowsum = data[lo:hi] @ x[indices[lo:hi]]
        x[i] += (b[i] - rowsum) / diag[i]
    return x


def symgs_csr(matrix: CSRMatrix, diag: np.ndarray, x: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    """HPCG's SYMGS: forward then backward GS sweep, in place."""
    gs_forward_csr(matrix, diag, x, b)
    gs_backward_csr(matrix, diag, x, b)
    return x


# DBSR ---------------------------------------------------------------------

def symgs_dbsr(matrix: DBSRMatrix, diag: np.ndarray, x: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """SYMGS over a full (non-triangular) DBSR matrix, in place on ``x``.

    Produces the same iterates as :func:`symgs_csr` on the identically
    ordered matrix, because same-color blocks never couple: within a
    block-row the only self-reference is the main diagonal. A ``k = 1``
    call of the default backend's block kernel
    (:func:`repro.serve.batch.symgs_dbsr_multi` on ``numpy-fast``).
    """
    n = matrix.n_rows
    require(x.shape == (n,) and b.shape == (n,), "vector length mismatch")
    resolve_backend().symgs_dbsr_multi(matrix, diag, x[:, None],
                                       b[:, None])
    return x
