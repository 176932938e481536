"""Vectorized DBSR sparse triangular solves — the paper's Algorithm 2.

Block-rows are processed in order (forward for lower, backward for
upper); each block-row update is a short sequence of *contiguous*
width-``bsize`` vector operations:

    vec_temp  = load(b + i*bsize)                  # line 5
    for each tile t of block-row i:
        vec_vals = load(values + t*bsize)          # line 9
        vec_x    = load(x + anchor[t])             # line 10  (no gather!)
        vec_temp -= vec_vals * vec_x               # line 11
    store(x + i*bsize, vec_temp)                   # line 13

Correctness requires the vectorized-BMC property that no tile couples
lanes *within* its own block-row (same-color blocks are independent);
:func:`check_dbsr_triangular` verifies this. Vector loads may overrun
tile boundaries — the overrun lanes hold zero values, so the padded
``x`` buffer (:meth:`~repro.formats.dbsr.DBSRMatrix.pad_vector`)
absorbs them, the paper's "overstore is zero" rule (§III-C, Fig. 3).

The sweep itself is the block kernel of :mod:`repro.serve.batch`; the
single-vector solves here run it at ``k = 1`` through the default
backend tier (:func:`repro.backends.resolve_backend`).
"""

from __future__ import annotations

import numpy as np

from repro.backends import resolve_backend
from repro.formats.dbsr import DBSRMatrix
from repro.utils.validation import require


def check_dbsr_triangular(dbsr: DBSRMatrix, lower: bool) -> bool:
    """Check the matrix is strictly triangular with no intra-block-row
    coupling (the solvability precondition of Algorithm 2)."""
    b = dbsr.bsize
    anchors = dbsr.anchors
    for i in range(dbsr.brow):
        row_lo = i * b
        for t in range(dbsr.blk_ptr[i], dbsr.blk_ptr[i + 1]):
            lanes = np.flatnonzero(dbsr.values[t])
            if len(lanes) == 0:
                continue
            cols = anchors[t] + lanes
            rows = row_lo + lanes
            if lower:
                if not np.all(cols < rows):
                    return False
            else:
                if not np.all(cols > rows):
                    return False
            # No coupling into the own block-row.
            if np.any((cols >= row_lo) & (cols < row_lo + b)):
                return False
    return True


def sptrsv_dbsr_lower(lower: DBSRMatrix, b: np.ndarray,
                      diag: np.ndarray | None = None) -> np.ndarray:
    """Solve ``(L + D) x = b`` (or ``(L + I) x = b``) in DBSR format.

    A ``k = 1`` call of the default backend's block kernel
    (:func:`repro.serve.batch.sptrsv_dbsr_lower_multi` on ``numpy-fast``).

    Parameters
    ----------
    lower:
        Strictly lower triangular DBSR matrix.
    b:
        Right-hand side (padded ordering, length ``n``).
    diag:
        Diagonal ``D``; ``None`` solves with a unit diagonal (ILU's
        ``L`` factor).
    """
    require(b.shape == (lower.n_rows,), "b has wrong length")
    return resolve_backend().sptrsv_dbsr_multi(
        lower, b[:, None], diag, forward=True)[:, 0]


def sptrsv_dbsr_upper(upper: DBSRMatrix, b: np.ndarray,
                      diag: np.ndarray | None = None) -> np.ndarray:
    """Solve ``(D + U) x = b`` in DBSR format (backward sweep)."""
    require(b.shape == (upper.n_rows,), "b has wrong length")
    return resolve_backend().sptrsv_dbsr_multi(
        upper, b[:, None], diag, forward=False)[:, 0]
