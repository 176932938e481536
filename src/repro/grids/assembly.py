"""Stencil-to-sparse-matrix assembly.

Builds the adjacency/operator matrix of a stencil on a structured grid
with Dirichlet boundary truncation (neighbors outside the grid are
dropped, exactly as HPCG's ``GenerateProblem`` does).
"""

from __future__ import annotations

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.grids.grid import StructuredGrid
from repro.grids.stencils import Stencil


def assemble_csr(grid: StructuredGrid, stencil: Stencil,
                 dtype=np.float64) -> CSRMatrix:
    """Assemble the stencil operator on ``grid`` as a CSR matrix.

    Parameters
    ----------
    grid:
        Target grid; its ``ndim`` must match the stencil's.
    stencil:
        Offsets and weights of the operator.
    dtype:
        Value dtype (float64 default; float32 reproduces the paper's
        single-precision runs).

    Returns
    -------
    CSRMatrix
        ``n_points x n_points`` operator. Rows for boundary points have
        fewer off-diagonal entries (truncation), which is the source of
        the intra-tile offsets DBSR must handle (§III-B).
    """
    if grid.ndim != stencil.ndim:
        raise ValueError(
            f"grid is {grid.ndim}-D but stencil is {stencil.ndim}-D"
        )
    rows_parts, cols_parts, vals_parts = [], [], []
    for off, w in zip(stencil.offsets, stencil.weights):
        src, dst = grid.shift_ids(off)
        rows_parts.append(src)
        cols_parts.append(dst)
        vals_parts.append(np.full(len(src), w, dtype=dtype))
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    vals = np.concatenate(vals_parts)
    coo = COOMatrix(rows, cols, vals, (grid.n_points, grid.n_points))
    return CSRMatrix.from_coo(coo)


def stencil_nnz(grid: StructuredGrid, stencil: Stencil) -> int:
    """Exact nonzero count of :func:`assemble_csr`, without assembling.

    Each offset contributes one entry per grid point whose shifted
    neighbor stays in bounds: ``Π_d max(0, dim_d - |off_d|)`` points.
    """
    total = 0
    for off in stencil.offsets:
        per = 1
        for d, o in zip(grid.dims, off):
            per *= max(0, int(d) - abs(int(o)))
        total += per
    return total
