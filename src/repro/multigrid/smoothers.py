"""Pluggable SYMGS smoothers for the multigrid hierarchy.

Each smoother is a callable ``smooth(x, b) -> x`` updating ``x`` in
place in the level's *lexicographic* ordering; reordered smoothers
(BMC, vectorized BMC + DBSR) permute internally, which is the paper's
step (2)-(3) split: the storage structure is built once and reused
every application.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix
from repro.formats.sell import SELLMatrix
from repro.grids.grid import StructuredGrid
from repro.grids.stencils import Stencil
from repro.kernels.counts import (
    symgs_csr_counts,
    symgs_dbsr_counts,
    symgs_sell_counts,
)
from repro.kernels.symgs import symgs_csr, symgs_dbsr
from repro.kernels.symgs_sell import symgs_sell
from repro.ordering.blocks import auto_block_dims
from repro.ordering.bmc import build_bmc
from repro.ordering.vbmc import build_vbmc
from repro.simd.counters import OpCounter


class CSRSymgsSmoother:
    """Reference SYMGS on the natural (or BMC-permuted) CSR matrix.

    Parameters
    ----------
    matrix:
        The level operator.
    bmc:
        Optional :class:`~repro.ordering.bmc.BMCOrdering`; when given,
        smoothing runs in BMC order (the CPO variant).
    """

    def __init__(self, matrix: CSRMatrix, bmc=None):
        self.bmc = bmc
        if bmc is None:
            self.matrix = matrix
            self.n_colors = 1
            self.parallelism = 1.0
        else:
            self.matrix = matrix.permute(bmc.perm.old_to_new)
            self.n_colors = bmc.n_colors
            counts = np.diff(bmc.color_block_ptr)
            self.parallelism = float(counts.min())
        self.diag = self.matrix.diagonal()

    def __call__(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.bmc is None:
            return symgs_csr(self.matrix, self.diag, x, b)
        perm = self.bmc.perm
        xp = perm.forward(x)
        symgs_csr(self.matrix, self.diag, xp, perm.forward(b))
        x[:] = perm.backward(xp)
        return x

    def op_counts(self) -> OpCounter:
        """Counts for one SYMGS application."""
        return symgs_csr_counts(self.matrix)

    def barriers(self) -> int:
        return 0 if self.bmc is None else 2 * self.n_colors


class DBSRSymgsSmoother:
    """The paper's smoother: vectorized BMC + DBSR SYMGS.

    Each application is one :func:`~repro.kernels.symgs.symgs_dbsr`
    call — the default backend's SYMGS block kernel at ``k = 1``.

    Parameters
    ----------
    grid, stencil:
        Level geometry (drives the reordering).
    matrix:
        Level operator in lexicographic CSR.
    bsize:
        Vector length.
    block_dims:
        Block extents; AUTO-sized from ``n_workers`` when omitted.
    n_workers:
        Worker count for AUTO block sizing.
    session:
        Optional :class:`~repro.runtime.session.SolverSession`; every
        application is then timed under its ``"symgs"`` phase and its
        op counts are tallied into the session ledger.
    """

    def __init__(self, grid: StructuredGrid, stencil: Stencil,
                 matrix: CSRMatrix, bsize: int = 8,
                 block_dims=None, n_workers: int = 1, session=None):
        if block_dims is None:
            block_dims = auto_block_dims(grid, n_workers, bsize=bsize)
        self.vbmc = build_vbmc(grid, stencil, block_dims, bsize)
        reordered = self.vbmc.apply_matrix(matrix)
        self.dbsr = DBSRMatrix.from_csr(reordered, bsize)
        self.diag = reordered.diagonal()
        self.bsize = bsize
        self.n_colors = self.vbmc.n_colors
        groups = np.diff(self.vbmc.schedule.color_group_ptr)
        self.parallelism = float(groups.min()) if len(groups) else 1.0
        self.session = session

    def __call__(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.session is None:
            return self._smooth(x, b)
        with self.session.phase("symgs"):
            out = self._smooth(x, b)
            self.session.tally(self.op_counts())
        return out

    def _smooth(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        xp = self.vbmc.extend(x)
        bp = self.vbmc.extend(b)
        symgs_dbsr(self.dbsr, self.diag, xp, bp)
        x[:] = self.vbmc.restrict(xp)
        return x

    def op_counts(self) -> OpCounter:
        return symgs_dbsr_counts(self.dbsr)

    def barriers(self) -> int:
        return 2 * self.n_colors


class SELLSymgsSmoother:
    """SELL-format SYMGS (Park et al. / Fig. 8).

    Uses the same vectorized-BMC ordering as the DBSR smoother (chunk
    rows must be mutually independent) but stores the matrix in SELL,
    so the sweeps execute the genuine gather-based chunk kernel of
    :func:`~repro.kernels.symgs_sell.symgs_sell`.
    """

    def __init__(self, grid: StructuredGrid, stencil: Stencil,
                 matrix: CSRMatrix, chunk: int = 8, n_workers: int = 1):
        block_dims = auto_block_dims(grid, n_workers, bsize=chunk)
        self.vbmc = build_vbmc(grid, stencil, block_dims, chunk)
        reordered = self.vbmc.apply_matrix(matrix)
        self.sell = SELLMatrix(reordered, chunk=chunk, sigma=1)
        self.diag = reordered.diagonal()
        self.n_colors = self.vbmc.n_colors
        groups = np.diff(self.vbmc.schedule.color_group_ptr)
        self.parallelism = float(groups.min()) if len(groups) else 1.0

    def __call__(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        xp = self.vbmc.extend(x)
        symgs_sell(self.sell, self.diag, xp, self.vbmc.extend(b))
        x[:] = self.vbmc.restrict(xp)
        return x

    def op_counts(self) -> OpCounter:
        return symgs_sell_counts(self.sell)

    def barriers(self) -> int:
        return 2 * self.n_colors


def make_smoother(kind: str, grid: StructuredGrid, stencil: Stencil,
                  matrix: CSRMatrix, bsize: int = 8,
                  n_workers: int = 1, session=None):
    """Build a smoother by variant name.

    ``kind`` is one of ``"csr"`` (reference), ``"bmc"`` (CPO),
    ``"sell"``, ``"dbsr"``. ``session`` is forwarded to the DBSR
    smoother for phase timing / op accounting.
    """
    kind = kind.lower()
    if kind == "csr":
        return CSRSymgsSmoother(matrix)
    if kind == "bmc":
        bmc = build_bmc(grid, stencil,
                        auto_block_dims(grid, n_workers))
        return CSRSymgsSmoother(matrix, bmc=bmc)
    if kind == "sell":
        return SELLSymgsSmoother(grid, stencil, matrix, chunk=bsize,
                                 n_workers=n_workers)
    if kind == "dbsr":
        return DBSRSymgsSmoother(grid, stencil, matrix, bsize=bsize,
                                 n_workers=n_workers, session=session)
    raise ValueError(f"unknown smoother kind {kind!r}")
