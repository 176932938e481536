"""Closed-form operation counts for every kernel/format pairing.

The counts are exact functions of the storage structure (tile/row/chunk
counts), matching what the instrumented engine twins tally — tests
assert equality. The performance model consumes these to regenerate the
paper's figures at full problem scale without executing the slow
instrumented kernels.

The DBSR forms read a structure through its :class:`DBSRShape`, so
:func:`dbsr_geometry_counts` prices a structure that was never built
with the same formulas (the gateway's admission estimate and the
autotuner's roofline ranking).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix
from repro.formats.sell import SELLMatrix
from repro.grids.assembly import stencil_nnz
from repro.grids.grid import StructuredGrid
from repro.grids.stencils import Stencil
from repro.ordering.coloring import n_colors
from repro.simd.counters import OpCounter
from repro.utils.validation import check_positive


class DBSRShape(NamedTuple):
    """What the DBSR closed forms read of one structure.

    The byte widths default to what :class:`DBSRMatrix` and the ILU
    factors store (pinned by ``tests/kernels/test_geometry_counts.py``).
    """

    n_tiles: int
    brow: int
    bsize: int
    value_bytes: int = 8
    tile_index_bytes: int = 8  # int32 blk_ind + int32 blk_offset
    ptr_bytes: int = 4         # int32 blk_ptr
    dia_ptr_bytes: int = 8     # int64 dia_ptr


def dbsr_shape(m) -> DBSRShape:
    """The exact :class:`DBSRShape` of a :class:`DBSRMatrix` or of
    :class:`~repro.ilu.ilu0_dbsr.DBSRILUFactors` (their skeleton plus
    ``dia_ptr``); a shape passes through unchanged."""
    if isinstance(m, DBSRShape):
        return m
    if not isinstance(m, DBSRMatrix):
        return dbsr_shape(m.matrix)._replace(
            dia_ptr_bytes=m.dia_ptr.itemsize)
    return DBSRShape(m.n_tiles, m.brow, m.bsize, m.values.itemsize,
                     m.blk_ind.itemsize + m.blk_offset.itemsize,
                     m.blk_ptr.itemsize)


def spmv_csr_counts(csr: CSRMatrix) -> OpCounter:
    """Scalar CSR SpMV: per non-zero one value + index + x load, 2 flops."""
    c = OpCounter(bsize=1)
    nnz, n = csr.nnz, csr.n_rows
    c.sload = 3 * nnz + (n + 1)
    c.sstore = n
    c.sflop = 2 * nnz
    c.bytes_values = nnz * csr.data.itemsize
    c.bytes_index = nnz * csr.indices.itemsize + (n + 1) * csr.indptr.itemsize
    c.bytes_gathered = nnz * csr.data.itemsize  # indirect x accesses
    c.bytes_vector = n * csr.data.itemsize
    return c


def spmv_dbsr_counts(dbsr: DBSRMatrix, k: int = 1) -> OpCounter:
    """DBSR SpMV over an ``(n, k)`` block.

    Per tile one contiguous value load serves all ``k`` columns
    (value-stream bytes independent of ``k``), plus ``k`` x-loads and
    FMAs; ``k`` stores per block-row.
    """
    s = dbsr_shape(dbsr)
    c = OpCounter(bsize=s.bsize)
    t, brow, bs, item = s.n_tiles, s.brow, s.bsize, s.value_bytes
    c.vload = t * (1 + k)
    c.vfma = t * k
    c.vstore = k * brow
    c.sload = 2 * t + (brow + 1)
    c.bytes_values = t * bs * item
    c.bytes_index = t * s.tile_index_bytes + (brow + 1) * s.ptr_bytes
    c.bytes_vector = k * (t + brow) * bs * item
    return c


def spmv_sell_counts(sell: SELLMatrix) -> OpCounter:
    """SELL SpMV: per chunk column one value load + one *gather* + FMA."""
    c = OpCounter(bsize=sell.chunk)
    item = sell.vals.itemsize
    total_cols = int(sell.widths.sum())
    c.vload = total_cols
    c.vgather = total_cols
    c.vfma = total_cols
    c.vstore = sell.n_chunks
    c.bytes_values = total_cols * sell.chunk * item
    c.bytes_index = (total_cols * sell.chunk * sell.colidx.itemsize
                     + sell.chunk_ptr.nbytes + sell.widths.nbytes)
    c.bytes_gathered = total_cols * sell.chunk * item  # gathered x
    c.bytes_vector = sell.n_chunks * sell.chunk * item
    return c


def sptrsv_dbsr_counts(dbsr: DBSRMatrix, divide: bool = False,
                       k: int = 1) -> OpCounter:
    """Algorithm 2 over an ``(n, k)`` RHS block.

    Matches :func:`repro.serve.batch.sptrsv_dbsr_lower_multi_counted`:
    per tile **one** value load (value-stream bytes are independent of
    ``k``) plus ``k`` x-loads/FMAs; per block-row ``k`` b-loads and
    stores and — when dividing — one diag load and ``k`` divides.
    """
    s = dbsr_shape(dbsr)
    c = OpCounter(bsize=s.bsize)
    t, brow, bs, item = s.n_tiles, s.brow, s.bsize, s.value_bytes
    c.vload = t * (1 + k) + k * brow + (brow if divide else 0)
    c.vfma = t * k
    c.vstore = k * brow
    c.vdiv = k * brow if divide else 0
    c.sload = 2 * t
    c.bytes_values = t * bs * item
    c.bytes_index = t * s.tile_index_bytes + (brow + 1) * s.ptr_bytes
    c.bytes_vector = ((k * t + 2 * k * brow + (brow if divide else 0))
                      * bs * item)
    return c


def ilu_apply_dbsr_counts(factors, k: int = 1) -> OpCounter:
    """Block ILU(0) application over an ``(n, k)`` block.

    Matches :func:`repro.serve.batch.ilu_apply_dbsr_multi_counted`: two
    Algorithm-2 sweeps over the factored skeleton — the forward sweep
    covers the ``t_l`` strictly-lower tiles, the backward sweep the
    ``t_u`` strictly-upper tiles plus one diagonal value load and ``k``
    lane divisions per block-row. One value load per tile serves all
    ``k`` columns, so value-stream bytes are independent of ``k``.
    """
    s = dbsr_shape(factors)
    c = OpCounter(bsize=s.bsize)
    brow, bs, item = s.brow, s.bsize, s.value_bytes
    t = s.n_tiles - brow  # strict lower + strict upper tiles
    c.vload = t * (1 + k) + 2 * k * brow + brow
    c.vfma = t * k
    c.vdiv = k * brow
    c.vstore = 2 * k * brow
    c.sload = 2 * t
    c.bytes_values = (t + brow) * bs * item
    c.bytes_index = (t * s.tile_index_bytes + 2 * s.ptr_bytes
                     + 2 * brow * (s.ptr_bytes + s.dia_ptr_bytes))
    c.bytes_vector = k * (t + 4 * brow) * bs * item
    return c


def sptrsv_csr_counts(csr: CSRMatrix, divide: bool = True) -> OpCounter:
    """Algorithm 1: scalar row loop with indirect x accesses."""
    c = OpCounter(bsize=1)
    nnz, n = csr.nnz, csr.n_rows
    item = csr.data.itemsize
    c.sload = 3 * nnz + (n + 1) + n  # values, cols, x; ptr; b
    c.sstore = n
    c.sflop = 2 * nnz + n
    c.sdiv = n if divide else 0
    c.bytes_values = nnz * item
    c.bytes_index = nnz * csr.indices.itemsize + (n + 1) * csr.indptr.itemsize
    c.bytes_gathered = nnz * item  # indirect x accesses
    c.bytes_vector = (2 * n + (n if divide else 0)) * item
    return c


def sptrsv_sell_counts(sell: SELLMatrix, divide: bool = True) -> OpCounter:
    """SELL-format triangular sweep (gathers on x), per Park et al."""
    c = spmv_sell_counts(sell)
    n_chunks = sell.n_chunks
    c.vload += n_chunks + (n_chunks if divide else 0)  # b and diag
    c.vdiv = n_chunks if divide else 0
    c.bytes_vector += (1 + (1 if divide else 0)) * n_chunks \
        * sell.chunk * sell.vals.itemsize
    return c


def symgs_dbsr_counts(dbsr: DBSRMatrix, k: int = 1) -> OpCounter:
    """SYMGS over an ``(n, k)`` block: a forward and a backward sweep
    over all tiles plus the ``x += correction`` update per column."""
    s = dbsr_shape(dbsr)
    two = sptrsv_dbsr_counts(s, divide=True, k=k).scaled(2.0)
    two.vadd += 2 * k * s.brow
    return two


def symgs_csr_counts(csr: CSRMatrix) -> OpCounter:
    """Reference CSR SYMGS (the CPO baseline's kernel)."""
    sweep = sptrsv_csr_counts(csr, divide=True)
    two = sweep.scaled(2.0)
    two.sflop += 2 * csr.n_rows
    return two


def symgs_sell_counts(sell: SELLMatrix) -> OpCounter:
    """SELL SYMGS: two gather-heavy sweeps."""
    return sptrsv_sell_counts(sell, divide=True).scaled(2.0)


def dot_counts(n: int, itemsize: int = 8) -> OpCounter:
    """Dense dot product of length ``n`` (HPCG's DDOT)."""
    c = OpCounter(bsize=1)
    c.sload = 2 * n
    c.sflop = 2 * n
    c.bytes_vector = 2 * n * itemsize
    return c


def waxpby_counts(n: int, itemsize: int = 8) -> OpCounter:
    """HPCG's WAXPBY: ``w = a x + b y``."""
    c = OpCounter(bsize=1)
    c.sload = 2 * n
    c.sstore = n
    c.sflop = 3 * n
    c.bytes_vector = 3 * n * itemsize
    return c


# One op, one closed form --------------------------------------------------

#: Served ops :func:`dbsr_op_counts` prices.
DBSR_OPS = ("lower", "upper", "spmv", "symgs", "ilu_apply")


def dbsr_op_counts(op: str, structure, k: int = 1) -> OpCounter:
    """The closed form of one served ``op`` over ``k`` columns.

    ``structure`` is what the op sweeps — the strict triangle for
    ``lower``/``upper``, the full operator for ``spmv``/``symgs``, the
    ILU factors for ``ilu_apply`` — or a :class:`DBSRShape` of it.
    """
    if op in ("lower", "upper"):
        return sptrsv_dbsr_counts(structure, divide=True, k=k)
    if op == "spmv":
        return spmv_dbsr_counts(structure, k)
    if op == "symgs":
        return symgs_dbsr_counts(structure, k)
    if op == "ilu_apply":
        return ilu_apply_dbsr_counts(structure, k)
    raise ValueError(f"unknown op {op!r}; known: {DBSR_OPS}")


def dbsr_geometry_shape(grid: StructuredGrid, stencil: Stencil, op: str,
                        bsize: int, dtype_bytes: int = 8) -> DBSRShape:
    """Estimate the :class:`DBSRShape` ``op`` sweeps from geometry alone.

    Nothing is assembled: the clipped-stencil nonzero count is the
    closed form :func:`~repro.grids.assembly.stencil_nnz`, of which
    ``lower``/``upper`` sweep one strict triangle and the other ops the
    full operator, at ``bsize`` nonzeros per tile. Rows are grouped
    into vector groups of ``bsize`` *within each color*, so every
    color's row count rounds up to a ``bsize`` multiple, and the padded
    rows drag their share of tiles along. Without this term the modeled
    time is monotone in ``bsize``.

    The estimate under-counts a compiled plan, never over-counts it:
    VBMC pads whole virtual blocks per color, and boundary tiles are
    only partly filled (the measured band is pinned by
    ``tests/kernels/test_geometry_counts.py``).
    """
    check_positive(bsize, "bsize")
    n = int(grid.n_points)
    colors = n_colors(grid, stencil)
    nnz = stencil_nnz(grid, stencil)
    nnz_op = max(1, (nnz - n) // 2) if op in ("lower", "upper") else nnz
    rows_per_color = n / colors
    padded_rows = colors * max(
        0.0, math.ceil(rows_per_color / bsize) * bsize - rows_per_color)
    pad_nnz = padded_rows * (nnz_op / n)
    t = max(1, math.ceil((nnz_op + pad_nnz) / bsize))
    brow = max(1, math.ceil((n + padded_rows) / bsize))
    return DBSRShape(t, brow, int(bsize), value_bytes=int(dtype_bytes))


def dbsr_geometry_counts(grid: StructuredGrid, stencil: Stencil, op: str,
                         bsize: int, k: int = 1,
                         dtype_bytes: int = 8) -> OpCounter:
    """:func:`dbsr_op_counts` of the :func:`dbsr_geometry_shape`
    estimate: one ``(op, k)`` call priced before anything is built."""
    return dbsr_op_counts(
        op, dbsr_geometry_shape(grid, stencil, op, bsize, dtype_bytes), k)
