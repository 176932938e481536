"""Closed-form operation counts for every kernel/format pairing.

The counts are exact functions of the storage structure (tile/row/chunk
counts), matching what the instrumented engine twins tally — tests
assert equality. The performance model consumes these to regenerate the
paper's figures at full problem scale without executing the slow
instrumented kernels.
"""

from __future__ import annotations

from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix
from repro.formats.sell import SELLMatrix
from repro.simd.counters import OpCounter


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
    c = OpCounter(bsize=dbsr.bsize)
    t, brow, bs = dbsr.n_tiles, dbsr.brow, dbsr.bsize
    item = dbsr.values.itemsize
    c.vload = t * (1 + k)
    c.vfma = t * k
    c.vstore = k * brow
    c.sload = 2 * t + (brow + 1)
    c.bytes_values = t * bs * item
    c.bytes_index = (t * (dbsr.blk_ind.itemsize + dbsr.blk_offset.itemsize)
                     + (brow + 1) * dbsr.blk_ptr.itemsize)
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
    c = OpCounter(bsize=dbsr.bsize)
    t, brow, bs = dbsr.n_tiles, dbsr.brow, dbsr.bsize
    item = dbsr.values.itemsize
    c.vload = t * (1 + k) + k * brow + (brow if divide else 0)
    c.vfma = t * k
    c.vstore = k * brow
    c.vdiv = k * brow if divide else 0
    c.sload = 2 * t
    c.bytes_values = t * bs * item
    c.bytes_index = (t * (dbsr.blk_ind.itemsize + dbsr.blk_offset.itemsize)
                     + (brow + 1) * dbsr.blk_ptr.itemsize)
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
    m = factors.matrix
    c = OpCounter(bsize=m.bsize)
    brow, bs = m.brow, m.bsize
    t = m.n_tiles - brow  # strict lower + strict upper tiles
    item = m.values.itemsize
    c.vload = t * (1 + k) + 2 * k * brow + brow
    c.vfma = t * k
    c.vdiv = k * brow
    c.vstore = 2 * k * brow
    c.sload = 2 * t
    c.bytes_values = (t + brow) * bs * item
    c.bytes_index = (
        t * (m.blk_ind.itemsize + m.blk_offset.itemsize)
        + 2 * m.blk_ptr.itemsize
        + 2 * brow * (m.blk_ptr.itemsize + factors.dia_ptr.itemsize))
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
    two = sptrsv_dbsr_counts(dbsr, divide=True, k=k).scaled(2.0)
    two.vadd += 2 * k * dbsr.brow
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
