"""Sparse matrix-vector multiplication dispatch.

All formats implement ``matvec``; this module adds a uniform entry
point plus engine-instrumented SpMV twins for CSR and SELL whose
operation counts feed the performance model (HPCG's SpMV kernel). The
instrumented DBSR SpMV is
:func:`repro.serve.batch.spmv_dbsr_multi_counted`.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import SparseMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.sell import SELLMatrix
from repro.simd.engine import VectorEngine


def spmv(matrix: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Compute ``A @ x`` for any supported format."""
    return matrix.matvec(x)


def spmv_csr_counted(csr: CSRMatrix, x: np.ndarray,
                     engine: VectorEngine) -> np.ndarray:
    """Scalar CSR SpMV with per-operation accounting.

    The inner loop is the textbook gather-style traversal: for every
    non-zero one value load, one column-index load, one indirect ``x``
    load and one FMA.
    """
    y = np.zeros(csr.n_rows, dtype=np.result_type(csr.data, x))
    for i in range(csr.n_rows):
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        k = hi - lo
        engine.scalar_load(k, csr.data.itemsize, stream="values")
        engine.scalar_load(k, csr.indices.itemsize, stream="index")
        engine.scalar_load(k, x.itemsize, stream="gathered")
        engine.scalar_flop(2 * k)
        # gather-ok: charged above via scalar_load(stream="gathered")
        y[i] = csr.data[lo:hi] @ x[csr.indices[lo:hi]]
        engine.scalar_store(1, y.itemsize)
    return y


def spmv_sell_counted(sell: SELLMatrix, x: np.ndarray,
                      engine: VectorEngine) -> np.ndarray:
    """SELL SpMV through the vector engine (gathers for ``x``)."""
    n = sell.n_rows
    y = np.zeros(n, dtype=np.result_type(sell.vals, x))
    chunk = sell.chunk
    for ci in range(sell.n_chunks):
        base = int(sell.chunk_ptr[ci])
        w = int(sell.widths[ci])
        lo = ci * chunk
        hi = min(lo + chunk, n)
        lanes = hi - lo
        acc = np.zeros(lanes, dtype=y.dtype)
        for j in range(w):
            pos = base + j * chunk
            vals = engine.load_values(sell.vals, pos)[:lanes]
            cols = sell.colidx[pos:pos + lanes]
            engine.counter.bytes_index += cols.nbytes
            xv = engine.gather(x, cols)
            acc = engine.fma(acc, vals, xv)
        engine.counter.vstore += 1
        engine.counter.bytes_vector += acc.nbytes
        y[sell.row_order[lo:hi]] = acc
    return y
