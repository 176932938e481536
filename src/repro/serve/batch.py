"""The DBSR kernels: one fast and one counted body per operation.

Every numeric DBSR sweep in the repository — the paper's Algorithm 2
lower/upper solves, the SYMGS smoother and the block ILU(0) application
— runs here, over an ``(n, k)`` block of right-hand sides. Single-vector
callers (:func:`repro.kernels.sptrsv_dbsr.sptrsv_dbsr_lower`, the
multigrid smoother, the ILU strategies, autotune) run the same kernels
at ``k = 1`` through the :mod:`repro.backends` registry, and the
color-parallel sweeps of :mod:`repro.parallel` run
:func:`sweep_block_rows` over one color group at a time.

The SELL-C-σ line of work (Kreutzer et al.) and Bramas & Kus's
block-based AVX-512 SpMV both observe that wide-SIMD sparse formats pay
off most when the matrix *values* are loaded once and reused across
multiple right-hand sides. These kernels apply that to DBSR: each tile's
``bsize`` value vector is loaded once per sweep and FMA'd against all
``k`` columns, so value-stream traffic per solve drops as ``1/k`` while
the vector-stream traffic stays linear.

Layout note: the sweeps work on a zero-padded ``(n + 2*bsize, k)``
buffer, so every tile window ``Xp[a:a + bsize]`` is one contiguous
``(bsize, k)`` block and each tile's values broadcast across the ``k``
columns as ``values[t][:, None]`` — the gather-free property of
Algorithm 2 survives batching (the sweeps index only with slices; the
gather-lint runs over this module). ``blk_ptr``, ``dia_ptr`` and the
tile anchors are turned into Python ints once per call. SpMV has no
row-to-row dependence, so it instead builds every tile window at once
on an RHS-major ``(k, n + 2*bsize)`` buffer.

Batching reorders no floating-point operation within a column, so
column ``j`` of a ``k``-wide call is bit-identical to the ``k = 1``
call on column ``j``. SpMV accumulates each row's tiles as a
*sequential* chain in storage order — the canonical backend-tier
rounding sequence — so it matches
:meth:`~repro.formats.dbsr.DBSRMatrix.matvec` (pairwise ``reduceat``
summation) to roundoff rather than bitwise. The ``*_counted`` twins
execute the same operation order through a
:class:`~repro.simd.engine.VectorEngine`; their tallies equal the closed
forms of :mod:`repro.kernels.counts` exactly.
"""

from __future__ import annotations

import numpy as np

from repro.formats.dbsr import DBSRMatrix
from repro.simd.engine import VectorEngine
from repro.utils.validation import require


def _check_rhs_block(matrix: DBSRMatrix, B: np.ndarray) -> np.ndarray:
    B = np.asarray(B)
    require(B.ndim == 2, "RHS block must be (n, k)")
    require(B.shape[0] == matrix.n_rows, "RHS block has wrong length")
    require(B.shape[1] >= 1, "RHS block must have at least one column")
    return B


def sweep_block_rows(Xp: np.ndarray, vals: np.ndarray, anchors: list,
                     lo: list, hi: list, B: np.ndarray,
                     diag: np.ndarray | None, rows) -> None:
    """Solve block-rows ``rows``, in the order given, of one Algorithm-2
    sweep over tiles ``lo[i]:hi[i]``, into the padded buffer ``Xp``.

    ``vals`` is ``values[:, :, None]``, ``anchors`` the tile anchors
    shifted by ``bsize`` and ``diag`` an ``(n, 1)`` column or ``None``;
    ``anchors``, ``lo`` and ``hi`` are lists of Python ints. Every row a
    tile reads must already be solved in ``Xp``: the whole-matrix
    sweeps pass all rows in order, the color-parallel sweeps of
    :mod:`repro.parallel` one group's rows per call.
    """
    bs = vals.shape[1]
    for i in rows:
        r0 = i * bs
        acc = B[r0:r0 + bs].astype(Xp.dtype)           # (bs, k) copy
        for t in range(lo[i], hi[i]):
            a = anchors[t]
            # One vals[t] load serves all k RHS columns.
            acc -= vals[t] * Xp[a:a + bs]
        if diag is not None:
            acc /= diag[r0:r0 + bs]
        Xp[bs + r0:bs + r0 + bs] = acc


def _sweep(values: np.ndarray, anchors: list, lo: list, hi: list,
           B: np.ndarray, diag: np.ndarray | None,
           forward: bool) -> np.ndarray:
    """One whole-matrix sweep; returns the padded ``(n + 2*bsize, k)``
    solution."""
    n, k = B.shape
    bs = values.shape[1]
    Xp = np.zeros((n + 2 * bs, k), dtype=np.result_type(values, B))
    rows = range(len(lo)) if forward else range(len(lo) - 1, -1, -1)
    sweep_block_rows(Xp, values[:, :, None], anchors, lo, hi, B, diag,
                     rows)
    return Xp


def _sptrsv_multi(matrix: DBSRMatrix, B: np.ndarray,
                  diag: np.ndarray | None, forward: bool) -> np.ndarray:
    """Shared forward/backward multi-RHS Algorithm 2 sweep."""
    B = _check_rhs_block(matrix, B)
    n, bs = B.shape[0], matrix.bsize
    ptr = matrix.blk_ptr.tolist()
    d = None if diag is None else np.asarray(diag)[:, None]
    Xp = _sweep(matrix.values, (matrix.anchors + bs).tolist(),
                ptr[:-1], ptr[1:], B, d, forward)
    return Xp[bs:bs + n].copy()


def sptrsv_dbsr_lower_multi(lower: DBSRMatrix, B: np.ndarray,
                            diag: np.ndarray | None = None) -> np.ndarray:
    """Solve ``(L + D) X = B`` (or ``(L + I) X = B`` when ``diag`` is
    ``None``) for an ``(n, k)`` RHS block."""
    return _sptrsv_multi(lower, B, diag, forward=True)


def sptrsv_dbsr_upper_multi(upper: DBSRMatrix, B: np.ndarray,
                            diag: np.ndarray | None = None) -> np.ndarray:
    """Solve ``(D + U) X = B`` for an ``(n, k)`` RHS block."""
    return _sptrsv_multi(upper, B, diag, forward=False)


def spmv_dbsr_multi(matrix: DBSRMatrix, X: np.ndarray) -> np.ndarray:
    """``Y = A X`` over an ``(n, k)`` block, one tile pass total.

    Each output row is a *sequential* FMA chain over its tiles in
    storage order — the same rounding sequence as Alg. 4's accumulator
    register and the ``numpy-counted`` twin, so every backend tier is
    bit-identical (``np.add.reduceat``'s pairwise summation is not, by
    ~1 ULP on long rows). Per-RHS results therefore match
    :meth:`DBSRMatrix.matvec` to roundoff, not bitwise.
    """
    X = np.asarray(X)
    require(X.ndim == 2 and X.shape[0] == matrix.n_cols,
            "X block must be (n_cols, k)")
    n, k = X.shape
    bs = matrix.bsize
    dtype = np.result_type(matrix.values, X)
    Xp = np.zeros((k, matrix.n_cols + 2 * bs), dtype=X.dtype)
    Xp[:, bs:bs + matrix.n_cols] = X.T
    if matrix.n_tiles == 0:
        return np.zeros((matrix.n_rows, k), dtype=X.dtype)
    starts = matrix.anchors + bs
    window = starts[:, None] + np.arange(bs)
    # (k, n_tiles, bs): one values load broadcast across the k RHS.
    prod = matrix.values[None, :, :] * Xp[:, window]
    Y = np.zeros((k, matrix.brow, bs), dtype=dtype)
    ntiles = np.diff(matrix.blk_ptr)
    # Tile-position sweep: step ``t`` adds every row's ``t``-th tile at
    # once, so each row still accumulates its tiles strictly in order.
    for t in range(int(ntiles.max(initial=0))):
        rows = np.flatnonzero(ntiles > t)
        Y[:, rows] += prod[:, matrix.blk_ptr[rows] + t]
    return np.ascontiguousarray(Y.reshape(k, -1).T)


def symgs_dbsr_multi(matrix: DBSRMatrix, diag: np.ndarray,
                     X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """One SYMGS sweep (forward + backward GS) over ``(n, k)`` blocks.

    Updates ``X`` in place and returns it. Same-color blocks never
    couple, so within a block-row the only self-reference is the main
    diagonal: the row sum over *all* tiles includes ``d * x_i``, which
    the ``x += (b - rowsum) / d`` update adds back.
    """
    B = _check_rhs_block(matrix, B)
    require(X.shape == B.shape, "X/B block shape mismatch")
    n, k = B.shape
    bs = matrix.bsize
    dtype = np.result_type(matrix.values, X)
    Xp = np.zeros((n + 2 * bs, k), dtype=dtype)
    Xp[bs:bs + n] = X
    vals = matrix.values[:, :, None]
    d = np.asarray(diag)[:, None]
    ptr = matrix.blk_ptr.tolist()
    anchors = (matrix.anchors + bs).tolist()
    brow = matrix.brow
    for rows in (range(brow), range(brow - 1, -1, -1)):
        for i in rows:
            r0 = i * bs
            rowsum = np.zeros((bs, k), dtype=dtype)
            for t in range(ptr[i], ptr[i + 1]):
                a = anchors[t]
                rowsum += vals[t] * Xp[a:a + bs]
            Xp[bs + r0:bs + r0 + bs] += \
                (B[r0:r0 + bs] - rowsum) / d[r0:r0 + bs]
    X[:] = Xp[bs:bs + n]
    return X


def ilu_apply_dbsr_multi(factors, B: np.ndarray) -> np.ndarray:
    """Apply block ILU(0): solve ``L U Z = B`` over an ``(n, k)`` block.

    Two Algorithm-2 sweeps over the factored skeleton of a
    :class:`~repro.ilu.ilu0_dbsr.DBSRILUFactors` — a forward unit-lower
    solve over tiles before ``dia_ptr`` and a backward solve over the
    upper tiles divided by the diagonal tile — with each tile's value
    vector loaded once per sweep and reused across all ``k`` columns.
    """
    m = factors.matrix
    B = _check_rhs_block(m, B)
    n, bs = B.shape[0], m.bsize
    ptr = m.blk_ptr.tolist()
    dia = factors.dia_ptr.tolist()
    anchors = (m.anchors + bs).tolist()
    # Forward: (L + I) Y = B.
    Y = _sweep(m.values, anchors, ptr[:-1], dia, B, None, True)
    # Backward: (D + U) Z = Y.
    Z = _sweep(m.values, anchors, [p + 1 for p in dia], ptr[1:],
               Y[bs:bs + n], factors.diag_vector()[:, None], False)
    return Z[bs:bs + n].copy()


# Instrumented twins ------------------------------------------------------
#
# Same padded (n + 2*bsize, k) buffers as the fast kernels; the engine
# works on one column view ``Xp[:, j]`` at a time, so per tile there is
# exactly one ``load_values`` and ``k`` x-loads/FMAs.

def _sptrsv_multi_counted(matrix: DBSRMatrix, B: np.ndarray,
                          engine: VectorEngine,
                          diag: np.ndarray | None,
                          forward: bool) -> np.ndarray:
    """Multi-RHS Algorithm 2 through the instrumented vector engine.

    The op stream makes the amortization observable: per tile there is
    exactly **one** ``load_values`` (charged to ``bytes_values``) and
    ``k`` x-loads/FMAs, so the value-stream bytes of a sweep are
    independent of ``k`` while per-solve value bytes fall as ``1/k``.
    """
    B = _check_rhs_block(matrix, B)
    n, k = B.shape
    bs = matrix.bsize
    require(engine.bsize == bs, "engine width must equal bsize")
    dtype = np.result_type(matrix.values, B)
    Xp = np.zeros((n + 2 * bs, k), dtype=dtype)
    anchors = matrix.anchors + bs
    vals_flat = matrix.values.reshape(-1)
    dp = None if diag is None else np.asarray(diag)
    blk_ptr = matrix.blk_ptr
    engine.counter.bytes_index += blk_ptr.itemsize
    rng = range(matrix.brow) if forward \
        else range(matrix.brow - 1, -1, -1)
    for i in rng:
        engine.counter.bytes_index += blk_ptr.itemsize
        accs = [engine.load(B[:, j], i * bs).astype(dtype)
                for j in range(k)]
        for t in range(blk_ptr[i], blk_ptr[i + 1]):
            engine.counter.bytes_index += (
                matrix.blk_ind.itemsize + matrix.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            a = int(anchors[t])
            for j in range(k):
                vec_x = engine.load(Xp[:, j], a)
                accs[j] = engine.fnma(accs[j], vec_vals, vec_x)
        if dp is not None:
            vec_d = engine.load(dp, i * bs)
            accs = [engine.div(acc, vec_d) for acc in accs]
        for j in range(k):
            engine.store(Xp[:, j], bs + i * bs, accs[j])
    return Xp[bs:bs + n].copy()


def sptrsv_dbsr_lower_multi_counted(lower: DBSRMatrix, B: np.ndarray,
                                    engine: VectorEngine,
                                    diag: np.ndarray | None = None
                                    ) -> np.ndarray:
    """Instrumented multi-RHS forward solve (one value load per tile)."""
    return _sptrsv_multi_counted(lower, B, engine, diag, forward=True)


def sptrsv_dbsr_upper_multi_counted(upper: DBSRMatrix, B: np.ndarray,
                                    engine: VectorEngine,
                                    diag: np.ndarray | None = None
                                    ) -> np.ndarray:
    """Instrumented multi-RHS backward solve."""
    return _sptrsv_multi_counted(upper, B, engine, diag, forward=False)


def spmv_dbsr_multi_counted(matrix: DBSRMatrix, X: np.ndarray,
                            engine: VectorEngine) -> np.ndarray:
    """Instrumented multi-RHS DBSR SpMV twin of :func:`spmv_dbsr_multi`.

    Per tile one ``load_values`` serves all ``k`` columns; tallies match
    :func:`repro.kernels.counts.spmv_dbsr_counts` exactly. The
    accumulator starts from an explicit zero register (the FMA chain of
    Algorithm 4), so results equal the fast kernel's sequential chain
    under ``np.array_equal``.
    """
    X = np.asarray(X)
    require(X.ndim == 2 and X.shape[0] == matrix.n_cols,
            "X block must be (n_cols, k)")
    n, k = X.shape
    bs = matrix.bsize
    require(engine.bsize == bs, "engine width must equal bsize")
    dtype = np.result_type(matrix.values, X)
    Xp = np.zeros((matrix.n_cols + 2 * bs, k), dtype=X.dtype)
    Xp[bs:bs + matrix.n_cols] = X
    anchors = matrix.anchors + bs
    vals_flat = matrix.values.reshape(-1)
    blk_ptr = matrix.blk_ptr
    Y = np.zeros((matrix.brow * bs, k), dtype=dtype)
    engine.counter.bytes_index += blk_ptr.itemsize
    for i in range(matrix.brow):
        engine.counter.bytes_index += blk_ptr.itemsize
        accs = [np.zeros(bs, dtype=dtype) for _ in range(k)]
        for t in range(blk_ptr[i], blk_ptr[i + 1]):
            engine.counter.bytes_index += (
                matrix.blk_ind.itemsize + matrix.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            a = int(anchors[t])
            for j in range(k):
                vec_x = engine.load(Xp[:, j], a)
                accs[j] = engine.fma(accs[j], vec_vals, vec_x)
        for j in range(k):
            engine.store(Y[:, j], i * bs, accs[j])
    return Y[:matrix.n_rows].copy()


def ilu_apply_dbsr_multi_counted(factors, B: np.ndarray,
                                 engine: VectorEngine) -> np.ndarray:
    """Instrumented multi-RHS ILU(0) application twin.

    Mirrors :func:`ilu_apply_dbsr_multi` operation for operation — one
    ``load_values`` per tile serves all ``k`` columns in each sweep,
    and the backward sweep charges the diagonal tile's value load
    before the ``k`` lane divisions — so results are **bitwise** equal
    and tallies match
    :func:`repro.kernels.counts.ilu_apply_dbsr_counts` exactly.
    """
    m = factors.matrix
    B = _check_rhs_block(m, B)
    require(bool(np.all(factors.dia_ptr >= 0)),
            "every block-row needs a diagonal tile")
    n, k = B.shape
    bs = m.bsize
    require(engine.bsize == bs, "engine width must equal bsize")
    dtype = np.result_type(m.values, B)
    vals_flat = m.values.reshape(-1)
    anchors = m.anchors + bs
    blk_ptr = m.blk_ptr
    dia_ptr = factors.dia_ptr

    # Forward: (L + I) Y = B.
    Yp = np.zeros((n + 2 * bs, k), dtype=dtype)
    engine.counter.bytes_index += blk_ptr.itemsize
    for i in range(m.brow):
        engine.counter.bytes_index += (
            blk_ptr.itemsize + dia_ptr.itemsize)
        accs = [engine.load(B[:, j], i * bs).astype(dtype)
                for j in range(k)]
        for t in range(int(blk_ptr[i]), int(dia_ptr[i])):
            engine.counter.bytes_index += (
                m.blk_ind.itemsize + m.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            a = int(anchors[t])
            for j in range(k):
                vec_y = engine.load(Yp[:, j], a)
                accs[j] = engine.fnma(accs[j], vec_vals, vec_y)
        for j in range(k):
            engine.store(Yp[:, j], bs + i * bs, accs[j])

    # Backward: (D + U) Z = Y.
    Zp = np.zeros((n + 2 * bs, k), dtype=dtype)
    engine.counter.bytes_index += blk_ptr.itemsize
    for i in range(m.brow - 1, -1, -1):
        engine.counter.bytes_index += (
            blk_ptr.itemsize + dia_ptr.itemsize)
        accs = [engine.load(Yp[:, j], bs + i * bs).astype(dtype)
                for j in range(k)]
        for t in range(int(dia_ptr[i]) + 1, int(blk_ptr[i + 1])):
            engine.counter.bytes_index += (
                m.blk_ind.itemsize + m.blk_offset.itemsize)
            vec_vals = engine.load_values(vals_flat, t * bs)
            a = int(anchors[t])
            for j in range(k):
                vec_z = engine.load(Zp[:, j], a)
                accs[j] = engine.fnma(accs[j], vec_vals, vec_z)
        vec_d = engine.load_values(vals_flat, int(dia_ptr[i]) * bs)
        for j in range(k):
            accs[j] = engine.div(accs[j], vec_d)
            engine.store(Zp[:, j], bs + i * bs, accs[j])
    return Zp[bs:bs + n].copy()


def symgs_dbsr_multi_counted(matrix: DBSRMatrix, diag: np.ndarray,
                             X: np.ndarray, B: np.ndarray,
                             engine: VectorEngine) -> np.ndarray:
    """Instrumented multi-RHS SYMGS twin of :func:`symgs_dbsr_multi`.

    Mirrors the fast kernel's floating-point order exactly — the row
    sum accumulates through FMAs from a zero register and the update is
    ``x += (b - rowsum) / d`` — so batched results are **bitwise**
    equal to :func:`symgs_dbsr_multi`, and tallies match
    :func:`repro.kernels.counts.symgs_dbsr_counts` exactly.

    The diagonal tile's contiguous x window *is* the block-row's own x
    slice, so the add-back correction needs no extra load. The
    ``b - rowsum`` subtraction happens on register-resident operands
    (both were just produced by engine ops) and is deliberately left
    untallied, matching the closed form, which models the memory
    streams and the FMA/divide/add mix.
    """
    B = _check_rhs_block(matrix, B)
    require(X.shape == B.shape, "X/B block shape mismatch")
    require(bool(np.all(matrix.dia_ptr >= 0)),
            "every block-row needs a diagonal tile")
    n, k = B.shape
    bs = matrix.bsize
    require(engine.bsize == bs, "engine width must equal bsize")
    dtype = np.result_type(matrix.values, X)
    Xp = np.zeros((n + 2 * bs, k), dtype=dtype)
    Xp[bs:bs + n] = X
    dp = np.asarray(diag)
    anchors = matrix.anchors + bs
    vals_flat = matrix.values.reshape(-1)
    blk_ptr = matrix.blk_ptr
    dia_ptr = matrix.dia_ptr
    for forward in (True, False):
        rng = range(matrix.brow) if forward \
            else range(matrix.brow - 1, -1, -1)
        engine.counter.bytes_index += blk_ptr.itemsize
        for i in rng:
            engine.counter.bytes_index += blk_ptr.itemsize
            rowsums = [np.zeros(bs, dtype=dtype) for _ in range(k)]
            xi_vecs = [None] * k
            for t in range(int(blk_ptr[i]), int(blk_ptr[i + 1])):
                engine.counter.bytes_index += (
                    matrix.blk_ind.itemsize + matrix.blk_offset.itemsize)
                vec_vals = engine.load_values(vals_flat, t * bs)
                a = int(anchors[t])
                for j in range(k):
                    vec_x = engine.load(Xp[:, j], a)
                    if t == dia_ptr[i]:
                        xi_vecs[j] = vec_x.copy()
                    rowsums[j] = engine.fma(rowsums[j], vec_vals, vec_x)
            vec_d = engine.load(dp, i * bs)
            for j in range(k):
                bj = engine.load(B[:, j], i * bs)
                corr = engine.div(bj - rowsums[j], vec_d)
                engine.store(Xp[:, j], bs + i * bs,
                             engine.add(xi_vecs[j], corr))
    X[:] = Xp[bs:bs + n]
    return X
