"""The DBSR kernels: one fast and one counted body per operation.

Every numeric DBSR sweep in the repository — the paper's Algorithm 2
lower/upper solves, the SYMGS smoother and the block ILU(0) application
— runs here, over an ``(n, k)`` block of right-hand sides. Single-vector
callers (:func:`repro.kernels.sptrsv_dbsr.sptrsv_dbsr_lower`, the
multigrid smoother, the ILU strategies, autotune) run the same kernels
at ``k = 1`` through the :mod:`repro.backends` registry, and the one
color-parallel sweep of :mod:`repro.parallel` (behind the parallel
lower, upper and ILU(0) solves) runs :func:`sweep_block_rows` over one
vector group's block-rows per task.

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
columns as ``values[t][:, None]``. A matrix that carries a block-row
level schedule (:mod:`repro.formats.dbsr_levels`, attached when a plan
or smoother is built) is swept level by level. Where
:func:`~repro.formats.dbsr_levels.reduce_pays` judges a level
dispatch-bound (every one-row level, at every ``k``), the level runs
as one flat step through indexes its layout precomputed: one
``Xp.take`` over the ``(slots + 1, rows, bsize)`` lane index gathers
every slot's windows into a ``(slots + 1, rows, bsize, k)`` block, one
multiply by the level's value stack forms the products (slot 0 and a
row's missing slots are the stack's zero tile times the zero pad
``Xp[0:bsize]``, ``+0``), one axis-0 reduction folds them —
``np.subtract.reduce`` with ``B`` written into slot 0 for the sweeps,
``np.add.reduce`` from the ``+0`` of slot 0 for SYMGS's row sum — and
the rows are stored through the flat ``(rows, bsize)`` row index
(SYMGS: take, add, store). ``B`` is gathered once per call, in the
layout's row order, and each step slices its rows. Other levels update
their rows with one contiguous-slice operation per tile slot
(:func:`_fold_level`), gathering each tile's window from a
``sliding_window_view`` by fancy indexing (``np.take`` there would
first copy the whole buffer). The value stacks and the levels'
diagonal blocks are built once per value set
(:class:`~repro.formats.dbsr_levels.ValueStacks` on
:attr:`DBSRMatrix.stacks`); a call whose values or diagonal they do not
hold builds its own. Matrices without a schedule run the per-row body.
The ``*_counted`` twins still model Algorithm 2's contiguous loads tile
by tile. The gather-lint covers this module's engine-taking functions
(the counted twins), not the fast bodies. SpMV has no row-to-row
dependence, so it instead builds every tile window at once on an
RHS-major ``(k, n + 2*bsize)`` buffer.

Batching reorders no floating-point operation within a column, so
column ``j`` of a ``k``-wide call is bit-identical to the ``k = 1``
call on column ``j``; nor does level batching, since coupled rows
never share a level and each row takes its tiles in storage order
(a padded term is ``+0``, which leaves every partial result's bits
alone, and the SYMGS sum starts from ``+0`` as the row body's does).
SpMV accumulates each row's tiles as a *sequential* chain in storage
order — the canonical backend-tier rounding sequence — so it matches
:meth:`~repro.formats.dbsr.DBSRMatrix.matvec` (pairwise ``reduceat``
summation) to roundoff rather than bitwise. The ``*_counted`` twins
execute the same operation order through a
:class:`~repro.simd.engine.VectorEngine`; their tallies equal the closed
forms of :mod:`repro.kernels.counts` exactly.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.formats.dbsr import DBSRMatrix
from repro.formats.dbsr_levels import (
    LevelBatch,
    SweepStacks,
    TileLayout,
    reduce_pays,
)
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
    sweeps of an unscheduled matrix pass every row in sweep order, and
    :func:`repro.parallel.executor.sweep_parallel` passes one vector
    group's rows per task, reversed for a backward sweep.
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


def _full_stacks(matrix: DBSRMatrix, diag) -> SweepStacks:
    """The full-row sweep's layout and per-level operands: the matrix's
    stacks where they hold its values and ``diag``, else stacks built
    for this call (over the scheduled layout, or a row-by-row one)."""
    st = matrix.stacks
    if st is not None and st.full is not None \
            and st.hold(matrix.values, diag):
        return st.full
    sched = matrix.schedule
    if sched is not None and sched.full is not None:
        layout = sched.full
    else:
        ptr, anchors = matrix.blk_ptr, matrix.anchors + matrix.bsize
        layout = TileLayout(None, ptr[:-1], ptr[1:], anchors, matrix.bsize)
    return SweepStacks(layout, matrix.values, diag)


def _windows(Xp: np.ndarray, bs: int) -> np.ndarray:
    """``windows[a]`` is the ``(bsize, k)`` window of the padded buffer
    ``Xp`` starting at slot ``a``."""
    return sliding_window_view(Xp, bs, axis=0).transpose(0, 2, 1)


def _layout_rhs(lay: TileLayout, B3: np.ndarray):
    """``B``'s ``(brow, bsize, k)`` blocks in ``lay``'s row order, which
    each flat step slices by its ``span``; ``None`` where ``lay`` has no
    reduced level."""
    if lay.rows is None or not len(lay.ptiles):
        return None
    return B3.take(lay.rows, axis=0)


def _flat_fold(op, stack: np.ndarray, Xp: np.ndarray, level: LevelBatch,
               first, one: bool) -> np.ndarray:
    """Fold a reduced level's tile products with ``op`` over axis 0, in
    storage order: ``op(op(first, p0), p1) ...``, each product
    ``vals[t] * window`` as in the row body.

    One take over the level's lane index gathers every slot's windows
    into a ``(slots + 1, rows, bsize, k)`` block, and one multiply by
    the level's value ``stack`` forms the products. The start slot and
    a row's missing slots multiply the stack's zero tile by the zero
    pad: ``+0``, which leaves every partial result's bits alone and is
    SYMGS's explicit ``+0`` start. ``first`` (``None``: keep that
    ``+0``) replaces the start slot. ``one``: the fold is of one
    element, which ``op.reduce`` would run as one contiguous loop (np.add
    sums that pairwise); ``accumulate`` keeps the storage order.
    """
    g = Xp.take(level.padded[1], axis=0)
    np.multiply(stack, g, out=g)
    if first is not None:
        g[0] = first
    if one:
        return op.accumulate(g, axis=0)[-1]
    return op.reduce(g, axis=0)


def _fold_level(op, first, windows: np.ndarray, vals: np.ndarray,
                level: LevelBatch) -> np.ndarray:
    """Fold every row's tile products into ``first`` (a fresh
    ``(rows, bsize, k)`` block, or ``None`` for an explicit ``+0``
    start) with ``op``, in storage order, one contiguous-slice ``op``
    per tile slot over the rows that own one. The window gather uses
    fancy indexing: ``np.take`` on the ``sliding_window_view`` would
    first copy the whole buffer.
    """
    if first is None:
        first = np.zeros((len(level.rows),) + windows.shape[1:],
                         windows.dtype)
    if level.slots:
        prod = windows[level.windows]
        np.multiply(vals[level.tiles], prod, out=prod)
        a = 0
        for m in level.slots:
            op(first[:m], prod[a:a + m], out=first[:m])
            a += m
    return first


def _sweep(vals: np.ndarray, stacks: SweepStacks, B: np.ndarray,
           diag: np.ndarray | None, forward: bool) -> np.ndarray:
    """One whole-matrix sweep; returns the padded ``(n + 2*bsize, k)``
    solution.

    ``vals`` is ``values[:, :, None]``. A level batch is solved at
    once: its tiles are subtracted from each row's ``B`` block in
    storage order (:func:`_flat_fold` where the level reduces at this
    ``k``, else :func:`_fold_level`), and the level's diagonal block,
    if ``stacks`` has one, divides. An unscheduled layout's one step,
    every row in order, takes the row body, which divides by the
    ``(n, 1)`` column ``diag`` unless it is ``None``.
    """
    n, k = B.shape
    bs = vals.shape[1]
    Xp = np.zeros((n + 2 * bs, k), dtype=np.result_type(vals, B))
    X3, B3 = Xp.reshape(-1, bs, k), B.reshape(-1, bs, k)
    lay = stacks.layout
    Bl, windows, one = _layout_rhs(lay, B3), None, bs * k == 1
    for step, stack, dblock in (stacks.steps if forward
                                else reversed(stacks.steps)):
        if type(step) is tuple:
            sweep_block_rows(Xp, vals, lay.anchors, lay.lo, lay.hi, B,
                             diag, step if forward else reversed(step))
            continue
        rows = len(step.rows)
        if stack is not None and reduce_pays(rows, bs, k):
            acc = _flat_fold(np.subtract, stack, Xp, step, Bl[step.span],
                             one and rows == 1)
            if dblock is not None:
                acc /= dblock
            Xp[step.padded[2]] = acc
            continue
        if windows is None:
            windows = _windows(Xp, bs)
        acc = _fold_level(np.subtract,
                          B3[step.rows].astype(Xp.dtype, copy=False),
                          windows, vals, step)
        if dblock is not None:
            acc /= dblock
        X3[step.rows1] = acc
    return Xp


def _sptrsv_multi(matrix: DBSRMatrix, B: np.ndarray,
                  diag: np.ndarray | None, forward: bool) -> np.ndarray:
    """Shared forward/backward multi-RHS Algorithm 2 sweep."""
    B = _check_rhs_block(matrix, B)
    n, bs = B.shape[0], matrix.bsize
    d = None if diag is None else np.asarray(diag)[:, None]
    Xp = _sweep(matrix.values[:, :, None], _full_stacks(matrix, diag), B,
                d, forward)
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


def _symgs_rows(Xp: np.ndarray, vals: np.ndarray, anchors: list,
                lo: list, hi: list, B: np.ndarray, d: np.ndarray,
                rows) -> None:
    """The SYMGS row update ``x += (b - rowsum) / d`` of block-rows
    ``rows``, in the order given."""
    bs, k = vals.shape[1], Xp.shape[1]
    for i in rows:
        r0 = i * bs
        rowsum = np.zeros((bs, k), dtype=Xp.dtype)
        for t in range(lo[i], hi[i]):
            a = anchors[t]
            rowsum += vals[t] * Xp[a:a + bs]
        Xp[bs + r0:bs + r0 + bs] += \
            (B[r0:r0 + bs] - rowsum) / d[r0:r0 + bs]


def symgs_dbsr_multi(matrix: DBSRMatrix, diag: np.ndarray,
                     X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """One SYMGS sweep (forward + backward GS) over ``(n, k)`` blocks.

    Updates ``X`` in place and returns it. Same-color blocks never
    couple, so within a block-row the only self-reference is the main
    diagonal: the row sum over *all* tiles includes ``d * x_i``, which
    the ``x += (b - rowsum) / d`` update adds back. Levels run forward,
    then in reverse, each as one batch (see :func:`_sweep`).
    """
    B = _check_rhs_block(matrix, B)
    require(X.shape == B.shape, "X/B block shape mismatch")
    n, k = B.shape
    bs = matrix.bsize
    dtype = np.result_type(matrix.values, X)
    Xp = np.zeros((n + 2 * bs, k), dtype=dtype)
    Xp[bs:bs + n] = X
    d = np.asarray(diag)[:, None]
    stacks = _full_stacks(matrix, diag)
    lay = stacks.layout
    vals = matrix.values[:, :, None]
    X3, B3 = Xp.reshape(-1, bs, k), B.reshape(-1, bs, k)
    Bl, windows, one = _layout_rhs(lay, B3), None, bs * k == 1
    for forward in (True, False):
        for step, stack, dblock in (stacks.steps if forward
                                    else reversed(stacks.steps)):
            if type(step) is tuple:
                _symgs_rows(Xp, vals, lay.anchors, lay.lo, lay.hi, B, d,
                            step if forward else reversed(step))
                continue
            # An explicit +0 start, as in the row body: a sum started
            # from the first product keeps a -0 that +0 + (-0) turns
            # into +0 (add.reduce starts from its identity only while
            # ``initial`` keeps its default).
            rows = len(step.rows)
            if stack is not None and reduce_pays(rows, bs, k):
                rowsum = _flat_fold(np.add, stack, Xp, step, None,
                                    one and rows == 1)
                flat = step.padded[2]
                x = Xp.take(flat, axis=0)
                x += (Bl[step.span] - rowsum) / dblock
                Xp[flat] = x
                continue
            if windows is None:
                windows = _windows(Xp, bs)
            rowsum = _fold_level(np.add, None, windows, vals, step)
            X3[step.rows1] += (B3[step.rows] - rowsum) / dblock
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
    st, sched, d = m.stacks, m.schedule, None
    if st is not None and st.below is not None and st.hold(m.values, None):
        below, above = st.below, st.above
    else:
        if sched is not None and sched.below is not None:
            lays = sched.below, sched.above
        else:
            ptr, anchors = m.blk_ptr, m.anchors + bs
            lays = (TileLayout(None, ptr[:-1], factors.dia_ptr, anchors,
                               bs),
                    TileLayout(None, factors.dia_ptr + 1, ptr[1:],
                               anchors, bs))
            d = factors.diag_vector()[:, None]
        below = SweepStacks(lays[0], m.values)
        above = SweepStacks(lays[1], m.values, m.values[factors.dia_ptr])
    vals = m.values[:, :, None]
    # Forward: (L + I) Y = B.
    Y = _sweep(vals, below, B, None, True)
    # Backward: (D + U) Z = Y.
    Z = _sweep(vals, above, Y[bs:bs + n], d, False)
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
