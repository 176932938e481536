"""Block ILU(0) factorization in DBSR format — the paper's Algorithm 4.

The smallest storage unit is the tile, so factorization becomes a block
algorithm (Fig. 4): for each block-row ``i``, every strictly-lower tile
``A[i,k]`` is divided lane-wise by a *shifted* load of block-row
``k``'s diagonal tile, then every matching right-hand tile pair is
updated with a lane-wise FMA. Tile matching is the paper's line 11:
``blk_ind[r] == blk_ind[q]`` and
``blk_offset[p] + blk_offset[r] == blk_offset[q]``.

Shifted loads read ``bsize`` lanes starting ``blk_offset[p]`` elements
into a tile, so they can cross into the neighboring tile's storage
("interfering data"). The paper's invariant — the corresponding lanes
of tile ``p`` are zero padding — makes the interference harmless; we
additionally mask the division so a zero interfering pivot cannot
manufacture NaNs (a robustness fix over the literal pseudocode; it
changes no stored value).

Because elements inside a tile sit on one diagonal, *no update ever
occurs within a tile* — data flows only between tiles, which is what
makes the whole update lane-parallel (SIMD) per tile.

Two implementations share this arithmetic. :func:`ilu0_factorize_dbsr`
is the row loop of Algorithm 4: the reference, and the counted model
behind Fig. 12. The serving tier instead records the tile matches once
in a stage-major :class:`ILU0Schedule` (:func:`build_ilu0_schedule`)
and replays it with :func:`ilu0_refactorize_dbsr`, one batched divide
and one batched update per dependency stage; cold compiles and
value-only repacks both replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.backends import resolve_backend
from repro.formats.dbsr import DBSRMatrix
from repro.simd.counters import OpCounter
from repro.utils.validation import require


@dataclass
class DBSRILUFactors:
    """Block ILU(0) factors stored in the original DBSR skeleton.

    Attributes
    ----------
    matrix:
        DBSR matrix whose values hold ``L`` strictly below the diagonal
        (unit diagonal implicit) and ``U`` on/above it.
    dia_ptr:
        Tile index of each block-row's main-diagonal tile.
    """

    matrix: DBSRMatrix
    dia_ptr: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.n_rows

    @property
    def bsize(self) -> int:
        return self.matrix.bsize

    def diag_vector(self) -> np.ndarray:
        """The ``U`` diagonal as a dense length-``n`` vector."""
        return self.matrix.values[self.dia_ptr].ravel()

    def to_csr_factors(self):
        """Project the block factors onto scalar CSR
        :class:`~repro.ilu.ilu0_csr.ILUFactors`.

        On padded structures the block algorithm produces genuine
        fill-in inside zero-padding lanes, so re-running the *scalar*
        factorization on the padded CSR operator is **not** a bitwise
        reference for these factors. Projecting the factored values
        themselves is: per scalar row the tiles are stored in
        increasing-anchor order, so the CSR columns come out in the
        exact order the DBSR sweeps subtract them, and dropping the
        remaining zero lanes only removes bitwise no-op terms. Applying
        the result through :func:`repro.ilu.ilu0_csr.ilu0_apply_csr`
        therefore matches :func:`ilu0_apply_dbsr` under
        ``np.array_equal`` on every grid, padded or not — this is the
        CSR rung of the serving fallback ladder.
        """
        from repro.ilu.ilu0_csr import ILUFactors

        factored = self.matrix.to_csr()
        return ILUFactors(
            factored=factored,
            lower=factored.tril(strict=True),
            upper=factored.triu(strict=True),
            diag=self.diag_vector(),
        )


def ilu0_factorize_dbsr(matrix: DBSRMatrix,
                        counter: OpCounter | None = None
                        ) -> DBSRILUFactors:
    """Algorithm 4: block ILU(0) on a DBSR matrix.

    Parameters
    ----------
    matrix:
        Full (non-triangular) DBSR matrix, e.g. the vectorized-BMC
        reordered operator. Every block-row must own a main-diagonal
        tile.
    counter:
        Optional tally of the vector operations performed (drives the
        Fig. 12 factorization-cost model).

    Returns
    -------
    DBSRILUFactors
        Factors sharing the input's skeleton (values are copied).
    """
    bs = matrix.bsize
    brow = matrix.brow
    dia_ptr = matrix.dia_ptr
    require(bool(np.all(dia_ptr >= 0)),
            "every block-row needs a main-diagonal tile")
    blk_ptr = matrix.blk_ptr
    blk_ind = matrix.blk_ind
    blk_offset = matrix.blk_offset
    anchors = matrix.anchors

    # Flat value buffer with one tile of zero padding on each side so
    # shifted loads never index out of bounds (the "interfering data"
    # of Fig. 4 reads zeros at the extremes).
    vflat = np.zeros((matrix.n_tiles + 2) * bs, dtype=matrix.values.dtype)
    vflat[bs:bs + matrix.n_tiles * bs] = matrix.values.ravel()

    def shifted_load(tile: int, off: int) -> np.ndarray:
        start = bs + tile * bs + off
        return vflat[start:start + bs]

    def tile_values(tile: int) -> np.ndarray:
        start = bs + tile * bs
        return vflat[start:start + bs]

    c = counter
    for i in range(brow):
        lo, hi = int(blk_ptr[i]), int(blk_ptr[i + 1])
        dp = int(dia_ptr[i])
        # (block column, offset) -> tile lookup for the line-11 match.
        row_lookup = {
            (int(blk_ind[q]), int(blk_offset[q])): q
            for q in range(lo, hi)
        }
        for p in range(lo, dp):
            k = int(blk_ind[p])
            off_p = int(blk_offset[p])
            a_ik = tile_values(p)
            a_kk = shifted_load(int(dia_ptr[k]), off_p)
            # Masked lane-wise division: zero-padding lanes of a_ik
            # stay zero even when the interfering pivot lane is zero.
            np.divide(a_ik, a_kk, out=a_ik, where=a_ik != 0)
            if c is not None:
                c.vload += 2
                c.vdiv += 1
                c.vstore += 1
                c.sload += 2  # blk_ind[p], blk_offset[p]
            for r in range(int(dia_ptr[k]) + 1, int(blk_ptr[k + 1])):
                if c is not None:
                    c.sload += 2  # candidate tile metadata
                q = row_lookup.get(
                    (int(blk_ind[r]), off_p + int(blk_offset[r]))
                )
                if q is None or q <= p:
                    continue
                a_kj = shifted_load(r, off_p)
                a_ij = tile_values(q)
                a_ij -= a_ik * a_kj
                if c is not None:
                    c.vload += 2
                    c.vfma += 1
                    c.vstore += 1

    values = vflat[bs:bs + matrix.n_tiles * bs].reshape(-1, bs).copy()
    factored = DBSRMatrix(
        matrix.blk_ptr.copy(), matrix.blk_ind.copy(),
        matrix.blk_offset.copy(), values, matrix.shape,
        nnz_hint=matrix.nnz,
    )
    return DBSRILUFactors(matrix=factored, dia_ptr=dia_ptr.copy())


@dataclass
class ILU0Schedule:
    """Stage-major replay schedule for value-only refactorization.

    :func:`ilu0_factorize_dbsr` spends most of its time *finding* the
    line-11 tile matches (per-row dict builds plus a candidate scan
    that mostly misses), all of which depends only on the skeleton.
    The schedule records the outcome once, grouped into *stages* so a
    replay runs one batched divide and one batched update per stage
    (the dependency-grouped vectorization of Cetinic et al.).

    An elimination's stage is one more than the larger of its
    block-row's previous elimination and the last stage of every other
    block-row it reads: the pivot row ``k``, row ``k - 1`` when a
    negative-offset divisor load starts in ``k``'s first tile, and row
    ``k + 1`` when a positive-offset load (divisor or matched ``r``)
    starts in ``k``'s last tile — the shifted-load "interfering data"
    of Fig. 4. Hence each block-row contributes at most one elimination
    per stage, the divide tiles and update targets of a stage are
    distinct, reads of other rows see final values, and reads of an
    elimination's own row see the state after its previous
    elimination: the replay performs the row loop's scalar ops.

    Window starts index the flat value buffer padded with one zero tile
    on each side, so window ``w`` covers elements ``[w, w + bsize)``.

    Attributes
    ----------
    p / d / div_ptr:
        Divide tiles and divisor window starts, stage-major: stage
        ``t`` divides tiles ``p[div_ptr[t]:div_ptr[t+1]]`` lane-wise by
        the windows at ``d[div_ptr[t]:div_ptr[t+1]]``.
    q / m / s / upd_ptr:
        Update targets, multiplier tiles and source window starts,
        stage-major: stage ``t`` subtracts ``tiles[m] * window(s)``
        from ``tiles[q]`` over ``upd_ptr[t]:upd_ptr[t+1]``.
    """

    p: np.ndarray
    d: np.ndarray
    div_ptr: np.ndarray
    q: np.ndarray
    m: np.ndarray
    s: np.ndarray
    upd_ptr: np.ndarray

    @property
    def n_ops(self) -> int:
        """Eliminations (divided lower tiles)."""
        return len(self.p)

    @property
    def n_stages(self) -> int:
        return len(self.div_ptr) - 1


def _stage_ptr(stage: np.ndarray, n_stages: int) -> np.ndarray:
    ptr = np.zeros(n_stages + 1, dtype=np.int64)
    np.cumsum(np.bincount(stage, minlength=n_stages), out=ptr[1:])
    return ptr


def build_ilu0_schedule(matrix: DBSRMatrix) -> ILU0Schedule:
    """Resolve Algorithm 4's tile matches once, structurally, and
    group the eliminations into dependency stages.

    Runs the same scan order as :func:`ilu0_factorize_dbsr` without
    touching a single value, on plain ints.
    """
    bs = matrix.bsize
    brow = matrix.brow
    dia_ptr = matrix.dia_ptr
    require(bool(np.all(dia_ptr >= 0)),
            "every block-row needs a main-diagonal tile")
    blk_ptr = matrix.blk_ptr.tolist()
    blk_ind = matrix.blk_ind.tolist()
    blk_offset = matrix.blk_offset.tolist()
    dia = dia_ptr.tolist()

    # Stage of each block-row's latest elimination (-1: none yet). Row
    # i's entry stays -1 while row i is scanned, so reads of its own
    # row add nothing beyond its previous elimination.
    last = [-1] * brow
    ps, ds, stages, n_upd, qs, ss = [], [], [], [], [], []
    for i in range(brow):
        lo, hi = blk_ptr[i], blk_ptr[i + 1]
        row_lookup = {(blk_ind[t], blk_offset[t]): t
                      for t in range(lo, hi)}
        stage = -1
        for p in range(lo, dia[i]):
            k = blk_ind[p]
            off = blk_offset[p]
            dk = dia[k]
            k_last = blk_ptr[k + 1] - 1
            reads_next = off > 0 and dk == k_last
            n0 = len(qs)
            for r in range(dk + 1, k_last + 1):
                q = row_lookup.get((blk_ind[r], off + blk_offset[r]))
                if q is None or q <= p:
                    continue
                qs.append(q)
                ss.append(bs + r * bs + off)
                if r == k_last and off > 0:
                    reads_next = True
            stage = max(stage, last[k])
            if off < 0 and dk == blk_ptr[k] and k > 0:
                stage = max(stage, last[k - 1])
            if reads_next:
                stage = max(stage, last[k + 1])
            stage += 1
            ps.append(p)
            ds.append(bs + dk * bs + off)
            stages.append(stage)
            n_upd.append(len(qs) - n0)
        last[i] = stage

    stage = np.asarray(stages, dtype=np.int64)
    n_upd = np.asarray(n_upd, dtype=np.int64)
    n_stages = int(stage.max()) + 1 if len(stage) else 0
    upd_stage = np.repeat(stage, n_upd)
    order = np.argsort(stage, kind="stable")
    upd_order = np.argsort(upd_stage, kind="stable")
    p = np.asarray(ps, dtype=np.int64)
    return ILU0Schedule(
        p=p[order],
        d=np.asarray(ds, dtype=np.int64)[order],
        div_ptr=_stage_ptr(stage, n_stages),
        q=np.asarray(qs, dtype=np.int64)[upd_order],
        m=np.repeat(p, n_upd)[upd_order],
        s=np.asarray(ss, dtype=np.int64)[upd_order],
        upd_ptr=_stage_ptr(upd_stage, n_stages),
    )


def padded_buffer(n_tiles: int, bsize: int, dtype) -> tuple:
    """The flat value buffer :func:`ilu0_refactorize_dbsr` replays in.

    Returns ``(vflat, lanes)``: ``vflat`` holds ``n_tiles`` tiles
    between one zero tile on each side, so shifted loads never index
    out of bounds (the "interfering data" of Fig. 4 reads zeros at the
    extremes), and ``lanes`` is the flat, tile-major view of its
    interior for the caller to fill.
    """
    vflat = np.empty((n_tiles + 2) * bsize, dtype=dtype)
    vflat[:bsize] = 0
    vflat[-bsize:] = 0
    return vflat, vflat[bsize:-bsize]


def ilu0_refactorize_dbsr(matrix: DBSRMatrix, schedule: ILU0Schedule,
                          vflat: np.ndarray | None = None
                          ) -> DBSRILUFactors:
    """Replay a prebuilt schedule over fresh values (Algorithm 4).

    One batched divide and one batched update per stage. Bitwise-
    identical to :func:`ilu0_factorize_dbsr` on the skeleton the
    schedule was built from, except that a NaN *input* may come out
    with another sign bit (numpy picks which NaN operand a multiply
    returns by SIMD position). It is the serving tier's only numeric
    factorization: cold compiles and value-only repacks both replay.

    ``vflat``, a :func:`padded_buffer` whose interior already holds the
    values, is factored in place; ``matrix`` then contributes only its
    skeleton (the serving tier scatters each snapshot straight into
    the buffer). Without it the replay copies ``matrix.values`` into a
    new buffer. The factors' values view the buffer's interior, and
    their ``blk_ptr``/``blk_ind``/``blk_offset`` and ``dia_ptr`` are
    ``matrix``'s own arrays.
    """
    bs = matrix.bsize
    if vflat is None:
        vflat, lanes = padded_buffer(matrix.n_tiles, bs,
                                     matrix.values.dtype)
        lanes[...] = matrix.values.reshape(-1)
    tiles = vflat[bs:bs + matrix.n_tiles * bs].reshape(-1, bs)
    win = sliding_window_view(vflat, bs)

    p, d, q, m, s = (schedule.p, schedule.d, schedule.q, schedule.m,
                     schedule.s)
    div_ptr = schedule.div_ptr.tolist()
    upd_ptr = schedule.upd_ptr.tolist()
    # Two scratch blocks sized for the widest stage serve every stage's
    # update: per-stage temporaries of varying size fragment a
    # long-running server's heap and raise its peak RSS.
    width = max([b - a for a, b in zip(upd_ptr, upd_ptr[1:])], default=0)
    prod = np.empty((width, bs), dtype=vflat.dtype)
    acc = np.empty((width, bs), dtype=vflat.dtype)
    for t in range(schedule.n_stages):
        lo, hi = div_ptr[t], div_ptr[t + 1]
        pt = p[lo:hi]
        a = tiles[pt]
        # Masked lane-wise division, as in ilu0_factorize_dbsr.
        np.divide(a, win[d[lo:hi]], out=a, where=a != 0)
        tiles[pt] = a
        lo, hi = upd_ptr[t], upd_ptr[t + 1]
        if hi > lo:
            # tiles[q] -= tiles[m] * window(s), in the scratch blocks.
            pr, ac = prod[:hi - lo], acc[:hi - lo]
            np.take(tiles, m[lo:hi], axis=0, out=pr)
            np.multiply(pr, win[s[lo:hi]], out=pr)
            np.take(tiles, q[lo:hi], axis=0, out=ac)
            np.subtract(ac, pr, out=ac)
            tiles[q[lo:hi]] = ac

    dia_ptr = matrix.dia_ptr
    factored = DBSRMatrix(matrix.blk_ptr, matrix.blk_ind,
                          matrix.blk_offset, tiles, matrix.shape,
                          nnz_hint=matrix.nnz)
    # Same skeleton, same diagonal tiles: seed the cache so a repack
    # that takes these factors as its skeleton never recomputes it.
    factored._dia_ptr = dia_ptr
    return DBSRILUFactors(matrix=factored, dia_ptr=dia_ptr)


def ilu0_apply_dbsr(factors: DBSRILUFactors,
                    r: np.ndarray) -> np.ndarray:
    """Apply the block ILU(0) preconditioner: solve ``L U z = r``.

    Two Algorithm-2 sweeps over the factored skeleton: a forward
    unit-lower solve over tiles before ``dia_ptr`` and a backward solve
    over the diagonal + upper tiles. A ``k = 1`` call of the default
    backend's block kernel
    (:func:`repro.serve.batch.ilu_apply_dbsr_multi` on ``numpy-fast``).
    """
    require(r.shape == (factors.n,), "r has wrong length")
    return resolve_backend().ilu_apply_dbsr_multi(factors, r[:, None])[:, 0]
