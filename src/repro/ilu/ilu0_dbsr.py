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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Structural replay schedule for value-only refactorization.

    :func:`ilu0_factorize_dbsr` spends most of its time *finding* the
    line-11 tile matches (per-row dict builds plus a candidate scan
    that mostly misses), all of which depends only on the skeleton.
    The schedule records the outcome once — one entry per eliminated
    lower tile, with the matched update pairs in the exact order the
    factorization performs them — so a value-only repack replays just
    the floating-point ops. Within one eliminated tile the update
    targets are distinct (distinct ``r`` give distinct ``(blk_ind,
    blk_offset)`` and hence distinct ``q``), which is what makes the
    batched fancy-indexed replay bitwise-identical to the scalar loop.

    Attributes
    ----------
    p / off / dia_k:
        Eliminated lower tile, its ``blk_offset``, and the tile index
        of its pivot row's diagonal tile (elimination order).
    upd_ptr / q / r:
        CSR-style update lists: entry ``t`` updates tiles
        ``q[upd_ptr[t]:upd_ptr[t+1]]`` from row-``k`` tiles
        ``r[upd_ptr[t]:upd_ptr[t+1]]``.
    """

    p: np.ndarray
    off: np.ndarray
    dia_k: np.ndarray
    upd_ptr: np.ndarray
    q: np.ndarray
    r: np.ndarray

    @property
    def n_ops(self) -> int:
        return len(self.p)


def build_ilu0_schedule(matrix: DBSRMatrix) -> ILU0Schedule:
    """Resolve Algorithm 4's tile matches once, structurally.

    Runs the same scan order as :func:`ilu0_factorize_dbsr` without
    touching a single value, so replaying the result performs the
    identical floating-point op sequence.
    """
    brow = matrix.brow
    dia_ptr = matrix.dia_ptr
    require(bool(np.all(dia_ptr >= 0)),
            "every block-row needs a main-diagonal tile")
    blk_ptr = matrix.blk_ptr
    blk_ind = matrix.blk_ind
    blk_offset = matrix.blk_offset

    ps, offs, dia_ks, ptr, qs, rs = [], [], [], [0], [], []
    for i in range(brow):
        lo, hi = int(blk_ptr[i]), int(blk_ptr[i + 1])
        dp = int(dia_ptr[i])
        row_lookup = {
            (int(blk_ind[t]), int(blk_offset[t])): t
            for t in range(lo, hi)
        }
        for p in range(lo, dp):
            k = int(blk_ind[p])
            off_p = int(blk_offset[p])
            ps.append(p)
            offs.append(off_p)
            dia_ks.append(int(dia_ptr[k]))
            for r in range(int(dia_ptr[k]) + 1, int(blk_ptr[k + 1])):
                q = row_lookup.get(
                    (int(blk_ind[r]), off_p + int(blk_offset[r]))
                )
                if q is None or q <= p:
                    continue
                qs.append(q)
                rs.append(r)
            ptr.append(len(qs))
    return ILU0Schedule(
        p=np.asarray(ps, dtype=np.int64),
        off=np.asarray(offs, dtype=np.int64),
        dia_k=np.asarray(dia_ks, dtype=np.int64),
        upd_ptr=np.asarray(ptr, dtype=np.int64),
        q=np.asarray(qs, dtype=np.int64),
        r=np.asarray(rs, dtype=np.int64),
    )


def ilu0_refactorize_dbsr(matrix: DBSRMatrix,
                          schedule: ILU0Schedule) -> DBSRILUFactors:
    """Replay a prebuilt schedule over fresh values (Algorithm 4).

    Bitwise-identical to :func:`ilu0_factorize_dbsr` on the skeleton
    the schedule was built from — the repack fast path of the serving
    tier's incremental recompilation (pinned by the property suite).
    """
    bs = matrix.bsize
    vflat = np.zeros((matrix.n_tiles + 2) * bs,
                     dtype=matrix.values.dtype)
    vflat[bs:bs + matrix.n_tiles * bs] = matrix.values.ravel()
    tiles = vflat[bs:bs + matrix.n_tiles * bs].reshape(-1, bs)
    lane = np.arange(bs)

    upd_ptr = schedule.upd_ptr
    for t in range(schedule.n_ops):
        p = int(schedule.p[t])
        off = int(schedule.off[t])
        a_ik = tiles[p]
        start = bs + int(schedule.dia_k[t]) * bs + off
        a_kk = vflat[start:start + bs]
        np.divide(a_ik, a_kk, out=a_ik, where=a_ik != 0)
        lo, hi = int(upd_ptr[t]), int(upd_ptr[t + 1])
        if hi == lo:
            continue
        q = schedule.q[lo:hi]
        r = schedule.r[lo:hi]
        # Shifted loads of every matched row-k tile at once; the
        # targets q are distinct per eliminated tile, so the fancy-
        # indexed subtract performs the same scalar ops as the loop.
        a_kj = vflat[(bs + r * bs + off)[:, None] + lane]
        tiles[q] -= a_ik[None, :] * a_kj

    values = tiles.copy()
    factored = DBSRMatrix(
        matrix.blk_ptr.copy(), matrix.blk_ind.copy(),
        matrix.blk_offset.copy(), values, matrix.shape,
        nnz_hint=matrix.nnz,
    )
    return DBSRILUFactors(matrix=factored,
                          dia_ptr=matrix.dia_ptr.copy())


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
