"""Diagonal Block Compressed Sparse Row (DBSR) — the paper's format.

DBSR (§III-B) tiles the matrix into ``bsize x bsize`` blocks like BCSR,
but stores only a *single diagonal* per tile in DIA fashion:

* ``blk_ptr``   — CSR-style pointer over block-rows (``brow + 1``).
* ``blk_ind``   — block-column index per tile.
* ``blk_offset``— intra-tile diagonal offset per tile.
* ``values``    — ``(n_tiles, bsize)``; lane ``l`` of tile ``t`` holds
  ``A[browi*bsize + l, anchor + l]`` where
  ``anchor = blk_ind*bsize + blk_offset``.

After the vectorized BMC reordering (§III-A) every tile of a
structured-grid matrix is exactly one such diagonal, so the format is
lossless with only boundary-induced zero padding. Both the row slice of
``b``/``x`` and the ``bsize`` consecutive ``x`` values at ``anchor`` are
contiguous — the *gather-free* property (§III-D).

Offset convention
-----------------
As in the paper, ``blk_offset`` is *signed* in ``(-bsize, bsize)``
(``log2(bsize)`` bits plus a sign bit): ``blk_ind`` names the block
column that contains the tile's non-zero lanes and
``blk_offset = anchor - blk_ind*bsize`` where ``anchor = c - (r %
bsize)`` is the column of lane 0. Tiles are grouped by
``(block_row, block_column, anchor)``, so a tile's non-zero lanes never
straddle block columns — the invariant Algorithm 4's shifted diagonal
loads rely on (Fig. 4). Vector loads of ``x[anchor : anchor + bsize]``
may run past either end of ``x``; :meth:`pad_vector` provides the
zero-padded buffer the paper's "overstore is zero" rule requires.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE, MemoryReport, SparseMatrix
from repro.utils.validation import check_positive, require


class DBSRMatrix(SparseMatrix):
    """Sparse matrix in diagonal-block CSR layout.

    Use :meth:`from_csr` to construct from an (already reordered)
    CSR matrix.

    Parameters
    ----------
    blk_ptr, blk_ind, blk_offset, values:
        The DBSR arrays described in the module docstring.
    shape:
        Matrix shape; the row dimension must be a multiple of ``bsize``.
    nnz_hint:
        Original non-zero count for padding accounting.
    """

    def __init__(self, blk_ptr, blk_ind, blk_offset, values, shape,
                 nnz_hint=None):
        blk_ptr = np.asarray(blk_ptr, dtype=INDEX_DTYPE)
        blk_ind = np.asarray(blk_ind, dtype=INDEX_DTYPE)
        blk_offset = np.asarray(blk_offset, dtype=INDEX_DTYPE)
        values = np.ascontiguousarray(values)
        require(values.ndim == 2, "values must be (n_tiles, bsize)")
        bsize = values.shape[1]
        n_rows, n_cols = int(shape[0]), int(shape[1])
        require(n_rows % bsize == 0,
                "row dimension must be a multiple of bsize")
        brow = n_rows // bsize
        require(len(blk_ptr) == brow + 1, "blk_ptr length mismatch")
        require(blk_ptr[0] == 0 and blk_ptr[-1] == len(blk_ind),
                "blk_ptr endpoints inconsistent")
        require(len(blk_ind) == len(blk_offset) == len(values),
                "tile array length mismatch")
        if len(blk_offset):
            require(blk_offset.min() > -bsize and blk_offset.max() < bsize,
                    "blk_offset must lie in (-bsize, bsize)")
        self.shape = (n_rows, n_cols)
        self.bsize = bsize
        self.blk_ptr = blk_ptr
        self.blk_ind = blk_ind
        self.blk_offset = blk_offset
        self.values = values
        self._nnz = int(np.count_nonzero(values)) if nnz_hint is None \
            else int(nnz_hint)
        self._dia_ptr = None
        #: Optional :class:`~repro.formats.dbsr_levels.LevelSchedule`
        #: the batched sweeps walk; attached once when a plan or
        #: smoother is built, never on a request.
        self.schedule = None
        #: Optional :class:`~repro.formats.dbsr_levels.ValueStacks`: the
        #: scheduled sweeps' per-level operands for :attr:`values`,
        #: attached with the schedule and again for each new value set.
        self.stacks = None

    # Construction -----------------------------------------------------
    @classmethod
    def from_csr(cls, csr, bsize: int) -> "DBSRMatrix":
        """Build DBSR tiles from a CSR matrix.

        Works for *any* sparsity pattern; patterns that are not
        single-diagonal-per-tile simply produce more tiles. On a
        vectorized-BMC-reordered structured-grid matrix the tile count
        approaches ``nnz / bsize`` (the paper's ideal).
        """
        bsize = check_positive(bsize, "bsize")
        require(csr.n_rows % bsize == 0,
                "row dimension must be a multiple of bsize")
        rows = np.repeat(np.arange(csr.n_rows, dtype=np.int64),
                         np.diff(csr.indptr))
        cols = csr.indices.astype(np.int64)
        vals = csr.data
        lane = rows % bsize
        browi = rows // bsize
        del rows
        anchor = cols - lane   # column of lane 0 on this tile diagonal
        colblk = cols // bsize  # block column holding this lane
        del cols
        # Tile key: (block row, anchor, block column). Splitting by
        # block column keeps each tile's non-zero lanes inside one
        # block, which Algorithm 4's shifted diagonal loads require.
        order = np.lexsort((colblk, anchor, browi))
        # Each unsorted array goes once its sorted copy exists: a large
        # operator would otherwise hold a dozen nnz-long arrays at once.
        browi_s = browi[order]
        del browi
        anchor_s = anchor[order]
        del anchor
        colblk_s = colblk[order]
        del colblk
        lane_s = lane[order]
        del lane
        vals_s = vals[order]
        del order

        if len(lane_s):
            new_tile = np.empty(len(lane_s), dtype=bool)
            new_tile[0] = True
            new_tile[1:] = ((browi_s[1:] != browi_s[:-1])
                            | (anchor_s[1:] != anchor_s[:-1])
                            | (colblk_s[1:] != colblk_s[:-1]))
            tile_id = np.cumsum(new_tile) - 1
            n_tiles = int(tile_id[-1]) + 1
        else:
            new_tile = np.zeros(0, dtype=bool)
            tile_id = np.zeros(0, dtype=np.int64)
            n_tiles = 0

        values = np.zeros((n_tiles, bsize), dtype=vals.dtype)
        values[tile_id, lane_s] = vals_s
        tile_browi = browi_s[new_tile]
        tile_anchor = anchor_s[new_tile]
        blk_ind = colblk_s[new_tile]
        blk_offset = tile_anchor - blk_ind * bsize

        brow = csr.n_rows // bsize
        counts = np.bincount(tile_browi, minlength=brow)
        blk_ptr = np.zeros(brow + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=blk_ptr[1:])
        return cls(blk_ptr, blk_ind, blk_offset, values, csr.shape,
                   nnz_hint=csr.nnz)

    # Derived structure -------------------------------------------------
    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def n_tiles(self) -> int:
        return len(self.blk_ind)

    @property
    def brow(self) -> int:
        return self.n_rows // self.bsize

    @property
    def anchors(self) -> np.ndarray:
        """Global column of lane 0 for every tile (int64)."""
        return (self.blk_ind.astype(np.int64) * self.bsize
                + self.blk_offset)

    @property
    def dia_ptr(self) -> np.ndarray:
        """Tile index of the main-diagonal tile per block-row.

        ``dia_ptr[i]`` points into ``blk_ind``/``values`` at the tile of
        block-row ``i`` whose anchor equals ``i * bsize`` (offset 0 on
        the main diagonal), as required by the block ILU(0) of
        Algorithm 4. ``-1`` where absent.
        """
        if self._dia_ptr is None:
            row = np.repeat(np.arange(self.brow, dtype=np.int64),
                            np.diff(self.blk_ptr))
            hits = np.flatnonzero((self.blk_ind == row)
                                  & (self.blk_offset == 0))
            rows = row[hits]
            first = np.ones(len(hits), dtype=bool)
            first[1:] = rows[1:] != rows[:-1]
            dia = np.full(self.brow, -1, dtype=np.int64)
            dia[rows[first]] = hits[first]
            self._dia_ptr = dia
        return self._dia_ptr

    def block_row(self, i: int) -> tuple:
        """Return ``(anchors, values)`` views for block-row ``i``."""
        lo, hi = self.blk_ptr[i], self.blk_ptr[i + 1]
        return self.anchors[lo:hi], self.values[lo:hi]

    # Vector padding ----------------------------------------------------
    def pad_vector(self, x: np.ndarray) -> np.ndarray:
        """Return ``x`` with ``bsize`` zero slots on both ends.

        Tile anchors range over ``[-(bsize-1), n_cols-1]`` and vector
        loads span ``bsize`` slots, so a buffer of ``n + 2*bsize`` makes
        every load in-bounds; the paper guarantees the corresponding
        ``values`` lanes are zero, so the extra slots never contribute.
        """
        b = self.bsize
        xp = np.zeros(self.n_cols + 2 * b, dtype=x.dtype)
        xp[b:b + self.n_cols] = x
        return xp

    def unpad_vector(self, xp: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pad_vector` (returns a copy)."""
        b = self.bsize
        return xp[b:b + self.n_cols].copy()

    # Interface ----------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        b = self.bsize
        anchors = self.anchors
        for i in range(self.brow):
            for t in range(self.blk_ptr[i], self.blk_ptr[i + 1]):
                d = anchors[t]
                for l in range(b):
                    c = d + l
                    v = self.values[t, l]
                    if 0 <= c < self.n_cols and v != 0:
                        dense[i * b + l, c] = v
        return dense

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Fully vectorized SpMV over the padded x buffer.

        Equivalent to running the gather-free vector loop of Algorithm 2
        for every tile at once: a fancy-indexed contiguous load per tile,
        lane-wise FMA, and a per-block-row reduction.
        """
        x = np.asarray(x)
        require(x.shape == (self.n_cols,), "x has wrong length")
        b = self.bsize
        xp = self.pad_vector(x)
        if self.n_tiles == 0:
            return np.zeros(self.n_rows, dtype=x.dtype)
        # (n_tiles, b) window starts: anchor + pad shift.
        starts = self.anchors + b
        window = starts[:, None] + np.arange(b)
        prod = self.values * xp[window]
        y = np.zeros((self.brow, b),
                     dtype=np.result_type(self.values, x))
        nonempty = np.flatnonzero(np.diff(self.blk_ptr) > 0)
        if len(nonempty):
            y[nonempty] = np.add.reduceat(prod, self.blk_ptr[nonempty],
                                          axis=0)
        return y.ravel()

    def to_csr(self):
        """Convert back to CSR (padding zeros dropped) — the inverse
        of :meth:`from_csr` up to explicit zeros."""
        from repro.formats.coo import COOMatrix
        from repro.formats.csr import CSRMatrix

        b = self.bsize
        anchors = self.anchors
        tile_rows = (np.repeat(np.arange(self.brow),
                               np.diff(self.blk_ptr))[:, None] * b
                     + np.arange(b)[None, :])
        tile_cols = anchors[:, None] + np.arange(b)[None, :]
        vals = self.values
        keep = (vals != 0) & (tile_cols >= 0) & (tile_cols < self.n_cols)
        coo = COOMatrix(tile_rows[keep], tile_cols[keep], vals[keep],
                        self.shape)
        return CSRMatrix.from_coo(coo)

    def transpose(self) -> "DBSRMatrix":
        """Return the transposed matrix in DBSR form.

        The transpose of a diagonal tile is a diagonal tile, so the
        format is closed under transposition; useful for turning a
        lower factor into an upper one on symmetric patterns.
        """
        require(self.n_cols % self.bsize == 0,
                "transpose needs column dim divisible by bsize")
        from repro.formats.csr import CSRMatrix

        csr_t = CSRMatrix.from_coo(self.to_csr().to_coo().transpose())
        return DBSRMatrix.from_csr(csr_t, self.bsize)

    def astype(self, dtype) -> "DBSRMatrix":
        """Return a copy with values cast to ``dtype`` (e.g. float32)."""
        return DBSRMatrix(
            self.blk_ptr.copy(), self.blk_ind.copy(),
            self.blk_offset.copy(), self.values.astype(dtype),
            self.shape, nnz_hint=self._nnz,
        )

    def memory_report(self, offset_itemsize: int = 4) -> MemoryReport:
        """Storage accounting (Fig. 11).

        Parameters
        ----------
        offset_itemsize:
            Bytes used per ``blk_offset`` entry. The paper notes the
            offset fits in ``log2(bsize)`` bits plus sign; pass ``1`` to
            model an int8 packing, ``4`` for plain int (the Fig. 11
            baseline).
        """
        return MemoryReport(
            format_name=f"DBSR(b={self.bsize})",
            arrays={
                "blk_ptr": self.blk_ptr.nbytes,
                "blk_ind": self.blk_ind.nbytes,
                "blk_offset": len(self.blk_offset) * offset_itemsize,
                "values": self.values.nbytes,
            },
            nnz=self.nnz,
            stored_values=self.values.size,
            value_itemsize=self.values.itemsize,
        )
