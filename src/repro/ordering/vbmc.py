"""Vectorized block multi-color ordering (the paper's §III-A, Fig. 2(c)).

Same-color blocks are grouped ``bsize`` at a time; within a group, the
points occupying the same intra-block position across the ``bsize``
blocks receive *consecutive* numbers:

    new_id = group_base + position * bsize + lane

Color priority is preserved, so the iteration (GS/ILU smoothing) visits
the same information per block as classic BMC and the convergence rate
is identical (verified by test). When a color's block count is not a
multiple of ``bsize`` the last group is completed with *virtual blocks*
— padded identity rows that never couple to real unknowns — so the
resulting matrix dimension is a multiple of ``bsize`` and every DBSR
tile has exactly ``bsize`` lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.grids.grid import StructuredGrid
from repro.grids.stencils import Stencil
from repro.ordering.blocks import BlockPartition, partition_grid
from repro.ordering.bmc import color_blocks
from repro.utils.validation import check_positive, require


@dataclass
class ColorSchedule:
    """Parallel schedule over vector groups.

    Group ``t`` covers block-rows ``[t*P, (t+1)*P)`` where ``P`` is
    ``points_per_block``; groups of one color are mutually independent
    (Algorithm 2 line 3's ``#pragma omp parallel for``).

    Attributes
    ----------
    bsize:
        Vector length (lanes per group).
    points_per_block:
        ``P`` — sequential steps within a group.
    color_group_ptr:
        ``n_colors + 1`` pointer; color ``c`` owns groups
        ``[color_group_ptr[c], color_group_ptr[c+1])``.
    """

    bsize: int
    points_per_block: int
    color_group_ptr: np.ndarray

    @property
    def n_colors(self) -> int:
        return len(self.color_group_ptr) - 1

    @property
    def n_groups(self) -> int:
        return int(self.color_group_ptr[-1])

    def groups_of_color(self, color: int) -> range:
        return range(int(self.color_group_ptr[color]),
                     int(self.color_group_ptr[color + 1]))

    def block_rows_of_group(self, group: int) -> range:
        p = self.points_per_block
        return range(group * p, (group + 1) * p)

    def reversed_schedule(self) -> "ColorSchedule":
        """Schedule for backward sweeps (colors in reverse priority).

        The group pointer is unchanged — callers iterate colors from
        ``n_colors - 1`` down and positions from ``P - 1`` down; this
        helper exists to make that intent explicit at call sites.
        """
        return self


@dataclass
class VBMCOrdering:
    """Result of the vectorized BMC reordering.

    Attributes
    ----------
    partition:
        The underlying block partition.
    bsize:
        Vector length.
    block_colors:
        Color per block.
    n_colors:
        Number of block colors.
    schedule:
        The :class:`ColorSchedule` driving parallel kernels.
    old_to_new:
        New (padded) index per original point.
    new_to_old:
        Original point per new index, ``-1`` for virtual padding.
    n_orig, n_padded:
        Original and padded problem sizes.
    """

    partition: BlockPartition
    bsize: int
    block_colors: np.ndarray
    n_colors: int
    schedule: ColorSchedule
    old_to_new: np.ndarray
    new_to_old: np.ndarray
    n_orig: int
    n_padded: int

    @property
    def points_per_block(self) -> int:
        return self.partition.points_per_block

    # Vector mapping ---------------------------------------------------
    def extend(self, vec: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Map an original-order vector into the padded new ordering."""
        vec = np.asarray(vec)
        require(vec.shape == (self.n_orig,), "vector length mismatch")
        out = np.full(self.n_padded, fill, dtype=vec.dtype)
        out[self.old_to_new] = vec
        return out

    def restrict(self, vec: np.ndarray) -> np.ndarray:
        """Map a padded new-order vector back to the original ordering."""
        vec = np.asarray(vec)
        require(vec.shape == (self.n_padded,), "vector length mismatch")
        return vec[self.old_to_new]

    # Matrix mapping ----------------------------------------------------
    def apply_matrix(self, csr: CSRMatrix) -> CSRMatrix:
        """Return the padded, symmetrically permuted matrix.

        Real entries move to their new coordinates; each virtual row
        gets a unit diagonal so triangular solves and ILU remain
        well-posed, and couples to nothing so it never perturbs real
        unknowns.

        Built directly: new row ``r`` gathers old row ``new_to_old[r]``,
        relabels its columns through ``old_to_new`` and sorts them.
        Values pass through ``+ 0`` as a canonical :class:`COOMatrix`
        merge does (``-0.0`` is stored as ``+0.0``), so the result is
        bitwise the COO route's; a matrix with duplicate entries takes
        that route, which sums them.
        """
        require(csr.shape == (self.n_orig, self.n_orig),
                "matrix size mismatch")
        n = self.n_padded
        real = self.new_to_old >= 0
        old_rows = self.new_to_old[real]
        counts = np.ones(n, dtype=np.int64)
        counts[real] = np.diff(csr.indptr)[old_rows]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Source entry of every slot: a run of the old row's entries, or
        # for a virtual row one past the end, where its unit diagonal is
        # appended below.
        shift = np.full(n, csr.nnz, dtype=np.int64)
        shift[real] = csr.indptr[old_rows]
        shift -= indptr[:-1]
        src = np.arange(indptr[-1], dtype=np.int64) \
            + np.repeat(shift, counts)
        virtual = np.flatnonzero(~real)
        cols = np.append(self.old_to_new[csr.indices], 0)[src]
        cols[indptr[virtual]] = virtual
        data = np.append(csr.data, np.ones(1, dtype=csr.data.dtype))[src]
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        keys = rows * n + cols
        # Rows arrive in order, each a short unsorted run, which the
        # stable sort (timsort) handles faster than the default.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            return CSRMatrix.from_coo(COOMatrix(rows, cols, data, (n, n)))
        return CSRMatrix(indptr, cols[order], data[order] + 0, (n, n))

    def validate(self) -> bool:
        """Check group independence: no two blocks in the same group are
        adjacent (they share a color and colors are conflict-free, so
        this follows; the check guards the coloring itself)."""
        coords = self.partition.block_grid.coords_array()
        for color in range(self.n_colors):
            members = np.flatnonzero(self.block_colors == color)
            if len(members) < 2:
                continue
            cc = coords[members]
            # Chebyshev distance >= 2 between same-color blocks.
            for i in range(min(len(members), 64)):  # spot check
                d = np.abs(cc - cc[i]).max(axis=1)
                d[i] = 99
                if d.min() < 2 and not _star_safe(cc, i):
                    return False
        return True


def _star_safe(cc: np.ndarray, i: int) -> bool:
    """Same-color blocks at Chebyshev distance 1 are fine for star
    stencils when they differ in >= 2 axes (diagonal neighbors)."""
    diff = np.abs(cc - cc[i])
    cheb1 = diff.max(axis=1) == 1
    return bool(np.all((diff[cheb1] != 0).sum(axis=1) >= 2))


def build_vbmc(grid: StructuredGrid, stencil: Stencil, block_dims,
               bsize: int) -> VBMCOrdering:
    """Build the vectorized BMC ordering.

    Parameters
    ----------
    grid, stencil:
        Problem geometry and operator.
    block_dims:
        Block extents (must divide the grid dims).
    bsize:
        Vector length. ``bsize=1`` degenerates to classic BMC
        (§III-B: "When bsize = 1, our vectorized BMC will be converted
        to a classic BMC").
    """
    bsize = check_positive(bsize, "bsize")
    partition = partition_grid(grid, block_dims)
    colors = color_blocks(partition, stencil)
    n_colors = int(colors.max()) + 1
    ppb = partition.points_per_block
    table = partition.all_block_point_ids()

    old_to_new = np.empty(grid.n_points, dtype=np.int64)
    new_to_old_parts = []
    color_group_ptr = np.zeros(n_colors + 1, dtype=np.int64)
    new_base = 0
    n_groups = 0
    for color in range(n_colors):
        members = np.flatnonzero(colors == color)
        pad = (-len(members)) % bsize
        lanes_total = len(members) + pad
        groups_here = lanes_total // bsize
        for g in range(groups_here):
            group_blocks = members[g * bsize:(g + 1) * bsize]
            lanes = len(group_blocks)
            # position-major interleave: new = base + pos*bsize + lane
            for lane, blk in enumerate(group_blocks):
                old_to_new[table[blk]] = (
                    new_base + np.arange(ppb) * bsize + lane
                )
            part = np.full(ppb * bsize, -1, dtype=np.int64)
            pos = np.repeat(np.arange(ppb), lanes) * bsize \
                + np.tile(np.arange(lanes), ppb)
            part[pos] = table[group_blocks][
                np.tile(np.arange(lanes), ppb),
                np.repeat(np.arange(ppb), lanes),
            ]
            new_to_old_parts.append(part)
            new_base += ppb * bsize
        n_groups += groups_here
        color_group_ptr[color + 1] = n_groups

    new_to_old = (np.concatenate(new_to_old_parts)
                  if new_to_old_parts else np.zeros(0, dtype=np.int64))
    schedule = ColorSchedule(
        bsize=bsize,
        points_per_block=ppb,
        color_group_ptr=color_group_ptr,
    )
    return VBMCOrdering(
        partition=partition,
        bsize=bsize,
        block_colors=colors,
        n_colors=n_colors,
        schedule=schedule,
        old_to_new=old_to_new,
        new_to_old=new_to_old,
        n_orig=grid.n_points,
        n_padded=new_base,
    )
