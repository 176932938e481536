"""Classic block multi-color (BMC) ordering (Fig. 2(b)).

The grid is tiled into blocks; blocks are colored so same-colored
blocks are independent; blocks are processed color by color, points
within a block sequentially. Same-color blocks can be assigned to
threads freely — the paper's parallelization baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grids.grid import StructuredGrid
from repro.grids.stencils import Stencil, star5_2d, star7_3d, box9_2d, box27_3d
from repro.ordering.blocks import BlockPartition, partition_grid
from repro.ordering.coloring import is_star, point_multicolor
from repro.ordering.permutation import Permutation
from repro.utils.validation import require


def _block_adjacency_stencil(stencil: Stencil, ndim: int) -> Stencil:
    """Stencil describing which *blocks* are coupled.

    For a reach-1 point stencil, a block can only couple to the
    adjacent blocks reachable by the sign pattern of the point stencil:
    star point stencils induce star block adjacency (2 colors suffice),
    box stencils induce box adjacency (``2^ndim`` colors).
    """
    require(stencil.reach <= 1,
            "BMC block coloring supports reach-1 stencils only")
    if is_star(stencil):
        return {1: None, 2: star5_2d(), 3: star7_3d()}[ndim] \
            if ndim > 1 else stencil
    return {2: box9_2d(), 3: box27_3d()}[ndim] if ndim > 1 else stencil


def color_blocks(partition: BlockPartition, stencil: Stencil) -> np.ndarray:
    """Color the block grid so adjacent blocks never share a color.

    Colors are compressed to consecutive ids: degenerate block grids
    (e.g. a single block along one axis) would otherwise leave empty
    color classes that inflate barrier counts and break parallelism
    accounting.
    """
    block_stencil = _block_adjacency_stencil(stencil, partition.grid.ndim)
    if block_stencil is None or partition.grid.ndim == 1:
        coords = partition.block_grid.coords_array()
        colors = (coords.sum(axis=1) % 2).astype(np.int64)
    else:
        colors = point_multicolor(partition.block_grid, block_stencil)
    _, compressed = np.unique(colors, return_inverse=True)
    return compressed.astype(np.int64)


@dataclass
class BMCOrdering:
    """Result of a classic BMC reordering.

    Attributes
    ----------
    partition:
        The block partition used.
    block_colors:
        Color id per block (block-grid id order).
    n_colors:
        Number of colors.
    block_order:
        Block ids in processing order (sorted by color, then id).
    color_block_ptr:
        CSR-style pointer: blocks of color ``c`` occupy
        ``block_order[color_block_ptr[c]:color_block_ptr[c+1]]``.
    perm:
        Point permutation (old lexicographic -> new BMC order).
    """

    partition: BlockPartition
    block_colors: np.ndarray
    n_colors: int
    block_order: np.ndarray
    color_block_ptr: np.ndarray
    perm: Permutation

    @property
    def points_per_block(self) -> int:
        return self.partition.points_per_block

    def blocks_of_color(self, color: int) -> np.ndarray:
        lo, hi = self.color_block_ptr[color], self.color_block_ptr[color + 1]
        return self.block_order[lo:hi]


def build_bmc(grid: StructuredGrid, stencil: Stencil,
              block_dims) -> BMCOrdering:
    """Build the classic BMC ordering of Fig. 2(b).

    Points are renumbered color-major: all points of color-0 blocks
    first (block by block, lexicographic within each block), then
    color 1, and so on.
    """
    partition = partition_grid(grid, block_dims)
    colors = color_blocks(partition, stencil)
    n_colors = int(colors.max()) + 1
    order = np.lexsort((np.arange(partition.n_blocks), colors))
    counts = np.bincount(colors, minlength=n_colors)
    ptr = np.zeros(n_colors + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])

    ppb = partition.points_per_block
    old_to_new = np.empty(grid.n_points, dtype=np.int64)
    table = partition.all_block_point_ids()
    new_base = 0
    for b in order:
        old_to_new[table[b]] = new_base + np.arange(ppb)
        new_base += ppb
    return BMCOrdering(
        partition=partition,
        block_colors=colors,
        n_colors=n_colors,
        block_order=order,
        color_block_ptr=ptr,
        perm=Permutation(old_to_new),
    )
