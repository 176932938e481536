"""Grid block partitioning.

The BMC method's two knobs are the number of colors and the block size
(§II-B). The evaluation uses two partitioning schemes:

* **FIX** — fixed 64-point blocks (Park et al. [19]).
* **AUTO** — resource-adaptive blocks sized so that each color supplies
  enough parallel blocks for every thread/vector lane (Yang et al. [24]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grids.grid import StructuredGrid
from repro.utils.validation import check_positive, require


@dataclass
class BlockPartition:
    """A tiling of a structured grid into equal rectangular blocks.

    Attributes
    ----------
    grid:
        The partitioned grid.
    block_dims:
        Extent of each block per dimension (divides the grid dims).
    block_grid:
        A :class:`StructuredGrid` over the blocks themselves.
    """

    grid: StructuredGrid
    block_dims: tuple
    block_grid: StructuredGrid

    @property
    def points_per_block(self) -> int:
        return int(np.prod(self.block_dims))

    @property
    def n_blocks(self) -> int:
        return self.block_grid.n_points

    def _local_ids(self) -> np.ndarray:
        """Block-local id offsets, lexicographic within a block (x
        fastest)."""
        local = StructuredGrid(self.block_dims).coords_array()
        return local @ np.asarray(self.grid.strides, dtype=np.int64)

    def block_point_ids(self, block_id: int) -> np.ndarray:
        """Grid point ids of one block, lexicographic within the block."""
        bc = self.block_grid.coord(block_id)
        base = sum(c * b * s for c, b, s in
                   zip(bc, self.block_dims, self.grid.strides))
        return base + self._local_ids()

    def all_block_point_ids(self) -> np.ndarray:
        """``(n_blocks, points_per_block)`` id table, block id order."""
        corner = (np.asarray(self.block_dims, dtype=np.int64)
                  * np.asarray(self.grid.strides, dtype=np.int64))
        base = self.block_grid.coords_array() @ corner
        return base[:, None] + self._local_ids()[None, :]


def partition_grid(grid: StructuredGrid, block_dims) -> BlockPartition:
    """Partition ``grid`` into blocks of shape ``block_dims``."""
    block_dims = tuple(check_positive(b, "block dim") for b in block_dims)
    require(len(block_dims) == grid.ndim, "block dims arity mismatch")
    for g, b in zip(grid.dims, block_dims):
        require(g % b == 0, f"grid dim {g} not divisible by block dim {b}")
    block_grid = StructuredGrid(
        tuple(g // b for g, b in zip(grid.dims, block_dims))
    )
    return BlockPartition(grid=grid, block_dims=block_dims,
                          block_grid=block_grid)


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def fixed_block_dims(grid: StructuredGrid, target_points: int = 64) -> tuple:
    """FIX scheme: blocks of ~``target_points`` points.

    Picks per-dimension divisors whose product is as close to
    ``target_points`` as possible, preferring near-cubic blocks (the
    4x4x4 shape of Park et al.'s 64-point scheme) — elongated blocks
    starve the parity coloring of whole color classes.
    """
    check_positive(target_points, "target_points")
    best = None
    # Search over divisor tuples; grids are small-dimensional so the
    # search space is tiny.
    def rec(axis, dims_so_far, product):
        nonlocal best
        if axis == grid.ndim:
            aspect = max(dims_so_far) / min(dims_so_far)
            score = (abs(product - target_points), aspect)
            if best is None or score < best[0]:
                best = (score, tuple(dims_so_far))
            return
        for d in _divisors(grid.dims[axis]):
            if product * d <= target_points * 2:
                rec(axis + 1, dims_so_far + [d], product * d)

    rec(0, [], 1)
    require(best is not None, "no feasible block partition")
    return best[1]


def auto_block_dims(grid: StructuredGrid, n_workers: int,
                    bsize: int = 1, n_colors: int = 2) -> tuple:
    """AUTO scheme: smallest blocks such that each color still feeds
    every worker with at least one group of ``bsize`` blocks.

    Parameters
    ----------
    grid:
        Grid to partition.
    n_workers:
        Threads (or threads x desired groups per thread).
    bsize:
        Vector length; each schedulable unit consumes ``bsize`` blocks.
    n_colors:
        Number of block colors the ordering will use.

    Notes
    -----
    Larger blocks converge faster but limit parallelism; the AUTO rule
    from [24] grows blocks until ``blocks_per_color`` would drop below
    ``n_workers * bsize``.
    """
    check_positive(n_workers, "n_workers")
    check_positive(bsize, "bsize")
    needed = n_workers * bsize * n_colors
    best = None
    def rec(axis, dims_so_far, n_blocks):
        nonlocal best
        if axis == grid.ndim:
            if n_blocks >= needed:
                ppb = int(np.prod(dims_so_far))
                aspect = max(dims_so_far) / min(dims_so_far)
                key = (ppb, -aspect)
                if best is None or key > best[0]:
                    best = (key, tuple(dims_so_far))
            return
        for d in _divisors(grid.dims[axis]):
            rec(axis + 1, dims_so_far + [d],
                n_blocks * (grid.dims[axis] // d))

    rec(0, [], 1)
    if best is None:
        # Fall back to unit blocks (max parallelism).
        return tuple(1 for _ in grid.dims)
    return best[1]
