"""Unit tests for grid block partitioning."""

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.ordering.blocks import (
    auto_block_dims,
    fixed_block_dims,
    partition_grid,
)


def test_partition_counts():
    g = StructuredGrid((8, 8))
    part = partition_grid(g, (4, 4))
    assert part.n_blocks == 4
    assert part.points_per_block == 16
    assert part.block_grid.dims == (2, 2)


def test_block_point_ids_cover_grid():
    g = StructuredGrid((6, 4))
    part = partition_grid(g, (3, 2))
    table = part.all_block_point_ids()
    flat = np.sort(table.ravel())
    assert np.array_equal(flat, np.arange(g.n_points))


def test_block_point_ids_lexicographic_within_block():
    g = StructuredGrid((4, 4))
    part = partition_grid(g, (2, 2))
    ids = part.block_point_ids(0)
    # Block at origin: (0,0),(1,0),(0,1),(1,1) -> 0,1,4,5
    assert list(ids) == [0, 1, 4, 5]


def test_block_point_ids_offset_block():
    g = StructuredGrid((4, 4))
    part = partition_grid(g, (2, 2))
    ids = part.block_point_ids(3)  # block coord (1,1)
    assert list(ids) == [10, 11, 14, 15]


@pytest.mark.parametrize("dims, block_dims", [
    ((12, 8), (3, 4)),
    ((6, 10), (6, 2)),
    ((8, 6, 10), (2, 3, 5)),
    ((4, 12, 6), (4, 2, 3)),
])
def test_all_block_point_ids_stacks_block_point_ids(dims, block_dims):
    """The vectorized id table equals one ``block_point_ids`` row per
    block, and each row matches the points' coordinates."""
    g = StructuredGrid(dims)
    part = partition_grid(g, block_dims)
    table = part.all_block_point_ids()
    rows = [part.block_point_ids(b) for b in range(part.n_blocks)]
    assert table.dtype == np.int64
    assert np.array_equal(table, np.stack(rows))
    for b in (0, part.n_blocks // 2, part.n_blocks - 1):
        corner = [c * e for c, e in
                  zip(part.block_grid.coord(b), block_dims)]
        local = StructuredGrid(block_dims)
        want = [g.index([c + o for c, o in zip(corner, local.coord(i))])
                for i in range(local.n_points)]
        assert list(table[b]) == want


def test_indivisible_rejected():
    with pytest.raises(ValueError):
        partition_grid(StructuredGrid((6, 6)), (4, 4))


def test_fixed_block_dims_64_is_cubic():
    g = StructuredGrid((16, 16, 16))
    dims = fixed_block_dims(g, 64)
    assert int(np.prod(dims)) == 64
    assert dims == (4, 4, 4)


def test_fixed_block_dims_2d():
    g = StructuredGrid((16, 16))
    dims = fixed_block_dims(g, 64)
    assert int(np.prod(dims)) == 64
    assert dims == (8, 8)


def test_auto_blocks_feed_workers():
    g = StructuredGrid((16, 16, 16))
    for workers in (1, 4, 16):
        dims = auto_block_dims(g, workers, bsize=4, n_colors=2)
        n_blocks = g.n_points // int(np.prod(dims))
        assert n_blocks >= workers * 4 * 2


def test_auto_blocks_grow_when_few_workers():
    g = StructuredGrid((16, 16, 16))
    few = auto_block_dims(g, 1, bsize=1)
    many = auto_block_dims(g, 64, bsize=4)
    assert np.prod(few) >= np.prod(many)


def test_auto_fallback_unit_blocks():
    g = StructuredGrid((2, 2))
    dims = auto_block_dims(g, 1000, bsize=8)
    assert dims == (1, 1)
