"""Multi-color orderings.

Two flavors, matching the paper's related work:

* Structured point/block coloring for grids: parity-based colorings
  that are provably conflict-free for reach-1 stencils (red-black for
  star stencils, ``2^ndim`` colors for box stencils).
* Greedy algebraic coloring on an arbitrary CSR adjacency (the ABMC
  route, Iwashita et al.), used to cross-check the structured coloring
  and to color block graphs of irregular partitions.
"""

from __future__ import annotations

import numpy as np

from repro.grids.grid import StructuredGrid
from repro.grids.stencils import Stencil
from repro.utils.validation import require


def is_star(stencil: Stencil) -> bool:
    """True when every offset touches at most one axis (star shape)."""
    return all(
        sum(1 for c in off if c != 0) <= 1 for off in stencil.offsets
    )


def n_colors(grid: StructuredGrid, stencil: Stencil) -> int:
    """Colors of the structured coloring: red-black (2) for star
    stencils, ``2^ndim`` for box stencils."""
    return 2 if is_star(stencil) else 2 ** grid.ndim


def point_multicolor(grid: StructuredGrid, stencil: Stencil) -> np.ndarray:
    """Color grid points so stencil neighbors never share a color.

    Star stencils get the classic red-black 2-coloring (color = parity
    of coordinate sum). Box stencils get the parity-vector coloring
    with ``2^ndim`` colors. Both are exact minimum colorings for
    reach-1 stencils on large grids.

    Returns
    -------
    ndarray
        ``colors[i]`` in ``[0, n_colors)`` per point id.
    """
    require(stencil.reach <= 1,
            "structured coloring supports reach-1 stencils only")
    coords = grid.coords_array()
    if is_star(stencil):
        return (coords.sum(axis=1) % 2).astype(np.int64)
    colors = np.zeros(grid.n_points, dtype=np.int64)
    for axis in range(grid.ndim):
        colors |= (coords[:, axis] % 2) << axis
    return colors


def greedy_coloring(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """First-fit greedy coloring of an adjacency in CSR form.

    Deterministic (processes vertices in index order), so results are
    reproducible. Self-loops are ignored.
    """
    n = len(indptr) - 1
    colors = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        nbrs = indices[indptr[v]:indptr[v + 1]]
        used = set(colors[u] for u in nbrs if u != v and colors[u] >= 0)
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def validate_coloring(indptr: np.ndarray, indices: np.ndarray,
                      colors: np.ndarray) -> bool:
    """Check that no edge connects same-colored vertices (self-loops ok)."""
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    mask = rows != indices
    return bool(np.all(colors[rows[mask]] != colors[indices[mask]]))


def color_counts(colors: np.ndarray) -> np.ndarray:
    """Number of vertices per color, indexed by color id."""
    return np.bincount(colors)
