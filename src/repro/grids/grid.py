"""Regular structured grid descriptor.

A :class:`StructuredGrid` is a dense lattice of points in 1-D, 2-D or
3-D with lexicographic numbering (x fastest, then y, then z), matching
the "original processing order" of the paper's Fig. 2(a). The grid may
be non-equidistant in effect (spacing only changes stencil weights, not
connectivity), so the connectivity logic here covers both cases the
paper claims applicability for (§III-E).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive, require


class StructuredGrid:
    """Lexicographically numbered regular grid.

    Parameters
    ----------
    dims:
        Extent per dimension, e.g. ``(8, 8)`` for the paper's 2-D
        example or ``(192, 192, 192)`` for the HPCG local domain.
    """

    def __init__(self, dims):
        dims = tuple(check_positive(d, "dim") for d in dims)
        require(1 <= len(dims) <= 3, "grids must be 1-D, 2-D or 3-D")
        self.dims = dims
        self.ndim = len(dims)
        self.n_points = int(np.prod(dims))
        # Strides of lexicographic numbering: x fastest.
        strides = [1]
        for d in dims[:-1]:
            strides.append(strides[-1] * d)
        self.strides = tuple(strides)
        self._coords = None

    # Index <-> coordinate ------------------------------------------------
    def index(self, coord) -> int:
        """Map a coordinate tuple to its lexicographic point id."""
        coord = tuple(int(c) for c in coord)
        require(len(coord) == self.ndim, "coordinate arity mismatch")
        for c, d in zip(coord, self.dims):
            require(0 <= c < d, f"coordinate {coord} out of range")
        return sum(c * s for c, s in zip(coord, self.strides))

    def coord(self, index: int) -> tuple:
        """Map a point id back to its coordinate tuple."""
        require(0 <= index < self.n_points, "index out of range")
        out = []
        for d in self.dims:
            out.append(index % d)
            index //= d
        return tuple(out)

    def coords_array(self) -> np.ndarray:
        """Return the ``(n_points, ndim)`` coordinate array, id order.

        Computed once per grid and shared by every caller, so it is
        read-only.
        """
        if self._coords is None:
            out = np.empty((self.n_points, self.ndim), dtype=np.int64)
            rem = np.arange(self.n_points)
            for axis, d in enumerate(self.dims):
                out[:, axis] = rem % d
                rem = rem // d
            out.flags.writeable = False
            self._coords = out
        return self._coords

    # Neighborhoods --------------------------------------------------------
    def shift_ids(self, offset) -> tuple:
        """Vectorized neighbor lookup for one stencil offset.

        Returns ``(src_ids, dst_ids)``: for every point whose neighbor
        at ``offset`` exists, ``src_ids`` holds the point id and
        ``dst_ids`` the neighbor id. Points whose neighbor would leave
        the grid are excluded (Dirichlet truncation at boundaries).
        """
        offset = tuple(int(o) for o in offset)
        require(len(offset) == self.ndim, "offset arity mismatch")
        coords = self.coords_array()
        valid = np.ones(self.n_points, dtype=bool)
        for axis, o in enumerate(offset):
            shifted = coords[:, axis] + o
            valid &= (shifted >= 0) & (shifted < self.dims[axis])
        src = np.flatnonzero(valid)
        dst = src.copy()
        for axis, o in enumerate(offset):
            dst = dst + o * self.strides[axis]
        return src, dst

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of points on the grid boundary."""
        coords = self.coords_array()
        mask = np.zeros(self.n_points, dtype=bool)
        for axis, d in enumerate(self.dims):
            mask |= (coords[:, axis] == 0) | (coords[:, axis] == d - 1)
        return mask

    def __eq__(self, other) -> bool:
        return isinstance(other, StructuredGrid) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StructuredGrid(dims={self.dims})"
