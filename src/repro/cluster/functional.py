"""Functional distributed execution (sequentially simulated MPI).

The weak-scaling model in :mod:`repro.cluster.weakscaling` prices halo
exchanges analytically; this module *executes* them: the global grid
is decomposed into per-rank bricks (HPCG-style, with uneven tails when
a grid dimension does not divide evenly), each rank holds a local
matrix whose columns reference owned + ghost unknowns, and
:func:`halo_exchange` moves real data between ranks (sequentially — a
simulated communicator).

Two local column layouts coexist, because they serve different
consumers:

* ``matrix`` — **owned-first**: columns ``< n_owned`` are owned
  unknowns, columns ``>= n_owned`` index the ghost region. The
  distributed ILU/PCG solver keys off this split.
* ``interleaved`` — columns merged in **global-id order**
  (``col_global``). Per-row summation order then matches the global
  CSR operator exactly, so :func:`distributed_spmv` is bit-identical
  to ``A @ x`` — not merely close.

Halo exchanges run off precomputed receive plans (one index-gather per
neighbor rank), so each exchange also reports its message count and
byte volume for the observability layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.decomp import decompose_ranks_nd
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.grids.problems import Problem
from repro.utils.validation import require


def brick_splits(extent: int, parts: int) -> tuple[list, list]:
    """Split ``extent`` grid points into ``parts`` near-equal bricks.

    Returns ``(sizes, starts)``; the first ``extent % parts`` bricks
    get one extra point, so every brick is non-empty as long as
    ``parts <= extent``.
    """
    require(1 <= parts <= extent,
            f"cannot split {extent} points into {parts} bricks")
    base, rem = divmod(extent, parts)
    sizes = [base + 1] * rem + [base] * (parts - rem)
    starts = list(np.cumsum([0] + sizes[:-1]))
    return sizes, starts


@dataclass
class RankDomain:
    """One simulated MPI rank.

    Attributes
    ----------
    rank:
        Rank id (lexicographic in the process grid, x fastest).
    owned_global:
        Global ids of owned points, ascending (local id = position).
    ghost_global:
        Global ids of ghost points this rank reads, ascending.
    ghost_owner:
        Owning rank of each ghost point.
    matrix:
        Local CSR of shape ``(n_owned, n_owned + n_ghost)`` in the
        owned-first layout; columns ``>= n_owned`` index the ghost
        region.
    brick_dims / brick_origin:
        This rank's brick extents and lower corner in the global grid.
    interleaved:
        Same rows as ``matrix`` but with columns in global-id order
        (``col_global``); matvecs through it reproduce the global
        operator bit-for-bit.
    col_global:
        Merged ascending global ids of the interleaved columns.
    own_pos / ghost_pos:
        Positions of the owned / ghost unknowns inside ``col_global``.
    recv_plan:
        Per-neighbor receive plan: ``(owner_rank, src_idx, dst_idx)``
        triples such that ``ghost[dst_idx] = x_owner[src_idx]``.
    """

    rank: int
    owned_global: np.ndarray
    ghost_global: np.ndarray
    ghost_owner: np.ndarray
    matrix: CSRMatrix
    brick_dims: tuple = ()
    brick_origin: tuple = ()
    interleaved: CSRMatrix | None = field(default=None, repr=False)
    col_global: np.ndarray | None = field(default=None, repr=False)
    own_pos: np.ndarray | None = field(default=None, repr=False)
    ghost_pos: np.ndarray | None = field(default=None, repr=False)
    recv_plan: list = field(default_factory=list, repr=False)
    ghost_values: np.ndarray = field(default=None, repr=False)

    @property
    def n_owned(self) -> int:
        return len(self.owned_global)

    @property
    def n_ghost(self) -> int:
        return len(self.ghost_global)

    @property
    def neighbor_ranks(self) -> list:
        """Distinct ranks this rank receives ghost data from."""
        return sorted(int(o) for o in np.unique(self.ghost_owner))

    def halo_bytes(self, dtype_bytes: int = 8) -> int:
        """Bytes received per exchange (one value per ghost)."""
        return self.n_ghost * dtype_bytes


@dataclass
class DistributedProblem:
    """A problem decomposed over a simulated rank grid."""

    problem: Problem
    proc_grid: tuple
    owner_of: np.ndarray
    ranks: list

    @property
    def n_ranks(self) -> int:
        return len(self.ranks)

    # Vector plumbing ----------------------------------------------------
    def scatter(self, global_vec: np.ndarray) -> list:
        """Split a global vector into per-rank owned slices."""
        return [global_vec[r.owned_global].copy() for r in self.ranks]

    def gather(self, locals_: list) -> np.ndarray:
        """Reassemble per-rank owned slices into a global vector."""
        out = np.empty(self.problem.n, dtype=locals_[0].dtype)
        for r, loc in zip(self.ranks, locals_):
            out[r.owned_global] = loc
        return out


def default_proc_grid(n_ranks: int, ndim: int) -> tuple:
    """Most-cubic ``ndim``-ary process grid for ``n_ranks``."""
    return tuple(sorted(decompose_ranks_nd(n_ranks, ndim),
                        reverse=True))


def build_distributed(problem: Problem, n_ranks: int,
                      proc_grid: tuple | None = None
                      ) -> DistributedProblem:
    """Decompose ``problem`` over ``n_ranks`` simulated ranks.

    Grid dimensions need not divide evenly: uneven remainders go to
    the leading bricks of each dimension (every brick stays non-empty,
    so the only rejection is a process grid with more ranks than
    points along some dimension).
    """
    grid = problem.grid
    if proc_grid is None:
        proc_grid = default_proc_grid(n_ranks, grid.ndim)
    require(len(proc_grid) == grid.ndim, "process grid arity mismatch")
    require(int(np.prod(proc_grid)) == n_ranks,
            "process grid does not match rank count")

    splits = [brick_splits(g, p) for g, p in zip(grid.dims, proc_grid)]
    starts = [np.asarray(st) for _, st in splits]
    coords = grid.coords_array()
    rank_coord = np.stack(
        [np.searchsorted(starts[d], coords[:, d], side="right") - 1
         for d in range(grid.ndim)], axis=1)
    proc_strides = [1]
    for p in proc_grid[:-1]:
        proc_strides.append(proc_strides[-1] * p)
    owner_of = (rank_coord * np.asarray(proc_strides)).sum(axis=1)

    A = problem.matrix
    rows_global = np.repeat(np.arange(problem.n), np.diff(A.indptr))
    ranks = []
    for r in range(n_ranks):
        pc = []
        rr = r
        for p in proc_grid:
            pc.append(rr % p)
            rr //= p
        brick_dims = tuple(splits[d][0][pc[d]]
                           for d in range(grid.ndim))
        brick_origin = tuple(int(starts[d][pc[d]])
                             for d in range(grid.ndim))
        owned = np.flatnonzero(owner_of == r)
        mask = owner_of[rows_global] == r
        sub_rows = rows_global[mask]
        sub_cols = A.indices[mask]
        sub_vals = A.data[mask]
        ghost = np.unique(
            sub_cols[owner_of[sub_cols] != r]).astype(np.int64)
        new_rows = np.searchsorted(owned, sub_rows)
        is_owned_col = owner_of[sub_cols] == r
        new_cols = np.where(
            is_owned_col,
            np.searchsorted(owned, sub_cols),
            len(owned) + np.searchsorted(ghost, sub_cols))
        local = CSRMatrix.from_coo(COOMatrix(
            new_rows, new_cols, sub_vals,
            (len(owned), len(owned) + len(ghost))))
        # Interleaved layout: columns merged in global-id order, so
        # CSR row sums run in exactly the global operator's order.
        col_global = np.sort(np.concatenate([owned, ghost]))
        inter = CSRMatrix.from_coo(COOMatrix(
            new_rows, np.searchsorted(col_global, sub_cols),
            sub_vals.copy(), (len(owned), len(col_global))))
        ranks.append(RankDomain(
            rank=r, owned_global=owned, ghost_global=ghost,
            ghost_owner=owner_of[ghost], matrix=local,
            brick_dims=brick_dims, brick_origin=brick_origin,
            interleaved=inter, col_global=col_global,
            own_pos=np.searchsorted(col_global, owned),
            ghost_pos=np.searchsorted(col_global, ghost),
        ))
    for r in ranks:
        r.recv_plan = _build_recv_plan(r, ranks)
    return DistributedProblem(problem=problem, proc_grid=proc_grid,
                              owner_of=owner_of, ranks=ranks)


def _build_recv_plan(r: RankDomain, ranks: list) -> list:
    """Group a rank's ghosts by owner into gather triples."""
    if r.n_ghost == 0:
        return []
    order = np.argsort(r.ghost_owner, kind="stable")
    owners = r.ghost_owner[order]
    bounds = np.flatnonzero(np.diff(owners)) + 1
    plan = []
    for seg in np.split(order, bounds):
        owner = int(r.ghost_owner[seg[0]])
        src = np.searchsorted(ranks[owner].owned_global,
                              r.ghost_global[seg])
        plan.append((owner, src, seg))
    return plan


def halo_exchange(dist: DistributedProblem, x_locals: list) -> dict:
    """Fill every rank's ghost buffer from the owners' local data.

    Returns exchange statistics: total ``values`` moved, point-to-point
    ``messages`` (one per (receiver, owner) pair), and ``bytes``.
    """
    dtype = np.asarray(x_locals[0]).dtype
    values = messages = 0
    for r in dist.ranks:
        if r.ghost_values is None or \
                r.ghost_values.shape != (r.n_ghost,) or \
                r.ghost_values.dtype != dtype:
            r.ghost_values = np.zeros(r.n_ghost, dtype=dtype)
        for owner, src, dst in r.recv_plan:
            r.ghost_values[dst] = x_locals[owner][src]
            messages += 1
        values += r.n_ghost
    return {"values": values, "messages": messages,
            "bytes": values * dtype.itemsize}


def interleave_full(r: RankDomain, x_owned: np.ndarray,
                    x_ghost: np.ndarray) -> np.ndarray:
    """Merge owned + ghost data into the interleaved column order."""
    shape = (len(r.col_global),) + x_owned.shape[1:]
    xfull = np.empty(shape, dtype=x_owned.dtype)
    xfull[r.own_pos] = x_owned
    if r.n_ghost:
        xfull[r.ghost_pos] = x_ghost
    return xfull


def distributed_spmv(dist: DistributedProblem, x_locals: list) -> list:
    """``A @ x`` executed rank by rank with a preceding halo exchange.

    Bit-identical to the global matvec: each local row's nonzeros sit
    in global column order in the ``interleaved`` matrix, so
    ``np.add.reduceat`` accumulates in the same order as the global
    CSR row.
    """
    halo_exchange(dist, x_locals)
    out = []
    for r, xl in zip(dist.ranks, x_locals):
        xfull = interleave_full(r, xl, r.ghost_values)
        out.append(r.interleaved.matvec(xfull))
    return out


def distributed_dot(x_locals: list, y_locals: list) -> float:
    """Allreduce-style global dot product."""
    return float(sum(float(x @ y)
                     for x, y in zip(x_locals, y_locals)))


def distributed_residual_norm(dist: DistributedProblem, x_locals: list,
                              b_locals: list) -> float:
    """Global ``||b - A x||`` via distributed SpMV + allreduce."""
    y = distributed_spmv(dist, x_locals)
    sq = sum(float(((b - yy) ** 2).sum())
             for b, yy in zip(b_locals, y))
    return float(np.sqrt(sq))
