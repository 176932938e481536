"""Automatic ``bsize`` selection.

The paper (§V-F): "The DBSR format can be varied according to the SIMD
length supported by the hardware platform... in multigrid
computations, bsize can be scaled according to the size of each layer
of the grid to ensure the need for parallelism." This module encodes
that rule: pick the largest ``bsize`` that (a) is a multiple of the
platform's SIMD lanes, (b) keeps at least ``groups_per_worker`` vector
groups per color for every worker, and (c) stays within the paper's
practical ceiling of 64.

Beyond the feasibility rule, :func:`autotune_bsize` also supports
*measured* selection (``prune="exhaustive"``): every feasible
candidate's ordering + DBSR structures are built and its SpTRSV sweep
timed, and the fastest wins. Building per-candidate structures is the
expensive part of a cold compile, so ``prune="roofline"`` first ranks
the feasible candidates with a :class:`~repro.simd.machine.MachineModel`
roofline estimate (padding- and parallelism-aware, after
Schubert-Hager-Fehske's bandwidth-limit analysis) and measures only the
top :data:`MEASURE_TOP` — cutting the candidate builds a cold compile
pays while picking the same ``bsize`` (differential-tested on the seed
grids).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.grids.grid import StructuredGrid
from repro.grids.stencils import Stencil
from repro.ordering.blocks import auto_block_dims, partition_grid
from repro.ordering.bmc import color_blocks
from repro.ordering.coloring import n_colors
from repro.simd.machine import MachineModel
from repro.utils.validation import check_positive

import numpy as np

#: Practical ceiling from the paper's Fig. 10 sweep.
MAX_BSIZE = 64

#: Candidates the roofline-pruned search actually measures.
MEASURE_TOP = 2

#: Recognized ``prune`` modes of :func:`autotune_bsize`.
PRUNE_MODES = (None, "roofline", "exhaustive")


def candidate_bsizes(machine: MachineModel,
                     dtype_bytes: int = 8) -> list:
    """Candidate bsizes: ``lanes * 2**k`` capped at :data:`MAX_BSIZE`.

    Every candidate is a multiple of the platform's SIMD lane count so
    vector groups fill whole registers. Two edge cases are handled
    explicitly rather than degenerating to scalar execution:

    * ``lanes > MAX_BSIZE`` (a register wider than the paper's
      practical ceiling): the only width that both fills a register
      and wastes none is one full register, so the candidate list is
      ``[lanes]`` — previously this silently returned ``[1]``.
    * Non-power-of-two lane counts (e.g. a 384-bit SVE-style register
      giving 6 f64 lanes): doubling from ``lanes`` keeps candidates
      at register multiples (6, 12, 24, 48); the ceiling applies to
      the multiple, not to power-of-two-ness.
    """
    lanes = machine.lanes(dtype_bytes)
    if lanes > MAX_BSIZE:
        return [lanes]
    out = []
    b = lanes
    while b <= MAX_BSIZE:
        out.append(b)
        b *= 2
    return out


def min_blocks_per_color(grid: StructuredGrid, stencil: Stencil,
                         block_dims) -> int:
    """Smallest color class of the given partition."""
    part = partition_grid(grid, block_dims)
    colors = color_blocks(part, stencil)
    return int(np.bincount(colors).min())


@dataclass
class AutotuneResult:
    """Everything one :func:`autotune_bsize` selection did.

    Attributes
    ----------
    bsize:
        The pick.
    prune:
        The mode the selection ran under (``None`` | ``"roofline"`` |
        ``"exhaustive"``).
    candidates:
        Every candidate considered (:func:`candidate_bsizes`).
    feasible:
        The subset passing the partition/parallelism feasibility rule.
    ranked:
        Feasible candidates in roofline-model order (fastest modeled
        first); empty under ``prune=None``.
    measured:
        ``{bsize: best-of seconds}`` for every candidate whose
        structures were actually built and timed. Empty under
        ``prune=None`` — the feasibility rule measures nothing.
    seconds:
        Wall-clock cost of the whole selection (what a cold compile
        pays for autotuning).
    """

    bsize: int
    prune: str | None
    candidates: list = field(default_factory=list)
    feasible: list = field(default_factory=list)
    ranked: list = field(default_factory=list)
    measured: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def measured_candidates(self) -> int:
        """How many candidates paid a structure build + timing."""
        return len(self.measured)


def modeled_sptrsv_seconds(grid: StructuredGrid, stencil: Stencil,
                           bsize: int, machine: MachineModel,
                           n_workers: int = 1,
                           dtype_bytes: int = 8) -> float:
    """Roofline estimate of one DBSR SpTRSV sweep at ``bsize``.

    ``max(compute, memory) + sync`` via
    :meth:`~repro.simd.machine.MachineModel.kernel_seconds`, with the
    exploitable concurrency capped at the analytic vector groups per
    color — an infeasibly large ``bsize`` starves the workers and the
    model sees it. The counts are the lower solve's closed form over
    the geometry estimate
    (:func:`repro.kernels.counts.dbsr_geometry_counts`), padding
    included.
    """
    from repro.kernels.counts import dbsr_geometry_counts

    colors = n_colors(grid, stencil)
    counter = dbsr_geometry_counts(grid, stencil, "lower", bsize,
                                   dtype_bytes=dtype_bytes)
    groups = max(1.0, grid.n_points / (bsize * colors))
    return machine.kernel_seconds(
        counter, threads=n_workers, dtype_bytes=dtype_bytes,
        n_barriers=colors, parallelism=groups)


def rank_bsizes_roofline(grid: StructuredGrid, stencil: Stencil,
                         machine: MachineModel, bsizes,
                         n_workers: int = 1,
                         dtype_bytes: int = 8) -> list:
    """``bsizes`` sorted fastest-modeled-first (ties: larger first)."""
    return sorted(bsizes, key=lambda b: (modeled_sptrsv_seconds(
        grid, stencil, b, machine, n_workers=n_workers,
        dtype_bytes=dtype_bytes), -b))


def _lower_sweep(grid: StructuredGrid, stencil: Stencil, bsize: int,
                 n_workers: int = 1, dtype_bytes: int = 8,
                 matrix=None):
    """Build one candidate's structures; return its untimed sweep.

    The sweep is the lower solve ``(L + D) x = b`` of the default
    backend tier at ``k = 1`` — the kernel served plans execute. The
    build is the cost roofline pruning avoids: the AUTO partition, the
    vBMC ordering, the permutation apply, the triangular split and the
    DBSR conversion are all rebuilt per candidate. ``matrix`` lets
    callers share the assembled (candidate-independent) operator
    across candidates.
    """
    from repro.backends import resolve_backend
    from repro.formats.dbsr import DBSRMatrix
    from repro.grids.assembly import assemble_csr
    from repro.kernels.sptrsv_csr import split_triangular
    from repro.ordering.vbmc import build_vbmc

    dtype = np.float32 if dtype_bytes == 4 else np.float64
    A = matrix if matrix is not None \
        else assemble_csr(grid, stencil, dtype=dtype)
    block_dims = auto_block_dims(grid, n_workers, bsize=bsize,
                                 n_colors=n_colors(grid, stencil))
    ordering = build_vbmc(grid, stencil, block_dims, bsize)
    Ap = ordering.apply_matrix(A)
    L, D, _U = split_triangular(Ap)
    Ld = DBSRMatrix.from_csr(L, bsize)
    rhs = (np.arange(Ap.n_rows, dtype=Ld.values.dtype) % 7) + 1.0
    B = rhs[:, None]
    backend = resolve_backend()
    return lambda: backend.sptrsv_dbsr_multi(Ld, B, D, forward=True)


def _best_of_round_robin(sweeps: dict, repeats: int) -> dict:
    """``{key: best-of-repeats seconds}``, one repeat per key per round.

    Interleaving the repeats across candidates means one host stall
    can slow at most one repeat of each candidate, never every repeat
    of one candidate, so it cannot flip which candidate is fastest.
    """
    check_positive(repeats, "repeats")
    best = {key: math.inf for key in sweeps}
    for _ in range(repeats):
        for key, sweep in sweeps.items():
            t0 = time.perf_counter()
            sweep()
            best[key] = min(best[key], time.perf_counter() - t0)
    return best


def autotune_bsize_result(grid: StructuredGrid, stencil: Stencil,
                          machine: MachineModel, n_workers: int = 1,
                          dtype_bytes: int = 8,
                          groups_per_worker: int = 1,
                          min_block_points: int = 8,
                          prune: str | None = None,
                          measure_top: int = MEASURE_TOP,
                          measure_repeats: int = 3,
                          measure_fn=None) -> AutotuneResult:
    """:func:`autotune_bsize` with the full selection record.

    ``prune=None`` reproduces the historical feasibility rule (largest
    feasible candidate, nothing measured). ``"exhaustive"`` measures
    every feasible candidate with ``measure_fn`` (default: the served
    lower sweep, best of ``measure_repeats`` timed round-robin across
    the candidates) and picks the fastest.
    ``"roofline"`` measures only the ``measure_top`` best candidates
    under :func:`modeled_sptrsv_seconds` — when the model ranks well
    (differential-tested on the seed grids) the pick matches the
    exhaustive one at a fraction of the candidate builds.
    """
    check_positive(n_workers, "n_workers")
    if prune not in PRUNE_MODES:
        raise ValueError(
            f"unknown prune mode {prune!r}; known: {PRUNE_MODES}")
    t0 = time.perf_counter()
    colors = n_colors(grid, stencil)

    def feasible(b: int) -> bool:
        block_dims = auto_block_dims(grid, n_workers, bsize=b,
                                     n_colors=colors)
        if int(np.prod(block_dims)) < min_block_points \
                and grid.n_points >= min_block_points * colors:
            return False
        blocks = min_blocks_per_color(grid, stencil, block_dims)
        return blocks >= b * n_workers * groups_per_worker

    candidates = candidate_bsizes(machine, dtype_bytes)
    feasible_set = [b for b in candidates if feasible(b)]
    result = AutotuneResult(bsize=1, prune=prune,
                            candidates=candidates,
                            feasible=feasible_set)
    if not feasible_set:
        result.seconds = time.perf_counter() - t0
        return result
    if prune is None:
        result.bsize = max(feasible_set)
        result.seconds = time.perf_counter() - t0
        return result

    result.ranked = rank_bsizes_roofline(
        grid, stencil, machine, feasible_set, n_workers=n_workers,
        dtype_bytes=dtype_bytes)
    to_measure = (result.ranked if prune == "exhaustive"
                  else result.ranked[:max(1, int(measure_top))])
    if measure_fn is None:
        from repro.grids.assembly import assemble_csr

        dtype = np.float32 if dtype_bytes == 4 else np.float64
        A = assemble_csr(grid, stencil, dtype=dtype)
        sweeps = {b: _lower_sweep(grid, stencil, b, n_workers=n_workers,
                                  dtype_bytes=dtype_bytes, matrix=A)
                  for b in to_measure}
        result.measured = _best_of_round_robin(sweeps, measure_repeats)
    else:
        result.measured = {b: float(measure_fn(b)) for b in to_measure}
    # Ties break toward the larger bsize, matching the historical rule.
    result.bsize = min(result.measured,
                       key=lambda b: (result.measured[b], -b))
    result.seconds = time.perf_counter() - t0
    return result


def autotune_bsize(grid: StructuredGrid, stencil: Stencil,
                   machine: MachineModel, n_workers: int = 1,
                   dtype_bytes: int = 8,
                   groups_per_worker: int = 1,
                   min_block_points: int = 8,
                   prune: str | None = None) -> int:
    """Pick a ``bsize`` for this grid level / machine / worker count.

    Under the default ``prune=None``, returns the **largest** candidate
    satisfying *both* constraints: its AUTO block partition supplies
    ``n_workers * groups_per_worker`` vector groups per color, *with
    blocks of at least* ``min_block_points`` points (smaller blocks
    degenerate toward MC and its convergence penalty; the block-size
    constraint is waived on grids too small to ever meet it). Falls
    back to ``1`` when no candidate is feasible — the "scale bsize to
    the level" rule for coarse multigrid grids.

    Feasibility is **not monotone** in ``b``: a larger candidate can
    repartition into a coarser block grid whose smallest color class
    clears its (larger) group demand even though a smaller candidate's
    finer partition misses its own. The selection therefore materializes
    the whole feasible set and takes its max — a greedy
    scan-until-first-failure would be wrong.

    ``prune="exhaustive"`` / ``"roofline"`` switch to *measured*
    selection — see :func:`autotune_bsize_result` for the mechanics
    and the full selection record.
    """
    return autotune_bsize_result(
        grid, stencil, machine, n_workers=n_workers,
        dtype_bytes=dtype_bytes, groups_per_worker=groups_per_worker,
        min_block_points=min_block_points, prune=prune).bsize
