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
from repro.simd.counters import OpCounter
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


def sptrsv_model_counter(grid: StructuredGrid, stencil: Stencil,
                         bsize: int, dtype_bytes: int = 8) -> OpCounter:
    """Analytic DBSR SpTRSV counter from geometry alone.

    Shaped like :func:`repro.kernels.counts.sptrsv_dbsr_counts` but
    with nothing assembled: the clipped-stencil nonzero count is the
    closed form ``Σ_off Π_d max(0, dim_d - |off_d|)``, tiles are
    ``ceil(nnz/bsize)``, and — the term that makes the ranking honest
    on small grids — zero padding is charged explicitly. Rows are
    grouped into vector groups of ``bsize`` *within each color*, so
    every color's row count rounds up to a ``bsize`` multiple; the
    padded rows drag their share of tile values and vector traffic
    along. Without this term the model is monotone in ``bsize`` and
    the ranking degenerates to "biggest first".
    """
    from repro.gateway.estimator import stencil_nnz
    from repro.ordering.coloring import _is_star

    check_positive(bsize, "bsize")
    n = int(grid.n_points)
    n_colors = 2 if _is_star(stencil) else 2 ** grid.ndim
    nnz = stencil_nnz(grid, stencil)
    nnz_op = max(1, (nnz - n) // 2)  # one strict triangle
    rows_per_color = n / n_colors
    padded_rows = n_colors * max(
        0.0, math.ceil(rows_per_color / bsize) * bsize - rows_per_color)
    pad_nnz = padded_rows * (nnz_op / n)
    t = max(1, math.ceil((nnz_op + pad_nnz) / bsize))
    brow = max(1, math.ceil((n + padded_rows) / bsize))

    c = OpCounter(bsize=bsize)
    # Per block-row: load rhs, one vload+vfma per tile, divide, store.
    c.vload = 2 * t + 2 * brow
    c.vfma = t
    c.vstore = brow
    c.vdiv = brow
    c.sload = 2 * t  # anchor + tile bounds
    c.bytes_values = t * bsize * dtype_bytes
    c.bytes_index = t * 5 + (brow + 1) * 8  # 4B anchor + 1B amortized ptr
    c.bytes_vector = (t + 3 * brow) * bsize * dtype_bytes
    return c


def modeled_sptrsv_seconds(grid: StructuredGrid, stencil: Stencil,
                           bsize: int, machine: MachineModel,
                           n_workers: int = 1,
                           dtype_bytes: int = 8) -> float:
    """Roofline estimate of one DBSR SpTRSV sweep at ``bsize``.

    ``max(compute, memory) + sync`` via
    :meth:`~repro.simd.machine.MachineModel.kernel_seconds`, with the
    exploitable concurrency capped at the analytic vector groups per
    color — an infeasibly large ``bsize`` starves the workers and the
    model sees it.
    """
    from repro.ordering.coloring import _is_star

    n_colors = 2 if _is_star(stencil) else 2 ** grid.ndim
    counter = sptrsv_model_counter(grid, stencil, bsize,
                                   dtype_bytes=dtype_bytes)
    groups = max(1.0, grid.n_points / (bsize * n_colors))
    return machine.kernel_seconds(
        counter, threads=n_workers, dtype_bytes=dtype_bytes,
        n_barriers=n_colors, parallelism=groups)


def rank_bsizes_roofline(grid: StructuredGrid, stencil: Stencil,
                         machine: MachineModel, bsizes,
                         n_workers: int = 1,
                         dtype_bytes: int = 8) -> list:
    """``bsizes`` sorted fastest-modeled-first (ties: larger first)."""
    return sorted(bsizes, key=lambda b: (modeled_sptrsv_seconds(
        grid, stencil, b, machine, n_workers=n_workers,
        dtype_bytes=dtype_bytes), -b))


def measure_bsize_seconds(grid: StructuredGrid, stencil: Stencil,
                          bsize: int, n_workers: int = 1,
                          dtype_bytes: int = 8, repeats: int = 3,
                          matrix=None) -> float:
    """Build candidate structures and time one SpTRSV sweep (best-of).

    The timed sweep is the lower solve ``(L + D) x = b`` of the default
    backend tier at ``k = 1`` — the kernel served plans execute. This
    is the cost roofline pruning avoids: the AUTO partition, the vBMC
    ordering, the permutation apply, the triangular split and the DBSR
    conversion are all rebuilt per candidate before the first timed
    sweep can run. ``matrix`` lets callers share the assembled
    (candidate-independent) operator across candidates.
    """
    from repro.backends import resolve_backend
    from repro.formats.dbsr import DBSRMatrix
    from repro.grids.assembly import assemble_csr
    from repro.kernels.sptrsv_csr import split_triangular
    from repro.ordering.coloring import _is_star
    from repro.ordering.vbmc import build_vbmc

    check_positive(repeats, "repeats")
    n_colors = 2 if _is_star(stencil) else 2 ** grid.ndim
    dtype = np.float32 if dtype_bytes == 4 else np.float64
    A = matrix if matrix is not None \
        else assemble_csr(grid, stencil, dtype=dtype)
    block_dims = auto_block_dims(grid, n_workers, bsize=bsize,
                                 n_colors=n_colors)
    ordering = build_vbmc(grid, stencil, block_dims, bsize)
    Ap = ordering.apply_matrix(A)
    L, D, _U = split_triangular(Ap)
    Ld = DBSRMatrix.from_csr(L, bsize)
    rhs = (np.arange(Ap.n_rows, dtype=Ld.values.dtype) % 7) + 1.0
    B = rhs[:, None]
    backend = resolve_backend()
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        backend.sptrsv_dbsr_multi(Ld, B, D, forward=True)
        best = min(best, time.perf_counter() - t0)
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
    every feasible candidate with ``measure_fn`` (default:
    :func:`measure_bsize_seconds`) and picks the fastest.
    ``"roofline"`` measures only the ``measure_top`` best candidates
    under :func:`modeled_sptrsv_seconds` — when the model ranks well
    (differential-tested on the seed grids) the pick matches the
    exhaustive one at a fraction of the candidate builds.
    """
    check_positive(n_workers, "n_workers")
    if prune not in PRUNE_MODES:
        raise ValueError(
            f"unknown prune mode {prune!r}; known: {PRUNE_MODES}")
    from repro.ordering.coloring import _is_star

    t0 = time.perf_counter()
    n_colors = 2 if _is_star(stencil) else 2 ** grid.ndim

    def feasible(b: int) -> bool:
        block_dims = auto_block_dims(grid, n_workers, bsize=b,
                                     n_colors=n_colors)
        if int(np.prod(block_dims)) < min_block_points \
                and grid.n_points >= min_block_points * n_colors:
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

        def measure_fn(b):
            return measure_bsize_seconds(
                grid, stencil, b, n_workers=n_workers,
                dtype_bytes=dtype_bytes, repeats=measure_repeats,
                matrix=A)

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
