"""Stage-major ILU(0) schedules: invariants and raw-bit identity.

:func:`~repro.ilu.ilu0_dbsr.build_ilu0_schedule` groups Algorithm 4's
eliminations into dependency stages, and
:func:`~repro.ilu.ilu0_dbsr.ilu0_refactorize_dbsr` runs one batched
divide and one batched update per stage. The stage invariants are
checked against the windows the schedule itself records, and the
replay against the row loop of
:func:`~repro.ilu.ilu0_dbsr.ilu0_factorize_dbsr` bit for bit.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix
from repro.grids.grid import StructuredGrid
from repro.ilu.ilu0_dbsr import (
    DBSRILUFactors,
    build_ilu0_schedule,
    ilu0_factorize_dbsr,
    ilu0_refactorize_dbsr,
)
from repro.resilience.errors import PlanValidationError
from repro.resilience.guardrails import validate_plan
from repro.serve.ilu_plan import _scatter_dbsr_values, compile_ilu_plan
from repro.serve.plan import PlanConfig

BSIZES = (1, 2, 4, 8, 16, 32)
STENCILS = ("7pt", "27pt")


@functools.lru_cache(maxsize=None)
def _plan(stencil: str, nx: int, bsize: int):
    return compile_ilu_plan(StructuredGrid((nx, nx, nx)), stencil,
                            PlanConfig(bsize=bsize))


def _unfactored(plan, values_src: np.ndarray) -> DBSRMatrix:
    """The plan's DBSR skeleton carrying one unfactored snapshot."""
    skel = plan.factors.matrix
    values = _scatter_dbsr_values(plan.dbsr_scatter, values_src,
                                  plan.bsize, skel.values.dtype)
    return DBSRMatrix(skel.blk_ptr.copy(), skel.blk_ind.copy(),
                      skel.blk_offset.copy(), values, skel.shape,
                      nnz_hint=skel.nnz)


def _random_dbsr(seed: int, n_blocks: int, bsize: int,
                 density: float) -> DBSRMatrix:
    """A diagonally dominant random matrix tiled at ``bsize``: the
    tilings where a pivot row is the eliminating row itself and
    shifted loads cross block-row boundaries in every direction.
    About a third of the block-rows keep no strictly-lower entry, so
    divisor loads of their diagonal tiles also reach back into the
    previous block-row."""
    n = n_blocks * bsize
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) > density] = 0.0
    upper_only = np.repeat(rng.random(n_blocks) < 0.35, bsize)
    dense[np.tril(np.ones((n, n), dtype=bool), -1)
          & upper_only[:, None]] = 0.0
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return DBSRMatrix.from_csr(CSRMatrix.from_dense(dense), bsize)


def _tiles_of_window(start: int, bsize: int, n_tiles: int) -> set:
    """Tiles a window ``[start, start + bsize)`` of the padded flat
    buffer covers (padding tiles excluded)."""
    first = start // bsize - 1
    last = (start + bsize - 1) // bsize - 1
    return {t for t in (first, last) if 0 <= t < n_tiles}


def check_stage_invariants(matrix: DBSRMatrix, schedule) -> None:
    bs = matrix.bsize
    n_tiles = matrix.n_tiles
    row_of = np.repeat(np.arange(matrix.brow), np.diff(matrix.blk_ptr))
    dia = matrix.dia_ptr
    lower = [t for i in range(matrix.brow)
             for t in range(matrix.blk_ptr[i], dia[i])]
    # Every strictly-lower tile is eliminated exactly once.
    assert sorted(schedule.p.tolist()) == lower

    stage_of_p = {}
    last_write = np.full(n_tiles, -1)
    for t in range(schedule.n_stages):
        p = schedule.p[schedule.div_ptr[t]:schedule.div_ptr[t + 1]]
        q = schedule.q[schedule.upd_ptr[t]:schedule.upd_ptr[t + 1]]
        m = schedule.m[schedule.upd_ptr[t]:schedule.upd_ptr[t + 1]]
        rows = row_of[p]
        assert len(set(rows.tolist())) == len(p), "two eliminations " \
            "of one block-row in a stage"
        written = np.concatenate([p, q])
        assert len(set(written.tolist())) == len(written), \
            "divide tiles and update targets not distinct"
        assert set(m.tolist()) <= set(p.tolist())
        assert np.array_equal(row_of[q], row_of[m])
        for tile in p.tolist():
            stage_of_p[tile] = t
        last_write[written] = t
    # A row's eliminations keep their Algorithm-4 order.
    for i in range(matrix.brow):
        stages = [stage_of_p[t] for t in range(matrix.blk_ptr[i], dia[i])]
        assert stages == sorted(set(stages))

    for t in range(schedule.n_stages):
        lo, hi = schedule.div_ptr[t], schedule.div_ptr[t + 1]
        reads = [(int(row_of[p]), d) for p, d in
                 zip(schedule.p[lo:hi].tolist(),
                     schedule.d[lo:hi].tolist())]
        lo, hi = schedule.upd_ptr[t], schedule.upd_ptr[t + 1]
        reads += [(int(row_of[m]), s) for m, s in
                  zip(schedule.m[lo:hi].tolist(),
                      schedule.s[lo:hi].tolist())]
        for row, start in reads:
            for tile in _tiles_of_window(start, bs, n_tiles):
                if row_of[tile] != row:
                    assert last_write[tile] < t, (
                        f"stage {t} reads tile {tile} of block-row "
                        f"{row_of[tile]}, last written in stage "
                        f"{last_write[tile]}")


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(matrix: DBSRMatrix) -> None:
    schedule = build_ilu0_schedule(matrix)
    ref = ilu0_factorize_dbsr(matrix)
    fast = ilu0_refactorize_dbsr(matrix, schedule)
    assert np.array_equal(_bits(ref.matrix.values),
                          _bits(fast.matrix.values))
    assert np.array_equal(ref.dia_ptr, fast.dia_ptr)


def _snapshot(plan, seed: int, specials: float) -> np.ndarray:
    """A ±5% drift of the plan's coefficients, with a ``specials``
    share of them replaced by +Inf, -Inf, 0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    v = plan.values_src * (1.0 + 0.05 * rng.uniform(
        -1.0, 1.0, plan.values_src.shape))
    hit = rng.random(v.shape) < specials
    v[hit] = rng.choice([np.inf, -np.inf, 0.0, -0.0], int(hit.sum()))
    return v


# Stage invariants -----------------------------------------------------

@pytest.mark.parametrize("bsize", BSIZES)
@pytest.mark.parametrize("stencil", STENCILS)
def test_stage_invariants_on_grid_skeletons(stencil, bsize):
    plan = _plan(stencil, 6, bsize)
    check_stage_invariants(plan.factors.matrix, plan.schedule)


@given(seed=st.integers(0, 2**32 - 1), n_blocks=st.integers(2, 8),
       bsize=st.sampled_from([1, 2, 3, 4]),
       density=st.floats(0.05, 0.5))
# Rare tilings where only the row k - 1 dependency orders a divisor
# load after the previous block-row's last elimination.
@example(seed=193, n_blocks=6, bsize=3, density=0.16333547802077245)
@example(seed=558, n_blocks=5, bsize=3, density=0.12350153122101144)
@settings(max_examples=40, deadline=None)
def test_stage_invariants_on_random_tilings(seed, n_blocks, bsize,
                                            density):
    matrix = _random_dbsr(seed, n_blocks, bsize, density)
    if np.any(matrix.dia_ptr < 0):
        return
    check_stage_invariants(matrix, build_ilu0_schedule(matrix))


# Raw-bit identity -----------------------------------------------------

@pytest.mark.parametrize("bsize", BSIZES)
@pytest.mark.parametrize("stencil", STENCILS)
def test_cold_compile_bits_equal_the_row_loop(stencil, bsize):
    plan = _plan(stencil, 6, bsize)
    values = _snapshot(plan, seed=bsize, specials=0.0)
    cold = compile_ilu_plan(plan.grid, stencil, plan.config,
                            values=values)
    ref = ilu0_factorize_dbsr(_unfactored(plan, values))
    assert np.array_equal(_bits(cold.factors.matrix.values),
                          _bits(ref.matrix.values))


@given(stencil=st.sampled_from(STENCILS), nx=st.integers(4, 6),
       bsize=st.sampled_from(BSIZES), seed=st.integers(0, 2**16),
       specials=st.sampled_from([0.0, 0.01, 0.1]))
@settings(max_examples=40, deadline=None)
def test_replay_bits_equal_the_row_loop(stencil, nx, bsize, seed,
                                        specials):
    plan = _plan(stencil, nx, bsize)
    assert_same_bits(_unfactored(plan, _snapshot(plan, seed, specials)))


@given(seed=st.integers(0, 2**32 - 1), n_blocks=st.integers(2, 8),
       bsize=st.sampled_from([1, 2, 3, 4]),
       density=st.floats(0.05, 0.5), specials=st.booleans())
@settings(max_examples=40, deadline=None)
def test_replay_bits_equal_the_row_loop_on_random_tilings(
        seed, n_blocks, bsize, density, specials):
    matrix = _random_dbsr(seed, n_blocks, bsize, density)
    if np.any(matrix.dia_ptr < 0):
        return
    if specials:
        rng = np.random.default_rng(seed)
        hit = (rng.random(matrix.values.shape) < 0.05) \
            & (matrix.values != 0)
        matrix.values[hit] = rng.choice([np.inf, -np.inf, 0.0, -0.0],
                                        int(hit.sum()))
    assert_same_bits(matrix)


# NaN inputs -----------------------------------------------------------

@pytest.mark.parametrize("bsize", BSIZES)
@pytest.mark.parametrize("stencil", STENCILS)
def test_nan_input_keeps_nan_positions_and_other_bits(stencil, bsize):
    """numpy's multiply picks which NaN operand it returns by SIMD
    position, so a batched stage may flip a NaN's sign bit: compare
    NaN positions and the raw bits of every other value."""
    plan = _plan(stencil, 6, bsize)
    rng = np.random.default_rng(bsize)
    values = _snapshot(plan, seed=bsize, specials=0.01)
    nan_at = rng.random(values.shape) < 0.01
    values[nan_at] = rng.choice([np.nan, -np.nan], int(nan_at.sum()))
    matrix = _unfactored(plan, values)
    ref = ilu0_factorize_dbsr(matrix).matrix.values
    fast = ilu0_refactorize_dbsr(matrix, plan.schedule).matrix.values
    assert np.array_equal(np.isnan(ref), np.isnan(fast))
    assert np.any(np.isnan(ref))
    keep = ~np.isnan(ref)
    assert np.array_equal(_bits(ref)[keep], _bits(fast)[keep])

    # Served factors are always finite: both are refused alike.
    refused = []
    for factored in (ref, fast):
        skel = plan.factors.matrix
        factors = DBSRILUFactors(
            matrix=DBSRMatrix(skel.blk_ptr, skel.blk_ind,
                              skel.blk_offset, factored, skel.shape,
                              nnz_hint=skel.nnz),
            dia_ptr=plan.factors.dia_ptr)
        with pytest.raises(PlanValidationError) as ei:
            validate_plan(dataclasses.replace(plan, factors=factors))
        refused.append((ei.value.artifact, str(ei.value)))
    assert refused[0] == refused[1]
    assert refused[0][0] == "ilu_factors.values"
