"""Block-row level schedules and the level-batched ``numpy-fast`` sweeps.

Three things are pinned here:

* the schedule itself: every block-row sits in exactly one level, no
  two rows of a level share a tile window in either direction, and
  every coupled earlier row sits in an earlier level — coupling
  recomputed by brute force from the tiles, not by the builder;
* raw-bit identity (``.view(np.uint64)``, so signed zeros and NaN
  payloads count) of the batched kernels against ``numpy-counted`` for
  ``lower``, ``upper``, ``symgs`` and ``ilu_apply``, on a structure
  with multi-row levels and on one whose levels are all single rows;
* a value-only ILU repack keeps the very same schedule object.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.formats.dbsr_levels import LevelBatch
from repro.grids.grid import StructuredGrid
from repro.grids.problems import hpcg_problem
from repro.multigrid.hierarchy import build_hierarchy, hierarchy_levels
from repro.multigrid.smoothers import make_smoother
from repro.serve import batch
from repro.serve.ilu_plan import compile_ilu_plan, repack_ilu_plan
from repro.serve.plan import PlanConfig, compile_plan
from repro.simd.engine import VectorEngine

#: A NaN with a non-default payload: payload bits must survive.
PAYLOAD_NAN = np.array([0x7FF8_0000_0000_0123], dtype=np.uint64).view(
    np.float64)[0]


def _config(bsize):
    return PlanConfig(bsize=bsize, n_workers=2)


@pytest.fixture(scope="module")
def multi_row():
    """27pt nx=12 at bsize 8: most levels hold several block-rows."""
    grid = StructuredGrid((12, 12, 12))
    return (compile_plan(grid, "27pt", _config(8)),
            compile_ilu_plan(grid, "27pt", _config(8)))


@pytest.fixture(scope="module")
def single_row():
    """The ``hpcg-mg`` coarsest level (27pt, 3^3 points, bsize 8)."""
    grid = StructuredGrid((3, 3, 3))
    return (compile_plan(grid, "27pt", _config(8)),
            compile_ilu_plan(grid, "27pt", _config(8)))


@pytest.fixture(scope="module")
def hpcg_smoothers():
    problem = hpcg_problem(12)
    top = build_hierarchy(
        problem.grid, problem.stencil,
        lambda g, s, m: make_smoother("dbsr", g, s, m, bsize=8,
                                      n_workers=2),
        n_levels=3, matrix=problem.matrix)
    return [lv.smoother for lv in hierarchy_levels(top)]


def _level_sizes(matrix):
    return np.diff(matrix.schedule.levels.level_ptr)


def _window_rows(matrix):
    """Per block-row, the set of block-rows its tile windows cover."""
    bs, n = matrix.bsize, matrix.n_rows
    anchors = matrix.anchors
    touched = []
    for i in range(matrix.brow):
        rows = set()
        for t in range(matrix.blk_ptr[i], matrix.blk_ptr[i + 1]):
            a = int(anchors[t])
            for c in range(max(a, 0), min(a + bs, n)):
                rows.add(c // bs)
        rows.discard(i)
        touched.append(rows)
    return touched


def _coupled(matrix):
    touched = _window_rows(matrix)
    pairs = set()
    for i, rows in enumerate(touched):
        for j in rows:
            pairs.add((min(i, j), max(i, j)))
    return pairs


def _schedule_matrices(multi_row, single_row, hpcg_smoothers):
    out = []
    for plan, ilu in (multi_row, single_row):
        out += [plan.dbsr, ilu.factors.matrix]
    out += [s.dbsr for s in hpcg_smoothers]
    return out


def test_schedules_are_built_at_compile(multi_row, hpcg_smoothers):
    plan, ilu = multi_row
    levels = plan.dbsr.schedule.levels
    # One structural schedule drives the lower, upper and SYMGS sweeps.
    assert plan.lower.schedule.levels is levels
    assert plan.upper.schedule.levels is levels
    assert ilu.factors.matrix.schedule.below is not None
    assert all(s.dbsr.schedule is not None for s in hpcg_smoothers)


def test_level_invariants(multi_row, single_row, hpcg_smoothers):
    for m in _schedule_matrices(multi_row, single_row, hpcg_smoothers):
        levels = m.schedule.levels
        level_of = levels.level_of
        # One level per block-row, and every level is non-empty.
        assert level_of.shape == (m.brow,)
        assert np.array_equal(np.diff(levels.level_ptr),
                              np.bincount(level_of))
        assert np.all(np.diff(levels.level_ptr) > 0)
        for i, j in _coupled(m):
            # Coupled rows never share a level; the earlier row runs in
            # the earlier level.
            assert level_of[i] < level_of[j], (i, j)


def test_layouts_take_each_tile_once_in_row_order(multi_row):
    plan, ilu = multi_row
    sched = ilu.factors.matrix.schedule
    cases = [(plan.dbsr, plan.dbsr.schedule.full,
              plan.dbsr.blk_ptr[:-1], plan.dbsr.blk_ptr[1:])]
    dia = ilu.factors.dia_ptr
    m = ilu.factors.matrix
    cases += [(m, sched.below, m.blk_ptr[:-1], dia),
              (m, sched.above, dia + 1, m.blk_ptr[1:])]
    for matrix, layout, lo, hi in cases:
        level_of = matrix.schedule.levels.level_of
        seen, rows = [], []
        n_batches = 0
        for step in layout.steps:
            if not isinstance(step, LevelBatch):
                for i in step:
                    seen += range(lo[i], hi[i])
                rows += step
                continue
            n_batches += 1
            rows += step.rows.tolist()
            assert len(set(level_of[step.rows])) == 1
            counts = hi[step.rows] - lo[step.rows]
            assert np.all(np.diff(counts) <= 0)
            a = 0
            for s, m_s in enumerate(step.slots):
                assert m_s == np.count_nonzero(counts > s)
                assert np.array_equal(step.tiles[a:a + m_s],
                                      lo[step.rows[:m_s]] + s)
                a += m_s
            assert a == len(step.tiles)
            assert np.array_equal(step.windows,
                                  matrix.anchors[step.tiles]
                                  + matrix.bsize)
            seen += step.tiles.tolist()
        assert n_batches > 0
        # Levels in order, every row once.
        assert sorted(rows) == list(range(matrix.brow))
        assert np.all(np.diff(level_of[rows]) >= 0)
        assert sorted(seen) == [t for i in range(matrix.brow)
                                for t in range(lo[i], hi[i])]


def test_single_row_structure_has_only_single_row_levels(
        single_row, hpcg_smoothers):
    plan, ilu = single_row
    for m in (plan.dbsr, ilu.factors.matrix, hpcg_smoothers[-1].dbsr):
        assert np.all(_level_sizes(m) == 1)
    # The fine level of the same hierarchy does batch rows.
    assert _level_sizes(hpcg_smoothers[0].dbsr).max() > 1


def _rhs(n, k, seed=0):
    B = np.random.default_rng(seed).standard_normal((n, k))
    B[::7] = -0.0
    if k >= 3:
        B[3, 1] = np.inf
        B[n // 2, 1] = PAYLOAD_NAN
        B[n - 5, 1] = -np.inf
    return B


def _bits_equal(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("structure", ["multi_row", "single_row"])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_batched_sweeps_bitwise_equal_counted(structure, k, request):
    plan, ilu = request.getfixturevalue(structure)
    fast = get_backend("numpy-fast")
    counted = get_backend("numpy-counted")
    B = _rhs(plan.n_padded, k)
    for op in ("lower", "upper", "symgs"):
        got = fast.run(plan, op, B.copy())
        want = counted.run(plan, op, B.copy())
        assert _bits_equal(got, want), op
    got = fast.run(ilu, "ilu_apply", B.copy())
    want = counted.run(ilu, "ilu_apply", B.copy())
    assert _bits_equal(got, want), "ilu_apply"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("which", [0, -1])
def test_smoother_symgs_from_nonzero_guess_bitwise(hpcg_smoothers,
                                                   which):
    sm = hpcg_smoothers[which]
    m = sm.dbsr
    B = _rhs(m.n_rows, 3, seed=1)
    X0 = np.random.default_rng(2).standard_normal(B.shape)
    got = batch.symgs_dbsr_multi(m, sm.diag, X0.copy(), B)
    want = batch.symgs_dbsr_multi_counted(m, sm.diag, X0.copy(), B,
                                          VectorEngine(m.bsize))
    assert _bits_equal(got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_repack_keeps_the_schedule_object():
    grid = StructuredGrid((6, 6, 6))
    plan = compile_ilu_plan(grid, "27pt", _config(8))
    values = plan.values_src * 1.5
    fresh = repack_ilu_plan(plan, values)
    assert fresh.factors.matrix.schedule is plan.factors.matrix.schedule
    cold = compile_ilu_plan(grid, "27pt", _config(8), values=values)
    B = _rhs(plan.n_padded, 3)
    fast = get_backend("numpy-fast")
    assert _bits_equal(fast.run(fresh, "ilu_apply", B),
                       fast.run(cold, "ilu_apply", B))
