"""Block-row level schedules and the level-batched ``numpy-fast`` sweeps.

Four things are pinned here:

* the schedule itself: every block-row sits in exactly one level, no
  two rows of a level share a tile window in either direction, and
  every coupled earlier row sits in an earlier level — coupling
  recomputed by brute force from the tiles, not by the builder;
* raw-bit identity (``.view(np.uint64)``, so signed zeros and NaN
  payloads count) of the batched kernels against ``numpy-counted`` for
  ``lower``, ``upper``, ``symgs`` and ``ilu_apply``, on a structure
  with multi-row levels and on one whose levels are all single rows,
  through the padded flat step, the slot loop and the one-row flat
  step, and on ``hpcg-mg``'s and ``ilu-drift``'s structures with NaN,
  +-Inf and -0 in ``X`` and ``B``;
* the per-level rule that picks between them, and the flat-step
  indexes a reduced level reads (tile, lane and row index), built once
  with the layout;
* a value-only ILU repack keeps the very same schedule object and its
  indexes, and gets new value stacks;
* the stacks: read-only, each level's operands, used by every served
  call, and never by a call whose values or diagonal they do not hold
  (another diagonal, a copy with new values, an in-place edit, faults
  on equal coefficients), as far as the values fingerprint's contract
  reaches.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from repro.backends import get_backend
from repro.formats import dbsr_levels
from repro.formats.dbsr_levels import (
    REDUCE_MAX_ELEMS,
    LevelBatch,
    _fingerprint,
    reduce_pays,
)
from repro.grids.grid import StructuredGrid
from repro.grids.problems import hpcg_problem
from repro.kernels.symgs import symgs_dbsr
from repro.multigrid.hierarchy import build_hierarchy, hierarchy_levels
from repro.multigrid.smoothers import make_smoother
from repro.serve import batch
from repro.serve import ilu_plan as ilu_plan_module
from repro.serve.ilu_plan import (
    compile_ilu_plan,
    repack_ilu_plan,
    value_digest,
)
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
            # A scheduled layout leaves no row to the row body.
            assert isinstance(step, LevelBatch)
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
            _check_padded(matrix, step, lo)
            seen += step.tiles.tolist()
        assert n_batches > 0
        # Levels in order, every row once.
        assert sorted(rows) == list(range(matrix.brow))
        assert np.all(np.diff(level_of[rows]) >= 0)
        assert sorted(seen) == [t for i in range(matrix.brow)
                                for t in range(lo[i], hi[i])]


def _check_padded(matrix, step, lo):
    """Slot 0 of every row is the start slot, and slot ``s + 1`` of row
    ``r`` holds the row's ``s``-th tile, or the zero tile
    ``n_tiles``; the lane and row indexes follow."""
    rule = reduce_pays(len(step.rows), matrix.bsize, 1)
    if step.padded is None:
        assert not rule
        return
    assert rule
    ptiles = step.padded[0]
    assert ptiles.shape == (len(step.slots) + 1, len(step.rows))
    assert np.all(ptiles[0] == matrix.n_tiles)
    for r, row in enumerate(step.rows):
        for s in range(len(step.slots)):
            if r < step.slots[s]:
                assert ptiles[s + 1, r] == lo[row] + s
            else:
                assert ptiles[s + 1, r] == matrix.n_tiles
    _check_flat_index(matrix, step)


def _check_flat_index(matrix, step):
    """The lane index reads each slot's window, the zero pad for tile
    ``n_tiles``; the row index is ``rows1 * bsize + lane``; all three
    arrays are read-only."""
    bs = matrix.bsize
    ptiles, lanes, flat = step.padded
    lane = np.arange(bs)
    assert lanes.shape == ptiles.shape + (bs,)
    window = np.where(ptiles < matrix.n_tiles,
                      matrix.anchors[np.minimum(ptiles, matrix.n_tiles - 1)]
                      + bs, 0)
    assert np.array_equal(lanes, window[:, :, None] + lane)
    # Slot 0 reads the zero pad Xp[0:bsize] in every row.
    assert np.array_equal(lanes[0], np.broadcast_to(lane, lanes[0].shape))
    assert np.array_equal(flat, step.rows1[:, None] * bs + lane)
    for a in step.padded:
        assert a.dtype == np.intp
        assert not a.flags.writeable


def _batches(layout):
    return [s for s in layout.steps if isinstance(s, LevelBatch)]


@pytest.fixture(scope="module")
def wide_levels():
    """``tri-large-k8``'s structure: 27pt nx=32 at bsize 64."""
    return compile_plan(StructuredGrid((32, 32, 32)), "27pt", _config(64))


def test_rule_reduces_narrow_levels_and_loops_wide_ones(hpcg_smoothers,
                                                        wide_levels):
    # Every multi-row level of the hpcg-mg smoothers is dispatch-bound
    # at k = 1 and carries its padded index.
    for sm in hpcg_smoothers:
        for step in _batches(sm.dbsr.schedule.full):
            assert reduce_pays(len(step.rows), sm.dbsr.bsize, 1)
            assert step.padded is not None
    # Wide bsize-64 levels keep the slot loop at k = 8, and the rule
    # rejects them at k = 1 too, so no padded index is ever built.
    m = wide_levels.dbsr
    steps = _batches(m.schedule.full)
    assert steps
    for step in steps:
        for k in (8, 1):
            assert not reduce_pays(len(step.rows), m.bsize, k)
        assert step.padded is None


def test_single_row_structure_has_only_single_row_levels(
        single_row, hpcg_smoothers):
    plan, ilu = single_row
    for m in (plan.dbsr, ilu.factors.matrix, hpcg_smoothers[-1].dbsr):
        assert np.all(_level_sizes(m) == 1)
    # The fine level of the same hierarchy does batch rows.
    assert _level_sizes(hpcg_smoothers[0].dbsr).max() > 1


def _one_row_levels(layout, lo, hi):
    """``(row, tiles, step)`` of every one-row level of ``layout``."""
    return [(int(step.rows[0]), int(hi[step.rows[0]] - lo[step.rows[0]]),
             step)
            for step in _batches(layout) if len(step.rows) == 1]


def _check_one_row_index(matrix, one, lo):
    """Each one-row level reduces over its row's tiles in storage order:
    a ``(tiles + 1, 1)`` index that names tile ``n_tiles`` only in its
    start slot."""
    for i, tiles, step in one:
        ptiles = step.padded[0]
        assert ptiles.shape == (tiles + 1, 1)
        assert ptiles[0, 0] == matrix.n_tiles
        assert np.array_equal(ptiles[1:, 0],
                              np.arange(lo[i], lo[i] + tiles))
        _check_flat_index(matrix, step)


def test_one_row_levels_of_hpcg_smoothers_reduce(hpcg_smoothers):
    # Fine, middle and coarsest level: 16, 32 and 8 one-row levels of
    # 18-36 tiles, each one reduction over an unpadded (tiles, 1)
    # index.
    counts = []
    for sm in hpcg_smoothers:
        m = sm.dbsr
        ptr = m.blk_ptr
        one = _one_row_levels(m.schedule.full, ptr[:-1], ptr[1:])
        counts.append(len(one))
        _check_one_row_index(m, one, ptr[:-1])
    assert counts == [16, 32, 8]


def test_few_tile_one_row_levels_reduce_too(single_row):
    # The coarse ILU skeleton's forward and backward sweeps hold one-row
    # levels of every tile count, none among them: they reduce as well.
    _, ilu = single_row
    m, dia = ilu.factors.matrix, ilu.factors.dia_ptr
    sched = m.schedule
    few = set()
    for layout, lo, hi in ((sched.below, m.blk_ptr[:-1], dia),
                           (sched.above, dia + 1, m.blk_ptr[1:])):
        one = _one_row_levels(layout, lo, hi)
        assert len(one) == len(layout.steps) == m.brow
        _check_one_row_index(m, one, lo)
        few |= {tiles for _, tiles, _ in one}
    # Rows with no tile at all, and with 2, among them.
    assert {0, 2} <= few


def test_rule_takes_every_one_row_level_and_cuts_multi_row_ones():
    for bsize in (1, 8, 64):
        for k in (1, 8):
            # One row: always, even where rows * bsize * k is past the
            # multi-row cut.
            assert reduce_pays(1, bsize, k)
    assert 64 * 8 > REDUCE_MAX_ELEMS
    # Several rows: rows * bsize * k against REDUCE_MAX_ELEMS.
    for rows, bsize, k in ((2, 8, 1), (3, 4, 8)):
        assert rows * bsize * k <= REDUCE_MAX_ELEMS
        assert reduce_pays(rows, bsize, k)
    rows = REDUCE_MAX_ELEMS // 8
    assert reduce_pays(rows, 8, 1)
    assert not reduce_pays(rows + 1, 8, 1)
    assert not reduce_pays(2, 8, REDUCE_MAX_ELEMS // 16 + 1)
    assert not reduce_pays(2, 64, 1)
    # Elementwise over arrays of levels, as the layout build calls it;
    # ``inf`` rows (no reduced multi-row level) never reduce.
    assert reduce_pays(np.array([1, 2, 12, 13]), 8, 1).tolist() == [
        True, True, True, False]
    assert not reduce_pays(math.inf, 1, 1)


@pytest.fixture(scope="module")
def served_plans():
    """The structures ``tri-small``, ``tri-large-k8`` and ``ilu-drift``
    serve, compiled with the default (feasibility) autotune."""
    config = PlanConfig(n_workers=2)
    return ([compile_plan(StructuredGrid((nx,) * 3), st, config)
             for st, nx in (("7pt", 16), ("27pt", 32))],
            [compile_ilu_plan(StructuredGrid((nx,) * 3), st, config)
             for st, nx in (("27pt", 16), ("7pt", 24))])


def test_served_structures_have_no_one_row_level(served_plans):
    # The one-row reduction cannot move these workloads: none of their
    # levels holds a single block-row.
    plans, ilus = served_plans
    for m in [p.dbsr for p in plans] + [p.factors.matrix for p in ilus]:
        assert _level_sizes(m).min() > 1


def _rhs(n, k, seed=0):
    B = np.random.default_rng(seed).standard_normal((n, k))
    B[::7] = -0.0
    if k >= 3:
        B[3, 1] = np.inf
        B[n // 2, 1] = PAYLOAD_NAN
        B[n - 5, 1] = -np.inf
        # A -0 column: every padded term must be +0, since x - (-0)
        # turns the -0 the row body keeps into +0.
        B[:, 2] = -0.0
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
    X0[::5] = -0.0
    got = batch.symgs_dbsr_multi(m, sm.diag, X0.copy(), B)
    want = batch.symgs_dbsr_multi_counted(m, sm.diag, X0.copy(), B,
                                          VectorEngine(m.bsize))
    assert _bits_equal(got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_repack_keeps_the_schedule_object():
    grid = StructuredGrid((6, 6, 6))
    plan = compile_ilu_plan(grid, "27pt", _config(8))
    values = plan.values_src * 1.5
    fresh = repack_ilu_plan(plan, values, value_digest(values))
    assert fresh.factors.matrix.schedule is plan.factors.matrix.schedule
    # New values, new stacks: the repack never reuses the old ones.
    stacks = fresh.factors.matrix.stacks
    assert stacks is not plan.factors.matrix.stacks
    assert stacks.values is fresh.factors.matrix.values
    cold = compile_ilu_plan(grid, "27pt", _config(8), values=values)
    B = _rhs(plan.n_padded, 3)
    fast = get_backend("numpy-fast")
    assert _bits_equal(fast.run(fresh, "ilu_apply", B),
                       fast.run(cold, "ilu_apply", B))


def _padded_row_tile(matrix, layout, k):
    """The last real tile of a row that has padding in a level the
    reduction takes at ``k`` columns."""
    for step in _batches(layout):
        if len(step.rows) > 1 and step.slots \
                and step.slots[-1] < len(step.rows) \
                and reduce_pays(len(step.rows), matrix.bsize, k):
            last_row = step.padded[0][:, -1]
            return int(last_row[last_row < matrix.n_tiles][-1])
    raise AssertionError("no padded row in a reduce level")


def _with_inf_tiles(matrix, tiles):
    """A copy of ``matrix`` (same schedule) with ``tiles`` set to
    alternating +Inf/-Inf."""
    out = copy.copy(matrix)
    out.values = matrix.values.copy()
    signs = np.where(np.arange(matrix.bsize) % 2 == 0, np.inf, -np.inf)
    out.values[tiles] = signs
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [1, 3])
def test_padding_never_multiplies_a_real_tile(multi_row, k):
    # ±Inf in a real tile of a reduce level (and in the last tile): a
    # padded slot pointing at any real tile would turn Inf * 0 into a
    # NaN that the row body never computes.
    plan, _ = multi_row
    B = _rhs(plan.n_padded, k)
    engine = VectorEngine(plan.bsize)
    t = _padded_row_tile(plan.dbsr, plan.dbsr.schedule.full, k)
    m = _with_inf_tiles(plan.dbsr, [t, plan.dbsr.n_tiles - 1])
    X0 = np.random.default_rng(3).standard_normal(B.shape)
    got = batch.symgs_dbsr_multi(m, plan.diag, X0.copy(), B)
    want = batch.symgs_dbsr_multi_counted(m, plan.diag, X0.copy(), B,
                                          engine)
    assert _bits_equal(got, want), "symgs"
    for tri, fast, counted in (
            (plan.lower, batch.sptrsv_dbsr_lower_multi,
             batch.sptrsv_dbsr_lower_multi_counted),
            (plan.upper, batch.sptrsv_dbsr_upper_multi,
             batch.sptrsv_dbsr_upper_multi_counted)):
        t = _padded_row_tile(tri, tri.schedule.full, k)
        m = _with_inf_tiles(tri, [t, tri.n_tiles - 1])
        assert _bits_equal(fast(m, B, plan.diag),
                           counted(m, B, engine, plan.diag))


def _one_row_reduce_tile(layout):
    """A tile, not the row's last, of a one-row level the reduction
    takes."""
    for step in _batches(layout):
        if len(step.rows) == 1 and len(step.tiles) > 1:
            return int(step.padded[0][len(step.tiles) // 2, 0])
    raise AssertionError("no one-row reduce level")


def _assert_sweeps_bitwise(plan, ilu, B):
    """Lower, upper, SYMGS and ILU apply of ``numpy-fast`` raw-bit equal
    to ``numpy-counted``, straight on the plans' operators."""
    engine = VectorEngine(plan.bsize)
    X0 = np.random.default_rng(5).standard_normal(B.shape)
    X0[::3] = -0.0
    assert _bits_equal(
        batch.symgs_dbsr_multi(plan.dbsr, plan.diag, X0.copy(), B),
        batch.symgs_dbsr_multi_counted(plan.dbsr, plan.diag, X0.copy(),
                                       B, engine)), "symgs"
    assert _bits_equal(
        batch.sptrsv_dbsr_lower_multi(plan.lower, B, plan.diag),
        batch.sptrsv_dbsr_lower_multi_counted(plan.lower, B, engine,
                                              plan.diag)), "lower"
    assert _bits_equal(
        batch.sptrsv_dbsr_upper_multi(plan.upper, B, plan.diag),
        batch.sptrsv_dbsr_upper_multi_counted(plan.upper, B, engine,
                                              plan.diag)), "upper"
    assert _bits_equal(
        batch.ilu_apply_dbsr_multi(ilu.factors, B),
        batch.ilu_apply_dbsr_multi_counted(ilu.factors, B, engine)), \
        "ilu_apply"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [1, 3, 8])
def test_one_row_reduce_level_with_inf_tile_bitwise(single_row, k):
    # ±Inf in a real tile of a one-row reduce level of every sweep (and
    # in the last tile), with -0 RHS entries (a whole -0 column from
    # k = 3): the reduction's products and fold must keep every bit the
    # row body produces.
    plan, ilu = single_row
    plan = copy.copy(plan)
    for name in ("dbsr", "lower", "upper"):
        m = getattr(plan, name)
        t = _one_row_reduce_tile(m.schedule.full)
        setattr(plan, name, _with_inf_tiles(m, [t, m.n_tiles - 1]))
    m = ilu.factors.matrix
    below = _one_row_reduce_tile(m.schedule.below)
    above = _one_row_reduce_tile(m.schedule.above)
    factors = dataclasses.replace(
        ilu.factors, matrix=_with_inf_tiles(m, [below, above]))
    ilu = copy.copy(ilu)
    ilu.factors = factors
    _assert_sweeps_bitwise(plan, ilu, _rhs(plan.n_padded, k))


@pytest.fixture(scope="module")
def wide_one_row():
    """27pt nx=16 at bsize 64: two one-row levels of 27 tiles beside
    multi-row levels too wide for the padded reduction."""
    grid = StructuredGrid((16, 16, 16))
    return (compile_plan(grid, "27pt", _config(64)),
            compile_ilu_plan(grid, "27pt", _config(64)))


def _sweep_stacks(plan, ilu):
    """``(matrix, SweepStacks)`` of every scheduled sweep of a plan pair."""
    m = ilu.factors.matrix
    return [(plan.dbsr, plan.dbsr.stacks.full),
            (plan.lower, plan.lower.stacks.full),
            (plan.upper, plan.upper.stacks.full),
            (m, m.stacks.below), (m, m.stacks.above)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_row_levels_gather_from_vals_when_no_zero_tile(wide_one_row):
    # No multi-row level of a bsize-64 structure reduces, so only its
    # one-row levels carry a value stack, and a one-row index names the
    # zero tile only in its start slot: each such stack is the zero
    # tile, then exactly its row's tiles.
    plan, ilu = wide_one_row
    k = 8
    n_one = 0
    for matrix, sweep in _sweep_stacks(plan, ilu):
        for step, stack, _ in sweep.steps:
            if len(step.rows) > 1:
                assert not reduce_pays(len(step.rows), matrix.bsize, 1)
                assert stack is None
                continue
            n_one += 1
            ptiles = step.padded[0][1:, 0]
            assert np.all(ptiles < matrix.n_tiles)
            assert _bits_equal(stack[1:, 0, :, 0], matrix.values[ptiles])
            assert _bits_equal(stack[0], np.zeros_like(stack[0]))
    assert n_one
    _assert_sweeps_bitwise(plan, ilu, _rhs(plan.n_padded, k))


@pytest.mark.parametrize("k", [1, 2])
def test_one_row_levels_at_bsize_1_keep_the_sum_order(k):
    # At bsize 1 and k = 1 a one-row level folds into one element, which
    # np.add.reduce would sum pairwise: SYMGS's row sum must still take
    # the tiles one after another.
    grid = StructuredGrid((6, 6, 6))
    plan = compile_plan(grid, "27pt", _config(1))
    assert any(len(s.rows) == 1 for s in _batches(plan.dbsr.schedule.full))
    _assert_sweeps_bitwise(plan, compile_ilu_plan(grid, "27pt", _config(1)),
                           _rhs(plan.n_padded, k, seed=3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_symgs_row_sum_starts_from_plus_zero(multi_row):
    # With non-negative values and a -0 guess every product of a row is
    # -0: the row body's sum is +0 + (-0) + ... = +0, so x stays -0; a
    # sum started from the first product would be -0 and flip x to +0.
    plan, _ = multi_row
    m = copy.copy(plan.dbsr)
    m.values = np.abs(plan.dbsr.values)
    B = _rhs(plan.n_padded, 3)
    X0 = np.random.default_rng(4).standard_normal(B.shape)
    X0[:, 2] = -0.0
    got = batch.symgs_dbsr_multi(m, plan.diag, X0.copy(), B)
    want = batch.symgs_dbsr_multi_counted(m, plan.diag, X0.copy(), B,
                                          VectorEngine(plan.bsize))
    assert _bits_equal(got, want)
    assert np.all(np.signbit(got[:, 2]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_repack_sweeps_read_the_new_values(multi_row, monkeypatch):
    # Inf and -0 coefficients in a reduce-level tile of the factor
    # skeleton. The guardrails refuse non-finite factors; they are
    # bypassed here so the kernels see them.
    monkeypatch.setattr(ilu_plan_module, "validate_plan",
                        lambda plan: None)
    _, plan = multi_row
    fast = get_backend("numpy-fast")
    B = _rhs(plan.n_padded, 3)
    # Warm the original plan's sweeps first: nothing they build may
    # outlive the call and leak into the repack.
    fast.run(plan, "ilu_apply", B.copy())
    bs = plan.bsize
    t = _padded_row_tile(plan.factors.matrix,
                         plan.factors.matrix.schedule.below, 3)
    src = plan.dbsr_scatter[t * bs:(t + 1) * bs]
    src = src[src >= 0]
    values = plan.values_src * 1.25
    values[src] = -0.0
    values[src[0]] = np.inf
    fresh = repack_ilu_plan(plan, values, value_digest(values))
    assert fresh.factors.matrix.schedule is plan.factors.matrix.schedule
    assert np.isinf(fresh.factors.matrix.values[t]).any()
    cold = compile_ilu_plan(plan.grid, "27pt", plan.config, values=values)
    got = fast.run(fresh, "ilu_apply", B.copy())
    assert _bits_equal(got, fast.run(cold, "ilu_apply", B.copy()))
    assert _bits_equal(got, get_backend("numpy-counted").run(
        fresh, "ilu_apply", B.copy()))


def _all_stacks(multi_row, single_row, hpcg_smoothers):
    """``(matrix, SweepStacks, divisor blocks)`` of every scheduled sweep
    of the fixtures; the blocks hold block-row ``i``'s divisors in row
    ``i`` (``None`` for a sweep that divides by nothing)."""
    out = []
    for plan, ilu in (multi_row, single_row):
        blocks = plan.diag.reshape(-1, plan.bsize)
        out += [(m, m.stacks.full, blocks)
                for m in (plan.dbsr, plan.lower, plan.upper)]
        m = ilu.factors.matrix
        out += [(m, m.stacks.below, None),
                (m, m.stacks.above, m.values[ilu.factors.dia_ptr])]
    out += [(s.dbsr, s.dbsr.stacks.full, s.diag.reshape(-1, s.bsize))
            for s in hpcg_smoothers]
    return out


def test_stacks_hold_each_level_operands_read_only(multi_row, single_row,
                                                   hpcg_smoothers):
    n_stacks = 0
    for matrix, sweep, blocks in _all_stacks(multi_row, single_row,
                                             hpcg_smoothers):
        for step, stack, dblock in sweep.steps:
            if blocks is None:
                assert dblock is None
            else:
                assert not dblock.flags.writeable
                assert _bits_equal(dblock[:, :, 0], blocks[step.rows])
            if step.padded is None:
                assert stack is None
                continue
            n_stacks += 1
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0, 0] = 1.0
            # A padded slot holds the zero tile, every other slot its
            # tile's values.
            ptiles = step.padded[0]
            real = ptiles < matrix.n_tiles
            assert _bits_equal(stack[real][:, :, 0],
                               matrix.values[ptiles[real]])
            assert _bits_equal(stack[~real],
                               np.zeros_like(stack[~real]))
    assert n_stacks


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_served_sweeps_build_no_stacks(multi_row, hpcg_smoothers,
                                       monkeypatch):
    # Plan ops and the smoother pass the very values and diagonal they
    # stacked, so no call builds stacks of its own; another diagonal
    # does.
    plan, ilu = multi_row
    built = []

    class Counting(batch.SweepStacks):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(batch, "SweepStacks", Counting)
    fast = get_backend("numpy-fast")
    B = _rhs(plan.n_padded, 3)
    for op in ("lower", "upper", "symgs"):
        fast.run(plan, op, B.copy())
    fast.run(ilu, "ilu_apply", B.copy())
    sm = hpcg_smoothers[0]
    n = sm.dbsr.n_rows
    symgs_dbsr(sm.dbsr, sm.diag, np.zeros(n), np.ones(n))
    assert built == []
    batch.sptrsv_dbsr_lower_multi(plan.lower, B, plan.diag.copy())
    assert built == [plan.lower.schedule.full]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [1, 3])
def test_sweeps_with_another_diag_bitwise(multi_row, k):
    # A diagonal other than the stacked one (new values, a -0, a zero)
    # must divide each level, not the stacked blocks.
    plan, _ = multi_row
    diag = plan.diag * 0.75
    diag[::5] *= -1.0
    diag[3] = -0.0
    diag[7] = 0.0
    B = _rhs(plan.n_padded, k)
    engine = VectorEngine(plan.bsize)
    X0 = np.random.default_rng(6).standard_normal(B.shape)
    assert _bits_equal(
        batch.symgs_dbsr_multi(plan.dbsr, diag, X0.copy(), B),
        batch.symgs_dbsr_multi_counted(plan.dbsr, diag, X0.copy(), B,
                                       engine)), "symgs"
    assert _bits_equal(
        batch.sptrsv_dbsr_lower_multi(plan.lower, B, diag),
        batch.sptrsv_dbsr_lower_multi_counted(plan.lower, B, engine,
                                              diag)), "lower"
    assert _bits_equal(
        batch.sptrsv_dbsr_upper_multi(plan.upper, B, diag),
        batch.sptrsv_dbsr_upper_multi_counted(plan.upper, B, engine,
                                              diag)), "upper"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [1, 3])
def test_in_place_edits_reach_the_sweeps(k):
    # A value or diagonal entry edited in place, as a fault injector's
    # bit flip does, no longer matches the stacks: every sweep must
    # read the edit, so a residual check can still see it. The edited
    # tiles sit in levels that reduce at k = 1, so at k = 1 the stacks
    # themselves would serve the stale values; the ILU tile's first
    # two coefficients are equal, and both are tripled.
    grid = StructuredGrid((12, 12, 12))
    plan = compile_plan(grid, "27pt", _config(8))
    ilu = compile_ilu_plan(grid, "27pt", _config(8))
    B = _rhs(plan.n_padded, k)
    fast = get_backend("numpy-fast")
    before = fast.run(plan, "lower", B.copy())
    for m in (plan.dbsr, plan.lower, plan.upper, ilu.factors.matrix):
        layout = m.schedule.full or m.schedule.below
        m.values[_padded_row_tile(m, layout, 1)] *= 3.0
    plan.diag[plan.n_padded // 2] *= -2.0
    assert not _bits_equal(fast.run(plan, "lower", B.copy()), before)
    _assert_sweeps_bitwise(plan, ilu, B)


def _stacked_equal_pair(matrix, layout, k):
    """Flat indexes into ``matrix.values`` of two equal, non-zero
    coefficients of tiles that a level reducing at ``k`` stacks."""
    tiles = np.concatenate([
        step.padded[0].ravel() for step in _batches(layout)
        if step.padded is not None
        and reduce_pays(len(step.rows), matrix.bsize, k)])
    tiles = np.unique(tiles[tiles < matrix.n_tiles])
    bs = matrix.bsize
    flat = (tiles[:, None] * bs + np.arange(bs)).ravel()
    vals = matrix.values.reshape(-1)[flat]
    for v in vals[vals != 0]:
        hit = flat[vals == v]
        if len(hit) >= 2:
            return hit[:2]
    raise AssertionError("no equal pair of stacked coefficients")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["nan_value", "inf_value"])
def test_faults_on_equal_coefficients_reach_every_sweep(kind):
    # Two nan_value (or inf_value) faults on two equal coefficients
    # change both words the same way, which an XOR of the words cannot
    # see. Every served sweep must still read them at k = 1, where the
    # faulted tiles' levels run from their value stacks.
    grid = StructuredGrid((12, 12, 12))
    plan = compile_plan(grid, "27pt", _config(8))
    ilu = compile_ilu_plan(grid, "27pt", _config(8))
    B = _rhs(plan.n_padded, 1)
    fast = get_backend("numpy-fast")
    counted = get_backend("numpy-counted")
    ops = [(plan, "lower"), (plan, "upper"), (plan, "symgs"),
           (ilu, "ilu_apply")]
    before = {op: fast.run(p, op, B.copy()) for p, op in ops}
    bad = np.nan if kind == "nan_value" else np.inf
    m = ilu.factors.matrix
    for matrix, layout in ((plan.dbsr, plan.dbsr.schedule.full),
                           (plan.lower, plan.lower.schedule.full),
                           (plan.upper, plan.upper.schedule.full),
                           (m, m.schedule.below), (m, m.schedule.above)):
        pair = _stacked_equal_pair(matrix, layout, 1)
        matrix.values.reshape(-1)[pair] = bad
    for p, op in ops:
        got = fast.run(p, op, B.copy())
        assert not _bits_equal(got, before[op]), op
        assert _bits_equal(got, counted.run(p, op, B.copy())), op


def _same_change(a, idx, new):
    out = a.copy()
    out.reshape(-1)[idx] = new
    return out


def test_fingerprint_sees_one_word_and_equal_word_edits():
    a = -np.ones(4096)
    a[::7] = 26.0
    a[5] = 0.25
    base = _fingerprint(a)
    ones = np.flatnonzero(a == -1.0)
    edits = [
        _same_change(a, [5], 0.5),                    # one word
        _same_change(a, [9], np.nextafter(-1.0, 0)),  # one low bit
        _same_change(a, ones[:2], np.nan),            # two NaN faults
        _same_change(a, ones[:2], np.inf),
        _same_change(a, ones[:2], 1.0),               # two sign flips
        _same_change(a, ones[:4], np.inf),            # four Inf faults
        _same_change(a, ones[:2], -3.0),              # equal words x3
        _same_change(a, ones[:64], -0.0),
    ]
    for i, edited in enumerate(edits):
        assert _fingerprint(edited) != base, i
    # 4-byte words sum exactly.
    b = a.astype(np.float32)
    assert _fingerprint(_same_change(b, ones[:2], 1.0)) != _fingerprint(b)
    assert _fingerprint(_same_change(b, ones[:4], np.inf)) \
        != _fingerprint(b)
    assert _fingerprint(None) is None
    assert _fingerprint(a[:1]) != _fingerprint(-a[:1])


def test_values_fingerprint_only_where_stacks_copy_values(wide_levels,
                                                          multi_row):
    # tri-large-k8's operator has no reduced level, so every level reads
    # its values in place: hold checks their identity, never their
    # words, and keeps the diagonal's fingerprint.
    st = wide_levels.dbsr.stacks
    assert not st.copies_values
    assert st.fingerprints[0] is None
    assert st.fingerprints[1] is not None
    assert st.hold(wide_levels.dbsr.values, wide_levels.diag)
    assert not st.hold(wide_levels.dbsr.values.copy(), wide_levels.diag)
    # Reduced levels, and an ILU application's divisors, copy values.
    plan, ilu = multi_row
    assert plan.dbsr.stacks.copies_values
    assert ilu.factors.matrix.stacks.copies_values


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_served_sweeps_build_no_index(multi_row, hpcg_smoothers,
                                      monkeypatch):
    # The lane and row indexes are built with the layout, at set-up:
    # no served call builds a layout or a level of its own.
    plan, ilu = multi_row
    built = []
    for cls in (dbsr_levels.TileLayout, dbsr_levels.LevelBatch):
        init = cls.__init__

        def counting(self, *args, _init=init, _cls=cls):
            built.append(_cls.__name__)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    fast = get_backend("numpy-fast")
    for k in (1, 3):
        B = _rhs(plan.n_padded, k)
        for op in ("lower", "upper", "symgs"):
            fast.run(plan, op, B.copy())
        fast.run(ilu, "ilu_apply", B.copy())
    sm = hpcg_smoothers[0]
    n = sm.dbsr.n_rows
    symgs_dbsr(sm.dbsr, sm.diag, np.zeros(n), np.ones(n))
    assert built == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_repack_shares_flat_indexes_and_rebuilds_only_stacks(monkeypatch):
    grid = StructuredGrid((6, 6, 6))
    plan = compile_ilu_plan(grid, "27pt", _config(8))
    layouts, stacks = [], []
    init = dbsr_levels.TileLayout.__init__
    monkeypatch.setattr(dbsr_levels.TileLayout, "__init__",
                        lambda self, *a: layouts.append(a) or init(self, *a))
    sweep_init = dbsr_levels.SweepStacks.__init__
    monkeypatch.setattr(
        dbsr_levels.SweepStacks, "__init__",
        lambda self, *a: stacks.append(a[0]) or sweep_init(self, *a))
    values = plan.values_src * 1.5
    fresh = repack_ilu_plan(plan, values, value_digest(values))
    old_m, new_m = plan.factors.matrix, fresh.factors.matrix
    assert layouts == []
    assert stacks == [old_m.schedule.below, old_m.schedule.above]
    n_flat = 0
    for name in ("below", "above"):
        old, new = getattr(old_m.stacks, name), getattr(new_m.stacks, name)
        assert new.layout is old.layout
        for (s_old, v_old, _), (s_new, v_new, _) in zip(old.steps,
                                                        new.steps):
            assert s_new is s_old
            if s_old.padded is None:
                continue
            n_flat += 1
            # The very index arrays; a fresh value stack.
            assert all(a is b for a, b in zip(s_new.padded, s_old.padded))
            assert v_new is not v_old
            assert not np.shares_memory(v_new, v_old)
    assert n_flat


def _special(n, k, seed):
    """An ``(n, k)`` block with NaN (payload kept), +-Inf and -0 in
    every column, each at a few rows, so the rest stays finite."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, k))
    A[rng.choice(n, n // 5, replace=False)] = -0.0
    for j in range(k):
        rows = rng.choice(n, 3, replace=False)
        A[rows, j] = (PAYLOAD_NAN, np.inf, -np.inf)
    return A


@pytest.fixture(scope="module")
def flat_structures(hpcg_smoothers):
    """The three ``hpcg-mg`` smoothers with plans on their grids
    (27pt, nx 12, 6 and 3, bsize 8), and ``ilu-drift``'s 27pt nx=16
    ILU skeleton at bsize 32."""
    plans = [(sm, compile_plan(StructuredGrid((nx,) * 3), "27pt",
                               _config(8)),
              compile_ilu_plan(StructuredGrid((nx,) * 3), "27pt",
                               _config(8)))
             for sm, nx in zip(hpcg_smoothers, (12, 6, 3))]
    drift = compile_ilu_plan(StructuredGrid((16, 16, 16)), "27pt",
                             _config(32))
    return plans, drift


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_flat_steps_bitwise_equal_counted(flat_structures, k):
    # Every flat step (gather, multiply, fold, divide, store) keeps the
    # row body's bits, with NaN, +-Inf and -0 in X and B, at every k.
    plans, drift = flat_structures
    fast = get_backend("numpy-fast")
    counted = get_backend("numpy-counted")
    n_flat = 0
    for seed, (sm, plan, ilu) in enumerate(plans):
        m = sm.dbsr
        B = _special(m.n_rows, k, seed)
        X0 = _special(m.n_rows, k, seed + 10)
        got = batch.symgs_dbsr_multi(m, sm.diag, X0.copy(), B)
        want = batch.symgs_dbsr_multi_counted(m, sm.diag, X0.copy(), B,
                                              VectorEngine(m.bsize))
        assert _bits_equal(got, want), ("smoother", seed)
        B = _special(plan.n_padded, k, seed + 20)
        for p, op in ((plan, "lower"), (plan, "upper"), (plan, "symgs"),
                      (ilu, "ilu_apply")):
            assert _bits_equal(fast.run(p, op, B.copy()),
                               counted.run(p, op, B.copy())), (op, seed)
        n_flat += sum(s.padded is not None
                      and reduce_pays(len(s.rows), m.bsize, k)
                      for s in _batches(m.schedule.full))
    # The drifting ILU structure reduces its two-row levels at k = 1.
    assert drift.bsize == 32
    B = _special(drift.n_padded, k, 30)
    assert _bits_equal(fast.run(drift, "ilu_apply", B.copy()),
                       counted.run(drift, "ilu_apply", B.copy()))
    below = drift.factors.matrix.schedule.below
    n_flat += sum(s.padded is not None
                  and reduce_pays(len(s.rows), drift.bsize, k)
                  for s in _batches(below))
    assert n_flat
