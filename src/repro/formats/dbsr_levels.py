"""Block-row level schedules for the DBSR sweeps.

Every DBSR sweep (Algorithm 2's lower and upper solves, SYMGS and the
two sweeps of a block ILU(0) application) solves block-rows one after
another, and each tile of row ``i`` reads the ``bsize``-long window
``x[anchor : anchor + bsize]``. After vectorized BMC, many block-rows
read no window that another one writes. A *level* gathers block-rows
with no such coupling: each row's level is one more than the highest
level among the earlier block-rows it shares a tile window with, in
either direction (a window of one covers part of the other's rows).
That is the block form of Anderson–Saad level scheduling
(:func:`repro.kernels.sptrsv_level.build_levels` is the scalar CSR
form).

Two properties make a level batch bit-identical to the row loop:

* every earlier coupled row sits in an earlier level and every later
  coupled row in a later one, so a row reads exactly the ``x`` values
  it reads in the sequential sweep (forward or, walking the levels in
  reverse, backward);
* coupling is decided by whole windows, not by non-zero lanes, so the
  zero-valued overrun lanes of a window also read the same ``x`` and
  ``0 * inf`` still produces the same NaN.

Levels depend only on the skeleton, so one :class:`BlockLevels` serves
every operator that shares it (the full operator and its strict
triangles, or an ILU(0) factor skeleton across value repacks). A
:class:`TileLayout` lays one sweep's tiles out per level in slot-major
order — slot ``s`` holds the ``s``-th tile of every row that has one,
rows sorted by descending tile count — so the batched kernels of
:mod:`repro.serve.batch` update a level with one contiguous-slice
operation per slot while each row still takes its tiles in storage
order. Levels that :func:`reduce_pays` accepts at ``k = 1`` also get,
built vectorized with the layout, the indexes of one flat step: a
``(slots + 1, rows)`` tile index whose start slot 0 and missing slots
point at tile ``n_tiles``, the ``(slots + 1, rows, bsize)`` lane index
of the padded-buffer rows each slot reads (a tile's window lanes, or
the zero pad ``Xp[0:bsize]`` for tile ``n_tiles``), and the ``(rows,
bsize)`` index of the rows' own lanes. The kernels solve such a level
with one take over the lane index, one multiply, one axis-0 reduction
and one store through the row index. A level of one row gets the same
indexes, with no missing slot, and reduces at every ``k``. A
:class:`LevelSchedule` bundles the levels with the layouts of one
matrix and rides on it as :attr:`DBSRMatrix.schedule`; the flat-step
indexes are read-only and shared by every value set of the skeleton.

Values are fixed while a plan or smoother lives, so a level's operands
are laid out once per value set, not once per call: a
:class:`ValueStacks` on :attr:`DBSRMatrix.stacks` holds every reduced
level's read-only ``(slots + 1, rows, bsize, 1)`` value stack, the
zero tile baked into its start and padded slots, and every level's
diagonal block. A value-only ILU repack shares the layouts and their
indexes and builds fresh stacks. Slot-loop levels (the bsize-64
structures) read the values in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.formats.dbsr import DBSRMatrix
from repro.utils.validation import require


@dataclass(frozen=True, eq=False)
class BlockLevels:
    """A block-row level partition of one DBSR skeleton.

    Attributes
    ----------
    level_of:
        ``(brow,)`` level of every block-row.
    level_ptr:
        ``(n_levels + 1,)`` cumulative row counts: level ``L`` holds
        ``level_ptr[L + 1] - level_ptr[L]`` block-rows.
    """

    level_of: np.ndarray
    level_ptr: np.ndarray

    @property
    def n_levels(self) -> int:
        return len(self.level_ptr) - 1


def build_block_levels(matrix: DBSRMatrix) -> BlockLevels:
    """Level every block-row of ``matrix`` by its tile windows.

    A window ``x[a : a + bsize]`` covers block-row ``a // bsize`` and,
    when ``a`` is unaligned, the next one; windows reaching into the
    zero padding outside ``[0, n)`` couple with nothing. Rows are
    visited in order: a row takes one more than the highest level among
    the earlier rows its windows cover and the earlier rows whose
    windows cover it (pushed forward as ``floor``).
    """
    bs, brow = matrix.bsize, matrix.brow
    require(matrix.n_cols == matrix.n_rows,
            "level schedules need a square matrix")
    anchors = matrix.anchors
    first = anchors // bs
    row = np.repeat(np.arange(brow, dtype=np.int64),
                    2 * np.diff(matrix.blk_ptr))
    other = np.stack([first, first + (anchors % bs != 0)], 1).ravel()
    keep = (other >= 0) & (other < brow) & (other != row)
    row, other = row[keep], other[keep]
    # Tiles are stored by ascending anchor, so most repeats are
    # adjacent; the rest are harmless to the max below.
    fresh = np.ones(len(row), dtype=bool)
    fresh[1:] = (row[1:] != row[:-1]) | (other[1:] != other[:-1])
    ptr = np.searchsorted(row[fresh], np.arange(brow + 1)).tolist()
    touched = other[fresh].tolist()
    level = [0] * brow
    floor = [0] * brow
    for i in range(brow):
        lv = floor[i]
        later = []
        for j in touched[ptr[i]:ptr[i + 1]]:
            if j > i:
                later.append(j)
            elif level[j] >= lv:
                lv = level[j] + 1
        level[i] = lv
        for j in later:
            if floor[j] <= lv:
                floor[j] = lv + 1
    level_of = np.asarray(level, dtype=np.int64)
    n_levels = int(level_of.max()) + 1 if brow else 0
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(np.bincount(level_of, minlength=n_levels),
              out=level_ptr[1:])
    return BlockLevels(level_of=level_of, level_ptr=level_ptr)


#: Largest slot update, in elements (mean tiles per slot with padding
#: counted, times ``bsize * k``), for which :func:`reduce_pays` hands a
#: level of two or more rows to the padded reduction. Fitted from
#: whole-sweep timings of the served kernels (``docs/backends.md``);
#: below 128, so bsize-64 levels keep the slot loop and carry no
#: flat-step index.
REDUCE_MAX_ELEMS = 96


def reduce_pays(rows, bsize: int, k: int):
    """Whether a level of ``rows`` block-rows runs as one axis-0
    reduction at ``k`` columns; elementwise on arrays of levels.

    A level of two or more rows: a slot of the slot loop costs one
    dispatch plus its elements, while the reduction needs no per-slot
    dispatch but pays for every padded tile (``rows`` per slot). It
    wins while a slot update is small enough to be dispatch-bound. The
    work grows with ``k``, so a level rejected at ``k = 1`` is rejected
    at every ``k`` (and gets no flat-step index).

    A one-row level has nothing to pad: the reduction replaces the row
    body's two dispatches per tile with a fixed few, at every ``k``.
    """
    return (rows == 1) | (rows * bsize * k <= REDUCE_MAX_ELEMS)


class LevelBatch:
    """One level of a scheduled layout, laid out for one sweep.

    ``rows`` are sorted by descending tile count and ``rows1`` is
    ``rows + 1`` (their block index in the padded buffer); ``span`` is
    the slice of the layout's :attr:`TileLayout.rows` they fill.
    ``tiles`` and ``windows`` (tile anchors shifted by ``bsize``:
    window starts in the padded buffer) list the level's tiles
    slot-major: slot ``s`` holds the ``s``-th tile of
    ``rows[:slots[s]]``, right after the tiles of slots ``0 .. s - 1``.

    ``padded`` is ``None`` unless :func:`reduce_pays` accepts the level
    at ``k = 1``; then it is the read-only triple ``(tiles, lanes,
    flat)`` that runs the level as one flat step. ``tiles`` is the
    ``(slots + 1, rows)`` tile index: slot 0 is the start slot, and
    slot ``s + 1`` holds each row's ``s``-th tile. The start slot and
    a row's missing slots hold tile ``n_tiles``, the zero tile of the
    level's value stack. ``lanes`` is the ``(slots + 1, rows, bsize)``
    index of the buffer rows each slot reads: a tile's window lanes,
    or the zero pad ``Xp[0:bsize]`` for tile ``n_tiles``. ``flat`` is
    the ``(rows, bsize)`` index of the rows' own lanes, ``rows1 *
    bsize + lane``. A one-row level has no missing slot, so only its
    start slot names the zero tile.
    """

    __slots__ = ("rows", "rows1", "tiles", "windows", "slots", "padded",
                 "span")

    def __init__(self, rows: np.ndarray, tiles: np.ndarray,
                 windows: np.ndarray, slots: tuple, padded, span: slice):
        self.rows = rows
        self.rows1 = rows + 1
        self.tiles = tiles
        self.windows = windows
        self.slots = slots
        self.padded = padded
        self.span = span


class TileLayout:
    """One sweep's tiles over a :class:`BlockLevels`.

    Block-row ``i`` owns tiles ``lo[i]:hi[i]``. :attr:`steps` walks the
    levels in order, one :class:`LevelBatch` each; :attr:`rows` and
    :attr:`ptiles` concatenate the steps' rows and reduction tile
    indexes (start slots included) in that order, so a value set's
    stacks take one gather each, and a call gathers its right-hand side
    in :attr:`rows` order once. The steps' lane and row indexes are
    built in the same vectorized pass. Without
    levels the one step is the tuple of every block-row, run through
    the per-row body in that order; :attr:`lo`, :attr:`hi` and
    :attr:`anchors` are then Python-int lists for that body (``None``
    on a scheduled layout, where :attr:`rows` and :attr:`ptiles` are
    ``None`` instead). ``bsize`` is the matrix's: with it
    :func:`reduce_pays` decides which levels get a reduction index.
    """

    __slots__ = ("lo", "hi", "anchors", "steps", "rows", "ptiles")

    def __init__(self, levels: BlockLevels | None, lo: np.ndarray,
                 hi: np.ndarray, anchors: np.ndarray, bsize: int):
        if levels is None:
            self.lo, self.hi = lo.tolist(), hi.tolist()
            self.anchors = anchors.tolist()
            self.steps = (tuple(range(len(self.lo))),)
            self.rows = self.ptiles = None
            return
        self.lo = self.hi = self.anchors = None
        cnt = hi - lo
        brow = len(cnt)
        lv, lptr = levels.level_of, levels.level_ptr
        n_levels = len(lptr) - 1
        width = int(cnt.max(initial=0)) + 1
        # Rows by (level, descending tile count, row).
        order = np.argsort(lv * width + (width - 1 - cnt), kind="stable")
        c_o = cnt[order]
        rank = np.arange(brow) - lptr[lv[order]]
        # Tile (row position p, slot s) of level L lands at
        # start[L, s] + rank[p], where start[L, s] counts the level's
        # earlier tiles and its lower slots (m[L, s'] tiles each).
        pos = np.repeat(np.arange(brow), c_o)
        slot = np.arange(len(pos)) - np.repeat(np.cumsum(c_o) - c_o, c_o)
        lv_p = lv[order][pos]
        cell = lv_p * width + slot
        m = np.bincount(cell, minlength=n_levels * width)
        start = np.cumsum(m) - m
        ids = lo[order][pos] + slot
        tiles = np.empty(len(pos), dtype=np.intp)
        tiles[start[cell] + rank[pos]] = ids
        windows = anchors[tiles]
        rows = order.astype(np.intp)
        n_rows = np.diff(lptr)
        m2 = m.reshape(n_levels, width)
        n_slots = (m2 > 0).sum(axis=1)
        pads = reduce_pays(n_rows, bsize, 1)
        # (slots + 1, rows) index of the levels the reduction takes:
        # slot 0 is the start slot, and tile (p, s) of level L sits at
        # poff[L] + (s + 1) * rows_L + rank[p].
        psize = np.where(pads, (n_slots + 1) * n_rows, 0)
        poff = np.cumsum(psize) - psize
        hit = pads[lv_p]
        at = poff[lv_p[hit]] + (slot[hit] + 1) * n_rows[lv_p[hit]] \
            + rank[pos[hit]]
        ptiles = np.full(int(psize.sum()), len(anchors), dtype=np.intp)
        pwindows = np.zeros(len(ptiles), dtype=np.intp)
        ptiles[at] = ids[hit]
        pwindows[at] = anchors[ids[hit]]
        lane = np.arange(bsize, dtype=np.intp)
        # Flat indexes into the padded buffer's rows: every slot's
        # window lanes, and the lanes of the reduced rows themselves.
        plane = pwindows[:, None] + lane
        prow = rows[pads[lv[order]]]
        pflat = (prow[:, None] + 1) * bsize + lane
        for a in (ptiles, plane, pflat):
            a.flags.writeable = False
        self.rows, self.ptiles = rows, ptiles
        tptr = start[::width].tolist() + [len(pos)]
        m_l = m2.tolist()
        lp = lptr.tolist()
        n_slots, pads = n_slots.tolist(), pads.tolist()
        poff = poff.tolist()
        steps = []
        f0 = 0
        for L in range(n_levels):
            r0, r1 = lp[L], lp[L + 1]
            t0, t1 = tptr[L], tptr[L + 1]
            S = n_slots[L]
            padded = None
            if pads[L]:
                p0, p1 = poff[L], poff[L] + (S + 1) * (r1 - r0)
                f1 = f0 + r1 - r0
                padded = (ptiles[p0:p1].reshape(S + 1, r1 - r0),
                          plane[p0:p1].reshape(S + 1, r1 - r0, bsize),
                          pflat[f0:f1])
                f0 = f1
            steps.append(LevelBatch(rows[r0:r1], tiles[t0:t1],
                                    windows[t0:t1], tuple(m_l[L][:S]),
                                    padded, slice(r0, r1)))
        self.steps = tuple(steps)


@dataclass(frozen=True, eq=False)
class LevelSchedule:
    """A matrix's levels and the tile layouts of the sweeps run on it.

    ``full`` lays out every tile of each block-row (lower, upper and
    SYMGS sweeps); ``below`` and ``above`` lay out the tiles before and
    after each row's diagonal tile (the forward and backward sweeps of
    an ILU(0) application). Unused layouts are ``None``.
    """

    levels: BlockLevels
    full: TileLayout | None = None
    below: TileLayout | None = None
    above: TileLayout | None = None


class SweepStacks:
    """One sweep's per-level operands for one value set.

    :attr:`steps` pairs each step of :attr:`layout` with ``(vals,
    diag)``: the level's ``(slots + 1, rows, bsize, 1)`` value stack,
    the zero tile in its start slot and padded slots, where it has a
    reduction index (slot-loop levels read the values in place), and
    the ``(rows, bsize, 1)`` block of its divisors, taken from
    ``blocks`` (``bsize`` per block-row; ``None``: the sweep divides by
    nothing). Each kind is one read-only gather over the layout's
    concatenated index, cut into views; an unscheduled layout's one
    step gets neither.
    """

    def __init__(self, layout: TileLayout, values: np.ndarray,
                 blocks: np.ndarray | None = None):
        steps = layout.steps
        vals = diag = (None,) * len(steps)
        if layout.rows is not None:
            stack = values.take(layout.ptiles, axis=0, mode="clip")
            stack[layout.ptiles == len(values)] = 0
            vals = _views(stack, [None if s.padded is None
                                  else s.padded[0].shape for s in steps])
            if blocks is not None:
                rows = np.asarray(blocks).reshape(-1, values.shape[1])
                diag = _views(rows[layout.rows],
                              [(len(s.rows),) for s in steps])
        self.layout = layout
        self.steps = tuple(zip(steps, vals, diag))


def _views(stack: np.ndarray, shapes: list) -> list:
    """Make ``stack`` read-only and cut it, in order, into views of
    ``shape + (bsize, 1)`` for each shape (``None`` for ``None``)."""
    stack.flags.writeable = False
    out, a = [], 0
    for shape in shapes:
        if shape is None:
            out.append(None)
            continue
        size = math.prod(shape)
        out.append(stack[a:a + size].reshape(shape + (stack.shape[1], 1)))
        a += size
    return out


class ValueStacks:
    """One value set's :class:`SweepStacks` for each layout of a
    matrix's :class:`LevelSchedule` (``None`` where it has none).
    ``full`` divides by ``diag`` (``None``: by nothing); ``above``, the
    backward sweep of an ILU(0) application, by the diagonal tiles
    ``values[dia_ptr]``.

    The kernels use the stacks only while they :meth:`hold` the call's
    arrays, so a matrix copied with new values, a call with another
    diagonal, or an array edited in place (a fault injector's bit flip
    or NaN) builds stacks for that call; a new value set gets new
    stacks. Where no stack copies any value (no reduced level, no
    ILU divisors), every level reads ``values`` in place and only its
    identity is checked.
    """

    def __init__(self, matrix: DBSRMatrix, diag: np.ndarray | None = None,
                 dia_ptr: np.ndarray | None = None):
        sched, values = matrix.schedule, matrix.values
        self.values, self.diag = values, diag
        self.full = self.below = self.above = None
        if sched.full is not None:
            self.full = SweepStacks(sched.full, values, diag)
        if sched.below is not None:
            self.below = SweepStacks(sched.below, values)
            self.above = SweepStacks(sched.above, values, values[dia_ptr])
        self.copies_values = dia_ptr is not None or any(
            lay is not None and len(lay.ptiles)
            for lay in (sched.full, sched.below, sched.above))
        self.fingerprints = self._fingerprints(values, diag)

    def _fingerprints(self, values, diag) -> tuple:
        return (_fingerprint(values) if self.copies_values else None,
                _fingerprint(diag))

    def hold(self, values: np.ndarray, diag: np.ndarray | None) -> bool:
        """Whether these stacks were built from the very arrays
        ``values`` and ``diag``, with the contents they hold now, as
        far as :func:`_fingerprint` can tell."""
        return (values is self.values and diag is self.diag
                and self.fingerprints == self._fingerprints(values, diag))


def _fingerprint(a: np.ndarray | None):
    """Wrapping ``uint64`` sums of ``a``'s words (``None`` for
    ``None``): one sum over the words, and, for 8-byte words, one over
    the words read 4 bytes off, whose low halves are the words' high
    halves. Words of 4 bytes or fewer sum exactly, with no wrap.

    It changes on any one-word edit, and on any edit that writes one
    new value over fewer than ``2**32`` equal words (two sign flips of
    two equal coefficients, or four ``inf`` over four ``-1.0``, which
    an XOR or a single wrapping sum miss). Words that only trade places
    may leave it unchanged.
    """
    if a is None:
        return None
    flat = np.ascontiguousarray(a).reshape(-1)
    raw, size = flat.view(np.uint8), flat.itemsize
    if size % 8:
        return int(np.add.reduce(raw.view(f"u{size}"), dtype=np.uint64))
    return (int(np.add.reduce(raw.view(np.uint64))),
            int(np.add.reduce(raw[4:-4].view(np.uint64))))


def schedule_sweeps(matrix: DBSRMatrix, levels: BlockLevels,
                    diag: np.ndarray | None = None) -> None:
    """Attach the full-row sweep layout of ``matrix`` over ``levels``,
    and its :class:`ValueStacks` for the values it holds and the
    divisor ``diag`` its sweeps take (``None``: none).

    ``levels`` must come from a skeleton whose tile windows include
    ``matrix``'s: its own, or the full operator's for a strict
    triangle.
    """
    ptr = matrix.blk_ptr.astype(np.int64)
    matrix.schedule = LevelSchedule(levels, full=TileLayout(
        levels, ptr[:-1], ptr[1:], matrix.anchors + matrix.bsize,
        matrix.bsize))
    matrix.stacks = ValueStacks(matrix, diag)


def schedule_ilu_sweeps(matrix: DBSRMatrix, dia_ptr: np.ndarray) -> None:
    """Level an ILU(0) factor skeleton and attach the layouts of its two
    application sweeps and their :class:`ValueStacks`; block-row ``i``
    has its diagonal tile at ``dia_ptr[i]``."""
    levels = build_block_levels(matrix)
    ptr = matrix.blk_ptr.astype(np.int64)
    dia = np.asarray(dia_ptr, dtype=np.int64)
    anchors = matrix.anchors + matrix.bsize
    matrix.schedule = LevelSchedule(
        levels,
        below=TileLayout(levels, ptr[:-1], dia, anchors, matrix.bsize),
        above=TileLayout(levels, dia + 1, ptr[1:], anchors, matrix.bsize))
    matrix.stacks = ValueStacks(matrix, dia_ptr=dia_ptr)
