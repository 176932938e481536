"""Unit tests for the DBSR format (the paper's contribution)."""

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix


def test_roundtrip_on_reordered_matrix(reordered_2d):
    csr, dbsr = reordered_2d
    assert np.allclose(dbsr.to_dense(), csr.to_dense())


def test_roundtrip_3d(reordered_3d):
    csr, dbsr = reordered_3d
    assert np.allclose(dbsr.to_dense(), csr.to_dense())


def test_matvec_matches_csr(reordered_3d, rng):
    csr, dbsr = reordered_3d
    x = rng.standard_normal(csr.n_cols)
    assert np.allclose(dbsr.matvec(x), csr.matvec(x))


def test_works_on_arbitrary_sparsity(random_sparse, rng):
    """DBSR must stay lossless on matrices with no diagonal-tile
    structure (it just produces more tiles)."""
    csr = random_sparse(n=24, density=0.2, seed=7)
    dbsr = DBSRMatrix.from_csr(csr, 4)
    assert np.allclose(dbsr.to_dense(), csr.to_dense())
    x = rng.standard_normal(24)
    assert np.allclose(dbsr.matvec(x), csr.matvec(x))


def test_offsets_signed_within_range(reordered_3d):
    _, dbsr = reordered_3d
    assert dbsr.blk_offset.min() > -dbsr.bsize
    assert dbsr.blk_offset.max() < dbsr.bsize


def test_nonzero_lanes_stay_in_block_column(reordered_3d):
    """The Algorithm-4 invariant: each tile's non-zero lanes live in
    the block column named by blk_ind."""
    _, dbsr = reordered_3d
    anchors = dbsr.anchors
    for t in range(dbsr.n_tiles):
        lanes = np.flatnonzero(dbsr.values[t])
        if len(lanes):
            cols = anchors[t] + lanes
            assert np.all(cols // dbsr.bsize == dbsr.blk_ind[t])


def test_dia_ptr_points_at_main_diagonal(reordered_3d):
    csr, dbsr = reordered_3d
    dia = dbsr.dia_ptr
    assert np.all(dia >= 0)
    diag = csr.diagonal()
    for i in range(dbsr.brow):
        lanes = dbsr.values[dia[i]]
        assert np.allclose(
            lanes, diag[i * dbsr.bsize:(i + 1) * dbsr.bsize])


def test_tiles_sorted_by_anchor_within_block_row(reordered_3d):
    _, dbsr = reordered_3d
    anchors = dbsr.anchors
    for i in range(dbsr.brow):
        lo, hi = dbsr.blk_ptr[i], dbsr.blk_ptr[i + 1]
        assert np.all(np.diff(anchors[lo:hi]) >= 0)


def test_pad_unpad_inverse(reordered_2d, rng):
    _, dbsr = reordered_2d
    x = rng.standard_normal(dbsr.n_cols)
    assert np.array_equal(dbsr.unpad_vector(dbsr.pad_vector(x)), x)


def test_pad_vector_zero_borders(reordered_2d):
    _, dbsr = reordered_2d
    xp = dbsr.pad_vector(np.ones(dbsr.n_cols))
    b = dbsr.bsize
    assert np.all(xp[:b] == 0)
    assert np.all(xp[-b:] == 0)


def test_row_dim_must_divide():
    with pytest.raises(ValueError):
        DBSRMatrix.from_csr(CSRMatrix.from_dense(np.eye(6)), 4)


def test_bsize_one_degenerates_to_csr_semantics(random_sparse):
    csr = random_sparse(n=12, density=0.3, seed=3)
    dbsr = DBSRMatrix.from_csr(csr, 1)
    assert dbsr.n_tiles == csr.nnz
    assert np.all(dbsr.blk_offset == 0)
    assert np.allclose(dbsr.to_dense(), csr.to_dense())


def test_tile_count_approaches_ideal_on_large_grid():
    """Interior-dominant grids approach nnz / bsize tiles (§III-B)."""
    from repro.grids.problems import poisson_problem
    from repro.ordering.vbmc import build_vbmc

    p = poisson_problem((16, 16), "5pt")
    vb = build_vbmc(p.grid, p.stencil, (4, 4), 4)
    dbsr = DBSRMatrix.from_csr(vb.apply_matrix(p.matrix), 4)
    ideal = dbsr.nnz / dbsr.bsize
    assert dbsr.n_tiles < 2.2 * ideal


def test_memory_report_offset_packing(reordered_3d):
    _, dbsr = reordered_3d
    wide = dbsr.memory_report(offset_itemsize=4)
    packed = dbsr.memory_report(offset_itemsize=1)
    assert wide.total_bytes - packed.total_bytes == 3 * dbsr.n_tiles


def test_memory_beats_csr_at_moderate_bsize():
    """Fig. 11: index savings outweigh padding for sensible bsize."""
    from repro.grids.problems import poisson_problem
    from repro.ordering.vbmc import build_vbmc

    p = poisson_problem((16, 16, 16), "27pt")
    csr_bytes = p.matrix.memory_report().total_bytes
    vb = build_vbmc(p.grid, p.stencil, (4, 4, 4), 8)
    dbsr = DBSRMatrix.from_csr(vb.apply_matrix(p.matrix), 8)
    assert dbsr.memory_report(offset_itemsize=1).total_bytes < csr_bytes


def test_astype_float32(reordered_2d, rng):
    csr, dbsr = reordered_2d
    f32 = dbsr.astype(np.float32)
    assert f32.values.dtype == np.float32
    x = rng.standard_normal(csr.n_cols).astype(np.float32)
    assert np.allclose(f32.matvec(x), csr.matvec(x.astype(float)),
                       atol=1e-4)


def test_empty_matrix():
    csr = CSRMatrix([0, 0, 0, 0, 0], [], [], (4, 4))
    dbsr = DBSRMatrix.from_csr(csr, 2)
    assert dbsr.n_tiles == 0
    assert np.array_equal(dbsr.matvec(np.ones(4)), np.zeros(4))


def _dia_ptr_loop(dbsr):
    """The per-block-row loop ``DBSRMatrix.dia_ptr`` replaced."""
    dia = np.full(dbsr.brow, -1, dtype=np.int64)
    for i in range(dbsr.brow):
        lo, hi = dbsr.blk_ptr[i], dbsr.blk_ptr[i + 1]
        hits = np.flatnonzero((dbsr.blk_ind[lo:hi] == i)
                              & (dbsr.blk_offset[lo:hi] == 0))
        if len(hits):
            dia[i] = lo + hits[0]
    return dia


def test_dia_ptr_matches_row_loop_on_random_tilings():
    rng = np.random.default_rng(11)
    saw_missing = saw_repeat = False
    for _ in range(100):
        bsize = int(rng.integers(1, 5))
        brow = int(rng.integers(1, 7))
        counts = rng.integers(0, 5, brow)
        blk_ptr = np.concatenate([[0], np.cumsum(counts)])
        n_tiles = int(blk_ptr[-1])
        row = np.repeat(np.arange(brow), counts)
        # Tiles near the diagonal, so diagonal hits (and repeats of
        # them) are common but not certain.
        blk_ind = np.clip(row + rng.integers(-1, 2, n_tiles), 0,
                          brow - 1)
        blk_offset = rng.integers(-(bsize - 1), bsize, n_tiles)
        blk_offset[rng.random(n_tiles) < 0.5] = 0
        dbsr = DBSRMatrix(blk_ptr, blk_ind, blk_offset,
                          np.ones((n_tiles, bsize)),
                          (brow * bsize, brow * bsize))
        want = _dia_ptr_loop(dbsr)
        assert np.array_equal(dbsr.dia_ptr, want)
        saw_missing |= bool(np.any(want < 0))
        hit = (blk_ind == row) & (blk_offset == 0)
        saw_repeat |= bool(np.any(np.bincount(row[hit],
                                              minlength=brow) > 1))
    assert saw_missing and saw_repeat


# Triangles as tile masks ----------------------------------------------

def _assert_dbsr_bitwise(got, want):
    for name in ("blk_ptr", "blk_ind", "blk_offset"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.values.dtype == want.values.dtype
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.nnz == want.nnz and got.shape == want.shape


def _reordered_operator(stencil, nx, bsize):
    from repro.grids.problems import poisson_problem
    from repro.ordering.blocks import auto_block_dims
    from repro.ordering.coloring import n_colors
    from repro.ordering.vbmc import build_vbmc

    p = poisson_problem((nx,) * 3, stencil)
    dims = auto_block_dims(p.grid, 2, bsize=bsize,
                           n_colors=n_colors(p.grid, p.stencil))
    return build_vbmc(p.grid, p.stencil, dims, bsize).apply_matrix(p.matrix)


@pytest.mark.parametrize("stencil", ["7pt", "27pt"])
@pytest.mark.parametrize("bsize", [1, 8, 32, 64])
def test_split_triangular_equals_converted_csr_triangles(stencil, bsize):
    """The full operator's tiles of negative/positive diagonal are the
    CSR triangles' tiles, byte for byte, and the diagonal tiles hold D."""
    from repro.kernels.sptrsv_csr import split_triangular

    Ap = _reordered_operator(stencil, 8, bsize)
    L, D, U = split_triangular(Ap)
    lower, diag, upper = DBSRMatrix.from_csr(Ap, bsize).split_triangular(Ap)
    _assert_dbsr_bitwise(lower, DBSRMatrix.from_csr(L, bsize))
    _assert_dbsr_bitwise(upper, DBSRMatrix.from_csr(U, bsize))
    assert diag.dtype == D.dtype and diag.tobytes() == D.tobytes()


def test_split_triangular_missing_diagonal_and_stored_zeros():
    """Row 2 stores no diagonal entry; each triangle stores one explicit
    zero, which tiles cannot tell from padding, so the triangles' nnz
    come from the source CSR."""
    from repro.kernels.sptrsv_csr import split_triangular

    dense = np.array([[4.0, 0.0, 1.0, 0.0],
                      [2.0, 5.0, 0.0, 3.0],
                      [1.0, 0.0, 0.0, 7.0],
                      [0.0, 6.0, 1.0, 8.0]])
    stored = dense != 0
    stored[1, 2] = True   # explicit zero, upper triangle
    stored[3, 0] = True   # explicit zero, lower triangle
    rows, cols = np.nonzero(stored)
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    csr = CSRMatrix(indptr, cols, dense[rows, cols], (4, 4))
    L, D, U = split_triangular(csr)
    for bsize in (1, 2, 4):
        dbsr = DBSRMatrix.from_csr(csr, bsize)
        lower, diag, upper = dbsr.split_triangular(csr)
        assert diag[2] == 0 and diag.tobytes() == D.tobytes()
        _assert_dbsr_bitwise(lower, DBSRMatrix.from_csr(L, bsize))
        _assert_dbsr_bitwise(upper, DBSRMatrix.from_csr(U, bsize))


def test_split_triangular_zero_without_diagonal_tile():
    """A block-row with no diagonal tile reads 0, as CSR diagonal() does."""
    from repro.kernels.sptrsv_csr import split_triangular

    csr = CSRMatrix([0, 1, 2, 3, 4], [2, 3, 0, 1],
                    [1.0, 2.0, 3.0, 4.0], (4, 4))
    _, D, _ = split_triangular(csr)
    _, diag, _ = DBSRMatrix.from_csr(csr, 2).split_triangular(csr)
    assert diag.tobytes() == D.tobytes() == np.zeros(4).tobytes()


# Packed-key tile sort -------------------------------------------------

def _from_csr_lexsort(csr, bsize):
    """Reference conversion with the three-key lexsort the packed int64
    key replaced."""
    rows = np.repeat(np.arange(csr.n_rows, dtype=np.int64),
                     np.diff(csr.indptr))
    cols = csr.indices.astype(np.int64)
    lane = rows % bsize
    browi = rows // bsize
    anchor = cols - lane
    colblk = cols // bsize
    order = np.lexsort((colblk, anchor, browi))
    browi, anchor, colblk = browi[order], anchor[order], colblk[order]
    lane, vals = lane[order], csr.data[order]
    new_tile = np.ones(len(lane), dtype=bool)
    new_tile[1:] = ((browi[1:] != browi[:-1]) | (anchor[1:] != anchor[:-1])
                    | (colblk[1:] != colblk[:-1]))
    tile_id = np.cumsum(new_tile) - 1
    values = np.zeros((int(new_tile.sum()), bsize), dtype=vals.dtype)
    values[tile_id, lane] = vals
    blk_ind = colblk[new_tile]
    blk_offset = anchor[new_tile] - blk_ind * bsize
    brow = csr.n_rows // bsize
    blk_ptr = np.concatenate(
        [[0], np.cumsum(np.bincount(browi[new_tile], minlength=brow))])
    return DBSRMatrix(blk_ptr, blk_ind, blk_offset, values, csr.shape,
                      nnz_hint=csr.nnz)


def _random_csr(rng, n_rows, n_cols, density):
    """Random pattern with whole empty rows and unsorted duplicates-free
    columns."""
    mask = rng.random((n_rows, n_cols)) < density
    mask[rng.random(n_rows) < 0.25] = False
    rows, cols = np.nonzero(mask)
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    return CSRMatrix(indptr, cols, rng.standard_normal(len(rows)),
                     (n_rows, n_cols))


def test_packed_sort_matches_lexsort_reference():
    rng = np.random.default_rng(27)
    saw = dict(negative=False, straddle=False, empty_row=False)
    for trial in range(120):
        bsize = trial % 8 + 1
        brow = int(rng.integers(1, 7))
        n_cols = int(rng.integers(1, 6 * bsize + 2))
        csr = _random_csr(rng, brow * bsize, n_cols,
                          float(rng.uniform(0.05, 0.6)))
        got = DBSRMatrix.from_csr(csr, bsize)
        _assert_dbsr_bitwise(got, _from_csr_lexsort(csr, bsize))
        anchors = got.anchors
        saw["negative"] |= bool(np.any(anchors < 0))
        # Two tiles on one diagonal of one block-row: its lanes
        # straddled a block-column boundary.
        row = np.repeat(np.arange(got.brow), np.diff(got.blk_ptr))
        key = row * (n_cols + 2 * bsize) + anchors
        saw["straddle"] |= len(np.unique(key)) < len(key)
        saw["empty_row"] |= bool(np.any(np.diff(csr.indptr) == 0))
    assert all(saw.values()), saw


def test_packed_key_bound_is_checked_before_any_allocation():
    """The int64 bound follows from the shape alone: stubs with no
    arrays are refused past it, and a two-row CSR is converted at the
    widest shape the key holds and refused one column past it."""
    from types import SimpleNamespace

    for bsize, n_rows, n_cols in ((1, 2 ** 31, 2 ** 31 - 2),
                                  (8, 2 ** 34, 2 ** 32),
                                  (64, 2 ** 40, 2 ** 40)):
        assert (n_rows // bsize) * (n_cols + 2 * bsize) * 2 >= 2 ** 63
        stub = SimpleNamespace(n_rows=n_rows, n_cols=n_cols)
        with pytest.raises(ValueError, match="packed int64 tile key"):
            DBSRMatrix.from_csr(stub, bsize)
    # Two block-rows of bsize 1: (n_cols + 2) * 2 * 2 <= 2**63 - 1.
    widest = 2 ** 61 - 3
    empty = np.zeros(0, dtype=np.int64)
    got = DBSRMatrix.from_csr(
        CSRMatrix([0, 0, 0], empty, np.zeros(0), (2, widest)), 1)
    assert got.shape == (2, widest) and len(got.blk_ind) == 0
    with pytest.raises(ValueError, match="packed int64 tile key"):
        DBSRMatrix.from_csr(
            CSRMatrix([0, 0, 0], empty, np.zeros(0), (2, widest + 1)), 1)
