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
