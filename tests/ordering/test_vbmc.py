"""Unit tests for the vectorized BMC ordering (§III-A)."""

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix
from repro.grids.assembly import assemble_csr
from repro.grids.grid import StructuredGrid
from repro.grids.stencils import box9_2d, box27_3d, star7_3d
from repro.ordering.vbmc import build_vbmc


def test_mapping_covers_all_points(vbmc_2d, problem_2d):
    vb = vbmc_2d
    assert vb.n_orig == problem_2d.n
    news = np.sort(vb.old_to_new)
    assert len(np.unique(news)) == vb.n_orig
    assert news.max() < vb.n_padded


def test_new_to_old_consistent(vbmc_2d):
    vb = vbmc_2d
    for new in range(vb.n_padded):
        old = vb.new_to_old[new]
        if old >= 0:
            assert vb.old_to_new[old] == new


def test_padded_size_multiple_of_group(vbmc_2d):
    vb = vbmc_2d
    assert vb.n_padded % (vb.bsize * vb.points_per_block) == 0


def test_lane_interleaving(problem_2d):
    """Points at the same intra-block position across a group get
    consecutive new indices — the defining property of Fig. 2(c)."""
    vb = build_vbmc(problem_2d.grid, problem_2d.stencil, (4, 4), 4)
    table = vb.partition.all_block_point_ids()
    schedule = vb.schedule
    ppb = vb.points_per_block
    for color in range(vb.n_colors):
        members = np.flatnonzero(vb.block_colors == color)
        for g_idx, group in enumerate(schedule.groups_of_color(color)):
            lanes = members[g_idx * vb.bsize:(g_idx + 1) * vb.bsize]
            for pos in range(ppb):
                news = [vb.old_to_new[table[blk][pos]] for blk in lanes]
                base = group * ppb * vb.bsize + pos * vb.bsize
                assert news == list(range(base, base + len(news)))


def test_color_priority_preserved(vbmc_2d):
    """Blocks of lower colors occupy lower new index ranges."""
    vb = vbmc_2d
    table = vb.partition.all_block_point_ids()
    max_new_per_color = []
    for color in range(vb.n_colors):
        members = np.flatnonzero(vb.block_colors == color)
        news = vb.old_to_new[table[members].ravel()]
        max_new_per_color.append((news.min(), news.max()))
    for (lo1, hi1), (lo2, hi2) in zip(max_new_per_color,
                                      max_new_per_color[1:]):
        assert hi1 < lo2


def test_extend_restrict_roundtrip(vbmc_2d, rng):
    vb = vbmc_2d
    v = rng.standard_normal(vb.n_orig)
    assert np.allclose(vb.restrict(vb.extend(v)), v)


def test_extend_fills_virtual_slots(vbmc_2d):
    vb = vbmc_2d
    out = vb.extend(np.ones(vb.n_orig), fill=7.0)
    virtual = vb.new_to_old < 0
    assert np.all(out[virtual] == 7.0)
    assert np.all(out[~virtual] == 1.0)


def test_apply_matrix_symmetric_permutation(problem_2d, vbmc_2d, rng):
    vb = vbmc_2d
    A = problem_2d.matrix
    Ap = vb.apply_matrix(A)
    x = rng.standard_normal(vb.n_orig)
    # (P A P^T)(P x) == P (A x) on real entries.
    y_new = Ap.matvec(vb.extend(x))
    assert np.allclose(vb.restrict(y_new), A.matvec(x))


def _coo_route(vb, csr):
    """The symmetric permutation through COO canonicalization."""
    rows = np.repeat(np.arange(vb.n_orig), np.diff(csr.indptr))
    virtual = np.flatnonzero(vb.new_to_old < 0)
    coo = COOMatrix(
        np.concatenate([vb.old_to_new[rows], virtual]),
        np.concatenate([vb.old_to_new[csr.indices], virtual]),
        np.concatenate([csr.data,
                        np.ones(len(virtual), dtype=csr.data.dtype)]),
        (vb.n_padded, vb.n_padded))
    return CSRMatrix.from_coo(coo)


def _assert_bitwise(a, b):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("stencil", [star7_3d(), box27_3d()],
                         ids=["7pt", "27pt"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_apply_matrix_bitwise_equals_coo_route(stencil, dtype):
    grid = StructuredGrid((6, 6, 6))
    vb = build_vbmc(grid, stencil, (2, 2, 2), 4)
    assert vb.n_padded > vb.n_orig  # virtual rows present
    A = assemble_csr(grid, stencil, dtype=dtype)
    rng = np.random.default_rng(3)
    data = rng.standard_normal(A.nnz).astype(dtype)
    # Explicit zeros of both signs, and NaNs of two payloads.
    data[::7] = 0.0
    data[3::7] = -0.0
    data[5::11] = np.nan
    word = data.view(np.uint64 if dtype == np.float64 else np.uint32)
    word[6::11] = word[5] | 1
    A = CSRMatrix(A.indptr, A.indices, data, A.shape)
    _assert_bitwise(vb.apply_matrix(A), _coo_route(vb, A))


def test_apply_matrix_sums_duplicates_like_coo():
    grid = StructuredGrid((3, 3))
    vb = build_vbmc(grid, box9_2d(), (1, 1), 4)
    # Row 0 stores column 1 twice; the rest is a unit diagonal.
    indptr = np.r_[0, np.arange(3, vb.n_orig + 3)]
    indices = np.r_[0, 1, 1, np.arange(1, vb.n_orig)]
    data = np.r_[2.0, -1.0, -0.5, np.ones(vb.n_orig - 1)]
    A = CSRMatrix(indptr, indices, data, (vb.n_orig, vb.n_orig))
    Ap = vb.apply_matrix(A)
    _assert_bitwise(Ap, _coo_route(vb, A))
    assert Ap.nnz == A.nnz - 1 + (vb.n_padded - vb.n_orig)


def test_virtual_rows_identity(problem_2d, vbmc_2d):
    Ap = vbmc_2d.apply_matrix(problem_2d.matrix)
    virtual = np.flatnonzero(vbmc_2d.new_to_old < 0)
    dense = Ap.to_dense()
    for v in virtual:
        row = dense[v]
        assert row[v] == 1.0
        assert np.count_nonzero(row) == 1
        col = dense[:, v]
        assert np.count_nonzero(col) == 1


def test_padding_when_color_count_not_multiple():
    """3 blocks per color with bsize 2 needs one virtual block each."""
    g = StructuredGrid((6, 6))
    vb = build_vbmc(g, box9_2d(), (2, 2), 2)
    # 9 blocks of (3x3) block grid, 4 colors -> counts like 4/2/2/1.
    assert vb.n_padded > vb.n_orig
    assert vb.n_padded % (2 * 4) == 0


def test_bsize_one_is_classic_bmc(problem_2d):
    from repro.ordering.bmc import build_bmc

    vb = build_vbmc(problem_2d.grid, problem_2d.stencil, (4, 4), 1)
    bmc = build_bmc(problem_2d.grid, problem_2d.stencil, (4, 4))
    assert vb.n_padded == vb.n_orig
    assert np.array_equal(vb.old_to_new, bmc.perm.old_to_new)


def test_schedule_group_ranges(vbmc_2d):
    sched = vbmc_2d.schedule
    assert sched.n_groups == sched.color_group_ptr[-1]
    rows = []
    for g in range(sched.n_groups):
        rows.extend(sched.block_rows_of_group(g))
    assert rows == list(range(vbmc_2d.n_padded // sched.bsize))


def test_validate(vbmc_2d, vbmc_3d):
    assert vbmc_2d.validate()
    assert vbmc_3d.validate()


def test_dbsr_on_vbmc_is_diagonal_tiles(problem_3d_7pt):
    """After vBMC, interior tiles hold full diagonals: tile count per
    block-row stays near the stencil size."""
    p = problem_3d_7pt
    vb = build_vbmc(p.grid, p.stencil, (4, 4, 4), 8)
    dbsr = DBSRMatrix.from_csr(vb.apply_matrix(p.matrix), 8)
    tiles_per_blockrow = dbsr.n_tiles / dbsr.brow
    assert tiles_per_blockrow < 2 * p.stencil.n_points
