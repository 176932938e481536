"""ILU(0) serving plans: bit-identity, repack, split fingerprint.

The serving tier's correctness story is bitwise, not approximate:

* every backend tier and every batch width of :meth:`ILUPlan.apply`
  must equal :func:`repro.ilu.ilu0_csr.ilu0_apply_csr` run over the
  *projected* scalar factors, per column, exactly;
* :func:`repack_ilu_plan` (and the schedule-replay refactorization
  underneath it) must reproduce a cold compile bit for bit.
"""

import numpy as np
import pytest

from repro.backends import available_backends
from repro.grids.grid import StructuredGrid
from repro.ilu.ilu0_csr import ilu0_apply_csr
from repro.ilu.ilu0_dbsr import (
    build_ilu0_schedule,
    ilu0_factorize_dbsr,
    ilu0_refactorize_dbsr,
)
from repro.serve.ilu_plan import (
    ILUPlan,
    compile_ilu_plan,
    ilu_structural_fingerprint,
    repack_ilu_plan,
    same_values,
    value_digest,
)
from repro.serve.plan import PlanConfig, structural_fingerprint

pytestmark = pytest.mark.fast

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)
#: (5,5,5) with bsize 8 pads (125 -> 128): the padded-lane regime
#: where scalar re-factorization of the padded CSR is *not* a bitwise
#: reference but the block-factor projection is.
PADDED_GRID = StructuredGrid((5, 5, 5))
PADDED_CONFIG = PlanConfig(bsize=8)


def _perturbed(plan, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    return plan.values_src * (
        1.0 + scale * rng.uniform(-1.0, 1.0, plan.values_src.shape))


# Fingerprints --------------------------------------------------------------

def test_structure_hash_is_domain_tagged():
    base = structural_fingerprint(GRID, "27pt", CONFIG)
    ilu = ilu_structural_fingerprint(GRID, "27pt", CONFIG)
    assert ilu != base
    assert ilu == ilu_structural_fingerprint(GRID, "27pt", CONFIG)


def test_value_digest_seals_the_snapshot():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    assert plan.value_digest == value_digest(plan.values_src)
    v2 = _perturbed(plan)
    assert value_digest(v2) != plan.value_digest


def test_values_src_is_read_only():
    """The bytes a cache hit compares cannot drift from the digest
    that labels them: an in-place write raises, after a cold compile
    and after a repack alike."""
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    v2 = _perturbed(plan)
    warm = repack_ilu_plan(plan, v2, value_digest(v2))
    for p in (plan, warm):
        with pytest.raises(ValueError):
            p.values_src[0] = 0.0
        assert p.value_digest == value_digest(p.values_src)


def test_same_values_compares_bytes():
    a = np.array([1.0, 0.0, np.nan])
    assert same_values(a, a.copy())
    minus = a.copy()
    minus[1] = -0.0
    assert not same_values(a, minus)
    payload = a.copy()
    payload.view(np.uint64)[2] += 1
    assert np.isnan(payload[2]) and not same_values(a, payload)
    assert not same_values(a, a.astype(np.float32))
    assert not same_values(a, a[:2])


def test_values_must_match_assembly_order_length():
    with pytest.raises(Exception):
        compile_ilu_plan(GRID, "27pt", CONFIG, values=np.ones(7))


# Bit-identity across rungs, backends and batch widths ----------------------

@pytest.mark.parametrize("grid,config", [(GRID, CONFIG),
                                         (PADDED_GRID, PADDED_CONFIG)])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_apply_bitwise_equals_projected_csr_factors(grid, config, k):
    plan = compile_ilu_plan(grid, "27pt", config)
    rng = np.random.default_rng(11)
    B = rng.standard_normal((plan.n, k))
    Z = plan.apply(B)
    csr_factors = plan.factors.to_csr_factors()
    ref = np.stack(
        [plan.restrict(ilu0_apply_csr(csr_factors,
                                      plan.extend(B[:, j])))
         for j in range(k)], axis=1)
    assert np.array_equal(Z, ref)


@pytest.mark.parametrize("backend", available_backends())
def test_apply_bitwise_identical_across_backends(backend):
    cfg = PlanConfig(bsize=4, backend=backend)
    plan = compile_ilu_plan(GRID, "27pt", cfg)
    rng = np.random.default_rng(5)
    B = rng.standard_normal((plan.n, 4))
    ref_plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    assert np.array_equal(plan.apply(B), ref_plan.apply(B))


def test_single_vector_apply_matches_batched_column():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    rng = np.random.default_rng(9)
    B = rng.standard_normal((plan.n, 3))
    Z = plan.apply(B)
    for j in range(3):
        assert np.array_equal(plan.apply(B[:, j]), Z[:, j])


def test_execute_dispatches_only_ilu_apply():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    with pytest.raises(Exception):
        plan.execute("lower", np.ones(plan.n))


# Value-only repack ---------------------------------------------------------

def test_repack_bitwise_equals_cold_compile():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    v2 = _perturbed(plan, seed=3)
    warm = repack_ilu_plan(plan, v2, value_digest(v2))
    cold = compile_ilu_plan(GRID, "27pt", CONFIG, values=v2)
    assert np.array_equal(warm.factors.matrix.values,
                          cold.factors.matrix.values)
    assert np.array_equal(warm.matrix.data, cold.matrix.data)
    assert warm.value_digest == cold.value_digest
    assert warm.refreshed and not cold.refreshed
    B = np.random.default_rng(4).standard_normal((plan.n, 2))
    assert np.array_equal(warm.apply(B), cold.apply(B))


def test_repack_bitwise_on_padded_grid():
    plan = compile_ilu_plan(PADDED_GRID, "27pt", PADDED_CONFIG)
    v2 = _perturbed(plan, seed=8)
    warm = repack_ilu_plan(plan, v2, value_digest(v2))
    cold = compile_ilu_plan(PADDED_GRID, "27pt", PADDED_CONFIG,
                            values=v2)
    assert np.array_equal(warm.factors.matrix.values,
                          cold.factors.matrix.values)


def test_repack_reuses_structure_objects():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    v2 = _perturbed(plan, seed=1)
    warm = repack_ilu_plan(plan, v2, value_digest(v2))
    assert warm.ordering is plan.ordering
    assert warm.csr_scatter is plan.csr_scatter
    assert warm.dbsr_scatter is plan.dbsr_scatter
    assert warm.schedule is plan.schedule
    assert warm.bsize == plan.bsize
    assert warm.fingerprint == plan.fingerprint
    # The structure is shared, not copied: the seal inherits its digests.
    assert warm.matrix.indptr is plan.matrix.indptr
    assert warm.matrix.indices is plan.matrix.indices
    for name in ("blk_ptr", "blk_ind", "blk_offset", "dia_ptr"):
        assert getattr(warm.factors.matrix, name) \
            is getattr(plan.factors.matrix, name), name
    assert warm.factors.dia_ptr is plan.factors.dia_ptr


def test_repack_rejects_structural_drift():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    with pytest.raises(Exception):
        repack_ilu_plan(plan, np.ones(len(plan.values_src) + 1), "")


# Schedule replay -----------------------------------------------------------

@pytest.mark.parametrize("grid,config", [(GRID, CONFIG),
                                         (PADDED_GRID, PADDED_CONFIG)])
def test_schedule_replay_bitwise_equals_full_factorization(grid,
                                                           config):
    plan = compile_ilu_plan(grid, "27pt", config)
    skel = plan.factors.matrix
    # Rebuild an *unfactored* twin through the stored scatter map.
    from repro.serve.ilu_plan import _extended, _scatter_dbsr_values

    v2 = _perturbed(plan, seed=13)
    bs = plan.bsize
    values = _scatter_dbsr_values(plan.dbsr_scatter, _extended(v2),
                                  bs)[bs:-bs].reshape(-1, bs)
    from repro.formats.dbsr import DBSRMatrix

    dbsr = DBSRMatrix(skel.blk_ptr.copy(), skel.blk_ind.copy(),
                      skel.blk_offset.copy(), values, skel.shape,
                      nnz_hint=skel.nnz)
    schedule = build_ilu0_schedule(dbsr)
    slow = ilu0_factorize_dbsr(dbsr)
    fast = ilu0_refactorize_dbsr(dbsr, schedule)
    assert np.array_equal(slow.matrix.values, fast.matrix.values)
    assert np.array_equal(slow.dia_ptr, fast.dia_ptr)


def test_cold_compile_carries_a_schedule():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    assert plan.schedule is not None
    assert plan.schedule.n_ops > 0
    schedule = plan.schedule
    assert 0 < schedule.n_stages <= schedule.n_ops
    assert len(schedule.div_ptr) == len(schedule.upd_ptr) \
        == schedule.n_stages + 1
    assert schedule.div_ptr[-1] == schedule.n_ops
    assert schedule.upd_ptr[-1] == len(schedule.q)


# One-take value scatter ----------------------------------------------------

def _masked_csr_data(csr_scatter, values_src, dtype):
    """The masked CSR scatter the single take replaced (reference)."""
    data = np.ones(csr_scatter.shape[0], dtype=dtype)
    real = csr_scatter >= 0
    data[real] = values_src[csr_scatter[real]]
    return data


def _masked_dbsr_values(dbsr_scatter, values_src, bsize, dtype):
    """The masked DBSR scatter the single take replaced (reference)."""
    from repro.serve.ilu_plan import _VIRTUAL

    flat = np.zeros(dbsr_scatter.shape[0], dtype=dtype)
    real = dbsr_scatter >= 0
    flat[real] = values_src[dbsr_scatter[real]]
    flat[dbsr_scatter == _VIRTUAL] = 1.0
    return flat.reshape(-1, bsize)


def _bits(a):
    return a.view(f"u{a.dtype.itemsize}")


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_single_take_scatter_bitwise_equals_masked_scatter(dtype):
    from repro.serve.ilu_plan import (
        _PAD,
        _VIRTUAL,
        _extended,
        _scatter_csr_data,
        _scatter_dbsr_values,
    )

    config = PlanConfig(bsize=8, dtype=dtype)
    plan = compile_ilu_plan(PADDED_GRID, "27pt", config)
    # Virtual rows and pad lanes both occur on this padded structure.
    assert np.any(plan.csr_scatter == _VIRTUAL)
    assert np.any(plan.dbsr_scatter == _VIRTUAL)
    assert np.any(plan.dbsr_scatter == _PAD)
    np_dtype = config.np_dtype
    values = _perturbed(plan, seed=21).astype(np_dtype)
    word = np.dtype(f"u{values.dtype.itemsize}").type
    quiet = (0x7FF8000000000001, 0xFFF8000000000002) if dtype == "f64" \
        else (0x7FC00001, 0xFFC00002)
    _bits(values)[:6] = [_bits(np.array([0.0], np_dtype))[0],
                         _bits(np.array([-0.0], np_dtype))[0],
                         word(quiet[0]), word(quiet[1]),
                         word(quiet[0]), word(quiet[1])]
    bs = plan.bsize
    ext = _extended(values)
    csr = _scatter_csr_data(plan.csr_scatter, ext)
    vflat = _scatter_dbsr_values(plan.dbsr_scatter, ext, bs)
    ref_csr = _masked_csr_data(plan.csr_scatter, values, np_dtype)
    ref_dbsr = _masked_dbsr_values(plan.dbsr_scatter, values, bs,
                                   np_dtype)
    assert csr.dtype == ref_csr.dtype == vflat.dtype == np_dtype
    assert np.array_equal(_bits(csr), _bits(ref_csr))
    assert np.array_equal(_bits(vflat[bs:-bs].reshape(-1, bs)),
                          _bits(ref_dbsr))
    # The replay's zero borders.
    assert not np.any(_bits(vflat[:bs])) and not np.any(_bits(vflat[-bs:]))
    # Every special value reached both operators.
    for first in range(6):
        src = np.flatnonzero(plan.csr_scatter == first)
        assert len(src) and np.flatnonzero(plan.dbsr_scatter == first).size
        assert np.all(_bits(csr[src]) == _bits(values[first:first + 1]))


# Metadata ------------------------------------------------------------------

def test_op_counts_and_describe():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    c = plan.op_counts("ilu_apply", 4)
    assert c.vfma > 0 and c.vdiv > 0
    d = plan.describe()
    assert d["kind"] == "ilu"
    assert d["value_digest"] == plan.value_digest
    assert d["n"] == GRID.n_points
