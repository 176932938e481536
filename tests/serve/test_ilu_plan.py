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
    warm = repack_ilu_plan(plan, v2)
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
    warm = repack_ilu_plan(plan, v2)
    cold = compile_ilu_plan(PADDED_GRID, "27pt", PADDED_CONFIG,
                            values=v2)
    assert np.array_equal(warm.factors.matrix.values,
                          cold.factors.matrix.values)


def test_repack_reuses_structure_objects():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    warm = repack_ilu_plan(plan, _perturbed(plan, seed=1))
    assert warm.ordering is plan.ordering
    assert warm.csr_scatter is plan.csr_scatter
    assert warm.dbsr_scatter is plan.dbsr_scatter
    assert warm.schedule is plan.schedule
    assert warm.bsize == plan.bsize
    assert warm.fingerprint == plan.fingerprint


def test_repack_rejects_structural_drift():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    with pytest.raises(Exception):
        repack_ilu_plan(plan, np.ones(len(plan.values_src) + 1))


# Schedule replay -----------------------------------------------------------

@pytest.mark.parametrize("grid,config", [(GRID, CONFIG),
                                         (PADDED_GRID, PADDED_CONFIG)])
def test_schedule_replay_bitwise_equals_full_factorization(grid,
                                                           config):
    plan = compile_ilu_plan(grid, "27pt", config)
    skel = plan.factors.matrix
    # Rebuild an *unfactored* twin through the stored scatter map.
    from repro.serve.ilu_plan import _scatter_dbsr_values

    v2 = _perturbed(plan, seed=13)
    values = _scatter_dbsr_values(plan.dbsr_scatter, v2, plan.bsize,
                                  skel.values.dtype)
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


# Metadata ------------------------------------------------------------------

def test_op_counts_and_describe():
    plan = compile_ilu_plan(GRID, "27pt", CONFIG)
    c = plan.op_counts("ilu_apply", 4)
    assert c.vfma > 0 and c.vdiv > 0
    d = plan.describe()
    assert d["kind"] == "ilu"
    assert d["value_digest"] == plan.value_digest
    assert d["n"] == GRID.n_points
