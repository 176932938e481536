"""ILU rungs of the fallback chain: degrade bitwise, heal bitwise."""

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.resilience.errors import FallbackExhausted
from repro.resilience.fallback import LADDER, CircuitBreaker, FallbackChain
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig

pytestmark = pytest.mark.chaos

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)


def _chain(cache=None, **kw):
    kw.setdefault("breaker", CircuitBreaker(threshold=3))
    return FallbackChain(cache=cache, **kw)


def _setup():
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    b = np.random.default_rng(3).standard_normal(plan.n)
    return cache, plan, b


def test_clean_ilu_apply_is_depth_zero_and_bitwise_native():
    cache, plan, b = _setup()
    chain = _chain(cache)
    res = chain.execute(plan, "ilu_apply", b)
    assert (res.depth, res.rung, res.recompiled) == (0, "dbsr", False)
    assert not res.degraded
    assert np.array_equal(res.solution, plan.apply(b))


def test_reference_path_is_the_projected_csr_rung():
    from repro.ilu.ilu0_csr import ilu0_apply_csr

    cache, plan, b = _setup()
    chain = _chain(cache)
    ref = chain.execute_reference(plan, "ilu_apply", b)
    factors = plan.factors.to_csr_factors()
    expect = plan.restrict(ilu0_apply_csr(factors, plan.extend(b)))
    assert np.array_equal(ref, expect)


def test_kernel_crash_falls_back_to_csr_rung_bitwise():
    cache, plan, b = _setup()
    chain = _chain(cache)
    ref = chain.execute_reference(plan, "ilu_apply", b)
    with inject(FaultPlan((FaultSpec("kernel_exception",
                                     strategies=("dbsr",),
                                     ops=("ilu_apply",)),))):
        res = chain.execute(plan, "ilu_apply", b)
    assert (res.depth, res.rung) == (1, "csr")
    assert res.attempts[0][0] == "dbsr"
    assert np.array_equal(res.solution, ref)


def test_ilu_ladder_is_dbsr_then_csr_no_sell():
    """ILU plans walk the same two-rung ladder as solve plans: a crash
    on every rung exhausts after exactly DBSR then CSR."""
    cache, plan, b = _setup()
    chain = _chain(cache)
    assert LADDER == ("dbsr", "csr")
    with inject(FaultPlan((FaultSpec("kernel_exception", strategies=None,
                                     max_fires=None),))):
        with pytest.raises(FallbackExhausted) as ei:
            chain.execute(plan, "ilu_apply", b)
    assert [rung for rung, _ in ei.value.attempts] == list(LADDER)


def test_corrupted_factors_heal_by_recompile_bitwise():
    cache, plan, b = _setup()
    chain = _chain(cache)
    ref = plan.apply(b)
    plan.factors.matrix.values[0, 0] = np.nan
    res = chain.execute(plan, "ilu_apply", b)
    assert res.recompiled
    assert np.array_equal(res.solution, ref)
    assert cache.stats()["invalidations"] == 1
    healed, hit = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    assert hit
    assert np.array_equal(healed.apply(b), ref)


def test_heal_recompiles_from_the_plans_value_snapshot():
    """Healing must re-factorize the *served* coefficients, not the
    canonical assembly — otherwise a refreshed structure would heal
    back to stale numbers."""
    cache, plan, b = _setup()
    rng = np.random.default_rng(5)
    v2 = plan.values_src * (1.0 + 0.05 * rng.uniform(
        -1.0, 1.0, plan.values_src.shape))
    fresh, repacked = cache.refresh_values(plan.fingerprint, v2)
    assert repacked
    ref = fresh.apply(b)
    chain = _chain(cache)
    fresh.factors.matrix.values[0, 0] = np.inf
    res = chain.execute(fresh, "ilu_apply", b)
    assert res.recompiled
    assert np.array_equal(res.solution, ref)
    healed = cache.peek(fresh.fingerprint)
    assert healed.value_digest == fresh.value_digest


def test_cacheless_heal_compiles_inline():
    _, plan, b = _setup()
    chain = _chain(cache=None)
    ref = plan.apply(b)
    plan.factors.matrix.values[0, 0] = np.nan
    res = chain.execute(plan, "ilu_apply", b)
    assert res.recompiled
    assert np.array_equal(res.solution, ref)


def test_multi_rhs_block_degrades_bitwise():
    cache, plan, _ = _setup()
    chain = _chain(cache)
    B = np.random.default_rng(7).standard_normal((plan.n, 4))
    ref = chain.execute_reference(plan, "ilu_apply", B)
    with inject(FaultPlan((FaultSpec("kernel_exception",
                                     strategies=("dbsr",)),))):
        res = chain.execute(plan, "ilu_apply", B)
    assert res.rung == "csr"
    assert np.array_equal(res.solution, ref)
    assert np.array_equal(ref, plan.apply(B))
