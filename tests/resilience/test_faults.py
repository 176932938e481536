"""Deterministic fault injection: specs, budgets, hook delivery."""

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.resilience import hooks
from repro.resilience.errors import FaultInjected, ResilienceError
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    inject,
)
from repro.serve.plan import PlanConfig, compile_plan

pytestmark = pytest.mark.chaos

_PLAN = None


def _plan():
    global _PLAN
    if _PLAN is None:
        _PLAN = compile_plan(StructuredGrid((6, 6, 6)), "27pt",
                             PlanConfig(bsize=4))
    return _PLAN


def _fresh_plan():
    return compile_plan(StructuredGrid((6, 6, 6)), "27pt",
                        PlanConfig(bsize=4))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("cosmic_ray")


def test_unknown_value_target_rejected():
    with pytest.raises(ValueError, match="unknown value target"):
        FaultSpec("nan_value", target="values_of_doom")


@pytest.mark.parametrize("kw", [
    {"strategies": ("sell",)},        # a rung the ladder no longer has
    {"strategies": ("dbrs",)},        # a typo
    {"strategies": ()},               # strikes nothing
    {"ops": ("lowr",)},
    {"ops": ()},
], ids=["retired-rung", "typo-rung", "empty-rungs", "typo-op",
        "empty-ops"])
def test_filters_that_can_never_fire_are_rejected(kw):
    """A filter naming no reachable rung or op would make its chaos
    scenario pass vacuously."""
    with pytest.raises(ValueError, match="subset"):
        FaultSpec("kernel_exception", **kw)


def test_corruption_is_deterministic():
    """Same plan + same seed => corruption lands at the same index."""
    spec = FaultSpec("nan_value", target="lower")
    records = []
    for _ in range(2):
        plan = _fresh_plan()
        inj = FaultInjector(FaultPlan((spec,), seed=7))
        recs = inj.corrupt_plan(plan)
        assert len(recs) == 1
        records.append((recs[0].artifact, recs[0].index))
        assert np.isnan(plan.lower.values.reshape(-1)[recs[0].index])
    assert records[0] == records[1]


def test_max_fires_budget_is_consumed():
    spec = FaultSpec("nan_value", target="lower", max_fires=1)
    inj = FaultInjector(FaultPlan((spec,)))
    assert len(inj.corrupt_plan(_fresh_plan())) == 1
    assert len(inj.corrupt_plan(_fresh_plan())) == 0
    assert inj.injected == 1


def test_persistent_spec_never_disarms():
    spec = FaultSpec("nan_value", target="lower", max_fires=None)
    inj = FaultInjector(FaultPlan((spec,)))
    for _ in range(3):
        assert len(inj.corrupt_plan(_fresh_plan())) == 1


def test_scramble_breaks_bijection():
    plan = _fresh_plan()
    inj = FaultInjector(FaultPlan(
        (FaultSpec("scramble_permutation"),)))
    inj.corrupt_plan(plan)
    perm = plan.ordering.old_to_new
    assert len(np.unique(perm)) == len(perm) - 1


def test_bitflip_changes_bytes_but_stays_structural():
    plan = _fresh_plan()
    before = plan.lower.values.copy()
    inj = FaultInjector(FaultPlan(
        (FaultSpec("bitflip_value", target="lower"),)))
    recs = inj.corrupt_plan(plan)
    assert len(recs) == 1
    assert not np.array_equal(plan.lower.values, before)
    # Exponent-field flip: the value changed but is still finite, so
    # only the integrity digest (not np.isfinite) can see it.
    assert np.all(np.isfinite(plan.lower.values))


def test_inject_context_manager_uninstalls():
    fault = FaultPlan((FaultSpec("kernel_exception",
                                 strategies=None),))
    with inject(fault) as inj:
        assert hooks.active() is inj
    assert hooks.active() is None


def test_inject_uninstalls_even_when_fault_raises():
    fault = FaultPlan((FaultSpec("kernel_exception",
                                 strategies=None),))
    with pytest.raises(FaultInjected):
        with inject(fault):
            _plan().execute("lower", np.ones(_plan().n))
    assert hooks.active() is None


def test_kernel_exception_respects_op_filter():
    fault = FaultPlan((FaultSpec("kernel_exception", strategies=None,
                                 ops=("upper",)),))
    b = np.ones(_plan().n)
    with inject(fault):
        _plan().execute("lower", b)  # filtered out: does not raise
        with pytest.raises(FaultInjected):
            _plan().execute("upper", b)


def test_worker_exception_fires_in_pooled_task():
    from repro.ordering.vbmc import ColorSchedule
    from repro.parallel.executor import ColorParallelExecutor

    schedule = ColorSchedule(bsize=1, points_per_block=1,
                             color_group_ptr=np.array([0, 4]))
    with ColorParallelExecutor(schedule, n_workers=2) as ex:
        fault = FaultPlan((FaultSpec("worker_exception"),))
        with inject(fault):
            with pytest.raises(FaultInjected):
                ex.run_forward(lambda g: None)
        ex.run_forward(lambda g: None)  # disarmed: clean again


def test_kernel_delay_sleeps_and_continues():
    fault = FaultPlan((FaultSpec("kernel_delay", strategies=None,
                                 delay_seconds=0.0),))
    b = np.ones(_plan().n)
    with inject(fault) as inj:
        x = _plan().execute("lower", b)
    assert np.all(np.isfinite(x))
    assert inj.injected == 1
    assert inj.records[0].kind == "kernel_delay"


def test_fault_injected_is_not_a_resilience_error():
    exc = FaultInjected("plan.execute", "kernel_exception")
    assert not isinstance(exc, ResilienceError)


def test_stats_reports_records():
    inj = FaultInjector(FaultPlan(
        (FaultSpec("nan_value", target="diag"),), name="scenario-x"))
    inj.corrupt_plan(_fresh_plan())
    s = inj.stats()
    assert s["plan"] == "scenario-x"
    assert s["injected"] == 1
    assert s["records"][0]["artifact"] == "diag"
