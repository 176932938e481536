"""End-to-end chaos scenarios and the zero-overhead guarantee."""

import json

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.resilience.chaos import (
    collect_bench_chaos,
    default_scenarios,
    run_scenario,
)
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve.batch import sptrsv_dbsr_lower_multi_counted
from repro.serve.plan import PlanConfig, compile_plan
from repro.simd.engine import VectorEngine

pytestmark = pytest.mark.chaos


def test_quick_scenarios_all_recover():
    report = collect_bench_chaos(nx=8, quick=True)
    assert report["recovery_rate"] == 1.0
    assert report["bit_identical_rate"] == 1.0
    assert report["n_scenarios"] == len(default_scenarios(quick=True))
    json.dumps(report)  # must be emittable as BENCH_chaos.json


def test_breaker_record_in_report():
    report = collect_bench_chaos(nx=8, quick=True)
    br = report["circuit_breaker"]
    assert br["breaker_opened"]
    assert br["fails_fast_when_open"]
    assert br["exhausted_failures"] == br["threshold"]


def test_single_scenario_record_schema():
    scenario = default_scenarios(quick=True)[0]
    rec = run_scenario(scenario, nx=8, stencil="27pt", bsize=4)
    assert set(rec) >= {"scenario", "fault_kinds", "op", "recovered",
                        "bit_identical", "fallback_depth", "recompiled",
                        "added_seconds"}
    assert rec["recovered"] and rec["bit_identical"]


def test_armed_injector_does_not_change_op_counts():
    """An injector whose specs never match must leave the counted
    kernel's instruction mix bit-for-bit identical: the hook sites are
    a single None-check plus a filtered dispatch, never extra vector
    ops."""
    plan = compile_plan(StructuredGrid((6, 6, 6)), "27pt",
                        PlanConfig(bsize=4))
    b = np.random.default_rng(11).standard_normal((plan.lower.n_rows, 1))

    def counted():
        engine = VectorEngine(bsize=plan.lower.bsize)
        x = sptrsv_dbsr_lower_multi_counted(plan.lower, b, engine,
                                            diag=plan.diag)
        return x, engine.counter

    x_clean, c_clean = counted()
    # Armed, but filtered to an op this run never executes.
    fault = FaultPlan((FaultSpec("kernel_exception", strategies=None,
                                 ops=("spmv",)),))
    with inject(fault) as inj:
        x_armed, c_armed = counted()
    assert inj.injected == 0
    assert np.array_equal(x_clean, x_armed)
    assert c_clean == c_armed


def test_clean_plan_execute_unchanged_under_filtered_injector():
    plan = compile_plan(StructuredGrid((6, 6, 6)), "27pt",
                        PlanConfig(bsize=4))
    b = np.random.default_rng(12).standard_normal(plan.n)
    ref = plan.execute("lower", b)
    fault = FaultPlan((FaultSpec("kernel_exception", strategies=None,
                                 ops=("upper",)),))
    with inject(fault):
        assert np.array_equal(plan.execute("lower", b), ref)
