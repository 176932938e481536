"""Chaos benchmark: inject faults, measure recovery, emit JSON.

The ``chaos`` bench emitter (``repro bench all --only chaos``) runs a
scripted set of fault scenarios against the self-healing fallback
chain and reports, per scenario, whether the chain recovered, at which
rung of the DBSR → CSR ladder it landed, whether the recovered
solution is **bit-identical** to the clean execution of that rung, and
the latency the recovery added over the clean solve. A final scenario
drives an *unrecoverable* fault (persistent compile-time permutation
scrambling) into the circuit breaker and asserts the breaker opens
and then fails fast.

Determinism: every scenario uses a pinned ``bsize`` (no wall-clock
autotune), a seeded RHS, and a seeded :class:`FaultPlan`, so reruns
reproduce the same corruption sites and the same recovery path.

The emitted ``BENCH_chaos.json`` top line is ``recovery_rate`` —
recovered-and-bit-identical scenarios over all recoverable scenarios —
which the ``chaos.recovery_rate`` check of ``repro bench all`` gates at
1.0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.grids.grid import StructuredGrid
from repro.resilience.errors import CircuitOpen, FallbackExhausted
from repro.resilience.fallback import LADDER, CircuitBreaker, FallbackChain
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault scenario: what breaks, and the op it breaks under.

    ``corrupt`` — apply the plan's corruption specs directly to the
    cached plan before solving (modelling bit rot of cached artifacts);
    hook-delivered faults (kernel exceptions, delays) leave it False.
    """

    name: str
    fault: FaultPlan
    op: str = "lower"
    corrupt: bool = True


def default_scenarios(quick: bool = False) -> list[ChaosScenario]:
    """The scripted recoverable scenarios, covering every fault class."""
    scenarios = [
        ChaosScenario(
            "nan-in-lower-values",
            FaultPlan((FaultSpec("nan_value", target="lower"),),
                      name="nan-lower"), op="lower"),
        ChaosScenario(
            "scrambled-permutation",
            FaultPlan((FaultSpec("scramble_permutation"),),
                      name="scramble"), op="lower"),
        ChaosScenario(
            "bitflip-in-lower-values",
            FaultPlan((FaultSpec("bitflip_value", target="lower"),),
                      name="bitflip"), op="lower"),
        ChaosScenario(
            "dbsr-kernel-crash",
            FaultPlan((FaultSpec("kernel_exception",
                                 strategies=("dbsr",)),),
                      name="crash-dbsr"), op="lower", corrupt=False),
    ]
    if not quick:
        scenarios += [
            ChaosScenario(
                "inf-in-upper-values",
                FaultPlan((FaultSpec("inf_value", target="upper"),),
                          name="inf-upper"), op="upper"),
            ChaosScenario(
                "bad-block-index",
                FaultPlan((FaultSpec("bad_block_index"),),
                          name="bad-blk"), op="lower"),
            ChaosScenario(
                "nan-in-full-dbsr-values",
                FaultPlan((FaultSpec("nan_value", target="dbsr"),),
                          name="nan-dbsr"), op="spmv"),
            ChaosScenario(
                "nan-in-diag",
                FaultPlan((FaultSpec("nan_value", target="diag"),),
                          name="nan-diag"), op="symgs"),
            ChaosScenario(
                "kernel-delay",
                FaultPlan((FaultSpec("kernel_delay",
                                     delay_seconds=0.005),),
                          name="delay"), op="lower", corrupt=False),
        ]
    return scenarios


def _unrecoverable_plan() -> FaultPlan:
    """Persistent compile-time scrambling: every recompile is poisoned."""
    return FaultPlan(
        (FaultSpec("scramble_permutation", max_fires=None,
                   at_compile=True),),
        name="persistent-scramble")


def _clean_rung_reference(chain: FallbackChain, plan, op: str,
                          B: np.ndarray, rung: str) -> np.ndarray:
    """Clean execution of ``rung`` (no injector armed when called)."""
    if rung == "dbsr":
        return plan.execute(op, B)
    return chain.execute_reference(plan, op, B)


def run_scenario(scenario: ChaosScenario, nx: int, stencil: str,
                 bsize: int, rhs_seed: int = 2024) -> dict:
    """Run one scenario on a fresh cache + chain; returns its record."""
    grid = StructuredGrid((nx,) * 3)
    config = PlanConfig(bsize=bsize)
    cache = PlanCache(capacity=4)
    chain = FallbackChain(cache=cache, breaker=CircuitBreaker(threshold=3))
    plan, _ = cache.get_or_compile(grid, stencil, config)

    rng = np.random.default_rng(rhs_seed)
    B = rng.standard_normal(plan.n).astype(plan.config.np_dtype)

    # Clean references per reachable rung, computed before arming chaos
    # (recompiles are deterministic under a pinned bsize, so a healed
    # plan reproduces these bit-for-bit).
    references = {rung: _clean_rung_reference(chain, plan, scenario.op,
                                              B, rung)
                  for rung in LADDER}
    t0 = time.perf_counter()
    plan.execute(scenario.op, B)
    clean_seconds = time.perf_counter() - t0

    with inject(scenario.fault) as injector:
        if scenario.corrupt:
            injector.corrupt_plan(plan)
        t0 = time.perf_counter()
        try:
            result = chain.execute(plan, scenario.op, B)
            error = ""
        except Exception as exc:  # noqa: BLE001 - scenario boundary
            result = None
            error = repr(exc)
        chaos_seconds = time.perf_counter() - t0
        fault_stats = injector.stats()

    recovered = result is not None
    bit_identical = bool(
        recovered and np.array_equal(result.solution,
                                     references[result.rung]))
    return {
        "scenario": scenario.name,
        "fault_kinds": [s.kind for s in scenario.fault.specs],
        "op": scenario.op,
        "recovered": recovered,
        "bit_identical": bit_identical,
        "rung": result.rung if recovered else None,
        "fallback_depth": result.depth if recovered else None,
        "recompiled": bool(result.recompiled) if recovered else False,
        "attempts": list(result.attempts) if recovered else [],
        "error": error,
        "faults_injected": fault_stats["injected"],
        "clean_seconds": clean_seconds,
        "chaos_seconds": chaos_seconds,
        "added_seconds": chaos_seconds - clean_seconds,
        "chain": chain.stats(),
    }


def run_breaker_scenario(nx: int, stencil: str, bsize: int) -> dict:
    """Drive an unrecoverable fault until the circuit breaker opens."""
    grid = StructuredGrid((nx,) * 3)
    config = PlanConfig(bsize=bsize)
    cache = PlanCache(capacity=4)
    breaker = CircuitBreaker(threshold=3, cooldown_seconds=60.0)
    chain = FallbackChain(cache=cache, breaker=breaker)
    plan, _ = cache.get_or_compile(grid, stencil, config)
    rng = np.random.default_rng(7)
    B = rng.standard_normal(plan.n).astype(plan.config.np_dtype)

    exhausted = 0
    rejected = False
    with inject(_unrecoverable_plan()) as injector:
        injector.corrupt_plan(plan)
        # Every heal attempt recompiles through the poisoned compiler
        # (the fault is persistent and compile-time), so the same plan
        # object keeps failing validation on every rung.
        for _ in range(breaker.threshold):
            try:
                chain.execute(plan, "lower", B)
            except FallbackExhausted:
                exhausted += 1
        try:
            chain.execute(plan, "lower", B)
        except CircuitOpen:
            rejected = True
        except FallbackExhausted:
            rejected = False
    stats = breaker.stats()
    return {
        "scenario": "unrecoverable-persistent-scramble",
        "threshold": breaker.threshold,
        "exhausted_failures": exhausted,
        "breaker_opened": stats["open_events"] > 0,
        "fails_fast_when_open": rejected,
        "breaker": stats,
    }


def collect_bench_chaos(nx: int = 8, stencil: str = "27pt",
                        bsize: int = 4, quick: bool = False,
                        seed: int = 2024) -> dict:
    """Run every scenario and assemble the ``BENCH_chaos.json`` report."""
    scenarios = default_scenarios(quick=quick)
    records = [run_scenario(s, nx=nx, stencil=stencil, bsize=bsize,
                            rhs_seed=seed)
               for s in scenarios]
    breaker_record = run_breaker_scenario(nx=nx, stencil=stencil,
                                          bsize=bsize)

    n = len(records)
    n_recovered = sum(r["recovered"] and r["bit_identical"]
                      for r in records)
    depth_hist = {str(d): 0 for d in range(len(LADDER))}
    for r in records:
        if r["fallback_depth"] is not None:
            depth_hist[str(r["fallback_depth"])] += 1
    added_by_depth: dict[str, list] = {}
    for r in records:
        if r["recovered"]:
            added_by_depth.setdefault(
                str(r["fallback_depth"]), []).append(r["added_seconds"])
    return {
        "schema": "dbsr-repro/bench-chaos/v1",
        "bench": "chaos",
        "grid": [nx, nx, nx],
        "stencil": stencil,
        "bsize": bsize,
        "quick": quick,
        "n_scenarios": n,
        "recovery_rate": n_recovered / n if n else 0.0,
        "bit_identical_rate": n_recovered / n if n else 0.0,
        "fallback_depth_histogram": depth_hist,
        "mean_added_seconds_by_depth": {
            d: sum(v) / len(v) for d, v in sorted(added_by_depth.items())
        },
        "scenarios": records,
        "circuit_breaker": breaker_record,
    }
