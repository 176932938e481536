"""Fallback-chain and breaker tallies stay exact under thread switching.

Eight threads share one :class:`FallbackChain` and its
:class:`CircuitBreaker` under ``sys.setswitchinterval(1e-6)``. Lower
solves of a healthy plan run clean or take a fault-forced DBSR → CSR
descent (a fire budget picks which); upper solves of a second, sick
plan fail on both rungs until its circuit opens and refuses them. Every
count in ``chain.stats()`` must equal the totals the threads observe
from their own results and exceptions.
"""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.resilience.errors import CircuitOpen, FallbackExhausted
from repro.resilience.fallback import LADDER, CircuitBreaker, FallbackChain
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig

pytestmark = [pytest.mark.fast, pytest.mark.chaos]

N_THREADS = 8
ROUNDS = 6          # per thread: 4 healthy lower solves, 2 sick upper
FORCED = 10         # lower solves the fire budget sends down to CSR
THRESHOLD = 3


def _worker(chain, healthy, sick, b_healthy, b_sick, refs, start, out):
    tally = Counter()
    start.wait()
    for i in range(ROUNDS):
        sick_round = i % 3 == 2
        plan, op, b = ((sick, "upper", b_sick) if sick_round
                       else (healthy, "lower", b_healthy))
        try:
            res = chain.execute(plan, op, b)
        except CircuitOpen:
            tally["rejections"] += 1
            continue
        except FallbackExhausted as exc:
            tally["solves"] += 1
            tally["exhausted"] += 1
            attempts = exc.attempts
        else:
            tally["solves"] += 1
            tally[f"depth.{res.depth}"] += 1
            tally["recovered"] += bool(res.depth or res.recompiled
                                       or res.attempts)
            tally["bitwise"] += np.array_equal(res.solution,
                                               refs[res.rung])
            attempts = res.attempts
        tally["faults_detected"] += len(attempts)
        for rung, _ in attempts:
            tally[f"rung.{rung}"] += 1
    out.append(tally)


def test_chain_and_breaker_tallies_equal_thread_outcomes():
    cache = PlanCache(capacity=4)
    grid = StructuredGrid((6, 6, 6))
    config = PlanConfig(bsize=4)
    healthy, _ = cache.get_or_compile(grid, "27pt", config)
    sick, _ = cache.get_or_compile(grid, "7pt", config)
    rng = np.random.default_rng(11)
    b_healthy = rng.standard_normal(healthy.n)
    b_sick = rng.standard_normal(sick.n)
    breaker = CircuitBreaker(threshold=THRESHOLD, cooldown_seconds=600.0)
    chain = FallbackChain(cache=cache, breaker=breaker)
    refs = {"dbsr": healthy.execute("lower", b_healthy),
            "csr": chain.execute_reference(healthy, "lower", b_healthy)}
    fault = FaultPlan((
        FaultSpec("kernel_exception", strategies=("dbsr",),
                  ops=("lower",), max_fires=FORCED),
        FaultSpec("kernel_exception", strategies=None, ops=("upper",),
                  max_fires=None),
    ))
    start = threading.Barrier(N_THREADS)
    out: list = []
    threads = [threading.Thread(
        target=_worker,
        args=(chain, healthy, sick, b_healthy, b_sick, refs, start, out))
        for _ in range(N_THREADS)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with inject(fault):
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(out) == N_THREADS
    seen = sum(out, Counter())

    # Every lower solve succeeded, bit for bit; FORCED of them on CSR.
    n_lower = N_THREADS * ROUNDS * 2 // 3
    assert seen["depth.0"] + seen["depth.1"] == n_lower
    assert seen["depth.1"] == FORCED
    assert seen["bitwise"] == n_lower
    # Every sick solve either exhausted both rungs or was refused.
    assert seen["exhausted"] + seen["rejections"] == N_THREADS * ROUNDS // 3
    assert seen["exhausted"] >= THRESHOLD

    stats = chain.stats()
    assert stats["solves"] == seen["solves"]
    assert stats["exhausted"] == seen["exhausted"]
    assert stats["recovered"] == seen["recovered"]
    assert stats["faults_detected"] == seen["faults_detected"]
    assert stats["depth_histogram"] == {
        str(d): seen[f"depth.{d}"] for d in range(len(LADDER))}
    assert stats["rung_failures"] == {
        r: seen[f"rung.{r}"] for r in LADDER}
    # The sick circuit's failure streak never resets, so every
    # exhausted ladder from the THRESHOLD-th on (re)opens it.
    assert stats["breaker"]["open_events"] \
        == seen["exhausted"] - (THRESHOLD - 1)
    assert stats["breaker"]["rejections"] == seen["rejections"]
