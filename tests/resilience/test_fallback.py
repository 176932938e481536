"""The self-healing fallback chain and the circuit breaker."""

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.resilience.errors import (
    CircuitOpen,
    FallbackExhausted,
    ResilienceError,
)
from repro.resilience.fallback import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FallbackChain,
)
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig, compile_plan

pytestmark = pytest.mark.chaos

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)


def _chain(cache=None, **kw):
    kw.setdefault("breaker", CircuitBreaker(threshold=3))
    return FallbackChain(cache=cache, **kw)


def _setup():
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile(GRID, "27pt", CONFIG)
    b = np.random.default_rng(3).standard_normal(plan.n)
    return cache, plan, b


# Circuit breaker ----------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_breaker_opens_after_threshold():
    clock = FakeClock()
    br = CircuitBreaker(threshold=3, cooldown_seconds=10.0, clock=clock)
    for _ in range(2):
        assert not br.record_failure("fp")
    assert br.state("fp") == CLOSED
    assert br.record_failure("fp")
    assert br.state("fp") == OPEN
    with pytest.raises(CircuitOpen) as ei:
        br.allow("fp")
    assert ei.value.retry_after == pytest.approx(10.0)
    assert br.stats()["rejections"] == 1


def test_breaker_half_open_probe_then_close():
    clock = FakeClock()
    br = CircuitBreaker(threshold=1, cooldown_seconds=5.0, clock=clock)
    br.record_failure("fp")
    clock.t = 6.0
    br.allow("fp")  # cooldown elapsed -> half-open probe allowed
    assert br.state("fp") == HALF_OPEN
    br.record_success("fp")
    assert br.state("fp") == CLOSED


def test_breaker_half_open_failure_reopens():
    clock = FakeClock()
    br = CircuitBreaker(threshold=2, cooldown_seconds=5.0, clock=clock)
    br.record_failure("fp")
    br.record_failure("fp")
    clock.t = 6.0
    br.allow("fp")
    assert br.state("fp") == HALF_OPEN
    # A single half-open failure reopens, below the closed threshold.
    assert br.record_failure("fp")
    assert br.state("fp") == OPEN
    assert br.stats()["open_events"] == 2


def test_breaker_half_open_admits_single_probe():
    clock = FakeClock()
    br = CircuitBreaker(threshold=1, cooldown_seconds=5.0, clock=clock)
    br.record_failure("fp")
    clock.t = 6.0
    br.allow("fp")  # claims the half-open probe slot
    with pytest.raises(CircuitOpen):
        br.allow("fp")  # concurrent solve rejected while probing
    assert br.stats()["rejections"] == 1
    br.record_success("fp")
    br.allow("fp")
    assert br.state("fp") == CLOSED


def test_breaker_hung_probe_reclaims_after_cooldown():
    clock = FakeClock()
    br = CircuitBreaker(threshold=1, cooldown_seconds=5.0, clock=clock)
    br.record_failure("fp")
    clock.t = 6.0
    br.allow("fp")  # probe claimed but never resolved (hung worker)
    clock.t = 12.0
    br.allow("fp")  # a fresh probe may re-claim the stale slot
    assert br.state("fp") == HALF_OPEN


def test_breaker_is_per_fingerprint():
    br = CircuitBreaker(threshold=1)
    br.record_failure("sick")
    assert br.state("sick") == OPEN
    br.allow("healthy")
    assert br.state("healthy") == CLOSED


# Chain recovery -----------------------------------------------------------

def test_clean_solve_is_depth_zero_and_bitwise_native():
    cache, plan, b = _setup()
    chain = _chain(cache)
    res = chain.execute(plan, "lower", b)
    assert (res.depth, res.rung, res.recompiled) == (0, "dbsr", False)
    assert not res.degraded
    assert np.array_equal(res.solution, plan.execute("lower", b))
    assert chain.stats()["depth_histogram"]["0"] == 1
    assert chain.stats()["recovered"] == 0


def test_corruption_heals_by_recompile_bitwise():
    cache, plan, b = _setup()
    chain = _chain(cache)
    ref = plan.execute("lower", b)
    with inject(FaultPlan((FaultSpec("nan_value", target="lower"),))) \
            as inj:
        inj.corrupt_plan(plan)
        res = chain.execute(plan, "lower", b)
    assert (res.depth, res.recompiled) == (0, True)
    assert np.array_equal(res.solution, ref)
    assert cache.stats()["invalidations"] == 1
    assert chain.stats()["recovered"] == 1
    assert chain.stats()["recompiles"] == 1
    # The healed plan now serves later requests cleanly from cache.
    healed, hit = cache.get_or_compile(GRID, "27pt", CONFIG)
    assert hit
    clean = chain.execute(healed, "lower", b)
    assert not clean.degraded


def test_kernel_crash_falls_back_to_csr():
    cache, plan, b = _setup()
    chain = _chain(cache)
    ref = chain.execute_reference(plan, "lower", b)
    with inject(FaultPlan((FaultSpec("kernel_exception",
                                     strategies=("dbsr",)),))):
        res = chain.execute(plan, "lower", b)
    assert (res.depth, res.rung) == (1, "csr")
    assert res.attempts[0][0] == "dbsr"
    assert np.array_equal(res.solution, ref)


def test_descent_never_sleeps(monkeypatch):
    """The CSR rung shares nothing with the failed DBSR rung, so the
    chain descends at once: no backoff sleep on any path."""
    import time

    def no_sleep(seconds):
        raise AssertionError(f"fallback chain slept {seconds}s")

    monkeypatch.setattr(time, "sleep", no_sleep)
    cache, plan, b = _setup()
    chain = _chain(cache)
    with inject(FaultPlan((FaultSpec("kernel_exception",
                                     strategies=("dbsr",)),))):
        res = chain.execute(plan, "lower", b)
    assert res.rung == "csr"


def test_residual_guard_catches_finite_but_wrong_values():
    """With digests off, a bit-flipped value survives validation and
    the kernel — the post-solve residual guard must catch it."""
    cache, plan, b = _setup()
    chain = _chain(cache, integrity=False)
    ref = plan.execute("lower", b)
    flat = plan.lower.values.reshape(-1)
    nz = np.flatnonzero(flat != 0)
    bits = flat[nz[0]:nz[0] + 1].view(np.uint64)
    bits ^= np.uint64(1 << 53)  # exponent-field flip: finite, wrong
    assert np.all(np.isfinite(flat))
    res = chain.execute(plan, "lower", b)
    # Execution-stage failures descend the ladder (no recompile): the
    # csr rung reads the uncorrupted plan.matrix and recovers.
    assert (res.depth, res.rung, res.recompiled) == (1, "csr", False)
    assert res.attempts[0][0] == "dbsr"
    assert "residual guard" in res.attempts[0][1]
    assert np.allclose(res.solution, ref)


def test_exhausted_raises_and_feeds_breaker():
    cache, plan, b = _setup()
    chain = _chain(cache, breaker=CircuitBreaker(threshold=2))
    fault = FaultPlan((FaultSpec("scramble_permutation",
                                 max_fires=None, at_compile=True),))
    with inject(fault) as inj:
        inj.corrupt_plan(plan)
        with pytest.raises(FallbackExhausted) as ei:
            chain.execute(plan, "lower", b)
        assert [r for r, _ in ei.value.attempts[:1]] == ["dbsr"]
        with pytest.raises(FallbackExhausted):
            chain.execute(plan, "lower", b)
        with pytest.raises(CircuitOpen):
            chain.execute(plan, "lower", b)
    assert chain.stats()["exhausted"] == 2
    assert chain.breaker.stats()["open_events"] == 1


def test_heal_budget_is_atomic_under_concurrency():
    import threading

    cache, plan, _ = _setup()
    chain = _chain(cache, max_recompiles=1)
    start = threading.Barrier(4)
    results = []

    def heal():
        start.wait()
        results.append(chain._heal(plan))

    threads = [threading.Thread(target=heal) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Exactly one thread may win the single budget slot.
    assert sum(r is not None for r in results) == 1
    assert chain.stats()["recompiles"] == 1
    assert FallbackChain.recompiles_used_for(plan) == 1


@pytest.mark.parametrize("op", ["lower", "upper", "spmv", "symgs"])
def test_all_ops_survive_full_descent(op):
    cache, plan, b = _setup()
    chain = _chain(cache)
    ref = chain.execute_reference(plan, op, b)
    with inject(FaultPlan((FaultSpec("kernel_exception",
                                     strategies=("dbsr",)),))):
        res = chain.execute(plan, op, b)
    assert res.rung == "csr"
    assert np.array_equal(res.solution, ref)


def test_multi_rhs_block_recovery():
    cache, plan, _ = _setup()
    chain = _chain(cache)
    B = np.random.default_rng(5).standard_normal((plan.n, 3))
    ref = chain.execute_reference(plan, "lower", B)
    with inject(FaultPlan((FaultSpec("kernel_exception",
                                     strategies=("dbsr",)),))):
        res = chain.execute(plan, "lower", B)
    assert res.solution.shape == (plan.n, 3)
    assert np.array_equal(res.solution, ref)


def test_stats_schema():
    cache, plan, b = _setup()
    chain = _chain(cache)
    chain.execute(plan, "lower", b)
    s = chain.stats()
    assert set(s) >= {"solves", "faults_detected", "recovered",
                      "recompiles", "exhausted", "depth_histogram",
                      "rung_failures", "seconds_by_depth", "breaker"}
    import json

    json.dumps(s)


def test_chain_errors_are_resilience_errors():
    assert issubclass(FallbackExhausted, ResilienceError)
    assert issubclass(CircuitOpen, ResilienceError)


# Non-recoverable failures -------------------------------------------------
#
# The two ladder-boundary ``except Exception`` handlers used to swallow
# *everything*, so resource exhaustion and violated internal invariants
# were silently "recovered" by descending rungs. They must re-raise the
# typed NON_RECOVERABLE_ERRORS set instead.

@pytest.mark.parametrize("exc_type", [MemoryError, AssertionError])
def test_rung_boundary_reraises_non_recoverable(exc_type):
    cache, plan, b = _setup()
    chain = _chain(cache)

    def boom(plan, rung, op, B):
        raise exc_type("cache invariant violated")

    chain._run_rung = boom
    with pytest.raises(exc_type):
        chain.execute(plan, "lower", b)
    # Nothing was mis-counted as a recovered solve.
    assert chain.stats()["solves"] == 0


def test_rung_boundary_still_degrades_on_ordinary_errors():
    cache, plan, b = _setup()
    chain = _chain(cache)
    ref = chain.execute_reference(plan, "lower", b)
    real_run = chain._run_rung

    def flaky(plan, rung, op, B):
        if rung == "dbsr":
            raise RuntimeError("ordinary kernel crash")
        return real_run(plan, rung, op, B)

    chain._run_rung = flaky
    res = chain.execute(plan, "lower", b)
    assert res.rung == "csr"
    assert np.array_equal(res.solution, ref)


@pytest.mark.parametrize("exc_type", [MemoryError, AssertionError])
def test_heal_reraises_non_recoverable_compile_failure(exc_type):
    cache, plan, b = _setup()
    chain = _chain(cache)

    def poisoned_compile(*a, **kw):
        raise exc_type("compile blew the heap")

    cache.get_or_compile = poisoned_compile
    with pytest.raises(exc_type):
        chain._heal(plan)


def test_heal_returns_none_on_ordinary_compile_failure():
    cache, plan, b = _setup()
    chain = _chain(cache)

    def broken_compile(*a, **kw):
        raise RuntimeError("compile itself is poisoned")

    cache.get_or_compile = broken_compile
    assert chain._heal(plan) is None
