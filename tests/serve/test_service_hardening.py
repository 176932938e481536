"""Service hardening: deadlines, drain timeouts, resilient execution."""

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.resilience.errors import DeadlineExceeded, DrainTimeout
from repro.resilience.fallback import CircuitBreaker, FallbackChain
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig
from repro.serve.service import RequestError, SolveService

pytestmark = pytest.mark.chaos

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)


def _rhs(seed=0):
    return np.random.default_rng(seed).standard_normal(GRID.n_points)


# Drain timeout ------------------------------------------------------------

def test_drain_timeout_requeues_and_names_tickets():
    with SolveService(config=CONFIG) as svc:
        tickets = [svc.submit(GRID, "27pt", _rhs(i)) for i in range(3)]
        with pytest.raises(DrainTimeout) as ei:
            svc.drain(timeout=0.0)
        assert sorted(ei.value.ticket_ids) == \
            [t.request_id for t in tickets]
        # Nothing executed, everything requeued.
        assert svc.n_pending == 3
        assert all(not t.done for t in tickets)
        # A later unbounded drain picks the work back up.
        assert svc.drain() == 3
        for t in tickets:
            assert np.all(np.isfinite(t.result()))


def test_drain_timeout_requeue_keeps_priority():
    with SolveService(config=CONFIG) as svc:
        old = svc.submit(GRID, "27pt", _rhs(0))
        with pytest.raises(DrainTimeout):
            svc.drain(timeout=0.0)
        svc.submit(GRID, "27pt", _rhs(1))
        # The re-queued request sits ahead of the newer submission.
        assert svc._pending[0].ticket.request_id == old.request_id
        assert svc.drain() == 2


def test_drain_timeout_mid_compile_requeues_staged_groups():
    # When the budget expires between groups, batches already staged
    # from earlier groups have not executed either — their tickets
    # must be named and re-queued, not silently dropped.
    import time

    with SolveService(config=CONFIG) as svc:
        t_lower = svc.submit(GRID, "27pt", _rhs(0), op="lower")
        t_upper = svc.submit(GRID, "27pt", _rhs(1), op="upper")
        orig = svc._plan_for

        def slow_plan_for(entry):
            time.sleep(0.05)
            return orig(entry)

        svc._plan_for = slow_plan_for
        with pytest.raises(DrainTimeout) as ei:
            svc.drain(timeout=0.01)
        assert sorted(ei.value.ticket_ids) == \
            sorted([t_lower.request_id, t_upper.request_id])
        assert svc.n_pending == 2
        assert not t_lower.done and not t_upper.done
        svc._plan_for = orig
        assert svc.drain() == 2
        for t in (t_lower, t_upper):
            assert np.all(np.isfinite(t.result()))


# Per-request deadlines ----------------------------------------------------

def test_submit_rejects_nonpositive_deadline():
    with SolveService(config=CONFIG) as svc:
        with pytest.raises(RequestError, match="deadline"):
            svc.submit(GRID, "27pt", _rhs(), deadline=0.0)


def test_expired_deadline_fails_only_that_request():
    with SolveService(config=CONFIG) as svc:
        stale = svc.submit(GRID, "27pt", _rhs(0), deadline=1e-9)
        fresh = svc.submit(GRID, "27pt", _rhs(1))
        import time

        time.sleep(0.01)
        assert svc.drain() == 1
        with pytest.raises(DeadlineExceeded) as ei:
            stale.result()
        assert ei.value.request_id == stale.request_id
        assert np.all(np.isfinite(fresh.result()))
        assert svc.stats()["failed"] == 1 and svc.stats()["completed"] == 1


def test_generous_deadline_is_met():
    with SolveService(config=CONFIG) as svc:
        t = svc.submit(GRID, "27pt", _rhs(), deadline=60.0)
        svc.drain()
        assert np.all(np.isfinite(t.result()))


# Ticket error annotation --------------------------------------------------

def test_ticket_errors_name_request_op_and_fingerprint():
    with SolveService(config=CONFIG) as svc:
        bad = _rhs()
        bad[0] = np.nan
        t = svc.submit(GRID, "27pt", bad)
        svc.drain()
        with pytest.raises(RequestError) as ei:
            t.result()
        notes = " ".join(getattr(ei.value, "__notes__", []))
        assert f"request {t.request_id}" in notes
        assert "op='lower'" in notes
        assert t.fingerprint[:12] in notes


# Resilient execution ------------------------------------------------------

def test_resilient_service_heals_corrupted_plan():
    cache = PlanCache(capacity=4)
    chain = FallbackChain(cache=cache,
                          breaker=CircuitBreaker(threshold=3))
    with SolveService(cache=cache, config=CONFIG,
                      resilience=chain) as svc:
        plan, _ = cache.get_or_compile(GRID, "27pt", CONFIG)
        t = svc.submit(GRID, "27pt", _rhs())
        with inject(FaultPlan(
                (FaultSpec("nan_value", target="lower"),))) as inj:
            inj.corrupt_plan(plan)
            assert svc.drain() == 1
        assert np.all(np.isfinite(t.result()))
        stats = svc.stats()
        assert stats["resilience"]["recovered"] == 1
        assert stats["resilience"]["recompiles"] == 1
        assert stats["cache"]["invalidations"] == 1


def test_resilient_service_matches_native_results():
    cache = PlanCache(capacity=4)
    chain = FallbackChain(cache=cache,
                          breaker=CircuitBreaker(threshold=3))
    rhs = _rhs(9)
    with SolveService(config=CONFIG) as native:
        ref = native.submit(GRID, "27pt", rhs)
        native.drain()
    with SolveService(cache=cache, config=CONFIG,
                      resilience=chain) as svc:
        t = svc.submit(GRID, "27pt", rhs)
        svc.drain()
    assert np.array_equal(t.result(), ref.result())


def test_stats_resilience_is_none_without_chain():
    with SolveService(config=CONFIG) as svc:
        assert svc.stats()["resilience"] is None
