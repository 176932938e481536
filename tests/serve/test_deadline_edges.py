"""Deadline edge cases on the synchronous submit/drain path.

Three boundaries the gateway's admission control leans on:

* a request whose deadline falls *exactly* at execution time is still
  served (the contract is strict expiry: ``now > deadline_at`` fails,
  ``now == deadline_at`` does not);
* a deadline that expires between admission (submit) and batch staging
  fails only its own ticket, not its batch-mates;
* a ``drain(timeout=)`` requeue cycle preserves every ticket's
  absolute expiry — requeueing neither extends nor resets deadlines.
"""

import time

import numpy as np
import pytest

import repro.serve.service as service_mod
from repro.grids.grid import StructuredGrid
from repro.resilience.errors import DeadlineExceeded, DrainTimeout
from repro.serve.plan import PlanConfig
from repro.serve.service import SolveService

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)


def _rhs(seed=0):
    return np.random.default_rng(seed).standard_normal(GRID.n_points)


@pytest.fixture
def clock(monkeypatch):
    """Freeze the service module's monotonic clock at a settable value."""
    now = [1000.0]
    monkeypatch.setattr(service_mod.time, "monotonic", lambda: now[0])
    return now


def test_deadline_exactly_at_boundary_still_executes(clock):
    with SolveService(config=CONFIG) as svc:
        ticket = svc.submit(GRID, "27pt", _rhs(0), deadline=5.0)
        clock[0] = 1005.0  # now == deadline_at, not past it
        assert svc.drain() == 1
        assert np.all(np.isfinite(ticket.result(timeout=0)))


def test_deadline_one_tick_past_boundary_fails(clock):
    with SolveService(config=CONFIG) as svc:
        ticket = svc.submit(GRID, "27pt", _rhs(0), deadline=5.0)
        clock[0] = np.nextafter(1005.0, np.inf)
        assert svc.drain() == 0
        with pytest.raises(DeadlineExceeded):
            ticket.result(timeout=0)


def test_deadline_expiring_between_admission_and_staging(clock):
    """Expiry after submit but before the batch stages fails only the
    stale ticket; its batch-mate still executes in the same drain."""
    with SolveService(config=CONFIG) as svc:
        stale = svc.submit(GRID, "27pt", _rhs(0), deadline=0.5)
        clock[0] += 1.0  # past stale's expiry, before any staging
        fresh = svc.submit(GRID, "27pt", _rhs(1), deadline=60.0)
        assert svc.drain() == 1
        with pytest.raises(DeadlineExceeded) as ei:
            stale.result(timeout=0)
        assert ei.value.request_id == stale.request_id
        assert ei.value.deadline_seconds == 0.5
        assert np.all(np.isfinite(fresh.result(timeout=0)))
        assert svc.stats()["failed"] == 1 and svc.stats()["completed"] == 1


def test_drain_requeue_preserves_per_ticket_deadlines():
    with SolveService(config=CONFIG) as svc:
        ticket = svc.submit(GRID, "27pt", _rhs(0), deadline=0.15)
        with svc._lock:
            deadline_at = svc._pending[0].deadline_at
        with pytest.raises(DrainTimeout):
            svc.drain(timeout=0.0)
        # Re-queued with the *same* absolute expiry — bit-identical.
        with svc._lock:
            entry = svc._pending[0]
        assert entry.ticket.request_id == ticket.request_id
        assert entry.deadline_at == deadline_at
        assert entry.deadline_seconds == 0.15
        # The preserved deadline still bites once it truly passes.
        time.sleep(0.2)
        assert svc.drain() == 0
        with pytest.raises(DeadlineExceeded):
            ticket.result(timeout=0)


def test_drain_requeue_preserves_no_deadline_as_no_deadline():
    with SolveService(config=CONFIG) as svc:
        ticket = svc.submit(GRID, "27pt", _rhs(0))
        with pytest.raises(DrainTimeout):
            svc.drain(timeout=0.0)
        with svc._lock:
            assert svc._pending[0].deadline_at is None
        time.sleep(0.05)
        assert svc.drain() == 1
        assert np.all(np.isfinite(ticket.result(timeout=0)))
