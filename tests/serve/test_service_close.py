"""close() semantics: no ticket is ever left forever-pending.

Regression suite for the close/drain race: ``SolveService.close()``
during an in-flight ``drain()`` must fail every not-yet-executed
ticket with a typed :class:`ServiceClosed` — a thread blocked in
``ticket.result()`` raises instead of hanging.
"""

import threading
import time

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.resilience.errors import ServiceClosed
from repro.serve.plan import PlanConfig
from repro.serve.service import SolveService

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)


def _rhs(seed=0):
    return np.random.default_rng(seed).standard_normal(GRID.n_points)


def test_close_fails_queued_tickets():
    svc = SolveService(config=CONFIG)
    tickets = [svc.submit(GRID, "27pt", _rhs(i)) for i in range(3)]
    svc.close()
    for t in tickets:
        assert t.done
        with pytest.raises(ServiceClosed) as ei:
            t.result(timeout=0)
        assert ei.value.ticket_ids == [t.request_id]
    assert svc.stats()["failed"] == 3
    assert svc.n_pending == 0


def test_close_during_inflight_drain_fails_pending_tickets():
    """A threaded drain racing close(): tickets fail typed, not hang."""
    svc = SolveService(config=CONFIG)
    t_lower = svc.submit(GRID, "27pt", _rhs(0), op="lower")
    t_upper = svc.submit(GRID, "27pt", _rhs(1), op="upper")
    orig = svc._lookup
    compiling = threading.Event()
    closed = threading.Event()

    def slow_lookup(*args):
        compiling.set()
        # Hold the drain mid-compile until close() has run, so the
        # in-between-groups closed check is what fires.
        assert closed.wait(5.0)
        return orig(*args)

    svc._lookup = slow_lookup
    drain_error = []

    def drain():
        try:
            svc.drain()
        except BaseException as exc:  # noqa: BLE001 - asserted below
            drain_error.append(exc)

    th = threading.Thread(target=drain)
    th.start()
    assert compiling.wait(5.0)
    svc.close()
    closed.set()
    th.join(10.0)
    assert not th.is_alive()
    # The drain itself surfaced the close, naming every dropped ticket.
    assert len(drain_error) == 1
    assert isinstance(drain_error[0], ServiceClosed)
    assert sorted(drain_error[0].ticket_ids) == sorted(
        [t_lower.request_id, t_upper.request_id])
    # result() raises immediately — the forever-pending bug is the
    # TimeoutError this wait-with-timeout would otherwise turn into.
    for t in (t_lower, t_upper):
        assert t.done
        with pytest.raises(ServiceClosed):
            t.result(timeout=1.0)


def test_submit_and_drain_after_close_raise():
    svc = SolveService(config=CONFIG)
    svc.close()
    with pytest.raises(ServiceClosed):
        svc.submit(GRID, "27pt", _rhs())
    with pytest.raises(ServiceClosed):
        svc.drain()


def test_close_is_idempotent():
    svc = SolveService(config=CONFIG)
    svc.submit(GRID, "27pt", _rhs())
    svc.close()
    svc.close()
    assert svc.stats()["failed"] == 1


def test_requeue_into_closed_service_fails_instead():
    """The drain-timeout requeue path cannot resurrect a closed queue."""
    svc = SolveService(config=CONFIG)
    ticket = svc.submit(GRID, "27pt", _rhs(0))
    with svc._lock:
        entry = svc._pending[0]
    svc.close()
    assert ticket.done  # close() already failed it ...
    with pytest.raises(ServiceClosed):
        # A drain whose budget (deadline 0.0) is spent tries to requeue.
        svc._interrupt(0.0, 0.0, lambda: [entry])
    # ... and the requeue attempt neither re-queued nor un-finished it.
    assert svc.n_pending == 0
    with pytest.raises(ServiceClosed):
        ticket.result(timeout=0)


def test_completed_work_survives_close():
    svc = SolveService(config=CONFIG)
    ticket = svc.submit(GRID, "27pt", _rhs(0))
    svc.drain()
    x = ticket.result(timeout=0)
    svc.close()
    # First outcome wins: close() cannot overwrite a real solution.
    assert np.array_equal(ticket.result(timeout=0), x)


def test_close_unblocks_waiting_result_thread():
    svc = SolveService(config=CONFIG)
    ticket = svc.submit(GRID, "27pt", _rhs(0))
    outcome = []

    def wait():
        try:
            ticket.result(timeout=10.0)
        except BaseException as exc:  # noqa: BLE001 - asserted below
            outcome.append(exc)

    th = threading.Thread(target=wait)
    th.start()
    time.sleep(0.02)
    svc.close()
    th.join(5.0)
    assert not th.is_alive()
    assert len(outcome) == 1 and isinstance(outcome[0], ServiceClosed)
