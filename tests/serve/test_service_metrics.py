"""SolveService metrics registry: persistent counters, requeue cycles.

Regression suite for the stats bug where ``stats()`` rebuilt its dict
per call from ad-hoc attributes: counters now live in a
:class:`~repro.observe.metrics.MetricsRegistry` owned by the service,
``stats()`` is a pure view, and nothing resets across drain cycles —
including a ``drain(timeout=)`` that requeues everything.
"""

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.observe.metrics import MetricsRegistry
from repro.resilience.errors import DrainTimeout
from repro.serve.plan import PlanConfig
from repro.serve.service import SolveService

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)


def _rhs(seed=0):
    return np.random.default_rng(seed).standard_normal(GRID.n_points)


def test_service_owns_a_metrics_registry():
    with SolveService(config=CONFIG) as svc:
        assert isinstance(svc.metrics, MetricsRegistry)
        snap = svc.metrics.snapshot()
        for name in ("serve.submitted", "serve.completed",
                     "serve.failed", "serve.batches",
                     "serve.requeued", "serve.pending",
                     "serve.batch_width", "serve.drain_seconds"):
            assert name in snap, name


def test_stats_counts_are_registry_views():
    with SolveService(config=CONFIG) as svc:
        svc.submit(GRID, "27pt", _rhs())
        assert svc.stats()["submitted"] == 1
        svc.drain()
        s = svc.stats()
        assert (s["submitted"], s["completed"], s["failed"],
                s["batches_executed"]) == (1, 1, 0, 1)
        snap = svc.metrics.snapshot()
        assert snap["serve.submitted"]["value"] == 1
        assert snap["serve.completed"]["value"] == 1


def test_stats_survive_drain_timeout_requeue_cycle():
    with SolveService(config=CONFIG) as svc:
        tickets = [svc.submit(GRID, "27pt", _rhs(i)) for i in range(3)]
        before = svc.stats()
        assert (before["submitted"], before["pending"]) == (3, 3)

        with pytest.raises(DrainTimeout):
            svc.drain(timeout=0.0)

        mid = svc.stats()
        # The requeue must not reset anything already accumulated.
        assert mid["submitted"] == 3
        assert mid["completed"] == 0
        assert mid["pending"] == 3
        assert mid["requeued"] == 3
        assert svc.metrics.get("serve.requeued").value == 3

        assert svc.drain() == 3
        after = svc.stats()
        assert after["submitted"] == 3  # still counting from zero time
        assert after["completed"] == 3
        assert after["pending"] == 0
        assert after["requeued"] == 3  # history, not live depth
        for t in tickets:
            assert np.all(np.isfinite(t.result()))


def test_counters_accumulate_across_many_drains():
    with SolveService(config=CONFIG) as svc:
        for i in range(3):
            svc.submit(GRID, "27pt", _rhs(i))
            svc.drain()
        s = svc.stats()
        assert (s["submitted"], s["completed"]) == (3, 3)
        assert s["batches_executed"] == 3


def test_batch_width_histogram_observes_coalesced_width():
    with SolveService(config=CONFIG) as svc:
        for i in range(4):
            svc.submit(GRID, "27pt", _rhs(i), op="lower")
        svc.drain()
        hist = svc.metrics.snapshot()["serve.batch_width"]
        assert hist["count"] == 1  # one coalesced batch...
        assert hist["sum"] == 4.0  # ...of width 4


def test_drain_seconds_histogram_populated():
    with SolveService(config=CONFIG) as svc:
        svc.submit(GRID, "27pt", _rhs())
        svc.drain()
        hist = svc.metrics.snapshot()["serve.drain_seconds"]
        assert hist["count"] == 1
        assert hist["sum"] > 0.0


def test_stats_dict_is_a_view_not_a_fresh_rebuild():
    with SolveService(config=CONFIG) as svc:
        svc.submit(GRID, "27pt", _rhs())
        a = svc.stats()
        svc.drain()
        b = svc.stats()
        # Two calls see the same underlying counters moving forward.
        assert a["submitted"] == b["submitted"] == 1
        assert a["completed"] == 0 and b["completed"] == 1
