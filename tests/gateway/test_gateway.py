"""End-to-end gateway behavior: bit-identity, deadlines, shutdown.

The gateway is a router, not a solver — every numeric result must be
bit-identical (``np.array_equal``) to the same request through a plain
synchronous :class:`~repro.serve.service.SolveService`, across
kernel backends."""

import asyncio
import time

import numpy as np
import pytest

from repro.gateway import GatewayClosed, SolveGateway
from repro.grids.grid import StructuredGrid
from repro.resilience.errors import DeadlineExceeded
from repro.serve.plan import PlanConfig
from repro.serve.service import SolveService

pytestmark = pytest.mark.fast

GRID = StructuredGrid((6, 6, 6))


def _rhs(seed=0, k=None):
    rng = np.random.default_rng(seed)
    shape = GRID.n_points if k is None else (GRID.n_points, k)
    return rng.standard_normal(shape)


def _direct(grid, stencil, rhs, op, config):
    with SolveService(config=config) as svc:
        if rhs.ndim == 1:
            t = svc.submit(grid, stencil, rhs, op=op)
            svc.drain()
            return t.result(timeout=0)
        tickets = [svc.submit(grid, stencil,
                              np.ascontiguousarray(rhs[:, j]), op=op)
                   for j in range(rhs.shape[1])]
        svc.drain()
        return np.stack([t.result(timeout=0) for t in tickets],
                        axis=1)


class SlowService(SolveService):
    """Instrumented service: every drain stalls first, so chunks take
    long enough for queueing/expiry races to be deterministic."""

    drain_delay = 0.08

    def drain(self, timeout=None):
        time.sleep(self.drain_delay)
        return super().drain(timeout)


# Ids name the served format next to the backend.
@pytest.mark.parametrize("backend", ["numpy-fast", "numpy-counted"],
                         ids=["numpy-fast-dbsr", "numpy-counted-dbsr"])
@pytest.mark.parametrize("op", ["lower", "upper", "symgs", "spmv"])
def test_gatewayed_solve_bit_identical_to_direct(backend, op):
    config = PlanConfig(bsize=4, backend=backend)
    rhs = _rhs(7, k=3)

    async def run():
        async with SolveGateway(config=config, min_shards=1,
                                max_shards=1, stream_chunk=2) as gw:
            return await gw.solve(GRID, "27pt", rhs, op=op)

    got = asyncio.run(run())
    want = _direct(GRID, "27pt", rhs, op, config)
    assert np.array_equal(got, want)


def test_single_rhs_returns_1d_and_matches_direct():
    config = PlanConfig(bsize=4)
    rhs = _rhs(3)

    async def run():
        async with SolveGateway(config=config) as gw:
            return await gw.solve(GRID, "27pt", rhs)

    got = asyncio.run(run())
    assert got.ndim == 1
    assert np.array_equal(got, _direct(GRID, "27pt", rhs, "lower",
                                       config))


def test_multi_tenant_burst_loses_nothing_and_stays_identical():
    config = PlanConfig(bsize=4)
    n = 12

    async def run():
        async with SolveGateway(config=config, min_shards=1,
                                max_shards=3, high_water=2.0,
                                up_patience=1, cooldown=0) as gw:
            tickets = [await gw.submit(GRID, "27pt", _rhs(i),
                                       tenant=f"t{i % 3}")
                       for i in range(n)]
            results = [await t.result() for t in tickets]
            return results, gw.stats()

    results, stats = asyncio.run(run())
    assert stats["completed"] == n
    assert stats["failed"] == 0 and stats["expired"] == 0
    want = _direct(GRID, "27pt", _rhs(5), "lower", config)
    assert np.array_equal(results[5], want)


def test_deadline_expiring_in_queue_fails_typed_without_engine_work():
    config = PlanConfig(bsize=4)

    async def run():
        factory = lambda: SlowService(config=config)  # noqa: E731
        async with SolveGateway(factory, config=config, min_shards=1,
                                max_shards=1) as gw:
            # First request occupies the only shard for ~drain_delay;
            # the second's deadline expires while it waits in queue
            # (admission passed: the cold model estimate is tiny).
            slow = await gw.submit(GRID, "27pt", _rhs(0))
            doomed = await gw.submit(GRID, "27pt", _rhs(1),
                                     deadline=0.01)
            assert np.all(np.isfinite(await slow.result()))
            with pytest.raises(DeadlineExceeded) as ei:
                await doomed.result()
            assert ei.value.request_id == doomed.request_id
            assert ei.value.deadline_seconds == 0.01
            return gw.stats()

    stats = asyncio.run(run())
    assert stats["expired"] == 1
    assert stats["completed"] == 1


def test_close_fails_queued_chunks_with_gateway_closed():
    config = PlanConfig(bsize=4)

    async def run():
        factory = lambda: SlowService(config=config)  # noqa: E731
        gw = SolveGateway(factory, config=config, min_shards=1,
                          max_shards=1)
        running = await gw.submit(GRID, "27pt", _rhs(0))
        queued = [await gw.submit(GRID, "27pt", _rhs(i))
                  for i in range(1, 4)]
        await asyncio.sleep(0.01)  # let the first chunk dispatch
        await gw.close()
        # In-flight work finishes; queued work fails typed.
        assert np.all(np.isfinite(await running.result()))
        for t in queued:
            with pytest.raises(GatewayClosed):
                await t.result()
        # Submitting after close refuses immediately.
        with pytest.raises(GatewayClosed):
            await gw.submit(GRID, "27pt", _rhs(9))
        return gw.stats()

    stats = asyncio.run(run())
    assert stats["queue_depth"] == 0


def test_close_is_idempotent():
    async def run():
        gw = SolveGateway(config=PlanConfig(bsize=4))
        await gw.solve(GRID, "27pt", _rhs(0))
        await gw.close()
        await gw.close()

    asyncio.run(run())


def test_join_awaits_all_outstanding_work():
    config = PlanConfig(bsize=4)

    async def run():
        async with SolveGateway(config=config, min_shards=1,
                                max_shards=2) as gw:
            tickets = [await gw.submit(GRID, "27pt", _rhs(i))
                       for i in range(6)]
            await gw.join()
            assert all(t.done for t in tickets)

    asyncio.run(run())


def test_gateway_traces_admit_enqueue_dequeue_and_execute():
    from repro.observe.trace import Tracer, install

    config = PlanConfig(bsize=4)
    tracer = Tracer()

    async def run():
        async with SolveGateway(config=config, min_shards=1,
                                max_shards=1) as gw:
            await gw.solve(GRID, "27pt", _rhs(0), tenant="traced")

    install(tracer)
    try:
        asyncio.run(run())
    finally:
        install(None)
    spans = [s.name for s in tracer.walk()]
    events = [e["name"] for s in tracer.walk() for e in s.events]
    events += [e["name"] for e in tracer.events]
    assert "gateway.admit" in spans
    assert "gateway.execute" in spans
    assert "gateway.enqueue" in events
    assert "gateway.dequeue" in events
