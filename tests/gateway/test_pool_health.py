"""Pool health semantics: defunct reaping, quarantine, try_acquire.

Regression for the release-path bug where a shard whose ``execute``
raised a non-recoverable error (``MemoryError`` / ``AssertionError``,
the :data:`~repro.resilience.errors.NON_RECOVERABLE_ERRORS` set) was
returned to the free list and kept poisoning later chunks. A defunct
shard must be reaped on release — including when the failure happened
on a worker thread, which is how the gateway actually runs shards.
"""

import asyncio

import numpy as np
import pytest

from repro.gateway.pool import ElasticShardPool, GatewayShard
from repro.grids.grid import StructuredGrid
from repro.serve.plan import PlanConfig, _resolve_stencil

pytestmark = pytest.mark.fast

GRID = StructuredGrid((4, 4, 4))
STENCIL = _resolve_stencil("27pt")
CONFIG = PlanConfig(bsize=4)


class ExplodingService:
    """Raises a non-recoverable error on every block call."""

    def __init__(self, exc_type=MemoryError):
        self.exc_type = exc_type
        self.closed = False
        self.calls = 0

    def solve_block(self, *args, **kwargs):
        self.calls += 1
        raise self.exc_type("resource exhaustion")

    def close(self):
        self.closed = True

    def stats(self):
        return {"calls": self.calls}


def make_pool(factory, **kw):
    kw.setdefault("min_shards", 1)
    kw.setdefault("max_shards", 2)
    return ElasticShardPool(factory, **kw)


@pytest.mark.parametrize("exc_type", [MemoryError, AssertionError])
def test_non_recoverable_execute_marks_shard_defunct(exc_type):
    shard = GatewayShard(0, ExplodingService(exc_type))
    with pytest.raises(exc_type):
        shard.execute(GRID, STENCIL, "lower", CONFIG,
                      [np.ones(GRID.n_points)])
    assert shard.defunct


def test_defunct_shard_is_reaped_on_release_not_requeued():
    async def run():
        services = []

        def factory():
            svc = ExplodingService()
            services.append(svc)
            return svc

        pool = make_pool(factory)
        shard = await pool.acquire()
        # The gateway path: execute on a worker thread, then release
        # from the event loop.
        with pytest.raises(MemoryError):
            await asyncio.to_thread(
                shard.execute, GRID, STENCIL, "lower", CONFIG,
                [np.ones(GRID.n_points)])
        assert shard.defunct
        await pool.release(shard)
        # Reaped, never back in the free list — and the pool refilled
        # itself to min_shards with a fresh service.
        assert shard not in pool._shards
        assert all(s is not shard for s in pool._free)
        assert services[0].closed
        assert pool.n_shards == 1 and pool.n_free == 1
        assert pool._shards[0].service is services[1]
        events = [e["action"] for e in pool.lifecycle_events]
        assert events == ["reap_defunct"]
        # The controller's scale history stays clean: health reaps are
        # lifecycle events, not scale events.
        assert pool.scale_events == []
        pool.close()

    asyncio.run(run())


def test_defunct_release_wakes_blocked_acquirers():
    async def run():
        pool = make_pool(lambda: ExplodingService(), max_shards=1)
        shard = await pool.acquire()
        waiter = asyncio.create_task(pool.acquire())
        await asyncio.sleep(0.01)
        assert not waiter.done()
        shard.defunct = True
        await pool.release(shard)  # reap + respawn + notify
        got = await asyncio.wait_for(waiter, timeout=1.0)
        assert got is not shard
        pool.close()

    asyncio.run(run())


def test_concurrent_defunct_releases_under_threaded_failures():
    """Several shards fail non-recoverably on worker threads at once;
    every one is reaped, none leaks back to the free list."""

    async def run():
        pool = make_pool(lambda: ExplodingService(), min_shards=3,
                         max_shards=3)
        shards = [await pool.acquire() for _ in range(3)]

        async def fail_and_release(shard):
            with pytest.raises(MemoryError):
                await asyncio.to_thread(
                    shard.execute, GRID, STENCIL, "lower", CONFIG,
                    [np.ones(GRID.n_points)])
            await pool.release(shard)

        await asyncio.gather(*(fail_and_release(s) for s in shards))
        assert all(s not in pool._shards for s in shards)
        assert all(s.defunct for s in shards)
        # Refilled back to min_shards with fresh services.
        assert pool.n_shards == 3 and pool.n_free == 3
        assert len(pool.lifecycle_events) == 3
        pool.close()

    asyncio.run(run())


def test_try_acquire_is_non_blocking():
    async def run():
        pool = make_pool(lambda: ExplodingService(), min_shards=1,
                         max_shards=1)
        shard = pool.try_acquire()
        assert shard is not None
        assert pool.try_acquire() is None  # empty: no waiting
        await pool.release(shard)
        assert pool.try_acquire() is shard
        pool.close()

    asyncio.run(run())


def test_draining_and_defunct_prefers_reap_path():
    # A shard that is both warm-draining and defunct must be reaped
    # via the defunct path (lifecycle event), not double-counted as a
    # controller scale-down.
    async def run():
        pool = make_pool(lambda: ExplodingService(), min_shards=2,
                         max_shards=2)
        shard = await pool.acquire()
        shard.draining = True
        shard.defunct = True
        await pool.release(shard)
        assert [e["action"] for e in pool.lifecycle_events] \
            == ["reap_defunct"]
        assert pool.scale_events == []
        pool.close()

    asyncio.run(run())
