"""Cancelling a streaming consumer must not strand gateway state.

A consumer that abandons ``ticket.stream()`` mid-iteration cancels its
own task, not the chunk dispatch: the remaining columns still resolve,
every shard comes back to the free list, and no background chunk task
is leaked. This is the contract that makes client-side timeouts safe.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.gateway import SolveGateway
from repro.grids.grid import StructuredGrid
from repro.serve.plan import PlanConfig
from repro.serve.service import SolveService

pytestmark = pytest.mark.fast

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)


def _rhs(seed=0, k=None):
    rng = np.random.default_rng(seed)
    shape = GRID.n_points if k is None else (GRID.n_points, k)
    return rng.standard_normal(shape)


class SlowService(SolveService):
    """Per-block-call stall so the consumer can be cancelled
    mid-stream."""

    drain_delay = 0.05

    def solve_block(self, *args, **kwargs):
        time.sleep(self.drain_delay)
        return super().solve_block(*args, **kwargs)


def _slow_gateway(**kwargs):
    factory = lambda: SlowService(config=CONFIG)  # noqa: E731
    kwargs.setdefault("min_shards", 1)
    kwargs.setdefault("max_shards", 1)
    kwargs.setdefault("stream_chunk", 1)
    return SolveGateway(factory, config=CONFIG, **kwargs)


def test_cancelled_consumer_leaks_no_futures_and_strands_no_shard():
    k = 6

    async def run():
        async with _slow_gateway() as gw:
            ticket = await gw.submit(GRID, "27pt", _rhs(0, k=k))
            seen = []

            async def consume():
                async for idx, col in ticket.stream():
                    seen.append(idx)

            consumer = asyncio.create_task(consume())
            # Let at least one column land, then walk away.
            while not seen:
                await asyncio.sleep(0.005)
            consumer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await consumer

            # The gateway still finishes the request.
            await gw.join()
            assert ticket.done
            assert all(f.done() and f.exception() is None
                       for f in ticket.futures)
            # No shard stranded in the busy set, no chunk task leaked.
            assert gw.pool.n_free == gw.pool.n_shards
            await asyncio.sleep(0)  # flush done-callbacks
            assert not [t for t in gw._tasks if not t.done()]
            # The abandoned columns are still bit-usable.
            full = await ticket.result()
            assert full.shape == (GRID.n_points, k)
            assert np.all(np.isfinite(full))
            return len(seen)

    consumed = asyncio.run(run())
    assert 1 <= consumed < k  # genuinely cancelled mid-stream


def test_two_streams_one_cancelled_other_completes():
    async def run():
        async with _slow_gateway() as gw:
            t1 = await gw.submit(GRID, "27pt", _rhs(1, k=4))
            t2 = await gw.submit(GRID, "27pt", _rhs(2, k=4))

            async def consume(ticket, out):
                async for idx, _ in ticket.stream():
                    out.append(idx)

            got1, got2 = [], []
            c1 = asyncio.create_task(consume(t1, got1))
            c2 = asyncio.create_task(consume(t2, got2))
            while not got1:
                await asyncio.sleep(0.005)
            c1.cancel()
            with pytest.raises(asyncio.CancelledError):
                await c1
            await c2  # untouched consumer streams to the end
            assert sorted(got2) == [0, 1, 2, 3]
            await gw.join()
            assert t1.done and t2.done
            assert gw.pool.n_free == gw.pool.n_shards
            s = gw.stats()
            assert s["failed"] == 0
            assert s["completed"] == 8

    asyncio.run(run())


def test_stream_after_cancel_resumes_with_remaining_columns():
    # A second stream() call on the same ticket picks up whatever the
    # cancelled consumer never saw (futures are multi-consumer safe).
    async def run():
        async with _slow_gateway() as gw:
            ticket = await gw.submit(GRID, "27pt", _rhs(3, k=4))
            first = []

            async def consume():
                async for idx, _ in ticket.stream():
                    first.append(idx)

            consumer = asyncio.create_task(consume())
            while not first:
                await asyncio.sleep(0.005)
            consumer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await consumer
            replay = [idx async for idx, _ in ticket.stream()]
            assert sorted(replay) == [0, 1, 2, 3]  # full set, in order
            await gw.join()
            assert gw.pool.n_free == gw.pool.n_shards

    asyncio.run(run())
