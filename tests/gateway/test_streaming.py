"""Streaming partial results: columns resolve before the batch does.

Uses an instrumented slow service so chunk boundaries are
deterministic: with a per-drain stall, the first ``stream_chunk``
columns are guaranteed to resolve while later chunks are still queued
— the acceptance bar for the streaming tentpole."""

import asyncio
import time

import numpy as np
import pytest

from repro.gateway import SolveGateway
from repro.grids.grid import StructuredGrid
from repro.resilience.errors import DeadlineExceeded
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
    """Every block call stalls, making chunk completion order
    observable."""

    drain_delay = 0.05

    def solve_block(self, *args, **kwargs):
        time.sleep(self.drain_delay)
        return super().solve_block(*args, **kwargs)


def _slow_gateway(**kwargs):
    factory = lambda: SlowService(config=CONFIG)  # noqa: E731
    return SolveGateway(factory, config=CONFIG, **kwargs)


def test_stream_yields_partial_columns_before_batch_completes():
    k, chunk = 6, 2

    async def run():
        async with _slow_gateway(min_shards=1, max_shards=1,
                                 stream_chunk=chunk) as gw:
            ticket = await gw.submit(GRID, "27pt", _rhs(0, k=k))
            snapshots = []
            async for idx, col in ticket.stream():
                snapshots.append((idx, ticket.columns_done))
                assert np.all(np.isfinite(col))
            return snapshots, ticket

    snapshots, ticket = asyncio.run(run())
    assert [idx for idx, _ in snapshots] == list(range(k))
    # The tentpole claim: at least one column streamed out while the
    # rest of the batch was still unresolved.
    first_idx, done_at_first = snapshots[0]
    assert done_at_first < k
    # One shard, in-order chunks: first yield happens after exactly
    # the first chunk (not the whole batch).
    assert done_at_first == chunk
    assert ticket.done


def test_streamed_columns_equal_full_result():
    k = 5

    async def run():
        async with _slow_gateway(min_shards=1, max_shards=1,
                                 stream_chunk=2) as gw:
            rhs = _rhs(1, k=k)
            ticket = await gw.submit(GRID, "27pt", rhs)
            streamed = {}
            async for idx, col in ticket.stream():
                streamed[idx] = col
            full = await ticket.result()
            return streamed, full

    streamed, full = asyncio.run(run())
    assert full.shape == (GRID.n_points, k)
    for idx, col in streamed.items():
        assert np.array_equal(full[:, idx], col)


def test_stream_of_single_column_request():
    async def run():
        async with _slow_gateway(min_shards=1, max_shards=1) as gw:
            ticket = await gw.submit(GRID, "27pt", _rhs(2))
            out = [(i, c) async for i, c in ticket.stream()]
            return out

    out = asyncio.run(run())
    assert len(out) == 1 and out[0][0] == 0
    assert np.all(np.isfinite(out[0][1]))


def test_two_streams_interleave_across_tenants():
    """Both tickets make progress concurrently on one shard: neither
    tenant waits for the other's *entire* batch (fair chunking)."""

    async def run():
        async with _slow_gateway(min_shards=1, max_shards=1,
                                 stream_chunk=1) as gw:
            ta = await gw.submit(GRID, "27pt", _rhs(0, k=3),
                                 tenant="a")
            tb = await gw.submit(GRID, "27pt", _rhs(1, k=3),
                                 tenant="b")

            async def progress(ticket):
                marks = []
                async for idx, _ in ticket.stream():
                    marks.append((time.monotonic(), idx))
                return marks

            ma, mb = await asyncio.gather(progress(ta), progress(tb))
            return ma, mb

    ma, mb = asyncio.run(run())
    # b's first column resolves before a's last: interleaved service,
    # not tenant-serial.
    assert mb[0][0] < ma[-1][0]


def test_result_on_mixed_deadline_batch_raises_first_failure():
    """A ticket whose later chunks expired raises from ``result`` but
    still streams the columns that did finish."""

    async def run():
        async with _slow_gateway(min_shards=1, max_shards=1,
                                 stream_chunk=2) as gw:
            # The deadline is shorter than one drain stall: chunk 1
            # dispatches immediately (well inside it) but chunks 2-3
            # can only dispatch after chunk 1's >= 0.05s execution, by
            # which point the deadline has certainly passed.
            ticket = await gw.submit(GRID, "27pt", _rhs(0, k=6),
                                     deadline=0.04)
            done, failed = 0, 0
            try:
                async for _idx, _col in ticket.stream():
                    done += 1
            except DeadlineExceeded:
                failed += 1
            with pytest.raises(DeadlineExceeded):
                await ticket.result()
            return done, failed, gw.stats()

    done, failed, stats = asyncio.run(run())
    assert done == 2 and failed == 1
    assert stats["expired"] == 4
    assert stats["completed"] == 2
