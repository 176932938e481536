"""ElasticShardPool: hysteresis, cooldown, warm drain, bounds.

The controller is driven entirely by ``observe()`` samples (one per
gateway submit/completion/poll), so every scenario here is a
deterministic sequence of observations — no wall-clock sleeps."""

import asyncio
from types import SimpleNamespace

import pytest

from repro.gateway.pool import ElasticShardPool, GatewayShard
from repro.observe.metrics import MetricsRegistry

pytestmark = pytest.mark.fast


class FakeService:
    """Stands in for a SolveService: lifecycle only."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True

    def stats(self):
        return {"closed": self.closed}


def make_pool(**kwargs):
    services = []

    def factory():
        svc = FakeService()
        services.append(svc)
        return svc

    pool = ElasticShardPool(factory, **kwargs)
    return pool, services


def test_starts_at_min_shards_and_validates_bounds():
    pool, _ = make_pool(min_shards=2, max_shards=4)
    assert pool.n_shards == 2 and pool.n_free == 2
    with pytest.raises(ValueError):
        ElasticShardPool(FakeService, min_shards=3, max_shards=2)


def test_scale_up_needs_patience_consecutive_high_samples():
    pool, _ = make_pool(min_shards=1, max_shards=4, high_water=4.0,
                        up_patience=3, cooldown=0)
    assert pool.observe(8) is None
    assert pool.observe(8) is None
    # An interleaved calm sample resets the streak.
    assert pool.observe(0) is None
    assert pool.observe(8) is None
    assert pool.observe(8) is None
    assert pool.observe(8) == "scale_up"
    assert pool.n_shards == 2


def test_cooldown_suppresses_back_to_back_events():
    pool, _ = make_pool(min_shards=1, max_shards=4, high_water=2.0,
                        up_patience=1, cooldown=2)
    assert pool.observe(10) == "scale_up"
    # Two samples are swallowed by the cooldown, however hot.
    assert pool.observe(50) is None
    assert pool.observe(50) is None
    assert pool.observe(50) == "scale_up"
    assert pool.n_shards == 3


def test_high_water_is_per_active_shard():
    pool, _ = make_pool(min_shards=2, max_shards=4, high_water=4.0,
                        up_patience=1, cooldown=0)
    # depth 6 over 2 shards = 3 per shard < 4: no pressure.
    assert pool.observe(6) is None
    assert pool.observe(8) == "scale_up"


def test_scale_down_reaps_idle_shard_and_respects_min():
    pool, services = make_pool(min_shards=1, max_shards=4,
                               high_water=1.0, low_water=0.0,
                               up_patience=1, down_patience=2,
                               cooldown=0)
    assert pool.observe(5) == "scale_up"
    assert pool.n_shards == 2
    assert pool.observe(0) is None
    assert pool.observe(0) == "scale_down"
    assert pool.n_shards == 1
    assert services[1].closed  # the idle spare was actually closed
    # Never below min_shards, no matter how long the idle streak.
    for _ in range(10):
        pool.observe(0)
    assert pool.n_shards == 1
    assert not services[0].closed


def test_never_exceeds_max_shards():
    pool, _ = make_pool(min_shards=1, max_shards=2, high_water=1.0,
                        up_patience=1, cooldown=0)
    assert pool.observe(9) == "scale_up"
    for _ in range(6):
        pool.observe(9)
    assert pool.n_shards == 2


def test_warm_drain_defers_reap_until_release():
    async def run():
        pool, services = make_pool(min_shards=1, max_shards=2,
                                   high_water=1.0, low_water=0.0,
                                   up_patience=1, down_patience=1,
                                   cooldown=0)
        pool.observe(4)  # scale_up -> 2 shards
        a = await pool.acquire()
        b = await pool.acquire()
        assert pool.n_free == 0
        # Scale-down with every shard busy: mark, don't kill.
        assert pool.observe(0) == "scale_down"
        assert pool.n_shards == 2 and pool.n_draining == 1
        assert not any(s.closed for s in services)
        victim, keeper = (a, b) if a.draining else (b, a)
        await pool.release(victim)  # warm drain completes here
        assert pool.n_shards == 1 and pool.n_draining == 0
        assert victim.service.closed
        await pool.release(keeper)
        assert pool.n_free == 1 and not keeper.service.closed
        return pool

    pool = asyncio.run(run())
    kinds = [e["action"] for e in pool.scale_events]
    assert kinds == ["scale_up", "scale_down"]
    assert pool.scale_events[-1]["warm_drained"] is True


def test_acquire_waits_until_a_shard_frees():
    async def run():
        pool, _ = make_pool(min_shards=1, max_shards=1)
        shard = await pool.acquire()
        waiter = asyncio.create_task(pool.acquire())
        await asyncio.sleep(0.01)
        assert not waiter.done()
        await pool.release(shard)
        got = await asyncio.wait_for(waiter, timeout=1.0)
        assert got is shard

    asyncio.run(run())


def test_scale_up_wakes_blocked_acquirers():
    async def run():
        pool, _ = make_pool(min_shards=1, max_shards=2,
                            high_water=1.0, up_patience=1,
                            cooldown=0)
        first = await pool.acquire()
        waiter = asyncio.create_task(pool.acquire())
        await asyncio.sleep(0.01)
        assert not waiter.done()
        assert pool.observe(5) == "scale_up"
        got = await asyncio.wait_for(waiter, timeout=1.0)
        assert got is not first

    asyncio.run(run())


def test_metrics_and_stats_reflect_scaling():
    reg = MetricsRegistry()
    pool, _ = make_pool(min_shards=1, max_shards=3, high_water=1.0,
                        low_water=0.0, up_patience=1,
                        down_patience=1, cooldown=0, metrics=reg)
    pool.observe(5)
    pool.observe(5)
    pool.observe(0)
    snap = reg.snapshot()
    assert snap["gateway.scale_up"]["value"] == 2
    assert snap["gateway.scale_down"]["value"] == 1
    assert snap["gateway.shards"]["value"] == 2
    stats = pool.stats()
    assert stats["n_shards"] == 2
    assert len(stats["scale_events"]) == 3
    assert [e["action"] for e in stats["scale_events"]] == \
        ["scale_up", "scale_up", "scale_down"]


def test_close_closes_every_shard():
    pool, services = make_pool(min_shards=3, max_shards=3)
    pool.close()
    assert pool.n_shards == 0
    assert all(s.closed for s in services)


def test_shard_execute_not_needed_for_pool_logic():
    # GatewayShard over a FakeService still reports stats/compiles.
    shard = GatewayShard(0, FakeService())
    assert shard.cache_tallies() == {}
    assert shard.has_plan("deadbeef") is False
    assert shard.stats()["index"] == 0


def test_pool_refresh_stats_aggregates_across_shards():
    # Regression: the pool-level method referenced a nonexistent
    # self.service (copy-paste from GatewayShard) and raised
    # AttributeError; it must sum over the live shards instead.
    pool, services = make_pool(min_shards=2, max_shards=2)
    assert pool.cache_tallies() == {}
    for i, svc in enumerate(services):
        metrics = MetricsRegistry()
        metrics.counter("cache.refreshes").inc(i + 1)
        metrics.counter("cache.refresh_seconds").inc(0.5 * (i + 1))
        svc.cache = SimpleNamespace(metrics=metrics)
    assert pool.cache_tallies() == {"refreshes": 3,
                                    "refresh_seconds": 1.5}


def _cache(compiles=0):
    metrics = MetricsRegistry()
    metrics.counter("cache.compiles").inc(compiles)
    return SimpleNamespace(metrics=metrics)


def test_pool_tallies_count_a_shared_cache_once():
    pool, services = make_pool(min_shards=2, max_shards=2)
    shared = _cache()
    for svc in services:
        svc.cache = shared
    shared.metrics.get("cache.compiles").inc()
    assert pool.cache_tallies() == {"compiles": 1}


def test_reaping_a_shard_never_lowers_the_pool_tallies():
    pool, services = make_pool(min_shards=1, max_shards=3)
    services[0].cache = _cache(compiles=2)
    pool._spawn()
    pool._spawn()
    services[1].cache = _cache(compiles=3)
    services[2].cache = services[1].cache      # shared by two shards
    assert pool.cache_tallies() == {"compiles": 5}
    shard0, shard1, shard2 = list(pool._shards)
    pool._reap(shard1, depth=0, deferred=False)
    assert pool.cache_tallies() == {"compiles": 5}
    pool._reap_defunct(shard0)
    assert pool.cache_tallies() == {"compiles": 5}
    # The retired shared cache is still counted once after its last
    # live holder goes too, and keeps counting what it did before.
    pool.quarantine(shard2)
    assert pool.cache_tallies() == {"compiles": 5}
    pool.close()
    assert pool.cache_tallies() == {"compiles": 5}
