"""CanaryProbe known-answer checks and ShardSupervisor lifecycle.

The probes and restart campaigns run against real
:class:`~repro.gateway.pool.ElasticShardPool` shards (tiny grids),
with chaos faults armed where a scenario needs a sick shard — the
same machinery the gateway uses, no mocks on the health path.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.gateway.pool import ElasticShardPool, GatewayShard
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve.plan import PlanConfig
from repro.serve.service import SolveService
from repro.supervise.backoff import Backoff
from repro.supervise.canary import CanaryProbe
from repro.supervise.supervisor import ShardSupervisor

pytestmark = [pytest.mark.fast, pytest.mark.chaos]

CONFIG = PlanConfig(bsize=4, n_workers=1)


def make_pool(**kw):
    kw.setdefault("min_shards", 1)
    kw.setdefault("max_shards", 2)
    return ElasticShardPool(lambda: SolveService(config=CONFIG), **kw)


def make_supervisor(max_attempts=3, **kw):
    kw.setdefault("canary", CanaryProbe(CONFIG, nx=4))
    kw.setdefault("backoff", Backoff(base=0.005, cap=0.02,
                                     max_attempts=max_attempts))
    return ShardSupervisor(**kw)


# CanaryProbe ----------------------------------------------------------
def test_probe_passes_a_healthy_shard_bit_for_bit():
    probe = CanaryProbe(CONFIG, nx=4)
    pool = make_pool()
    shard = pool._shards[0]
    healthy, reason = probe.check(shard)
    assert healthy and reason == "ok"
    assert probe.stats()["failures"] == 0
    pool.close()


def test_probe_fails_a_poisoned_shard():
    probe = CanaryProbe(CONFIG, nx=4)
    pool = make_pool()
    shard = pool._shards[0]
    shard.poison()
    healthy, reason = probe.check(shard)
    assert not healthy and "raised" in reason
    assert probe.stats()["failures"] == 1
    pool.close()


def test_probe_fails_a_wrong_answer_bitwise():
    probe = CanaryProbe(CONFIG, nx=4)

    class LyingShard:
        index = 99

        def execute(self, grid, stencil, op, config, columns):
            return [probe.expected + 1e-16]  # close, but not the bits

    healthy, reason = probe.check(LyingShard())
    assert not healthy and "bit-identical" in reason


def test_probe_fails_a_per_column_error():
    probe = CanaryProbe(CONFIG, nx=4)

    class ColumnErrorShard:
        index = 98

        def execute(self, grid, stencil, op, config, columns):
            return [RuntimeError("boom")]

    healthy, reason = probe.check(ColumnErrorShard())
    assert not healthy and "column failed" in reason


# ShardSupervisor ------------------------------------------------------
def test_healthy_shard_returns_to_rotation_after_failure():
    async def run():
        pool = make_pool()
        sup = make_supervisor().bind(pool)
        shard = await pool.acquire()
        # A chunk failed but the worker itself is fine: probe passes,
        # the shard goes back to the free list.
        await sup.handle_failure(shard, RuntimeError("chunk blew up"))
        assert pool.n_free == 1 and pool.n_shards == 1
        assert sup.stats()["quarantines"] == 0
        assert sup.stats()["releases_healthy"] == 1
        pool.close()

    asyncio.run(run())


def test_defunct_shard_goes_straight_to_the_reaper():
    async def run():
        pool = make_pool()
        sup = make_supervisor().bind(pool)
        shard = await pool.acquire()
        shard.defunct = True
        probes_before = sup.canary.stats()["probes"]
        await sup.handle_failure(shard, MemoryError("oom"))
        # No probe wasted on a condemned shard; pool replenished.
        assert sup.canary.stats()["probes"] == probes_before
        assert shard not in pool._shards
        assert pool.n_shards == 1  # _reap_defunct refilled min_shards
        pool.close()

    asyncio.run(run())


def test_sick_shard_is_quarantined_and_restarted():
    async def run():
        pool = make_pool()
        sup = make_supervisor().bind(pool)
        shard = await pool.acquire()
        shard.poison()  # probe will raise -> unhealthy
        await sup.handle_failure(shard, RuntimeError("suspicious"))
        assert sup.stats()["quarantines"] == 1
        assert shard.quarantined and shard not in pool._shards
        await sup.drain(cancel=False)  # let the campaign finish
        assert sup.stats()["restarts"] == 1
        assert pool.n_shards == 1 and pool.n_free == 1
        replacement = pool._shards[0]
        assert replacement is not shard
        actions = [e["action"] for e in pool.lifecycle_events]
        assert actions == ["quarantine", "restart"]
        pool.close()

    asyncio.run(run())


def test_restart_survives_spawn_failures_within_budget():
    async def run():
        plan = FaultPlan(name="spawn-chaos", seed=3, specs=(
            FaultSpec(kind="spawn_fail", max_fires=2),
        ))
        pool = make_pool()
        sup = make_supervisor(max_attempts=4, restart_budget=6)
        sup.bind(pool)
        shard = await pool.acquire()
        shard.poison()
        with inject(plan):
            await sup.handle_failure(shard, RuntimeError("sick"))
            await sup.drain(cancel=False)
        assert sup.stats()["restart_failures"] == 2   # both armed spawn faults
        assert sup.stats()["restarts"] == 1           # third attempt adopted
        assert sup.budget_left == 6 - 3
        assert pool.n_shards == 1
        # Three attempts slept the first three delays, inside the
        # campaign's closed-form bound.
        assert sup.stats()["backoff_total_seconds"] == pytest.approx(
            sum(sup.backoff.delay(a) for a in (1, 2, 3)))
        assert sup.stats()["backoff_total_seconds"] \
            <= sup.backoff.max_total() + 1e-9
        pool.close()

    asyncio.run(run())


def test_budget_exhaustion_abandons_the_campaign():
    async def run():
        plan = FaultPlan(name="spawn-dead", seed=4, specs=(
            FaultSpec(kind="spawn_fail", max_fires=None),  # persistent
        ))
        pool = make_pool()
        sup = make_supervisor(max_attempts=10, restart_budget=2)
        sup.bind(pool)
        shard = await pool.acquire()
        shard.poison()
        with inject(plan):
            await sup.handle_failure(shard, RuntimeError("sick"))
            await sup.drain(cancel=False)
        assert sup.budget_left == 0
        s = sup.stats()
        assert s["restarts"] == 0 and s["restart_failures"] == 2
        assert pool.n_shards == 0  # converged small, no restart storm
        pool.close()

    asyncio.run(run())


class GatedCanary(CanaryProbe):
    """A canary that holds every probe of a shard outside ``known``
    (i.e. a restart candidate) until ``gate`` is set.

    The probe runs on a worker thread, so waiting there blocks only the
    restart campaign, never the event loop.
    """

    def __init__(self, known, gate, **kw):
        super().__init__(CONFIG, nx=4, **kw)
        self.known = set(known)
        self.gate = gate

    def check(self, shard):
        if shard.index not in self.known:
            self.gate.wait()
        return super().check(shard)


def test_sweep_quarantines_idle_sick_shards():
    async def run():
        pool = make_pool(min_shards=2, max_shards=2)
        gate = threading.Event()
        canary = GatedCanary((s.index for s in pool._shards), gate)
        sup = make_supervisor(canary=canary).bind(pool)
        pool._shards[0].poison()
        try:
            sick = await sup.sweep()
            assert sick == 1
            # The replacement's probe is held at the gate, so it cannot
            # be adopted before this check.
            assert pool.n_shards == 1  # healthy one back in rotation
        finally:
            gate.set()
        await sup.drain(cancel=False)
        assert pool.n_shards == 2  # replacement adopted
        pool.close()

    asyncio.run(run())


def test_bind_builds_a_default_canary_from_the_pool_config():
    pool = make_pool()
    sup = ShardSupervisor().bind(pool)
    assert sup.canary is not None
    assert sup.canary.check(pool._shards[0])[0]
    pool.close()


def test_release_of_quarantined_shard_is_ignored_by_the_pool():
    async def run():
        pool = make_pool()
        shard = await pool.acquire()
        pool.quarantine(shard)
        await pool.release(shard)  # supervisor owns it: no-op
        assert pool.n_free == 0 and shard not in pool._shards
        pool.close()

    asyncio.run(run())


def test_shard_stats_expose_health_flags():
    shard = GatewayShard(0, SolveService(config=CONFIG))
    s = shard.stats()
    assert {"draining", "defunct", "poisoned",
            "quarantined"} <= set(s)
    shard.close()
