"""Gateway chaos benchmark: ``repro bench all --only gateway-chaos``.

Drives the supervised gateway through five phases and emits the
schema-validated ``BENCH_gateway_chaos.json`` report:

1. **clean** — full supervision armed (supervisor + hedge + retry +
   brownout), *no* faults: results stay bit-identical to a direct
   sync solve and no intervention fires (zero quarantines, retries,
   sheds). Supervision that is not needed must be invisible.
2. **crash storm** — armed ``shard_crash`` + ``shard_hang`` faults:
   per-chunk retry re-dispatches crashed chunks; every request still
   resolves bit-identically (recovery rate 1.0, zero lost columns).
3. **poison + restart** — a ``shard_poison`` fault condemns one shard
   and a ``spawn_fail`` fault breaks the first restart attempt: the
   supervisor quarantines on a failed canary, burns one budget slot on
   the broken spawn, and adopts a probed replacement within the
   backoff budget.
4. **hedging identity** — a ``shard_hang`` straggler: the hedge fires
   after its EWMA-p95 delay, the backup shard wins, and the winner's
   answer is bit-identical to the direct solve (the property that
   makes first-result-wins safe at all).
5. **brownout** — a deliberately slow shard and a premium/bulk tenant
   mix: overload degrades the stream chunk, then sheds *bulk* (not
   premium) admissions with typed
   :class:`~repro.gateway.errors.BrownoutShed` + ``retry_after``;
   idle observations recover the stage to normal.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.gateway.bench import _direct
from repro.gateway.errors import BrownoutShed
from repro.gateway.gateway import SolveGateway
from repro.gateway.queues import TenantQuota
from repro.grids.grid import StructuredGrid
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve.plan import PlanConfig
from repro.serve.service import SolveService
from repro.supervise.backoff import Backoff
from repro.supervise.brownout import BrownoutController
from repro.supervise.canary import CanaryProbe
from repro.supervise.hedge import HedgePolicy
from repro.supervise.supervisor import ShardSupervisor

OPS = ("lower", "upper", "symgs")


def _supervisor(config, seed: int, *,
                restart_budget: int = 8) -> ShardSupervisor:
    """A fast-backoff supervisor suitable for a benchmark run."""
    return ShardSupervisor(
        CanaryProbe(config, nx=4, seed=seed),
        backoff=Backoff(base=0.01, cap=0.05, max_attempts=3),
        restart_budget=restart_budget)


def _resolution(stats: dict, accepted_columns: int) -> dict:
    resolved = (stats["completed"] + stats["failed"]
                + stats["expired"])
    return {
        "accepted_columns": accepted_columns,
        "completed_columns": stats["completed"],
        "failed_columns": stats["failed"],
        "expired_columns": stats["expired"],
        "no_lost_columns": bool(resolved == accepted_columns),
    }


async def _clean_phase(grid, stencil, config, rng) -> dict:
    """Supervision fully armed, zero faults: it must be invisible."""
    gw = SolveGateway(
        config=config, min_shards=2, max_shards=2, stream_chunk=2,
        supervisor=_supervisor(config, seed=11),
        hedge=HedgePolicy(min_samples=3, max_delay=1.0),
        retry=Backoff(base=0.01, cap=0.05, max_attempts=2),
        brownout=BrownoutController(degrade_wait=5.0, shed_wait=20.0))
    async with gw:
        cases = []
        for op in OPS:
            rhs = rng.standard_normal((grid.n_points, 3))
            got = await gw.solve(grid, stencil, rhs, op=op)
            want = _direct(grid, stencil, rhs, op, config)
            cases.append({"op": op,
                          "bitwise": bool(np.array_equal(got, want))})
        stats = gw.stats()
    return {
        "cases": cases,
        "all_bitwise": all(c["bitwise"] for c in cases),
        "quarantines": stats["supervisor"]["quarantines"],
        "retries": stats["retries"],
        "sheds": stats["sheds"],
        "resolution": _resolution(stats, 3 * len(OPS)),
    }


async def _crash_storm_phase(grid, stencil, config, rng,
                             n_requests: int, seed: int) -> dict:
    """shard_crash + shard_hang under retry + hedging: lose nothing."""
    requests = [(OPS[i % len(OPS)],
                 rng.standard_normal((grid.n_points, 2)))
                for i in range(n_requests)]
    # References computed before any fault is armed.
    want = [_direct(grid, stencil, rhs, op, config)
            for op, rhs in requests]
    plan = FaultPlan(name="crash-storm", seed=seed, specs=(
        FaultSpec(kind="shard_crash", max_fires=3),
        FaultSpec(kind="shard_hang", delay_seconds=0.25,
                  max_fires=2),
    ))
    gw = SolveGateway(
        config=config, min_shards=2, max_shards=3, stream_chunk=2,
        supervisor=_supervisor(config, seed=seed),
        hedge=HedgePolicy(min_samples=2, spread_factor=2.0,
                          min_delay=0.01, max_delay=0.1),
        retry=Backoff(base=0.01, cap=0.05, max_attempts=3))
    with inject(plan) as injector:
        async with gw:
            tickets = [await gw.submit(grid, stencil, rhs, op=op)
                       for op, rhs in requests]
            got = [await t.result() for t in tickets]
            await gw.supervisor.drain(cancel=False)
            stats = gw.stats()
        faults = injector.stats()
    recovered = sum(bool(np.array_equal(g, w))
                    for g, w in zip(got, want))
    return {
        "n_requests": n_requests,
        "faults_injected": faults["injected"],
        "fault_records": faults["records"],
        "recovered": recovered,
        "recovery_rate": recovered / n_requests,
        "retries": stats["retries"],
        "hedges": stats["hedges"],
        "supervisor": stats["supervisor"],
        "resolution": _resolution(stats, 2 * n_requests),
    }


async def _poison_restart_phase(grid, stencil, config, rng,
                                seed: int) -> dict:
    """shard_poison condemns a worker; spawn_fail breaks the first
    restart attempt; the supervisor still refills the pool, within
    its backoff budget."""
    rhs = rng.standard_normal((grid.n_points, 4))
    want = _direct(grid, stencil, rhs, "lower", config)
    plan = FaultPlan(name="poison-restart", seed=seed, specs=(
        FaultSpec(kind="shard_poison", max_fires=1),
        FaultSpec(kind="spawn_fail", max_fires=1),
    ))
    sup = _supervisor(config, seed=seed, restart_budget=6)
    gw = SolveGateway(
        config=config, min_shards=2, max_shards=2, stream_chunk=1,
        supervisor=sup,
        retry=Backoff(base=0.01, cap=0.05, max_attempts=3))
    with inject(plan) as injector:
        async with gw:
            ticket = await gw.submit(grid, stencil, rhs, op="lower")
            got = await ticket.result()
            await sup.drain(cancel=False)
            stats = gw.stats()
            final_shards = gw.pool.n_shards
        faults = injector.stats()
    sup_stats = stats["supervisor"]
    budget_bound = sup.backoff.max_total() * max(
        1, sup_stats["quarantines"])
    return {
        "bitwise": bool(np.array_equal(got, want)),
        "faults_injected": faults["injected"],
        "fault_records": faults["records"],
        "quarantines": sup_stats["quarantines"],
        "restarts": sup_stats["restarts"],
        "restart_failures": sup_stats["restart_failures"],
        "budget_left": sup_stats["budget_left"],
        "backoff_total_seconds": sup_stats["backoff_total_seconds"],
        "backoff_budget_bound": budget_bound,
        "within_backoff_budget": bool(
            sup_stats["backoff_total_seconds"] <= budget_bound),
        "final_shards": final_shards,
        "resolution": _resolution(stats, 4),
    }


async def _hedging_phase(grid, stencil, config, rng,
                         seed: int) -> dict:
    """A straggling shard is hedged; the backup's answer is the
    answer — bit-identical to the direct solve."""
    hedge = HedgePolicy(min_samples=2, spread_factor=2.0,
                        min_delay=0.02, max_delay=0.1)
    gw = SolveGateway(config=config, min_shards=2, max_shards=2,
                      stream_chunk=2, hedge=hedge)
    async with gw:
        # Warm the latency distribution so the hedge threshold is live.
        for _ in range(3):
            warm = rng.standard_normal(grid.n_points)
            x = await gw.solve(grid, stencil, warm, op="lower")
            assert np.all(np.isfinite(x))
        rhs = rng.standard_normal((grid.n_points, 2))
        want = _direct(grid, stencil, rhs, "lower", config)
        plan = FaultPlan(name="straggler", seed=seed, specs=(
            FaultSpec(kind="shard_hang", delay_seconds=0.5,
                      max_fires=1),
        ))
        with inject(plan) as injector:
            got = await gw.solve(grid, stencil, rhs, op="lower")
            faults = injector.stats()
        stats = gw.stats()
    return {
        "hedge_delay_seconds": hedge.stats()["delay_seconds"],
        "hang_seconds": 0.5,
        "faults_injected": faults["injected"],
        "hedges": stats["hedges"],
        "hedge_wins": stats["hedge_wins"],
        "bitwise": bool(np.array_equal(got, want)),
        "resolution": _resolution(stats, 3 + 2),
    }


class _SlowService(SolveService):
    """A sync service that stalls every block call (overload fuel)."""

    def solve_block(self, *args, **kwargs):
        time.sleep(0.03)
        return super().solve_block(*args, **kwargs)


async def _brownout_phase(grid, stencil, config, rng) -> dict:
    """Overload a one-shard pool: degrade, then shed bulk (typed,
    with retry_after), keep premium, and recover when idle."""
    brownout = BrownoutController(
        degrade_wait=0.02, shed_wait=0.06, enter_patience=1,
        exit_patience=2, shed_below_weight=1.0,
        retry_after_floor=0.01)
    quotas = {
        "premium": TenantQuota(max_queued=256, max_in_flight=8,
                               weight=2.0),
        "bulk": TenantQuota(max_queued=256, max_in_flight=8,
                            weight=0.5),
    }
    gw = SolveGateway(
        service_factory=lambda: _SlowService(config=config),
        config=config, min_shards=1, max_shards=1, stream_chunk=4,
        quotas=quotas, brownout=brownout)
    async with gw:
        # One awaited warm solve seeds the chunk-latency EWMA that
        # prices the queue-wait signal.
        await gw.solve(grid, stencil,
                       rng.standard_normal(grid.n_points),
                       tenant="premium")
        tickets = []
        for _ in range(8):
            tickets.append(await gw.submit(
                grid, stencil,
                rng.standard_normal((grid.n_points, 4)),
                tenant="premium"))
        shed_error = None
        bulk_admitted = 0
        for _ in range(32):
            if brownout.stage != "shed":
                gw.poll()
            try:
                tickets.append(await gw.submit(
                    grid, stencil,
                    rng.standard_normal(grid.n_points),
                    tenant="bulk"))
                bulk_admitted += 1
            except BrownoutShed as exc:
                shed_error = exc
                break
        # Premium outranks the shed bar even in the shed stage.
        premium_during_shed = None
        if brownout.stage == "shed":
            tickets.append(await gw.submit(
                grid, stencil, rng.standard_normal(grid.n_points),
                tenant="premium"))
            premium_during_shed = True
        accepted_columns = 1 + 8 * 4 + bulk_admitted \
            + (1 if premium_during_shed else 0)
        for t in tickets:
            x = await t.result()
            assert np.all(np.isfinite(x))
        await gw.join()
        for _ in range(8):  # idle samples walk the stage back down
            gw.poll()
        stats = gw.stats()
        stage_after_drain = brownout.stage
    transitions = stats["brownout"]["transitions"]
    return {
        "degrade_wait": brownout.degrade_wait,
        "shed_wait": brownout.shed_wait,
        "bulk_admitted_before_shed": bulk_admitted,
        "shed_typed": bool(isinstance(shed_error, BrownoutShed)),
        "shed_retry_after": (None if shed_error is None
                             else shed_error.retry_after),
        "shed_stage": (None if shed_error is None
                       else shed_error.stage),
        "premium_admitted_during_shed": premium_during_shed,
        "sheds": stats["sheds"],
        "transitions": transitions,
        "reached_degraded": any(t["to"] == "degraded"
                                for t in transitions),
        "reached_shed": any(t["to"] == "shed" for t in transitions),
        "recovered_normal": bool(stage_after_drain == "normal"),
        "resolution": _resolution(stats, accepted_columns),
    }


async def _run(nx: int, stencil: str, n_requests: int,
               n_workers: int, machine: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    grid = StructuredGrid((nx,) * 3)
    config = PlanConfig(bsize=4, n_workers=n_workers, machine=machine)

    clean = await _clean_phase(grid, stencil, config, rng)
    crash = await _crash_storm_phase(grid, stencil, config, rng,
                                     n_requests, seed)
    poison = await _poison_restart_phase(grid, stencil, config, rng,
                                         seed)
    hedging = await _hedging_phase(grid, stencil, config, rng, seed)
    brownout = await _brownout_phase(grid, stencil, config, rng)

    gates = {
        "clean_bitwise_no_intervention": bool(
            clean["all_bitwise"] and clean["quarantines"] == 0
            and clean["retries"] == 0 and clean["sheds"] == 0),
        "crash_recovery_rate_1": bool(
            crash["recovery_rate"] == 1.0),
        "crash_retried": bool(crash["retries"] > 0),
        "poison_quarantined_and_restarted": bool(
            poison["quarantines"] >= 1 and poison["restarts"] >= 1
            and poison["restart_failures"] >= 1),
        "restart_within_backoff_budget":
            poison["within_backoff_budget"],
        "hedge_winner_bit_identical": bool(
            hedging["hedges"] >= 1 and hedging["hedge_wins"] >= 1
            and hedging["bitwise"]),
        "brownout_shed_typed_with_retry_after": bool(
            brownout["shed_typed"]
            and brownout["shed_retry_after"] is not None
            and brownout["shed_retry_after"] > 0),
        "brownout_spared_premium": bool(
            brownout["premium_admitted_during_shed"] is not False),
        "brownout_recovered": brownout["recovered_normal"],
        "no_lost_columns": all(
            p["resolution"]["no_lost_columns"]
            and p["resolution"]["failed_columns"] == 0
            for p in (clean, crash, poison, hedging, brownout)),
        "all_bitwise": bool(
            clean["all_bitwise"] and poison["bitwise"]
            and hedging["bitwise"]
            and crash["recovery_rate"] == 1.0),
    }
    return {
        "schema": "dbsr-repro/bench-gateway-chaos/v1",
        "config": {
            "nx": nx,
            "stencil": stencil,
            "n_requests": n_requests,
            "n_workers": n_workers,
            "machine": machine,
            "seed": seed,
        },
        "clean": clean,
        "crash_storm": crash,
        "poison_restart": poison,
        "hedging": hedging,
        "brownout": brownout,
        "gates": gates,
        "ok": all(gates.values()),
    }


def collect_bench_gateway_chaos(nx: int = 5, stencil: str = "27pt",
                                n_requests: int = 8,
                                n_workers: int = 2,
                                machine: str = "kp920",
                                seed: int = 2024) -> dict:
    """Run the chaos workload; return the BENCH_gateway_chaos dict.

    Synchronous wrapper (the CLI and tests call it from plain code);
    the phases run sequentially on a private event loop.
    """
    return asyncio.run(_run(nx, stencil, n_requests, n_workers,
                            machine, seed))
