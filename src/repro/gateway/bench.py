"""Gateway benchmark: ``bench all --only gateway`` → BENCH_gateway.json.

Exercises the async front door end to end and reports the four claims
the gateway makes:

1. **Bit-identity** — a gatewayed solve equals a direct
   ``SolveService`` solve bit-for-bit (``np.array_equal``) across
   kernel backends: the gateway routes, it never touches numerics.
2. **Cheap refusal** — an infeasible deadline is rejected with a typed
   :class:`~repro.gateway.errors.AdmissionRejected` and **zero** plan
   compiles across every shard cache.
3. **Elasticity without loss** — a burst scales the pool up, idleness
   scales it back down (hysteresis, warm drain), and every accepted
   column still resolves: ``completed + failed + expired == accepted``.
4. **Streaming** — a multi-RHS request yields at least one finished
   column while the rest of its batch is still outstanding.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.gateway.gateway import SolveGateway
from repro.gateway.errors import AdmissionRejected
from repro.gateway.queues import TenantQuota
from repro.grids.grid import StructuredGrid
from repro.serve.plan import PlanConfig
from repro.serve.service import SolveService

OPS = ("lower", "upper", "symgs", "spmv")


def _direct(grid, stencil, rhs2d, op, config) -> np.ndarray:
    """Reference: the same columns through a plain sync service."""
    with SolveService(config=config) as svc:
        tickets = [svc.submit(grid, stencil,
                              np.ascontiguousarray(rhs2d[:, j]), op=op)
                   for j in range(rhs2d.shape[1])]
        svc.drain()
        return np.stack([t.result(timeout=0) for t in tickets],
                        axis=1)


async def _identity_phase(grid, stencil, rng, n_workers: int,
                          machine: str) -> dict:
    rows = []
    for backend in ("numpy-fast", "numpy-counted"):
        config = PlanConfig(bsize=4, n_workers=n_workers,
                            machine=machine, backend=backend)
        async with SolveGateway(config=config, min_shards=1,
                                max_shards=1, stream_chunk=2) as gw:
            for op in ("lower", "symgs"):
                rhs = rng.standard_normal((grid.n_points, 3))
                got = await gw.solve(grid, stencil, rhs, op=op)
                want = _direct(grid, stencil, rhs, op, config)
                rows.append({
                    "backend": backend, "op": op,
                    "bitwise": bool(np.array_equal(got, want)),
                })
    return {"cases": rows,
            "all_bitwise": all(r["bitwise"] for r in rows)}


async def _run(nx: int, stencil: str, n_requests: int, k_stream: int,
               n_workers: int, machine: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    grid = StructuredGrid((nx,) * 3)
    config = PlanConfig(bsize=4, n_workers=n_workers, machine=machine)

    identity = await _identity_phase(grid, stencil, rng, n_workers,
                                     machine)

    quotas = {"alpha": TenantQuota(max_queued=64, max_in_flight=2,
                                   weight=2.0),
              "beta": TenantQuota(max_queued=64, max_in_flight=2,
                                  weight=1.0),
              "gamma": TenantQuota(max_queued=64, max_in_flight=2,
                                   weight=1.0)}
    async with SolveGateway(config=config, min_shards=1, max_shards=3,
                            stream_chunk=2, quotas=quotas,
                            high_water=3.0, low_water=1.0,
                            up_patience=2, down_patience=2,
                            cooldown=1) as gw:
        # Warm one structure so admission has a live EWMA to price by.
        warm = await gw.solve(grid, stencil,
                              rng.standard_normal(grid.n_points),
                              tenant="alpha")
        assert np.all(np.isfinite(warm))

        # Claim 2: an impossible deadline is refused pre-compile.
        compiles_before = gw.pool.cache_tallies().get("compiles", 0)
        rejected, rejection = False, None
        try:
            await gw.submit(grid, stencil,
                            rng.standard_normal(grid.n_points),
                            tenant="alpha", deadline=1e-9)
        except AdmissionRejected as exc:
            rejected = True
            rejection = {"reason": exc.reason,
                         "estimate": exc.estimate}
        compiles_after = gw.pool.cache_tallies().get("compiles", 0)
        admission = {
            "rejected": rejected,
            "rejection": rejection,
            "compile_delta": compiles_after - compiles_before,
        }

        # Claim 4: streaming — first column lands before the batch.
        first_partial_cols_done = None
        ticket = await gw.submit(
            grid, stencil,
            rng.standard_normal((grid.n_points, k_stream)),
            tenant="beta")
        order = []
        async for idx, col in ticket.stream():
            if first_partial_cols_done is None:
                first_partial_cols_done = ticket.columns_done
            order.append(idx)
            assert np.all(np.isfinite(col))
        streaming = {
            "k": k_stream,
            "stream_chunk": gw.stream_chunk,
            "first_yield_columns_done": first_partial_cols_done,
            "partial_before_complete": bool(
                first_partial_cols_done is not None
                and first_partial_cols_done < k_stream),
            "completion_order": order,
        }

        # Claim 3: burst → scale up; drain + idle polls → scale down.
        t0 = time.monotonic()
        tickets = []
        tenants = ("alpha", "beta", "gamma")
        for i in range(n_requests):
            tickets.append(await gw.submit(
                grid, stencil, rng.standard_normal(grid.n_points),
                op=OPS[i % len(OPS)], tenant=tenants[i % 3]))
        peak_shards = gw.pool.n_shards
        await gw.join()
        burst_seconds = time.monotonic() - t0
        for t in tickets:
            x = await t.result()
            assert np.all(np.isfinite(x))
        for _ in range(8):  # idle samples drive the warm drain
            gw.poll()
        stats = gw.stats()
        scaling = {
            "min_shards": gw.pool.min_shards,
            "max_shards": gw.pool.max_shards,
            "peak_shards": peak_shards,
            "final_shards": gw.pool.n_shards,
            "events": stats["pool"]["scale_events"],
            "burst_requests": n_requests,
            "burst_seconds": burst_seconds,
        }
        fairness = dict(stats["tenants"])
        accepted_columns = (1 + k_stream + n_requests)
        resolved = (stats["completed"] + stats["failed"]
                    + stats["expired"])
        service = {
            "accepted_requests": stats["accepted"],
            "rejected_requests": stats["rejected"],
            "accepted_columns": accepted_columns,
            "completed_columns": stats["completed"],
            "failed_columns": stats["failed"],
            "expired_columns": stats["expired"],
            "estimator": stats["estimator"],
        }

    scaled_up = any(e["action"] == "scale_up"
                    for e in scaling["events"])
    scaled_down = any(e["action"] == "scale_down"
                      for e in scaling["events"])
    gates = {
        "all_bitwise_identical": identity["all_bitwise"],
        "deadline_rejected_pre_compile": bool(
            admission["rejected"]
            and admission["compile_delta"] == 0),
        "streaming_partial_before_complete":
            streaming["partial_before_complete"],
        "scaled_up_and_down": bool(scaled_up and scaled_down),
        "returned_to_min_shards": bool(
            scaling["final_shards"] == scaling["min_shards"]),
        "no_lost_columns": bool(resolved == accepted_columns
                                and stats["failed"] == 0
                                and stats["expired"] == 0),
    }
    return {
        "schema": "dbsr-repro/bench-gateway/v1",
        "config": {
            "nx": nx,
            "stencil": stencil,
            "n_requests": n_requests,
            "k_stream": k_stream,
            "n_workers": n_workers,
            "machine": machine,
            "seed": seed,
        },
        "identity": identity,
        "admission": admission,
        "streaming": streaming,
        "scaling": scaling,
        "fairness": fairness,
        "service": service,
        "gates": gates,
        "ok": all(gates.values()),
    }


def collect_bench_gateway(nx: int = 6, stencil: str = "27pt",
                          n_requests: int = 18, k_stream: int = 6,
                          n_workers: int = 2,
                          machine: str = "kp920",
                          seed: int = 2024) -> dict:
    """Run the gateway workload; return the BENCH_gateway report dict.

    Synchronous wrapper (the CLI and tests call it from plain code);
    the workload itself runs on a private event loop.
    """
    return asyncio.run(_run(nx, stencil, n_requests, k_stream,
                            n_workers, machine, seed))
