"""ILU serving benchmark: value-only repack amortization + gates.

Emitted to ``BENCH_ilu.json`` and evaluated by ``repro bench all``
(``--only ilu`` runs it alone). Four claims back the ILU serving tier:

1. **Repack amortization** — a warm :meth:`PlanCache.refresh_values`
   (re-scatter DBSR values + numeric ILU(0) re-factorization) must be
   a small fraction of a cold :func:`compile_ilu_plan` (which also
   pays reordering, tiling, autotune, scatter-map derivation). The
   standing gate requires ``refresh <= 0.5 × cold`` on the seed grid.
2. **Bitwise repack** — a repacked plan's factors and permuted
   operator bit-equal a cold compile from the same snapshot
   (``np.array_equal``), so incremental recompilation can never
   drift numerically.
3. **Rung differential** — the served DBSR ``ilu_apply`` bit-equals
   the CSR fallback rung (the scalar sweeps over the projected
   factors), on padded grids included.
4. **Sibling isolation** — invalidating one structure's fingerprint
   never flushes (or even touches) a sibling structure's cached plan.

A service section drives ``op="ilu_apply"`` traffic end to end so the
cache hit rate and phase timings land in the perf references.
"""

from __future__ import annotations

import time

import numpy as np

from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig


def _perturbed(values: np.ndarray, rng, scale: float = 0.05):
    """Multiplicative perturbation: keeps every pivot away from zero."""
    return values * (1.0 + scale * rng.uniform(-1.0, 1.0, values.shape))


def repack_report(grid, stencil: str, config: PlanConfig,
                  n_values: int, seed: int) -> dict:
    """Cold-compile vs value-only-repack timing + bitwise gates."""
    from repro.ilu.ilu0_csr import ilu0_apply_csr
    from repro.serve.ilu_plan import compile_ilu_plan

    rng = np.random.default_rng(seed)
    # Warm the compile pipeline's one-time costs (module imports,
    # machine tables) on a throwaway cache first, so the timed cold
    # compile measures structural work — not interpreter startup —
    # and the amortization ratio is *harder* to pass, not easier.
    compile_ilu_plan(grid, stencil, config)
    cache = PlanCache(capacity=4)
    t0 = time.perf_counter()
    plan, _ = cache.get_or_compile_ilu(grid, stencil, config)
    cold_seconds = time.perf_counter() - t0

    refresh_seconds = []
    repack_bitwise = True
    for _ in range(n_values):
        v = _perturbed(plan.values_src, rng)
        t0 = time.perf_counter()
        fresh, repacked = cache.refresh_values(plan.fingerprint, v)
        refresh_seconds.append(time.perf_counter() - t0)
        cold_twin = compile_ilu_plan(grid, stencil, config, values=v)
        repack_bitwise &= bool(repacked)
        repack_bitwise &= bool(np.array_equal(
            fresh.factors.matrix.values, cold_twin.factors.matrix.values))
        repack_bitwise &= bool(np.array_equal(
            fresh.matrix.data, cold_twin.matrix.data))

    served = cache.peek(plan.fingerprint)
    B = rng.standard_normal((served.n, 4))
    Z = served.apply(B)
    csr_factors = served.factors.to_csr_factors()
    Zr = np.stack(
        [served.restrict(ilu0_apply_csr(csr_factors,
                                        served.extend(B[:, j])))
         for j in range(B.shape[1])], axis=1)
    mean_refresh = float(np.mean(refresh_seconds))
    return {
        "cold_compile_seconds": float(cold_seconds),
        "refresh_seconds_mean": mean_refresh,
        "refresh_seconds_min": float(np.min(refresh_seconds)),
        "n_refreshes": n_values,
        "amortization_ratio": mean_refresh / cold_seconds,
        "refresh_le_half_cold": bool(mean_refresh <= 0.5 * cold_seconds),
        "repack_bitwise_equals_cold": bool(repack_bitwise),
        "apply_bitwise_equals_csr_rung": bool(np.array_equal(Z, Zr)),
        "n": int(served.n),
        "n_padded": int(served.n_padded),
        "cache": cache.stats(),
    }


def sibling_isolation_report(grid, alt_grid, stencil: str,
                             config: PlanConfig, seed: int) -> dict:
    """Fingerprint-scoped invalidation leaves siblings untouched."""
    rng = np.random.default_rng(seed)
    cache = PlanCache(capacity=4)
    plan_a, _ = cache.get_or_compile_ilu(grid, stencil, config)
    plan_b, _ = cache.get_or_compile_ilu(alt_grid, stencil, config)
    # Warm both, then invalidate only A.
    for _ in range(3):
        cache.get_or_compile_ilu(grid, stencil, config)
        cache.get_or_compile_ilu(alt_grid, stencil, config)
    before = cache.stats()
    cache.invalidate(plan_a.fingerprint)
    sibling_resident = cache.peek(plan_b.fingerprint) is not None
    served_b, hit_b = cache.get_or_compile_ilu(alt_grid, stencil,
                                               config)
    # B must still be the very same cached object — no recompile, no
    # repack — and refreshing A's values must not disturb it either.
    same_object = served_b is plan_b
    v = _perturbed(plan_a.values_src, rng)
    cache.get_or_compile_ilu(grid, stencil, config, values=v)
    still_b = cache.peek(plan_b.fingerprint) is plan_b
    return {
        "sibling_resident_after_invalidate": bool(sibling_resident),
        "sibling_hit_after_invalidate": bool(hit_b and same_object),
        "sibling_untouched_after_refresh": bool(still_b),
        "hits_before": int(before["hits"]),
        "compiles_before": int(before["compiles"]),
        "isolated": bool(sibling_resident and hit_b and same_object
                         and still_b),
        "cache": cache.stats(),
    }


def collect_bench_ilu(nx: int = 8, stencil: str = "27pt",
                      n_values: int = 4, n_requests: int = 16,
                      max_batch: int = 8, n_workers: int = 2,
                      dtype: str = "f64", machine: str = "kp920",
                      seed: int = 2024,
                      backend: str = "numpy-fast") -> dict:
    """Run the ILU serving workload + repack sweep; return the report."""
    from repro.grids.grid import StructuredGrid
    from repro.serve.service import SolveService

    config = PlanConfig(bsize=None, n_workers=n_workers, dtype=dtype,
                        machine=machine, backend=backend)
    rng = np.random.default_rng(seed)
    grid = StructuredGrid((nx,) * 3)
    alt_grid = StructuredGrid((max(2, nx - 1),) * 3)

    repack = repack_report(grid, stencil, config, n_values, seed)
    isolation = sibling_isolation_report(grid, alt_grid, stencil,
                                         config, seed)

    cache = PlanCache(capacity=4)
    with SolveService(cache=cache, config=config,
                      max_batch=max_batch,
                      max_pending=max(n_requests + 4, 16)) as service:
        tickets = []
        for _ in range(n_requests):
            rhs = rng.standard_normal(grid.n_points)
            tickets.append(service.submit(grid, stencil, rhs,
                                          op="ilu_apply"))
            if len(tickets) % max_batch == 0:
                service.drain()
        # One value rotation mid-stream: the warm repack path under
        # real traffic.
        plan = cache.peek(
            tickets[0].fingerprint) if tickets else None
        if plan is not None:
            v = _perturbed(plan.values_src, rng)
            tickets.append(service.submit(
                grid, stencil, rng.standard_normal(grid.n_points),
                op="ilu_apply", values=v))
        service.drain()
        for t in tickets:
            t.result(timeout=0)
        service_stats = service.stats()

    cache_stats = service_stats["cache"]
    return {
        "schema": "dbsr-repro/bench-ilu/v1",
        "config": {
            "nx": nx,
            "stencil": stencil,
            "dtype": dtype,
            "n_workers": n_workers,
            "n_requests": len(tickets),
            "n_values": n_values,
            "max_batch": max_batch,
            "machine": machine,
            "backend": backend,
        },
        "repack": repack,
        "sibling_isolation": isolation,
        "service": {
            k: service_stats[k]
            for k in ("submitted", "completed", "failed",
                      "batches_executed")
        },
        "cache": cache_stats,
        "phases": service_stats["phases"],
    }
