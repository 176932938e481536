"""Serving benchmark: cache amortization and multi-RHS byte scaling.

Two measurements back the serving layer's claims, both emitted to
``BENCH_serve.json`` by ``repro bench all --only serve``:

1. **Plan-cache amortization** — a repeated-structure workload (many
   requests over few structures) through a :class:`SolveService`;
   reports hit rate, compile seconds, and amortized setup seconds per
   request.
2. **Batch-width scaling** — the instrumented multi-RHS SpTRSV at
   ``k ∈ {1, 2, 4, 8}``: measured ``OpCounter`` deltas show the
   value-stream bytes per solve falling as ``1/k`` (one tile-value load
   serves every RHS) while results stay bit-identical to ``k``
   independent ``k = 1`` solves of the plan's backend. Counted tallies
   are cross-checked against the closed forms of
   :func:`repro.kernels.counts.sptrsv_dbsr_counts`.
"""

from __future__ import annotations

import numpy as np

from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig, compile_plan
from repro.serve.service import SolveService


def batch_scaling_report(plan, ks=(1, 2, 4, 8), seed: int = 2024) -> dict:
    """Measured per-solve op mixes of the batched SpTRSV vs ``k``.

    Runs the instrumented multi-RHS lower solve on ``max(ks)`` random
    right-hand sides, slicing the same RHS block per width, and checks
    every batched column bit-equals the ``k = 1`` solve of that column
    through the plan's backend.
    """
    from repro.kernels.counts import sptrsv_dbsr_counts
    from repro.serve.batch import sptrsv_dbsr_lower_multi_counted
    from repro.simd.counters import counter_to_dict
    from repro.simd.engine import VectorEngine

    rng = np.random.default_rng(seed)
    n = plan.lower.n_rows
    dtype = plan.config.np_dtype
    B = rng.standard_normal((n, max(ks))).astype(dtype)
    backend = plan._backend()
    reference = np.concatenate(
        [backend.sptrsv_dbsr_multi(plan.lower, B[:, j:j + 1], plan.diag,
                                   forward=True)
         for j in range(B.shape[1])], axis=1)

    widths = []
    prev_value_bytes = None
    for k in sorted(ks):
        engine = VectorEngine(plan.bsize, dtype=dtype)
        X = sptrsv_dbsr_lower_multi_counted(
            plan.lower, B[:, :k], engine, diag=plan.diag)
        bitwise = bool(np.array_equal(X, reference[:, :k]))
        measured = engine.counter
        closed = sptrsv_dbsr_counts(plan.lower, divide=True, k=k)
        per_solve_value_bytes = measured.bytes_values / k
        entry = {
            "k": k,
            "bitwise_equal_to_unbatched": bitwise,
            "counts_batch": counter_to_dict(measured),
            "value_bytes_per_solve": per_solve_value_bytes,
            "total_bytes_per_solve": measured.total_bytes / k,
            "vector_ops_per_solve": measured.total_vector_ops / k,
            "matches_closed_form": (
                measured.bytes_values == closed.bytes_values
                and measured.total_vector_ops == closed.total_vector_ops
            ),
            "value_bytes_strictly_below_previous": (
                prev_value_bytes is None
                or per_solve_value_bytes < prev_value_bytes
            ),
        }
        prev_value_bytes = per_solve_value_bytes
        widths.append(entry)
    return {
        "kernel": "sptrsv_dbsr_lower_multi",
        "n_rows": n,
        "bsize": plan.bsize,
        "widths": widths,
        "value_bytes_per_solve_decreasing": all(
            w["value_bytes_strictly_below_previous"] for w in widths),
        "all_bitwise_equal": all(
            w["bitwise_equal_to_unbatched"] for w in widths),
    }


def collect_bench_serve(nx: int = 8, stencil: str = "27pt",
                        n_requests: int = 24, max_batch: int = 8,
                        n_workers: int = 2, dtype: str = "f64",
                        machine: str = "kp920",
                        ks=(1, 2, 4, 8), seed: int = 2024,
                        backend: str = "numpy-fast") -> dict:
    """Run the serving workload + batch sweep; return the report dict.

    The workload issues ``n_requests`` solves over a single structure
    (the repeated-structure regime the cache is built for) plus one
    extra structure to exercise a genuine second compile, then drains
    in batches of ``max_batch``. The default autotune machine is the
    KunPeng 920 (2 f64 lanes), whose picks stay non-degenerate on the
    small grids this functional bench runs at.
    """
    from repro.grids.grid import StructuredGrid

    config = PlanConfig(bsize=None, n_workers=n_workers, dtype=dtype,
                        machine=machine, backend=backend)
    cache = PlanCache(capacity=4)
    rng = np.random.default_rng(seed)
    grid = StructuredGrid((nx,) * 3)
    alt_grid = StructuredGrid((max(2, nx // 2),) * 3)

    with SolveService(cache=cache, config=config,
                      max_batch=max_batch,
                      max_pending=max(n_requests + 4, 16)) as service:
        tickets = []
        for _ in range(n_requests):
            rhs = rng.standard_normal(grid.n_points)
            tickets.append(service.submit(grid, stencil, rhs,
                                          op="lower"))
            if len(tickets) % max_batch == 0:
                service.drain()
        # One different structure: a real (expected) cache miss.
        alt_rhs = rng.standard_normal(alt_grid.n_points)
        tickets.append(service.submit(alt_grid, stencil, alt_rhs,
                                      op="lower"))
        service.drain()
        for t in tickets:
            t.result(timeout=0)
        batch_widths = sorted({t.metrics["batch_k"] for t in tickets})
        service_stats = service.stats()

    cache_stats = service_stats["cache"]
    n_total = len(tickets)
    plan = cache.get_or_compile(grid, stencil, config)[0]
    report = {
        "schema": "dbsr-repro/bench-serve/v1",
        "config": {
            "nx": nx,
            "stencil": stencil,
            "dtype": dtype,
            "n_workers": n_workers,
            "n_requests": n_total,
            "max_batch": max_batch,
            "machine": machine,
            "backend": backend,
            "backend_resolved": plan._backend().name,
            "ks": list(sorted(ks)),
            "bsize_autotuned": plan.bsize,
        },
        "cache": cache_stats,
        "amortization": {
            "compile_seconds_total": cache_stats["compile_seconds"],
            "amortized_setup_seconds_per_request":
                cache_stats["compile_seconds"] / n_total,
            "hit_rate": cache_stats["hit_rate"],
        },
        "service": {
            k: service_stats[k]
            for k in ("submitted", "completed", "failed",
                      "batches_executed")
        },
        "phases": service_stats["phases"],
        "batch_widths_observed": batch_widths,
        "batch_scaling": batch_scaling_report(plan, ks=ks, seed=seed),
    }
    return report
