"""Trace reports: per-phase tables and canonical forms.

Two consumers share this module:

* the ``trace`` bench emitter (``repro bench all --only trace``),
  which runs a small serving workload under a fresh
  :class:`~repro.observe.trace.Tracer` and emits ``BENCH_trace.json``
  (:func:`collect_bench_trace`), its ``table`` holding per-span-name
  calls, total and self wall-clock, and the attributed op mix
  (:func:`aggregate_spans`);
* the golden-trace differential suite, which strips a trace down to
  its deterministic skeleton (:func:`canonical_trace`) before diffing
  against checked-in goldens — timings and span ids vary run to run,
  topology / attributes / attributed op counts must not.
"""

from __future__ import annotations

import platform

import numpy as np

#: Span/attr keys stripped by :func:`canonical_trace` — everything that
#: legitimately varies between two runs of the same workload.
NONDETERMINISTIC_KEYS = frozenset(
    {"seconds", "t_start", "span_id", "parent_id", "compile_seconds"})


def canonical_trace(trace: dict) -> dict:
    """The deterministic skeleton of a ``Tracer.to_dict()`` trace.

    Keeps span names, nesting order, deterministic attributes, events
    and attributed op counts; drops timings and ids. Two runs of the
    same seeded workload must produce equal canonical traces — that is
    the golden suite's span-topology contract.
    """

    def canon_span(sp: dict) -> dict:
        return {
            "name": sp["name"],
            "attrs": {k: v for k, v in sorted(sp["attrs"].items())
                      if k not in NONDETERMINISTIC_KEYS},
            "counts": sp.get("counts"),
            "events": [{"name": e["name"],
                        "attrs": {k: v for k, v
                                  in sorted(e["attrs"].items())
                                  if k not in NONDETERMINISTIC_KEYS}}
                       for e in sp.get("events", [])],
            "children": [canon_span(c) for c in sp.get("children", [])],
        }

    return {
        "spans": [canon_span(sp) for sp in trace.get("spans", [])],
        "events": [{"name": e["name"], "attrs": dict(e["attrs"])}
                   for e in trace.get("events", [])],
    }


def _walk(spans: list, parent=None):
    for sp in spans:
        yield sp, parent
        yield from _walk(sp.get("children", []), sp)


def aggregate_spans(trace: dict) -> list:
    """Per-span-name aggregate rows from a ``Tracer.to_dict()`` trace.

    Each row: ``name``, ``calls``, ``total_seconds`` (sum of span
    durations), ``self_seconds`` (total minus time attributed to child
    spans), and the summed op attribution (``vector_ops``,
    ``scalar_ops``, ``flops``, ``bytes``) of spans carrying counts.
    Rows are ordered by first appearance (depth-first).
    """
    rows: dict[str, dict] = {}
    for sp, _parent in _walk(trace.get("spans", [])):
        row = rows.setdefault(sp["name"], {
            "name": sp["name"], "calls": 0, "total_seconds": 0.0,
            "self_seconds": 0.0, "vector_ops": 0, "scalar_ops": 0,
            "flops": 0, "bytes": 0,
        })
        seconds = sp.get("seconds") or 0.0
        child_seconds = sum((c.get("seconds") or 0.0)
                            for c in sp.get("children", []))
        row["calls"] += 1
        row["total_seconds"] += seconds
        row["self_seconds"] += max(seconds - child_seconds, 0.0)
        counts = sp.get("counts")
        if counts:
            ops = counts["ops"]
            row["vector_ops"] += sum(
                ops[k] for k in ("vload", "vstore", "vgather",
                                 "vscatter", "vfma", "vmul", "vadd",
                                 "vdiv"))
            row["scalar_ops"] += sum(
                ops[k] for k in ("sload", "sstore", "sflop", "sdiv"))
            row["flops"] += counts["flops"]
            row["bytes"] += counts["bytes"]["total"]
    return list(rows.values())


def collect_bench_trace(nx: int = 8, stencil: str = "27pt",
                        bsize: int = 4, strategy: str = "dbsr",
                        ops=("lower", "upper", "spmv", "symgs"),
                        k: int = 4, n_workers: int = 2,
                        dtype: str = "f64", seed: int = 2024) -> dict:
    """Run one traced serving workload; return the trace report.

    Submits ``k`` seeded requests per op to a fresh
    :class:`~repro.serve.service.SolveService` and drains them under an
    installed tracer, so the report's span tree walks the full
    submit → coalesce → compile → cache → solve path, with per-span
    op-count attribution from the closed forms in
    :mod:`repro.kernels.counts`.
    """
    from repro.grids.problems import poisson_problem
    from repro.observe import trace
    from repro.serve.plan import PlanConfig
    from repro.serve.service import SolveService

    problem = poisson_problem((nx,) * 3, stencil)
    config = PlanConfig(bsize=bsize, strategy=strategy,
                        n_workers=n_workers, dtype=dtype)
    rng = np.random.default_rng(seed)
    tracer = trace.Tracer()
    with trace.tracing(tracer), SolveService(config=config) as service:
        for op in ops:
            tickets = [service.submit(problem.grid, problem.stencil,
                                      rng.standard_normal(
                                          problem.grid.n_points),
                                      op=op)
                       for _ in range(k)]
            service.drain()
            for t in tickets:
                t.result(timeout=0)
        stats = service.stats()
        metrics = service.metrics.snapshot()
        prometheus = service.metrics.to_prometheus_text()

    trace_dict = tracer.to_dict()
    rows = aggregate_spans(trace_dict)
    return {
        "schema": "dbsr-repro/bench-trace/v1",
        "config": {
            "nx": nx,
            "stencil": stencil,
            "bsize": bsize,
            "strategy": strategy,
            "ops": list(ops),
            "k": k,
            "n_workers": n_workers,
            "dtype": dtype,
            "seed": seed,
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "trace": trace_dict,
        "table": rows,
        "service": stats,
        "metrics": metrics,
        "prometheus": prometheus,
        "n_spans": sum(r["calls"] for r in rows),
    }
