"""`repro bench all` — run every emitter, judge every check.

One entrypoint drives the whole bench fleet through the registry,
validates each report against its checked-in schema, merges them into
``BENCH_all.json``, and evaluates the standing
:mod:`~repro.regress.default_checks` suite against the per-machine
reference file. Nonzero exit — with each offending check named — is
the regression signal CI keys off.

The merged report also carries two self-verifying sections:

* ``autotune`` — differential evidence that roofline-pruned autotune
  (:func:`repro.simd.autotune.autotune_bsize_result` with
  ``prune="roofline"``) picks the same bsize as exhaustive
  measurement on the seed grids while building ≤ 2 candidate
  structures, plus the measured cold-compile reduction.
* ``fault`` — when a synthetic fault is injected (``--inject-fault
  kernel_delay``), the run records it; committed references must then
  fail, which is how the check layer's teeth are tested end to end.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.backends import DEFAULT_BACKEND

from .checks import evaluate_checks
from .default_checks import default_checks
from .machine import machine_fingerprint
from .machine import machine_id as _machine_id
from .references import resolve_references, store_references
from .registry import DEFAULT_SEED, REGISTRY, run_emitter

BENCH_ALL_SCHEMA = "dbsr-repro/bench-all/v1"

#: Grids for the autotune differential section: 7pt keeps several
#: bsizes feasible on small grids, so pruning has real work to do.
AUTOTUNE_GRIDS = ((8, "7pt"), (9, "7pt"), (12, "7pt"))
AUTOTUNE_GRIDS_QUICK = ((8, "7pt"),)

#: Delay injected per kernel execution under ``fault="kernel_delay"``
#: — orders of magnitude above the quick-mode solve times, so the
#: perf checks trip deterministically.
FAULT_DELAY_SECONDS = 0.05


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def _validate(report: dict, schema_path: str) -> str:
    """Schema-validate one report; returns a status string."""
    from repro.observe.schema_check import (
        TraceSchemaError,
        validate_report,
    )
    path = _repo_root() / schema_path
    if not path.is_file():
        return f"schema file missing: {schema_path}"
    try:
        validate_report(report, str(path))
    except TraceSchemaError as exc:
        return f"INVALID: {exc}"
    return "valid"


def _fault_plan(fault: str):
    from repro.resilience.faults import FaultPlan, FaultSpec
    if fault != "kernel_delay":
        raise ValueError(f"unknown fault {fault!r} "
                         "(only 'kernel_delay' is supported)")
    return FaultPlan((FaultSpec(
        "kernel_delay", strategies=None, max_fires=None,
        delay_seconds=FAULT_DELAY_SECONDS),))


def run_emitters(names, quick: bool = False, seed: int = DEFAULT_SEED,
                 backend: str = DEFAULT_BACKEND, parallel: bool = False,
                 registry: dict | None = None) -> tuple:
    """Run the named emitters; returns ``(reports, elapsed)`` dicts.

    ``parallel=True`` runs non-exclusive emitters concurrently on a
    thread pool; emitters flagged ``exclusive`` (global tracer, global
    fault injector) always run sequentially afterwards, so the merged
    report is identical either way.
    """
    table = REGISTRY if registry is None else registry
    reports: dict = {}
    elapsed: dict = {}

    def _run(name: str) -> None:
        t0 = time.perf_counter()
        reports[name] = run_emitter(name, quick=quick, seed=seed,
                                    backend=backend, registry=table)
        elapsed[name] = time.perf_counter() - t0

    shared = [n for n in names if not table[n].exclusive]
    exclusive = [n for n in names if table[n].exclusive]
    if parallel and len(shared) > 1:
        with ThreadPoolExecutor(max_workers=len(shared)) as pool:
            futures = [pool.submit(_run, n) for n in shared]
            for future in futures:
                future.result()  # surface the first failure
    else:
        for name in shared:
            _run(name)
    for name in exclusive:
        _run(name)
    return reports, elapsed


def run_autotune_section(quick: bool = False,
                         machine: str = "kp920",
                         n_workers: int = 2) -> dict:
    """Differential roofline-vs-exhaustive autotune evidence."""
    from repro.experiments.base import machine_by_name
    from repro.grids.grid import StructuredGrid
    from repro.grids.stencils import stencil_by_name
    from repro.simd.autotune import autotune_bsize_result

    model = machine_by_name(machine)
    grids = AUTOTUNE_GRIDS_QUICK if quick else AUTOTUNE_GRIDS
    rows = []
    for nx, stencil in grids:
        grid = StructuredGrid((nx,) * 3)
        st = stencil_by_name(stencil)
        exhaustive = autotune_bsize_result(
            grid, st, model, n_workers=n_workers,
            prune="exhaustive")
        roofline = autotune_bsize_result(
            grid, st, model, n_workers=n_workers,
            prune="roofline")
        rows.append({
            "grid": [nx] * 3,
            "stencil": stencil,
            "exhaustive_bsize": exhaustive.bsize,
            "roofline_bsize": roofline.bsize,
            "picks_match": exhaustive.bsize == roofline.bsize,
            "exhaustive_measured": exhaustive.measured_candidates,
            "roofline_measured": roofline.measured_candidates,
            "exhaustive_seconds": exhaustive.seconds,
            "roofline_seconds": roofline.seconds,
            "ranked": roofline.ranked,
        })
    total_exhaustive = sum(r["exhaustive_seconds"] for r in rows)
    total_roofline = sum(r["roofline_seconds"] for r in rows)
    gates = {
        "picks_match": all(r["picks_match"] for r in rows),
        "pruned_measures_at_most_2": all(
            r["roofline_measured"] <= 2 for r in rows),
        "compile_time_reduced": total_roofline < total_exhaustive,
    }
    return {
        "machine": machine,
        "grids": rows,
        "exhaustive_seconds": total_exhaustive,
        "roofline_seconds": total_roofline,
        "compile_reduction": (1.0 - total_roofline / total_exhaustive
                              if total_exhaustive > 0 else 0.0),
        "gates": gates,
        "ok": all(gates.values()),
    }


def run_bench_all(quick: bool = False, seed: int = DEFAULT_SEED,
                  backend: str = DEFAULT_BACKEND,
                  out: str | None = "BENCH_all.json",
                  emit_individual: bool = True,
                  only=None, skip=(), parallel: bool = False,
                  references_dir: str = "references",
                  machine_id: str | None = None,
                  tolerance_scale: float = 1.0,
                  update_references: bool = False,
                  autotune: bool = True,
                  fault: str | None = None,
                  registry: dict | None = None,
                  checks: list | None = None) -> dict:
    """Run the fleet, evaluate checks, emit the merged report.

    Returns the merged report dict; ``report["ok"]`` is the exit
    signal (regressions, gate failures, schema mismatches, or a
    failed autotune differential all clear it).
    """
    from repro.resilience.faults import inject
    from repro.runtime.kernel_bench import write_bench_json

    table = REGISTRY if registry is None else registry
    names = [n for n in (only if only else table)
             if n in table and n not in set(skip or ())]
    unknown = [n for n in (only or ()) if n not in table]
    if unknown:
        raise KeyError(f"unknown emitters {unknown}; "
                       f"known: {', '.join(table)}")

    mode = "quick" if quick else "full"
    mid = machine_id or _machine_id()
    t0 = time.perf_counter()

    if fault is not None:
        with inject(_fault_plan(fault)):
            reports, elapsed = run_emitters(
                names, quick=quick, seed=seed, backend=backend,
                parallel=parallel, registry=table)
    else:
        reports, elapsed = run_emitters(
            names, quick=quick, seed=seed, backend=backend,
            parallel=parallel, registry=table)

    validation = {name: _validate(reports[name],
                                  table[name].schema_path)
                  for name in names}

    autotune_section = (run_autotune_section(quick=quick)
                        if autotune else None)

    suite = list(default_checks() if checks is None else checks)
    suite = [c for c in suite if c.report in reports]
    references, ref_source = resolve_references(
        references_dir, mid, mode)
    results, updated = evaluate_checks(
        suite, reports, references,
        tolerance_scale=tolerance_scale, update=update_references)
    if update_references:
        store_references(references_dir, mid, mode, updated,
                         fingerprint=machine_fingerprint()
                         if machine_id is None else None)

    regressions = [r.check.name for r in results if r.failed]
    schema_ok = all(v == "valid" for v in validation.values())
    checks_ok = not regressions
    autotune_ok = autotune_section is None or autotune_section["ok"]

    report = {
        "schema": BENCH_ALL_SCHEMA,
        "machine": {"id": mid, "fingerprint": machine_fingerprint()},
        "config": {
            "mode": mode,
            "seed": seed,
            "backend": backend,
            "parallel": parallel,
            "tolerance_scale": tolerance_scale,
            "update_references": update_references,
            "references_source": ref_source,
            "fault": fault,
            "emitters": names,
        },
        "reports": reports,
        "validation": validation,
        "autotune": autotune_section,
        "checks": [r.to_dict() for r in results],
        "regressions": regressions,
        "elapsed_seconds": {**elapsed,
                            "total": time.perf_counter() - t0},
        "ok": schema_ok and checks_ok and autotune_ok,
    }

    if emit_individual:
        for name in names:
            write_bench_json(reports[name], table[name].out_default)
    if out:
        write_bench_json(report, out)
    return report


def summarize(report: dict) -> str:
    """Human-readable outcome for the CLI."""
    lines = []
    counts: dict = {}
    for c in report["checks"]:
        counts[c["status"]] = counts.get(c["status"], 0) + 1
    status = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"bench all [{report['config']['mode']}] on "
                 f"{report['machine']['id']}: {status or 'no checks'}")
    for name, verdict in sorted(report["validation"].items()):
        if verdict != "valid":
            lines.append(f"  schema {name}: {verdict}")
    auto = report.get("autotune")
    if auto:
        lines.append(
            f"  autotune: picks_match={auto['gates']['picks_match']} "
            f"compile_reduction={auto['compile_reduction']:.1%}")
    for c in report["checks"]:
        if c["status"] in ("fail", "gate_fail", "missing_value"):
            lines.append(f"  REGRESSION {c['name']}: "
                         f"{c['message'] or c['status']}")
    lines.append(f"  ok={report['ok']}")
    return "\n".join(lines)
