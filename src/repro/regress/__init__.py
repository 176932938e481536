"""Perf-regression harness: bench registry, checks, references.

``repro bench all`` runs every BENCH emitter through one registry,
merges the reports into ``BENCH_all.json``, and judges a declarative
:class:`~repro.regress.checks.PerfCheck` suite against per-machine
reference files — the standing tier-2 verify for every PR. See
``docs/regression.md``.
"""

from .bench_all import run_bench_all, summarize
from .checks import (
    CheckResult,
    PerfCheck,
    compare,
    evaluate_checks,
    extract_path,
    is_missing,
    ratchet,
    tolerance_bounds,
)
from .default_checks import default_checks
from .machine import machine_fingerprint, machine_id
from .references import (
    load_reference_file,
    resolve_references,
    store_references,
)
from .registry import (
    REGISTRY,
    BenchEmitter,
    get_emitter,
    run_emitter,
)

__all__ = [
    "BenchEmitter",
    "CheckResult",
    "PerfCheck",
    "REGISTRY",
    "compare",
    "default_checks",
    "evaluate_checks",
    "extract_path",
    "get_emitter",
    "is_missing",
    "load_reference_file",
    "machine_fingerprint",
    "machine_id",
    "ratchet",
    "resolve_references",
    "run_bench_all",
    "run_emitter",
    "store_references",
    "summarize",
    "tolerance_bounds",
]
