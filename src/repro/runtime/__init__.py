"""Persistent solver runtime: pooled execution, accounting, metrics.

The runtime layer makes performance *measurable*: a
:class:`~repro.runtime.session.SolverSession` keeps one thread pool
alive across every color sweep and CG iteration of a solve, keeps one
op ledger that each completed kernel or sweep charges once from the
calling thread, and times each phase; :mod:`repro.runtime.kernel_bench`
serializes the result to ``BENCH_runtime.json`` (``repro bench all
--only runtime``).
"""

from repro.runtime.kernel_bench import (
    collect_bench_runtime,
    write_bench_json,
)
from repro.runtime.session import PhaseRecord, SolverSession

__all__ = [
    "SolverSession",
    "PhaseRecord",
    "collect_bench_runtime",
    "write_bench_json",
]
