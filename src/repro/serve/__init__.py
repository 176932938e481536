"""Request-serving layer: compile once, cache, batch, serve.

The paper's one-time preprocessing (BMC reorder + DBSR conversion,
§V) amortized across requests, as a subsystem:

* :mod:`repro.serve.plan` — :func:`compile_plan` /
  :class:`SolvePlan` / :func:`structural_fingerprint`: the expensive
  setup behind a deterministic structural key.
* :mod:`repro.serve.cache` — :class:`PlanCache`: thread-safe LRU with
  hit/miss/eviction/compile counters and JSON-persisted autotune picks.
* :mod:`repro.serve.batch` — the DBSR kernels, over ``(n, k)`` blocks,
  loading each tile's values once per batch (value bytes per solve
  ~ 1/k). Plans execute them through a kernel *backend tier* selected
  at compile time (see :mod:`repro.backends`); single-vector callers
  run them at ``k = 1``.
* :mod:`repro.serve.service` — :class:`SolveService`: submit/drain
  with per-structure coalescing, bounded-queue backpressure, and
  per-request error isolation.
* :mod:`repro.serve.ilu_plan` — :class:`ILUPlan` /
  :func:`compile_ilu_plan`: the ILU(0) preconditioner as a cacheable
  plan with a split (structure hash, value digest) fingerprint, plus
  :func:`repack_ilu_plan` for bitwise value-only refreshes.
* :mod:`repro.serve.bench` / :mod:`repro.serve.ilu_bench` — the
  ``serve`` / ``ilu`` bench emitters (``repro bench all``) behind
  ``BENCH_serve.json`` / ``BENCH_ilu.json``.
"""

from repro.serve.batch import (
    spmv_dbsr_multi,
    spmv_dbsr_multi_counted,
    sptrsv_dbsr_lower_multi,
    sptrsv_dbsr_lower_multi_counted,
    sptrsv_dbsr_upper_multi,
    sptrsv_dbsr_upper_multi_counted,
    symgs_dbsr_multi,
    symgs_dbsr_multi_counted,
)
from repro.serve.cache import PlanCache
from repro.serve.ilu_plan import (
    ILU_OPS,
    ILUPlan,
    compile_ilu_plan,
    ilu_pcg,
    ilu_structural_fingerprint,
    repack_ilu_plan,
    value_digest,
)
from repro.serve.plan import (
    PLAN_OPS,
    PlanConfig,
    SolvePlan,
    compile_plan,
    structural_fingerprint,
)
from repro.serve.service import (
    Backpressure,
    RequestError,
    SolveService,
    SolveTicket,
)

__all__ = [
    "ILU_OPS",
    "ILUPlan",
    "PLAN_OPS",
    "Backpressure",
    "PlanCache",
    "PlanConfig",
    "RequestError",
    "SolvePlan",
    "SolveService",
    "SolveTicket",
    "compile_ilu_plan",
    "compile_plan",
    "ilu_pcg",
    "ilu_structural_fingerprint",
    "repack_ilu_plan",
    "value_digest",
    "spmv_dbsr_multi",
    "spmv_dbsr_multi_counted",
    "sptrsv_dbsr_lower_multi",
    "sptrsv_dbsr_lower_multi_counted",
    "sptrsv_dbsr_upper_multi",
    "sptrsv_dbsr_upper_multi_counted",
    "structural_fingerprint",
    "symgs_dbsr_multi",
    "symgs_dbsr_multi_counted",
]
