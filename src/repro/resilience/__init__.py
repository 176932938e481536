"""Resilience subsystem: chaos engineering for the serving stack.

Three cooperating layers (see ``docs/resilience.md``):

* :mod:`repro.resilience.faults` + :mod:`repro.resilience.hooks` —
  deterministic, seeded fault injection through zero-cost hook sites.
* :mod:`repro.resilience.guardrails` — structural validators and
  SHA-256 integrity digests over compiled-plan artifacts.
* :mod:`repro.resilience.fallback` — the self-healing
  DBSR → SELL → CSR ladder with per-fingerprint circuit breaking.

:mod:`repro.resilience.chaos` scripts the whole loop into the
``chaos`` bench emitter (``repro bench all --only chaos``).
"""

from repro.resilience.errors import (
    CircuitOpen,
    DeadlineExceeded,
    DrainTimeout,
    FallbackExhausted,
    FaultInjected,
    NonFiniteError,
    PlanValidationError,
    ResilienceError,
    ServiceClosed,
    SolverBreakdown,
)
from repro.resilience.fallback import (
    LADDER,
    CircuitBreaker,
    FallbackChain,
    FallbackResult,
)
from repro.resilience.faults import (
    CORRUPTION_KINDS,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    FaultSpec,
    inject,
)
from repro.resilience.guardrails import (
    check_integrity,
    seal_plan,
    validate_csr,
    validate_dbsr,
    validate_diag,
    validate_finite,
    validate_permutation,
    validate_plan,
    validate_sell,
)

__all__ = [
    "CORRUPTION_KINDS",
    "FAULT_KINDS",
    "LADDER",
    "CircuitBreaker",
    "CircuitOpen",
    "DeadlineExceeded",
    "DrainTimeout",
    "FallbackChain",
    "FallbackExhausted",
    "FallbackResult",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "NonFiniteError",
    "PlanValidationError",
    "ResilienceError",
    "ServiceClosed",
    "SolverBreakdown",
    "check_integrity",
    "inject",
    "seal_plan",
    "validate_csr",
    "validate_dbsr",
    "validate_diag",
    "validate_finite",
    "validate_permutation",
    "validate_plan",
    "validate_sell",
]
