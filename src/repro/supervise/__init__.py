"""Shard supervision tier: health checks, restarts, hedging, brownout.

This package makes the gateway/shard tier fault-tolerant end to end,
complementing the *plan*-tier resilience of :mod:`repro.resilience`
(fallback chains, degradation budgets) with *worker*-tier supervision:

* :class:`~repro.supervise.supervisor.ShardSupervisor` — deterministic
  canary probes (bit-checked known-answer solves), quarantine of
  unhealthy shards, and budgeted restart.
* :class:`~repro.supervise.backoff.Backoff` — the one capped
  exponential backoff, taken by the supervisor's restart campaigns
  and by the gateway's bounded recoverable-failure retry.
* :class:`~repro.supervise.hedge.HedgePolicy` — per-chunk straggler
  hedging (EWMA-p95 thresholds, first result wins — safe because the
  batched kernels are bit-identical).
* :class:`~repro.supervise.brownout.BrownoutController` — staged
  overload degradation: shrink stream chunks first, then shed
  low-weight admissions with a typed
  :class:`~repro.gateway.errors.BrownoutShed` carrying a retry hint.

The ``gateway-chaos`` bench emitter (:mod:`repro.supervise.bench`,
``repro bench all --only gateway-chaos``) drives
all of it under armed fault plans and emits the schema-validated
``BENCH_gateway_chaos.json`` report.
"""

from repro.gateway.errors import BrownoutShed
from repro.supervise.backoff import Backoff
from repro.supervise.brownout import BrownoutController
from repro.supervise.canary import CanaryProbe
from repro.supervise.hedge import HedgePolicy
from repro.supervise.supervisor import ShardSupervisor

__all__ = [
    "Backoff",
    "BrownoutController",
    "BrownoutShed",
    "CanaryProbe",
    "HedgePolicy",
    "ShardSupervisor",
]
