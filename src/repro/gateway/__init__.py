"""Async streaming front door for the solve engine.

``repro.gateway`` puts an asyncio-native admission + placement layer
in front of the synchronous serving stack:

* :class:`~repro.gateway.gateway.SolveGateway` — per-tenant fair
  queueing, deadline-aware admission control, streaming multi-RHS
  tickets;
* :class:`~repro.gateway.estimator.ServiceTimeEstimator` — pre-compile
  service-time estimates (analytic op counts + live latency EWMAs);
* :class:`~repro.gateway.queues.FairScheduler` — stride-scheduled
  weighted fair dequeue under per-tenant quotas;
* :class:`~repro.gateway.pool.ElasticShardPool` — hysteresis-driven
  worker elasticity with warm draining.

The synchronous :class:`~repro.serve.service.SolveService` API is
untouched; the gateway composes it (``asyncio.to_thread``), so
gatewayed solves are bit-identical to direct ones.
"""

from repro.gateway.errors import (
    AdmissionRejected,
    BrownoutShed,
    GatewayClosed,
    GatewayError,
    QuotaExceeded,
)
from repro.gateway.estimator import Ewma, ServiceTimeEstimator
from repro.gateway.gateway import GatewayTicket, SolveGateway
from repro.gateway.pool import ElasticShardPool, GatewayShard
from repro.gateway.queues import FairScheduler, TenantQuota

__all__ = [
    "AdmissionRejected",
    "BrownoutShed",
    "ElasticShardPool",
    "Ewma",
    "FairScheduler",
    "GatewayClosed",
    "GatewayError",
    "GatewayShard",
    "GatewayTicket",
    "QuotaExceeded",
    "ServiceTimeEstimator",
    "SolveGateway",
    "TenantQuota",
]
