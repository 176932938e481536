"""Observability subsystem: structured tracing + metrics export.

``repro.observe`` gives the runtime, serving and resilience layers one
shared vocabulary for *what happened*:

* :mod:`repro.observe.trace` — :class:`~repro.observe.trace.Span` /
  :class:`~repro.observe.trace.Tracer` with monotonic timings,
  parent/child nesting and per-span op-count attribution, delivered
  through single-``None``-check hooks (zero clean-path overhead);
* :mod:`repro.observe.metrics` —
  :class:`~repro.observe.metrics.MetricsRegistry` with counters,
  gauges and fixed-bucket histograms, exported as JSON or Prometheus
  text;
* :mod:`repro.observe.report` — per-phase self/total time + op-mix
  tables, canonical trace forms for the golden suite, and the
  ``trace`` bench collection (``repro bench all --only trace``);
* :mod:`repro.observe.schema_check` — bench-report schema validation
  (``BENCH_trace.json`` and every other ``BENCH_*.json``).

See ``docs/observability.md`` for the span model, metric naming scheme
and the golden-update workflow.
"""

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.observe.trace import Span, Tracer, tracing

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "tracing",
]
