"""Structured tracing core — spans, nesting, op-count attribution.

A :class:`Tracer` records a tree of :class:`Span` objects: named,
monotonic-clock-timed regions with parent/child nesting (thread-local,
so concurrent drains do not interleave their trees), free-form
attributes, point :meth:`~Tracer.event` records, and an optional
per-span **op-count attribution** — the closed-form
:class:`~repro.simd.counters.OpCounter` of the work the span covers,
serialized in the same shape as
:func:`repro.simd.counters.counter_to_dict`.

Instrumentation sites mirror the fault-injection hooks of
:mod:`repro.resilience.hooks`: a module-level tracer slot plus helper
functions that are a **single ``None`` check** when no tracer is
installed. The disarmed path allocates nothing, runs no engine op and
mutates no counter — the golden-trace suite asserts the clean path's
op counts are bit-identical to a build without tracing.

Span sites currently wired (see ``docs/observability.md``):

======================  ==================================================
span                    opened by
======================  ==================================================
``serve.drain``         :meth:`repro.serve.service.SolveService.drain`
``session.<phase>``     :meth:`repro.runtime.session.SolverSession.phase`
``serve.compile``       :func:`repro.serve.plan.compile_plan`
``serve.autotune``      the autotune sweep inside ``compile_plan``
``plan.execute``        :meth:`repro.serve.plan.SolvePlan.execute` and the
                        CSR rung of
                        :class:`repro.resilience.fallback.FallbackChain`
``fallback.solve``      :meth:`~repro.resilience.fallback.FallbackChain.execute`
``fallback.rung``       each ladder rung attempt
``mg.level``            each :func:`repro.multigrid.vcycle.mg_vcycle` level
======================  ==================================================

Point events: ``serve.submit``, ``serve.coalesce``, ``serve.requeue``,
``cache.hit`` / ``cache.miss`` / ``cache.evict`` / ``cache.invalidate``,
``executor.barrier``, ``fallback.validation_failed`` /
``fallback.execution_failed`` / ``fallback.heal``, and ``breaker.open``
/ ``breaker.half_open`` / ``breaker.close``.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager


def counts_dict(counter) -> dict:
    """Serialize an :class:`~repro.simd.counters.OpCounter` (or pass a
    pre-serialized dict through unchanged)."""
    if isinstance(counter, dict):
        return counter
    from repro.simd.counters import counter_to_dict

    return counter_to_dict(counter)


class Span:
    """One named, timed region of a trace.

    Attributes
    ----------
    name:
        Site name (dotted, e.g. ``"plan.execute"``).
    span_id, parent_id:
        Per-tracer ids; roots have ``parent_id = None``.
    t_start, seconds:
        Monotonic start stamp and duration (``None`` until finished).
    attrs:
        Free-form attributes set at open time or via ``attrs[...] =``.
    counts:
        Op-count attribution (``counter_to_dict`` shape) or ``None``.
    events:
        Point events recorded while this span was current.
    children:
        Child spans in start order.
    """

    __slots__ = ("name", "span_id", "parent_id", "t_start", "seconds",
                 "attrs", "counts", "events", "children")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 t_start: float, attrs: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_start = t_start
        self.seconds: float | None = None
        self.attrs = attrs
        self.counts: dict | None = None
        self.events: list[dict] = []
        self.children: list[Span] = []

    def set_counts(self, counter) -> None:
        """Attribute op counts (an OpCounter or serialized dict)."""
        self.counts = counts_dict(counter)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "counts": self.counts,
            "events": list(self.events),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"children={len(self.children)})")


class Tracer:
    """Collects spans and events for one traced run.

    Thread-safe: the current-span stack is thread-local (each thread
    builds its own subtree) while the root list, event sink and id
    source are lock-protected. ``clock`` is injectable for
    deterministic timing tests.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.roots: list[Span] = []
        #: Events fired while no span was open on the firing thread.
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._tls = threading.local()

    # Span stack ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child span of the calling thread's current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        sp = Span(name, sid, parent.span_id if parent else None,
                  self.clock(), attrs)
        if parent is not None:
            parent.children.append(sp)
        else:
            with self._lock:
                self.roots.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.seconds = self.clock() - sp.t_start
            stack.pop()

    # Point data ---------------------------------------------------------
    def event(self, name: str, **attrs) -> None:
        """Record a point event on the current span (or at the root)."""
        rec = {"name": name, "attrs": attrs}
        sp = self.current()
        if sp is not None:
            sp.events.append(rec)
        else:
            with self._lock:
                self.events.append(rec)

    def add_counts(self, counter) -> None:
        """Attribute op counts to the calling thread's current span."""
        sp = self.current()
        if sp is not None:
            sp.set_counts(counter)

    # Reporting ----------------------------------------------------------
    def walk(self):
        """Yield every recorded span, depth-first in start order."""
        stack = list(reversed(self.roots))
        while stack:
            sp = stack.pop()
            yield sp
            stack.extend(reversed(sp.children))

    @property
    def n_spans(self) -> int:
        return sum(1 for _ in self.walk())

    def to_dict(self) -> dict:
        """JSON-friendly trace (spans nested, root events flat)."""
        return {
            "schema": "dbsr-repro/trace/v1",
            "spans": [sp.to_dict() for sp in self.roots],
            "events": list(self.events),
        }


# Module-level tracer slot (mirrors repro.resilience.hooks) ---------------

_active: Tracer | None = None
_lock = threading.Lock()


class _NullSpan:
    """Reusable no-op context manager for the disarmed path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


def install(tracer: Tracer) -> None:
    """Arm ``tracer`` globally (one at a time; last install wins)."""
    global _active
    with _lock:
        _active = tracer


def uninstall(tracer: Tracer | None = None) -> None:
    """Disarm; pass the tracer to only remove if it is still active."""
    global _active
    with _lock:
        if tracer is None or _active is tracer:
            _active = None


def active() -> Tracer | None:
    """The installed tracer, or ``None``."""
    return _active


def span(name: str, **attrs):
    """Open a span on the installed tracer; no-op context otherwise.

    The disarmed path is a ``None`` check returning a shared no-op
    context manager — no allocation, no engine op.
    """
    tr = _active
    if tr is None:
        return _NULL
    return tr.span(name, **attrs)


def null_span() -> _NullSpan:
    """The shared no-op span context — for call sites that must stay
    untraced even under an installed tracer (clean reference paths)."""
    return _NULL


def event(name: str, **attrs) -> None:
    """Record a point event on the installed tracer (no-op otherwise)."""
    tr = _active
    if tr is not None:
        tr.event(name, **attrs)


def add_counts(counter) -> None:
    """Attribute counts to the installed tracer's current span."""
    tr = _active
    if tr is not None:
        tr.add_counts(counter)


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Install a tracer for the duration of a block; yields it.

    A fresh :class:`Tracer` is created when none is passed. Always
    uninstalls on exit, even when the traced block raises.
    """
    tr = tracer if tracer is not None else Tracer()
    install(tr)
    try:
        yield tr
    finally:
        uninstall(tr)
