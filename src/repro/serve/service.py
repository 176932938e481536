"""Request-serving frontend: submit/drain with per-structure batching.

:class:`SolveService` is the traffic-facing layer on top of the plan
compiler and cache. Callers :meth:`~SolveService.submit` solve requests
(a grid + stencil structure, an op, and a right-hand side) and receive
a :class:`SolveTicket`; :meth:`~SolveService.drain` coalesces pending
requests **per structural fingerprint and op** into ``(n, k)`` RHS
blocks and executes them through the batched kernels of
:mod:`repro.serve.batch`, so the matrix values stream from memory once
per batch instead of once per request.

Design points:

* **Backpressure** — the pending queue is bounded
  (``max_pending``); :meth:`submit` raises :class:`Backpressure` when
  full instead of growing without limit. Callers drain and retry.
* **Error isolation** — a request that fails (bad RHS detected at
  drain time, or a kernel error during its batch) carries its own
  exception on its ticket; batch-mates are re-executed individually so
  one poisoned request cannot fail its neighbors.
* **Metrics** — every ticket carries a per-request metrics dict
  (batch width, cache hit, solve seconds, amortized per-solve op
  counts via :mod:`repro.kernels.counts`), and the service aggregates
  phase timings in a :class:`~repro.runtime.session.SolverSession`
  ledger (``compile`` / ``solve`` phases); each executed batch tallies
  its closed-form op counts into the ``solve`` phase.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.grids.grid import StructuredGrid
from repro.observe import trace
from repro.observe.metrics import (
    LATENCY_EDGES,
    WIDTH_EDGES,
    MetricsRegistry,
)
from repro.resilience.errors import (
    DeadlineExceeded,
    DrainTimeout,
    ServiceClosed,
    StaleValuesError,
)
from repro.runtime.session import SolverSession
from repro.serve.cache import PlanCache
from repro.serve.plan import (
    PLAN_OPS,
    PlanConfig,
    SolvePlan,
    structural_fingerprint,
)
from repro.simd.counters import counter_to_dict
from repro.utils.validation import check_positive

#: Ops :meth:`SolveService.submit` accepts: the triangular/SpMV/SymGS
#: plan ops plus the preconditioner apply served by ILU plans.
SERVICE_OPS = PLAN_OPS + ("ilu_apply",)


class Backpressure(RuntimeError):
    """Raised by :meth:`SolveService.submit` when the queue is full."""


class RequestError(ValueError):
    """A request was rejected (bad op, wrong RHS shape, non-finite)."""


@dataclass
class SolveTicket:
    """Handle to one submitted request.

    ``result()`` returns the solution (original ordering) or raises the
    request's own error; ``metrics`` is populated when the request is
    executed.
    """

    request_id: int
    fingerprint: str
    op: str
    metrics: dict = field(default_factory=dict)
    _result: np.ndarray | None = None
    _error: BaseException | None = None
    _done: threading.Event = field(default_factory=threading.Event)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until executed; return the solution or raise."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not drained yet")
        if self._error is not None:
            raise self._error
        return self._result

    def _finish(self, result: np.ndarray | None,
                error: BaseException | None = None) -> None:
        if self._done.is_set():
            # close() racing a drain may try to fail a ticket the
            # drain just completed; first outcome wins.
            return
        if error is not None and hasattr(error, "add_note"):
            # Name the originating request so a bare kernel error read
            # off a ticket is traceable to its op and structure.
            error.add_note(
                f"[request {self.request_id}: op={self.op!r}, "
                f"fingerprint={self.fingerprint[:12]}…]")
        self._result = result
        self._error = error
        self._done.set()


@dataclass
class _Pending:
    ticket: SolveTicket
    grid: StructuredGrid
    stencil: object
    config: PlanConfig
    rhs: np.ndarray
    #: Absolute monotonic expiry (``None`` = no deadline).
    deadline_at: float | None = None
    deadline_seconds: float = 0.0
    #: ILU-only: coefficient snapshot to factorize/repack from.
    values: np.ndarray | None = None
    #: ILU-only: digest the served factors must have been built from.
    expect_digest: str | None = None
    #: Digest component of the coalescing key (``None`` for plan ops).
    group_digest: str | None = None


class SolveService:
    """Batched solve frontend over a :class:`PlanCache`.

    Parameters
    ----------
    cache:
        Plan cache to compile through (a private 8-plan cache by
        default).
    config:
        Default :class:`PlanConfig` for requests that do not pass one.
    max_batch:
        Largest RHS block width ``k`` a single kernel call may carry.
    max_pending:
        Bound on queued (submitted, not yet drained) requests.
    """

    def __init__(self, cache: PlanCache | None = None,
                 config: PlanConfig | None = None,
                 max_batch: int = 8, max_pending: int = 64,
                 resilience=None):
        self.cache = cache if cache is not None else PlanCache()
        self.config = config if config is not None else PlanConfig()
        self.max_batch = check_positive(max_batch, "max_batch")
        self.max_pending = check_positive(max_pending, "max_pending")
        #: Optional :class:`repro.resilience.fallback.FallbackChain`.
        #: ``None`` (the default) keeps the serve path byte-identical
        #: to a build without the resilience subsystem; when set, every
        #: solve goes through validation + the self-healing ladder and
        #: the chain's cache should be this service's cache.
        self.resilience = resilience
        self.session = SolverSession(n_workers=self.config.n_workers)
        self._lock = threading.Lock()
        self._closed = False
        self._pending: list[_Pending] = []
        self._ids = itertools.count()
        #: The service's tallies (``serve.*``, listed in
        #: ``docs/observability.md``); :meth:`stats` is a view over
        #: them, so they survive any number of :meth:`stats` calls and
        #: drain/requeue cycles.
        self.metrics = MetricsRegistry()
        self._submitted = self.metrics.counter(
            "serve.submitted", "requests accepted by submit()")
        self._completed = self.metrics.counter(
            "serve.completed", "requests finished with a solution")
        self._failed = self.metrics.counter(
            "serve.failed", "requests finished with an error")
        self._batches = self.metrics.counter(
            "serve.batches", "coalesced kernel batches executed")
        self._requeued = self.metrics.counter(
            "serve.requeued", "requests re-queued by a drain timeout")
        self._pending_gauge = self.metrics.gauge(
            "serve.pending", "requests submitted but not yet drained")
        self._batch_width = self.metrics.histogram(
            "serve.batch_width", WIDTH_EDGES,
            "RHS columns per executed batch")
        self._drain_seconds = self.metrics.histogram(
            "serve.drain_seconds", LATENCY_EDGES,
            "wall seconds per drain() call")

    # Submission ---------------------------------------------------------
    def submit(self, grid: StructuredGrid, stencil, rhs: np.ndarray,
               op: str = "lower",
               config: PlanConfig | None = None,
               deadline: float | None = None,
               values: np.ndarray | None = None,
               value_digest: str | None = None) -> SolveTicket:
        """Queue one request; returns its ticket.

        Shape and op validation happens here, synchronously, so a
        malformed request fails at the submission site instead of
        poisoning a batch. Raises :class:`Backpressure` when the
        pending queue is at ``max_pending``.

        ``deadline`` (seconds from now) bounds how stale the request
        may become: a request still queued when its deadline passes is
        failed with
        :class:`~repro.resilience.errors.DeadlineExceeded` at drain
        time instead of being executed.

        ``values``/``value_digest`` are legal only for
        ``op="ilu_apply"``: ``values`` is the coefficient snapshot the
        served factors must be built from (a structure hit with a
        different digest triggers the value-only repack path), while
        ``value_digest`` alone *declares* the expected snapshot — the
        request fails with
        :class:`~repro.resilience.errors.StaleValuesError` at drain
        time if the cached factors were built from anything else.
        """
        config = config if config is not None else self.config
        if op not in SERVICE_OPS:
            raise RequestError(
                f"unknown op {op!r}; known: {SERVICE_OPS}")
        if deadline is not None and deadline <= 0:
            raise RequestError(f"deadline must be > 0, got {deadline}")
        if op != "ilu_apply" and (values is not None
                                  or value_digest is not None):
            raise RequestError(
                "values/value_digest are only valid for op='ilu_apply'")
        rhs = np.asarray(rhs)
        if rhs.ndim != 1 or rhs.shape[0] != grid.n_points:
            raise RequestError(
                f"rhs must be ({grid.n_points},), got {rhs.shape}")
        if op == "ilu_apply":
            from repro.serve.ilu_plan import (
                ilu_structural_fingerprint,
                value_digest as _digest_of,
            )

            fp = ilu_structural_fingerprint(grid, stencil, config)
            if values is not None:
                values = np.asarray(values,
                                    dtype=config.np_dtype).reshape(-1)
                vd = _digest_of(values)
                if value_digest is not None and value_digest != vd:
                    raise RequestError(
                        "value_digest contradicts the provided values")
                value_digest = vd
        else:
            fp = structural_fingerprint(grid, stencil, config)
        ticket = SolveTicket(request_id=next(self._ids),
                             fingerprint=fp, op=op)
        entry = _Pending(ticket=ticket, grid=grid, stencil=stencil,
                         config=config,
                         rhs=rhs.astype(config.np_dtype, copy=True),
                         deadline_at=(time.monotonic() + deadline
                                      if deadline is not None else None),
                         deadline_seconds=deadline or 0.0,
                         values=values,
                         expect_digest=(value_digest if values is None
                                        else None),
                         group_digest=value_digest)
        with self._lock:
            if self._closed:
                raise ServiceClosed()
            if len(self._pending) >= self.max_pending:
                raise Backpressure(
                    f"{self.max_pending} requests pending; drain first")
            self._pending.append(entry)
            n_pending = len(self._pending)
        self._submitted.inc()
        self._pending_gauge.set(n_pending)
        trace.event("serve.submit", request_id=ticket.request_id,
                    op=op, fingerprint=fp[:12])
        return ticket

    @property
    def n_pending(self) -> int:
        with self._lock:
            return len(self._pending)

    # Execution ----------------------------------------------------------
    def drain(self, timeout: float | None = None) -> int:
        """Execute every pending request; returns how many completed.

        Requests are grouped by ``(fingerprint, op)`` — submission
        order is preserved inside a group — and each group is executed
        in ``max_batch``-wide RHS blocks through the structure's
        compiled plan.

        ``timeout`` bounds the whole drain: when the budget runs out
        between batches, the not-yet-executed requests are re-queued
        (a later ``drain`` picks them up, ahead of newer submissions)
        and :class:`~repro.resilience.errors.DrainTimeout` is raised
        naming them. Requests already executed stay executed.
        """
        deadline_at = (time.monotonic() + timeout
                       if timeout is not None else None)
        with self._lock:
            if self._closed:
                raise ServiceClosed()
            pending, self._pending = self._pending, []
            self._pending_gauge.set(len(self._pending))
        if not pending:
            return 0
        t_drain = time.perf_counter()
        try:
            with trace.span("serve.drain",
                            n_requests=len(pending)) as sp:
                n_done = self._drain_groups(pending, deadline_at,
                                            timeout, sp)
        finally:
            self._drain_seconds.observe(time.perf_counter() - t_drain)
        return n_done

    def _drain_groups(self, pending: list, deadline_at: float | None,
                      timeout: float | None, sp) -> int:
        groups: dict[tuple, list[_Pending]] = {}
        for entry in pending:
            # ILU requests also coalesce on the declared value digest:
            # two snapshots of the same structure must not share a
            # batch (each would need different factors).
            key = (entry.ticket.fingerprint, entry.ticket.op,
                   entry.group_digest)
            groups.setdefault(key, []).append(entry)
        n_done = 0
        work: list[tuple[object, str, list[bool], list[_Pending]]] = []
        leftover: list[_Pending] = []
        group_items = list(groups.items())
        for gi, ((fp, op, _vd), entries) in enumerate(group_items):
            if self._closed:
                # close() raced this drain: everything not yet
                # executed (staged batches included) fails typed.
                leftover.extend(e for _, _, _, chunk in work
                                for e in chunk)
                leftover.extend(entries)
                for _, rest in group_items[gi + 1:]:
                    leftover.extend(rest)
                self._fail_closed(leftover)
            if deadline_at is not None \
                    and time.monotonic() > deadline_at:
                # Out of budget before this group even compiled.
                # Earlier groups are staged in `work` but not executed
                # yet — they must be re-queued too, or their tickets
                # would never complete.
                leftover.extend(e for _, _, _, chunk in work
                                for e in chunk)
                leftover.extend(entries)
                for _, rest in group_items[gi + 1:]:
                    leftover.extend(rest)
                self._requeue_and_raise(timeout, leftover)
            trace.event("serve.coalesce", fingerprint=fp[:12], op=op,
                        n_requests=len(entries))
            # One cache transaction per request: the first may compile,
            # coalesced followers count (and are served) as hits — the
            # per-request hit rate is what the serve bench reports.
            try:
                lookups = [self._plan_for(e) for e in entries]
            except StaleValuesError as exc:
                # This group declared a value snapshot the cache cannot
                # honor; its tickets fail typed while every other group
                # (other structures, other snapshots) drains normally.
                trace.event("serve.stale_values", fingerprint=fp[:12],
                            n_requests=len(entries))
                for e in entries:
                    e.ticket._finish(None, exc)
                    self._failed.inc()
                continue
            plan = lookups[0][0]
            hits = [hit for _, hit in lookups]
            for lo in range(0, len(entries), self.max_batch):
                work.append((plan, op, hits[lo:lo + self.max_batch],
                             entries[lo:lo + self.max_batch]))
        for wi, (plan, op, hits, chunk) in enumerate(work):
            if self._closed:
                for _, _, _, rest in work[wi:]:
                    leftover.extend(rest)
                self._fail_closed(leftover)
            if deadline_at is not None \
                    and time.monotonic() > deadline_at:
                for _, _, _, rest in work[wi:]:
                    leftover.extend(rest)
                self._requeue_and_raise(timeout, leftover)
            n_done += self._run_batch(plan, hits, op, chunk)
        if sp is not None:
            sp.attrs["n_groups"] = len(group_items)
            sp.attrs["n_batches"] = len(work)
            sp.attrs["n_done"] = n_done
        return n_done

    def _fail_closed(self, leftover: list) -> None:
        """Fail unexecuted requests with :class:`ServiceClosed`."""
        ids = [e.ticket.request_id for e in leftover]
        for e in leftover:
            e.ticket._finish(None, ServiceClosed([e.ticket.request_id]))
            self._failed.inc()
        trace.event("serve.closed_drop", n_requests=len(leftover))
        raise ServiceClosed(ids)

    def _requeue_and_raise(self, timeout: float,
                           leftover: list) -> None:
        """Put unexecuted requests back (ahead of newer submissions)."""
        with self._lock:
            # Re-queueing into a closed service would leave these
            # tickets forever-pending; fail them typed instead.
            requeued = not self._closed
            if requeued:
                self._pending = leftover + self._pending
                self._pending_gauge.set(len(self._pending))
        if not requeued:
            self._fail_closed(leftover)
        self._requeued.inc(len(leftover))
        trace.event("serve.requeue", n_requests=len(leftover))
        raise DrainTimeout(timeout,
                           [e.ticket.request_id for e in leftover])

    def _plan_for(self, entry: _Pending) -> tuple[SolvePlan, bool]:
        with self.session.phase("compile"):
            if entry.ticket.op == "ilu_apply":
                return self.cache.get_or_compile_ilu(
                    entry.grid, entry.stencil, entry.config,
                    values=entry.values,
                    expect_digest=entry.expect_digest)
            return self.cache.get_or_compile(entry.grid, entry.stencil,
                                             entry.config)

    def _validate(self, plan: SolvePlan, entry: _Pending) -> None:
        """Drain-time per-request checks (cheap, isolates bad RHS)."""
        if entry.deadline_at is not None \
                and time.monotonic() > entry.deadline_at:
            raise DeadlineExceeded(entry.ticket.request_id,
                                   entry.deadline_seconds)
        if not np.all(np.isfinite(entry.rhs)):
            raise RequestError(
                f"request {entry.ticket.request_id}: non-finite rhs")

    def _run_batch(self, plan: SolvePlan, hits: list[bool], op: str,
                   entries: list[_Pending]) -> int:
        """Execute one coalesced batch with per-request isolation."""
        good: list[tuple[_Pending, bool]] = []
        for entry, hit in zip(entries, hits):
            try:
                self._validate(plan, entry)
            except BaseException as exc:  # noqa: BLE001 - per-request
                entry.ticket._finish(None, exc)
                self._failed.inc()
            else:
                good.append((entry, hit))
        if not good:
            return 0
        B = np.stack([e.rhs for e, _ in good], axis=1)
        k = len(good)
        t0 = time.perf_counter()
        try:
            with self.session.phase("solve"):
                X = self._execute(plan, op, B)
                counts = plan.op_counts(op, k)
                self.session.tally(counts)
        except BaseException:
            # A kernel-level failure cannot name its culprit; re-run
            # each request alone so only the offender fails.
            return self._run_individually(plan, op, good)
        seconds = time.perf_counter() - t0
        self._batches.inc()
        self._batch_width.observe(k)
        for j, (entry, hit) in enumerate(good):
            entry.ticket.metrics = self._request_metrics(
                plan, hit, op, k, seconds, counts)
            entry.ticket._finish(np.ascontiguousarray(X[:, j]))
            self._completed.inc()
        return k

    def _execute(self, plan: SolvePlan, op: str,
                 B: np.ndarray) -> np.ndarray:
        """One solve — native, or through the self-healing ladder."""
        if self.resilience is None:
            return plan.execute(op, B)
        return self.resilience.execute(plan, op, B).solution

    def _run_individually(self, plan: SolvePlan, op: str,
                          entries: list[tuple[_Pending, bool]]) -> int:
        n_done = 0
        for entry, hit in entries:
            t0 = time.perf_counter()
            try:
                with self.session.phase("solve"):
                    x = self._execute(plan, op, entry.rhs)
                    counts = plan.op_counts(op, 1)
                    self.session.tally(counts)
            except BaseException as exc:  # noqa: BLE001 - per-request
                entry.ticket._finish(None, exc)
                self._failed.inc()
                continue
            entry.ticket.metrics = self._request_metrics(
                plan, hit, op, 1, time.perf_counter() - t0, counts)
            entry.ticket._finish(x)
            self._completed.inc()
            n_done += 1
        return n_done

    def _request_metrics(self, plan: SolvePlan, cache_hit: bool,
                         op: str, k: int, batch_seconds: float,
                         counts) -> dict:
        """Per-request share of one batch's cost (``counts`` are the
        batch's closed-form op counts)."""
        return {
            "op": op,
            "fingerprint": plan.fingerprint,
            "batch_k": k,
            "cache_hit": cache_hit,
            "bsize": plan.bsize,
            "backend": plan._backend().name,
            "seconds": batch_seconds / k,
            "counts_per_solve": counter_to_dict(counts.scaled(1.0 / k)),
        }

    # Reporting ----------------------------------------------------------
    def stats(self) -> dict:
        """Service + cache counter snapshot.

        Every count is read from :attr:`metrics` — the dict is a view,
        not the store, so building it repeatedly (or across a
        ``drain(timeout=)`` requeue cycle) never resets anything.
        """
        snap = self.metrics.values("serve.")
        snap["batches_executed"] = snap.pop("batches")
        snap.update(
            pending=self.n_pending,
            max_batch=self.max_batch,
            max_pending=self.max_pending,
            cache=self.cache.stats(),
            phases=self.session.phase_report(),
            resilience=(self.resilience.stats()
                        if self.resilience is not None else None))
        return snap

    def close(self) -> None:
        """Shut the service down; never leaves a ticket pending.

        Queued requests (and, for a ``drain()`` racing this call, its
        staged-but-unexecuted batches) fail with a typed
        :class:`~repro.resilience.errors.ServiceClosed` carrying their
        request id, so a thread blocked in ``ticket.result()`` raises
        instead of waiting forever. Idempotent.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            pending, self._pending = self._pending, []
            self._pending_gauge.set(0)
        for entry in pending:
            entry.ticket._finish(
                None, ServiceClosed([entry.ticket.request_id]))
            self._failed.inc()
        if pending:
            trace.event("serve.closed_drop", n_requests=len(pending))
        if not already:
            self.session.close()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
