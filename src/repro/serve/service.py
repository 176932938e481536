"""Request-serving frontend: submit/drain with per-structure batching.

:class:`SolveService` is the traffic-facing layer on top of the plan
compiler and cache. Callers :meth:`~SolveService.submit` solve requests
(a grid + stencil structure, an op, and a right-hand side) and receive
a :class:`SolveTicket`; :meth:`~SolveService.drain` coalesces pending
requests **per structural fingerprint and op** into ``(n, k)`` RHS
blocks and executes them through the batched kernels of
:mod:`repro.serve.batch`, so the matrix values stream from memory once
per batch instead of once per request. :meth:`~SolveService.solve_block`
runs the same per-batch body on columns that need no queue.

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
from repro.serve import ilu_plan
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


def _request_key(grid: StructuredGrid, stencil, config: PlanConfig,
                 op: str, values) -> tuple:
    """``(fingerprint, values)`` of one request; ILU ``values`` come
    back normalized to the config dtype, unhashed.

    Raises :class:`RequestError` for an op outside :data:`SERVICE_OPS`,
    so gateway admission refuses it before any shard work.
    """
    if op not in SERVICE_OPS:
        raise RequestError(f"unknown op {op!r}; known: {SERVICE_OPS}")
    if op != "ilu_apply":
        return structural_fingerprint(grid, stencil, config), values
    fp = ilu_plan.ilu_structural_fingerprint(grid, stencil, config)
    if values is not None:
        values = np.asarray(values, dtype=config.np_dtype).reshape(-1)
    return fp, values


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
    #: ILU-only: digest the served factors must have been built from
    #: (that of ``values`` when given); part of the coalescing key.
    value_digest: str | None = None


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
            "serve.submitted",
            "columns accepted by submit() or solve_block()")
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
        if deadline is not None and deadline <= 0:
            raise RequestError(f"deadline must be > 0, got {deadline}")
        (rhs,) = self._check_request(grid, op, values, value_digest,
                                     [rhs])
        fp, values = _request_key(grid, stencil, config, op, values)
        if values is not None:
            # Drain coalesces ILU requests by digest, so the queue path
            # labels every snapshot at submission. The queue keeps a
            # read-only copy, so the label stays true of the bytes the
            # drain looks up, and the drain need not hash them again.
            values = values.copy()
            values.flags.writeable = False
            vd = ilu_plan.value_digest(values)
            if value_digest is not None and value_digest != vd:
                raise RequestError(
                    "value_digest contradicts the provided values")
            value_digest = vd
        ticket = SolveTicket(request_id=next(self._ids),
                             fingerprint=fp, op=op)
        entry = _Pending(ticket=ticket, grid=grid, stencil=stencil,
                         config=config,
                         rhs=rhs.astype(config.np_dtype, copy=True),
                         deadline_at=(time.monotonic() + deadline
                                      if deadline is not None else None),
                         deadline_seconds=deadline or 0.0,
                         values=values, value_digest=value_digest)
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

    @staticmethod
    def _check_request(grid: StructuredGrid, op: str, values,
                       value_digest, columns: list) -> list:
        """Request-wide checks of :meth:`submit` and
        :meth:`solve_block`; returns the columns as arrays."""
        if op not in SERVICE_OPS:
            raise RequestError(
                f"unknown op {op!r}; known: {SERVICE_OPS}")
        if op != "ilu_apply" and (values is not None
                                  or value_digest is not None):
            raise RequestError(
                "values/value_digest are only valid for op='ilu_apply'")
        columns = [np.asarray(col) for col in columns]
        for col in columns:
            if col.ndim != 1 or col.shape[0] != grid.n_points:
                raise RequestError(
                    f"rhs must be ({grid.n_points},), got {col.shape}")
        return columns

    @property
    def n_pending(self) -> int:
        with self._lock:
            return len(self._pending)

    # Block entry --------------------------------------------------------
    def solve_block(self, grid: StructuredGrid, stencil, columns: list,
                    op: str, config: PlanConfig | None = None,
                    values: np.ndarray | None = None,
                    value_digest: str | None = None) -> list:
        """Solve ``columns`` (1-D right-hand sides of one structure)
        now; returns one solution *or exception* per column.

        A ``submit`` per column plus a ``drain``, minus the queue: one
        cache lookup, one private ``(n, k)`` copy, drain's per-batch
        body. A non-finite column fails alone, a ``StaleValuesError``
        fails all; a bad op or shape, a closed service or a failed
        compile raise.
        """
        config = config if config is not None else self.config
        columns = self._check_request(grid, op, values, value_digest,
                                      columns)
        if self._closed:
            raise ServiceClosed()
        k = len(columns)
        self._submitted.inc(k)
        with trace.span("serve.block", op=op, k=k) as sp:
            try:
                plan, _ = self._lookup(grid, stencil, config, op,
                                       values, value_digest)
            except StaleValuesError as exc:
                trace.event("serve.stale_values",
                            fingerprint=exc.fingerprint[:12],
                            n_requests=k)
                self._failed.inc(k)
                return [exc] * k
            if sp is not None:
                sp.attrs["fingerprint"] = plan.fingerprint[:12]
            B = np.stack(columns, axis=1).astype(config.np_dtype,
                                                 copy=False)
            return [out if isinstance(out, BaseException) else out[0]
                    for out in self._run_columns(plan, op, B)]

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
                   entry.value_digest)
            groups.setdefault(key, []).append(entry)
        group_items = list(groups.items())
        # Every group compiles before any batch runs, so a close() or a
        # spent budget noticed between groups must also hand back the
        # batches already staged in `work`.
        work: list[tuple[SolvePlan, str, list[bool], list[_Pending]]] = []
        for gi, ((fp, op, _vd), entries) in enumerate(group_items):
            self._interrupt(deadline_at, timeout, lambda: [
                e for *_, batch in work for e in batch] + [
                e for _, rest in group_items[gi:] for e in rest])
            trace.event("serve.coalesce", fingerprint=fp[:12], op=op,
                        n_requests=len(entries))
            # One cache transaction per request: the first may compile,
            # coalesced followers count (and are served) as hits — the
            # per-request hit rate is what the serve bench reports.
            # A digest the queue made itself from a request's values is
            # not declared to the cache: the values decide.
            try:
                lookups = [self._lookup(e.grid, e.stencil, e.config, op,
                                        e.values,
                                        e.value_digest if e.values is None
                                        else None)
                           for e in entries]
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
            plan, hits = lookups[0][0], [hit for _, hit in lookups]
            for lo in range(0, len(entries), self.max_batch):
                work.append((plan, op, hits[lo:lo + self.max_batch],
                             entries[lo:lo + self.max_batch]))
        n_done = 0
        for wi, (plan, op, hits, batch) in enumerate(work):
            self._interrupt(deadline_at, timeout, lambda: [
                e for *_, rest in work[wi:] for e in rest])
            n_done += self._run_batch(plan, hits, op, batch)
        if sp is not None:
            sp.attrs["n_groups"] = len(group_items)
            sp.attrs["n_batches"] = len(work)
            sp.attrs["n_done"] = n_done
        return n_done

    def _interrupt(self, deadline_at: float | None,
                   timeout: float | None, unexecuted) -> None:
        """Between drain steps: after a racing close() the
        ``unexecuted()`` requests fail with :class:`ServiceClosed`; past
        the ``timeout`` budget they are re-queued ahead of newer
        submissions and :class:`DrainTimeout` names them."""
        if not self._closed and (deadline_at is None
                                 or time.monotonic() <= deadline_at):
            return
        leftover = unexecuted()
        ids = [e.ticket.request_id for e in leftover]
        with self._lock:
            # Re-queueing into a closed service would leave these
            # tickets forever-pending; fail them typed instead.
            closed = self._closed
            if not closed:
                self._pending = leftover + self._pending
                self._pending_gauge.set(len(self._pending))
        if closed:
            self._fail_closed(leftover)
            raise ServiceClosed(ids)
        self._requeued.inc(len(leftover))
        trace.event("serve.requeue", n_requests=len(leftover))
        raise DrainTimeout(timeout, ids)

    def _fail_closed(self, leftover: list) -> None:
        """Fail unexecuted requests with :class:`ServiceClosed`."""
        for e in leftover:
            e.ticket._finish(None, ServiceClosed([e.ticket.request_id]))
        self._failed.inc(len(leftover))
        if leftover:
            trace.event("serve.closed_drop", n_requests=len(leftover))

    def _lookup(self, grid: StructuredGrid, stencil, config: PlanConfig,
                op: str, values, expect_digest) -> tuple[SolvePlan, bool]:
        """One cache transaction: ``(plan, was_hit)``."""
        with self.session.phase("compile"):
            if op == "ilu_apply":
                return self.cache.get_or_compile_ilu(
                    grid, stencil, config, values=values,
                    expect_digest=expect_digest)
            return self.cache.get_or_compile(grid, stencil, config)

    def _run_batch(self, plan: SolvePlan, hits: list[bool], op: str,
                   entries: list[_Pending]) -> int:
        """Execute one coalesced batch of tickets: expired requests
        fail here, the rest go through :meth:`_run_columns`."""
        live: list[tuple[_Pending, bool]] = []
        for entry, hit in zip(entries, hits):
            if entry.deadline_at is not None \
                    and time.monotonic() > entry.deadline_at:
                entry.ticket._finish(None, DeadlineExceeded(
                    entry.ticket.request_id, entry.deadline_seconds))
                self._failed.inc()
            else:
                live.append((entry, hit))
        if not live:
            return 0
        outs = self._run_columns(
            plan, op, np.stack([e.rhs for e, _ in live], axis=1))
        for (entry, hit), out in zip(live, outs):
            if isinstance(out, BaseException):
                entry.ticket._finish(None, out)
                continue
            # The request's share of its batch's time and op counts.
            x, k, seconds, counts = out
            entry.ticket.metrics = {
                "op": op,
                "fingerprint": plan.fingerprint,
                "batch_k": k,
                "cache_hit": hit,
                "bsize": plan.bsize,
                "backend": plan._backend().name,
                "seconds": seconds / k,
                "counts_per_solve": counter_to_dict(
                    counts.scaled(1.0 / k)),
            }
            entry.ticket._finish(x)
        return sum(not isinstance(out, BaseException) for out in outs)

    def _run_columns(self, plan: SolvePlan, op: str,
                     B: np.ndarray) -> list:
        """Run ``B``'s columns through ``plan`` ``max_batch`` at a time;
        per column ``(x, batch_k, batch_seconds, batch_counts)`` or its
        exception. A non-finite column fails alone; a slice whose
        kernel raises cannot name its culprit, so it re-runs by column.
        """
        finite = np.isfinite(B).all(axis=0)
        out: list = [None if ok else RequestError("non-finite rhs")
                     for ok in finite]
        good = np.flatnonzero(finite)
        B = B if good.size == B.shape[1] else B[:, good]
        for lo in range(0, good.size, self.max_batch):
            results = self._run_slice(plan, op, B[:, lo:lo + self.max_batch])
            for j, res in zip(good[lo:lo + self.max_batch], results):
                out[j] = res
        failed = sum(isinstance(res, BaseException) for res in out)
        self._failed.inc(failed)
        self._completed.inc(len(out) - failed)
        return out

    def _run_slice(self, plan: SolvePlan, op: str,
                   S: np.ndarray) -> list:
        """One kernel call over a ``(n, k)`` slice; on a kernel error,
        one call per column instead."""
        k = S.shape[1]
        try:
            X, seconds, counts = self._kernel(plan, op, S, k)
        except BaseException:
            return [self._run_one(plan, op, S[:, j]) for j in range(k)]
        self._batches.inc()
        self._batch_width.observe(k)
        return [(np.ascontiguousarray(X[:, j]), k, seconds, counts)
                for j in range(k)]

    def _run_one(self, plan: SolvePlan, op: str, rhs: np.ndarray):
        try:
            x, seconds, counts = self._kernel(plan, op, rhs, 1)
        except BaseException as exc:  # noqa: BLE001 - per-column
            return exc
        return x, 1, seconds, counts

    def _kernel(self, plan: SolvePlan, op: str, B: np.ndarray,
                k: int) -> tuple:
        """One timed, tallied kernel call: ``(X, seconds, counts)``."""
        t0 = time.perf_counter()
        with self.session.phase("solve"):
            X = self._execute(plan, op, B)
            counts = plan.op_counts(op, k)
            self.session.tally(counts)
        return X, time.perf_counter() - t0, counts

    def _execute(self, plan: SolvePlan, op: str,
                 B: np.ndarray) -> np.ndarray:
        """One solve — native, or through the self-healing ladder."""
        if self.resilience is None:
            return plan.execute(op, B)
        return self.resilience.execute(plan, op, B).solution

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
        self._fail_closed(pending)
        if not already:
            self.session.close()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
