"""Async streaming front door over the synchronous solve engine.

:class:`SolveGateway` is the asyncio-native admission + placement
layer in front of :class:`~repro.serve.service.SolveService`:

* **submit** is a coroutine that either *accepts* a request — returning
  a :class:`GatewayTicket` immediately — or *rejects* it with a typed
  :class:`~repro.gateway.errors.AdmissionRejected` before any queue
  slot is taken or any plan compiled. Deadline feasibility is judged by
  :class:`~repro.gateway.estimator.ServiceTimeEstimator` (analytic op
  counts calibrated by live EWMAs), so a hopeless request costs O(1).
* **fairness** — accepted work lands in the per-tenant
  :class:`~repro.gateway.queues.FairScheduler`; the dispatch loop
  serves tenants by stride scheduling under per-tenant quotas.
* **streaming** — a multi-RHS request is split into
  ``stream_chunk``-column chunks, each resolving its columns'
  ``asyncio.Future`` as the chunk completes; ``ticket.stream()`` yields
  finished columns while later chunks are still queued or executing.
* **elasticity** — chunks execute on
  :class:`~repro.gateway.pool.ElasticShardPool` workers via
  ``asyncio.to_thread``; the pool scales against queue depth with
  hysteresis and warm-drains shards on the way down.

The synchronous engine is composed, never modified: every numeric
result is produced by the same ``submit → drain`` path direct callers
use, so gatewayed solves are bit-identical to direct ones.
"""

from __future__ import annotations

import asyncio
import itertools
import time

import numpy as np

from repro.gateway.errors import (AdmissionRejected, BrownoutShed,
                                  GatewayClosed, QuotaExceeded)
from repro.gateway.estimator import Ewma, ServiceTimeEstimator
from repro.gateway.pool import ElasticShardPool
from repro.gateway.queues import FairScheduler, TenantQuota
from repro.observe import trace
from repro.observe.metrics import (LATENCY_EDGES, WIDTH_EDGES,
                                   MetricsRegistry)
from repro.resilience.errors import (NON_RECOVERABLE_ERRORS,
                                     DeadlineExceeded)
from repro.serve.plan import (PlanConfig, _resolve_stencil,
                              structural_fingerprint)
from repro.serve.service import SolveService
from repro.utils.validation import check_positive


class _Chunk:
    """One dispatchable unit: a few columns of one request."""

    __slots__ = ("ticket", "cols", "columns")

    def __init__(self, ticket: "GatewayTicket", cols: list,
                 columns: list):
        self.ticket = ticket
        self.cols = cols          # column indices into the ticket
        self.columns = columns    # the RHS vectors themselves


class GatewayTicket:
    """Handle for one accepted request; resolves column by column.

    Each RHS column has its own ``asyncio.Future``. ``result()`` awaits
    the full solution; ``stream()`` yields ``(column_index, x)`` pairs
    in completion order, so callers see partial results while the rest
    of the batch is still queued or executing.
    """

    def __init__(self, request_id: int, tenant: str, op: str, k: int,
                 fingerprint: str, deadline: float | None,
                 estimate: dict, single: bool):
        self.request_id = request_id
        self.tenant = tenant
        self.op = op
        self.k = k
        self.fingerprint = fingerprint
        self.deadline_seconds = deadline
        self.deadline_at = (None if deadline is None
                            else time.monotonic() + float(deadline))
        self._work = None  # (grid, stencil, config), set by the gateway
        #: Admission-time service estimate (breakdown dict).
        self.estimate = estimate
        self._single = single
        loop = asyncio.get_running_loop()
        self.futures = [loop.create_future() for _ in range(k)]

    @property
    def done(self) -> bool:
        return all(f.done() for f in self.futures)

    @property
    def columns_done(self) -> int:
        return sum(1 for f in self.futures if f.done())

    async def result(self) -> np.ndarray:
        """Await the full solution (1-D for a single RHS, else (n, k)).

        Raises the first per-column failure, like the sync ticket.
        """
        cols = await asyncio.gather(*self.futures)
        if self._single:
            return cols[0]
        return np.stack(cols, axis=1)

    async def stream(self):
        """Async-iterate ``(column_index, x_column)`` as columns finish.

        A failed column raises from its position in completion order;
        already-finished columns before it are yielded first.
        """
        pending = {f: i for i, f in enumerate(self.futures)}
        while pending:
            finished, _ = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED)
            # Deterministic tiebreak when several finish together.
            for fut in sorted(finished, key=pending.get):
                idx = pending.pop(fut)
                yield idx, fut.result()


class SolveGateway:
    """Deadline-aware, multi-tenant async front door.

    Parameters
    ----------
    service_factory:
        Builds one shard's synchronous service; defaults to
        ``SolveService(config=config)`` so each shard owns a private
        :class:`~repro.serve.cache.PlanCache`.
    config:
        Default :class:`~repro.serve.plan.PlanConfig` for requests that
        pass none.
    stream_chunk:
        Columns per dispatch unit. Smaller streams sooner; larger
        amortizes better (each chunk is one coalesced multi-RHS batch).
    default_quota / quotas:
        Per-tenant admission limits and fair-share weights.
    admission_slack:
        Deadline feasibility margin: reject when
        ``estimate > deadline * admission_slack``. ``1.0`` trusts the
        estimate; ``< 1.0`` keeps headroom.
    min_shards .. cooldown:
        Forwarded to :class:`~repro.gateway.pool.ElasticShardPool`.
    supervisor, hedge, retry, brownout:
        Optional supervision-tier policies (:mod:`repro.supervise`):
        a :class:`~repro.supervise.supervisor.ShardSupervisor` for
        canary-probed quarantine/restart of failed shards, a
        :class:`~repro.supervise.hedge.HedgePolicy` for straggler
        hedging (duplicate a slow chunk onto a spare shard, first
        result wins — safe because chunks are bit-identical across
        shards), a :class:`~repro.supervise.backoff.Backoff` for
        bounded re-dispatch after recoverable shard failures (at most
        ``max_attempts`` retries per chunk), and a
        :class:`~repro.supervise.brownout.BrownoutController` for
        staged overload shedding. All default to ``None`` — the
        unsupervised gateway behaves exactly as before.
    """

    def __init__(self, service_factory=None, *,
                 config: PlanConfig | None = None,
                 stream_chunk: int = 2,
                 default_quota: TenantQuota | None = None,
                 quotas: dict | None = None,
                 admission_slack: float = 1.0,
                 estimator: ServiceTimeEstimator | None = None,
                 metrics: MetricsRegistry | None = None,
                 min_shards: int = 1, max_shards: int = 4,
                 high_water: float = 4.0, low_water: float = 1.0,
                 up_patience: int = 2, down_patience: int = 3,
                 cooldown: int = 2,
                 supervisor=None, hedge=None, retry=None,
                 brownout=None):
        self.config = config if config is not None else PlanConfig()
        if service_factory is None:
            cfg = self.config
            service_factory = lambda: SolveService(config=cfg)  # noqa: E731
        self.stream_chunk = check_positive(stream_chunk,
                                           "stream_chunk")
        self.admission_slack = float(admission_slack)
        self.estimator = (estimator if estimator is not None
                          else ServiceTimeEstimator())
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.scheduler = FairScheduler(default_quota)
        for name, quota in (quotas or {}).items():
            self.scheduler.set_quota(name, quota)
        self.pool = ElasticShardPool(
            service_factory, min_shards=min_shards,
            max_shards=max_shards, high_water=high_water,
            low_water=low_water, up_patience=up_patience,
            down_patience=down_patience, cooldown=cooldown,
            metrics=self.metrics)
        self.supervisor = supervisor
        if supervisor is not None:
            supervisor.bind(self.pool)
        self.hedge = hedge
        self.retry = retry
        self.brownout = brownout
        # Mean wall seconds per executed chunk; the queue-wait signal
        # the brownout controller watches is backlog × this / shards.
        self._chunk_ewma = Ewma(0.3)
        self._ids = itertools.count()
        self._closed = False
        self._wake = asyncio.Event()
        self._quiesced = asyncio.Event()
        self._quiesced.set()
        self._outstanding = 0  # accepted chunks not yet finished
        self._dispatcher: asyncio.Task | None = None
        self._tasks: set = set()
        self._warm: set = set()  # fingerprints with queued/past work
        # Last accepted ILU value digest per fingerprint: a warm
        # structure arriving with a *different* digest takes the
        # value-only repack path, priced by the refresh EWMA.
        self._value_digests: dict[str, str] = {}
        self._accepted = self.metrics.counter(
            "gateway.accepted", "requests admitted")
        self._rejected = self.metrics.counter(
            "gateway.rejected", "requests refused at admission")
        self._completed = self.metrics.counter(
            "gateway.completed", "columns solved")
        self._failed = self.metrics.counter(
            "gateway.failed", "columns failed")
        self._expired = self.metrics.counter(
            "gateway.expired", "columns expired before dispatch")
        self._retries = self.metrics.counter(
            "gateway.retries", "chunk re-dispatches after "
            "recoverable shard failures")
        self._hedges = self.metrics.counter(
            "gateway.hedges", "straggler chunks duplicated onto a "
            "spare shard")
        self._hedge_wins = self.metrics.counter(
            "gateway.hedge_wins", "hedged chunks won by the backup")
        self._sheds = self.metrics.counter(
            "gateway.sheds", "admissions refused by overload brownout")
        self._depth_gauge = self.metrics.gauge(
            "gateway.queue_depth", "chunks queued across tenants")
        self._latency = self.metrics.histogram(
            "gateway.chunk_seconds", LATENCY_EDGES,
            "wall seconds per executed chunk")
        self._width = self.metrics.histogram(
            "gateway.request_width", WIDTH_EDGES,
            "RHS columns per accepted request")

    # Tenant bookkeeping -------------------------------------------------
    _TENANT_HELP = {"accepted": "requests admitted, per tenant",
                    "rejected": "requests refused at admission, per tenant",
                    "completed": "columns solved, per tenant"}

    def _tenant_counter(self, tenant: str, which: str):
        """``gateway.tenant.<which>``, one series per ``tenant`` label."""
        return self.metrics.counter(
            f"gateway.tenant.{which}", self._TENANT_HELP[which],
            labels={"tenant": tenant})

    # Admission ----------------------------------------------------------
    async def submit(self, grid, stencil, rhs, op: str = "lower",
                     config: PlanConfig | None = None,
                     tenant: str = "default",
                     deadline: float | None = None,
                     values=None,
                     value_digest: str | None = None) -> GatewayTicket:
        """Admit one request (or refuse it) and enqueue its chunks.

        Returns a :class:`GatewayTicket` whose column futures resolve
        as chunks complete. Raises :class:`AdmissionRejected` (deadline
        infeasible), :class:`QuotaExceeded` (tenant limits) or
        :class:`GatewayClosed` — all *before* any engine work.

        ``values``/``value_digest`` (``op="ilu_apply"`` only) carry the
        coefficient snapshot: a warm structure with a changed digest is
        charged the repack EWMA, not the cold-compile one.
        """
        if self._closed:
            raise GatewayClosed("submit after close")
        config = config if config is not None else self.config
        stencil = _resolve_stencil(stencil)
        rhs = np.asarray(rhs)
        single = rhs.ndim == 1
        columns = [rhs] if single else \
            [np.ascontiguousarray(rhs[:, j])
             for j in range(rhs.shape[1])]
        k = len(columns)
        if op == "ilu_apply":
            from repro.serve.ilu_plan import (
                ilu_structural_fingerprint,
                value_digest as _digest_of,
            )

            fingerprint = ilu_structural_fingerprint(grid, stencil,
                                                     config)
            if values is not None:
                values = np.asarray(
                    values, dtype=config.np_dtype).reshape(-1)
                value_digest = _digest_of(values)
        else:
            fingerprint = structural_fingerprint(grid, stencil, config)
        request_id = next(self._ids)
        with trace.span("gateway.admit", tenant=tenant, op=op, k=k,
                        fingerprint=fingerprint[:12]):
            if self.brownout is not None:
                self._observe_brownout()
                if self.brownout.should_shed(
                        self.scheduler.weight(tenant)):
                    wait = self.brownout.last_wait
                    self._rejected.inc()
                    self._sheds.inc()
                    self._tenant_counter(tenant, "rejected").inc()
                    trace.event("gateway.brownout_shed",
                                tenant=tenant,
                                stage=self.brownout.stage,
                                queue_wait=wait)
                    raise BrownoutShed(
                        tenant, self.brownout.retry_after(wait),
                        stage=self.brownout.stage, queue_wait=wait)
            cold = (fingerprint not in self._warm
                    and not self.pool.has_plan(fingerprint))
            warm_refresh = (not cold and value_digest is not None
                            and self._value_digests.get(fingerprint)
                            not in (None, value_digest))
            estimate = self.estimator.estimate(
                grid, stencil, config, op, k, fingerprint, cold=cold,
                backlog_chunks=self.scheduler.depth
                + self.scheduler.in_flight,
                n_shards=self.pool.n_shards,
                warm_refresh=warm_refresh)
            if deadline is not None and \
                    estimate["total_seconds"] \
                    > float(deadline) * self.admission_slack:
                self._rejected.inc()
                self._tenant_counter(tenant, "rejected").inc()
                trace.event("gateway.reject", tenant=tenant,
                            reason="deadline", deadline=deadline,
                            estimate=estimate["total_seconds"])
                raise AdmissionRejected(
                    f"estimated {estimate['total_seconds']:.3g}s "
                    f"({estimate['source']}) exceeds the {deadline:g}s "
                    f"deadline", tenant=tenant, reason="deadline",
                    estimate=estimate)
            ticket = GatewayTicket(
                request_id, tenant, op, k, fingerprint,
                deadline=deadline, estimate=estimate, single=single)
            chunk_size = (self.stream_chunk if self.brownout is None
                          else self.brownout.effective_chunk(
                              self.stream_chunk))
            chunks = []
            for start in range(0, k, chunk_size):
                cols = list(range(start,
                                  min(start + chunk_size, k)))
                chunks.append(_Chunk(
                    ticket, cols, [columns[i] for i in cols]))
            ticket._work = (grid, stencil, config)
            ticket._values = values
            ticket._value_digest = value_digest
            try:
                self.scheduler.push_many(tenant, chunks)
            except QuotaExceeded:
                self._rejected.inc()
                self._tenant_counter(tenant, "rejected").inc()
                trace.event("gateway.reject", tenant=tenant,
                            reason="quota")
                raise
        self._warm.add(fingerprint)
        if value_digest is not None:
            self._value_digests[fingerprint] = value_digest
        self._accepted.inc()
        self._tenant_counter(tenant, "accepted").inc()
        self._width.observe(k)
        self._outstanding += len(chunks)
        self._quiesced.clear()
        depth = self.scheduler.depth
        self._depth_gauge.set(depth)
        trace.event("gateway.enqueue", tenant=tenant,
                    request_id=request_id, chunks=len(chunks),
                    queue_depth=depth)
        self.pool.observe(depth)
        self._ensure_started()
        self._wake.set()
        return ticket

    # Dispatch -----------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop() \
                .create_task(self._dispatch_loop())

    async def _dispatch_loop(self) -> None:
        while not self._closed:
            await self._wake.wait()
            self._wake.clear()
            while not self._closed:
                popped = self.scheduler.pop()
                if popped is None:
                    break
                tenant, chunk = popped
                self._depth_gauge.set(self.scheduler.depth)
                trace.event("gateway.dequeue", tenant=tenant,
                            request_id=chunk.ticket.request_id,
                            cols=chunk.cols)
                shard = await self.pool.acquire()
                task = asyncio.get_running_loop().create_task(
                    self._run_chunk(tenant, chunk, shard))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)

    def _resolve(self, chunk: _Chunk, results: list) -> None:
        for idx, res in zip(chunk.cols, results):
            fut = chunk.ticket.futures[idx]
            if fut.done():
                continue
            if isinstance(res, BaseException):
                fut.set_exception(res)
                self._failed.inc()
            else:
                fut.set_result(res)
                self._completed.inc()

    def _queue_wait_estimate(self) -> float:
        """Estimated seconds a new chunk would wait behind the
        backlog: ``(queued + in_flight) × chunk_EWMA / shards``."""
        depth = self.scheduler.depth + self.scheduler.in_flight
        per = self._chunk_ewma.value
        if depth == 0 or per is None:
            return 0.0
        return depth * per / max(1, self.pool.n_shards)

    def _observe_brownout(self) -> None:
        before = self.brownout.stage
        stage = self.brownout.observe(self._queue_wait_estimate())
        if stage != before:
            trace.event("gateway.brownout_stage", stage=stage,
                        was=before,
                        queue_wait=self.brownout.last_wait)

    async def _run_chunk(self, tenant: str, chunk: _Chunk,
                         shard) -> None:
        ticket = chunk.ticket
        try:
            if self._closed:
                self._resolve(chunk, [GatewayClosed("cancelled")
                                      for _ in chunk.cols])
                await self.pool.release(shard)
                return
            now = time.monotonic()
            if ticket.deadline_at is not None \
                    and now > ticket.deadline_at:
                # Expired while queued: fail without engine work, same
                # typed error the sync path uses.
                err = DeadlineExceeded(ticket.request_id,
                                       ticket.deadline_seconds)
                self._expired.inc(len(chunk.cols))
                trace.event("gateway.expired", tenant=tenant,
                            request_id=ticket.request_id,
                            cols=chunk.cols)
                self._resolve(chunk, [err for _ in chunk.cols])
                await self.pool.release(shard)
                return
            attempt = 0
            current = shard
            while True:
                try:
                    results = await self._hedged_attempt(
                        tenant, chunk, current)
                    break
                except asyncio.CancelledError:
                    raise
                except NON_RECOVERABLE_ERRORS:
                    # PR-6 contract: never retried, never hedged
                    # around — surface to the columns.
                    raise
                except BaseException as exc:  # noqa: BLE001
                    attempt += 1
                    if (self.retry is None or self._closed
                            or attempt > self.retry.max_attempts):
                        raise
                    self._retries.inc()
                    trace.event("gateway.retry", tenant=tenant,
                                request_id=ticket.request_id,
                                attempt=attempt,
                                error=type(exc).__name__)
                    await asyncio.sleep(self.retry.delay(attempt))
                    current = await self.pool.acquire()
            self._resolve(chunk, results)
            self._tenant_counter(tenant, "completed").inc(
                len(chunk.cols))
        except BaseException as exc:  # noqa: BLE001 - fail the columns
            self._resolve(chunk, [exc for _ in chunk.cols])
        finally:
            # Shard disposition happened inside the attempt (release,
            # reap, or supervisor hand-off) — never here.
            self.scheduler.finish(tenant)
            self._outstanding -= 1
            if self._outstanding == 0:
                self._quiesced.set()
            if self.brownout is not None:
                self._observe_brownout()
            self.pool.observe(self.scheduler.depth)
            self._wake.set()

    async def _attempt(self, tenant: str, chunk: _Chunk, shard,
                       hedge_of: int | None = None) -> tuple:
        """Execute ``chunk`` on ``shard``; owns the shard's fate.

        On success the shard is released (healthy path) and
        ``(results, wall_seconds)`` returned; on failure the shard is
        disposed via :meth:`_dispose_failed` — released (reaping it if
        defunct) or handed to the supervisor for a canary probe — and
        the error re-raised. Callers never touch the shard again.
        """
        ticket = chunk.ticket
        grid, stencil, config = ticket._work
        kk = len(chunk.cols)
        try:
            with trace.span("gateway.execute", tenant=tenant,
                            request_id=ticket.request_id, k=kk,
                            shard=shard.index, op=ticket.op,
                            hedge_of=hedge_of):
                before = shard.cache_tallies()
                t0 = time.monotonic()
                results = await asyncio.to_thread(
                    shard.execute, grid, stencil, ticket.op, config,
                    chunk.columns,
                    getattr(ticket, "_values", None),
                    getattr(ticket, "_value_digest", None))
                dt = time.monotonic() - t0
                after = shard.cache_tallies()
        except BaseException as exc:
            await self._dispose_failed(shard, exc)
            raise
        self._latency.observe(dt)
        spent = {k: after.get(k, 0) - before.get(k, 0)
                 for k in ("compiles", "compile_seconds", "refreshes",
                           "refresh_seconds")}
        if spent["compiles"]:
            self.estimator.observe_compile(spent["compile_seconds"])
        if spent["refreshes"]:
            self.estimator.observe_compile(spent["refresh_seconds"],
                                           kind="refresh")
        exec_seconds = max(1e-9, dt - spent["compile_seconds"]
                           - spent["refresh_seconds"])
        self.estimator.observe(
            ticket.fingerprint, ticket.op, exec_seconds, k=kk,
            model_seconds=self.estimator.model_seconds(
                grid, stencil, config, ticket.op, kk))
        await self.pool.release(shard)
        return results, dt

    async def _dispose_failed(self, shard,
                              exc: BaseException) -> None:
        """Decide a failed shard's fate: cancellation isn't the
        shard's fault (plain release); otherwise let the supervisor
        probe it, or fall back to ``release`` (which reaps defunct
        shards on its own)."""
        if isinstance(exc, asyncio.CancelledError) \
                or self.supervisor is None:
            await self.pool.release(shard)
        else:
            await self.supervisor.handle_failure(shard, exc)

    def _record_chunk_time(self, dt: float) -> None:
        self._chunk_ewma.update(dt)
        if self.hedge is not None:
            self.hedge.record(dt)

    def _adopt_background(self, task: asyncio.Task) -> None:
        """Track a losing hedge attempt until it finishes on its own.

        Losers are never cancelled: ``asyncio.to_thread`` work cannot
        be interrupted, and the attempt must run to completion so its
        shard is released (or reaped) cleanly. Its exception (if any)
        is retrieved to keep the loop warning-free.
        """
        self._tasks.add(task)

        def _reap_loser(t: asyncio.Task) -> None:
            self._tasks.discard(t)
            if not t.cancelled():
                t.exception()

        task.add_done_callback(_reap_loser)

    async def _hedged_attempt(self, tenant: str, chunk: _Chunk,
                              shard) -> list:
        """One chunk attempt, possibly raced against a backup shard.

        If the primary straggles past the hedge delay *and* a spare
        shard is idle, the chunk is duplicated; the first successful
        result wins (bit-identical either way) and the loser finishes
        in the background. With no hedge policy, a cold latency
        distribution, or no spare capacity this degenerates to a plain
        single-shard attempt.
        """
        delay = None if self.hedge is None else self.hedge.delay()
        if delay is None:
            results, dt = await self._attempt(tenant, chunk, shard)
            self._record_chunk_time(dt)
            return results
        loop = asyncio.get_running_loop()
        primary = loop.create_task(
            self._attempt(tenant, chunk, shard))
        done, _ = await asyncio.wait({primary}, timeout=delay)
        if primary in done:
            results, dt = primary.result()
            self._record_chunk_time(dt)
            return results
        backup_shard = self.pool.try_acquire()
        if backup_shard is None:
            # No spare capacity: hedging must never queue duplicate
            # work behind real work.
            results, dt = await primary
            self._record_chunk_time(dt)
            return results
        self._hedges.inc()
        trace.event("gateway.hedge", tenant=tenant,
                    request_id=chunk.ticket.request_id,
                    primary=shard.index, backup=backup_shard.index,
                    delay=delay)
        backup = loop.create_task(
            self._attempt(tenant, chunk, backup_shard,
                          hedge_of=shard.index))
        pending = {primary, backup}
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED)
            # Deterministic tiebreak: prefer the primary when both
            # land in the same wake-up.
            for task in sorted(done,
                               key=lambda t: 0 if t is primary else 1):
                if task.exception() is not None:
                    continue
                results, dt = task.result()
                self._record_chunk_time(dt)
                if task is backup:
                    self._hedge_wins.inc()
                    trace.event("gateway.hedge_win", tenant=tenant,
                                request_id=chunk.ticket.request_id,
                                backup=backup_shard.index)
                for loser in pending:
                    self._adopt_background(loser)
                return results
        # Both attempts failed; shards were disposed by _attempt.
        # Surface the primary's error (the retry loop may re-dispatch).
        raise primary.exception()

    # Convenience --------------------------------------------------------
    async def solve(self, grid, stencil, rhs, **kwargs) -> np.ndarray:
        """Submit and await one request end to end."""
        ticket = await self.submit(grid, stencil, rhs, **kwargs)
        return await ticket.result()

    def poll(self) -> None:
        """Feed the scaling controller one idle observation.

        Benchmarks and tests call this to drive scale-*down* while no
        traffic is arriving (the controller otherwise only sees depth
        samples on submit/completion). The brownout controller gets
        the same idle samples, so recovery back toward ``normal``
        does not require fresh traffic.
        """
        self.pool.observe(self.scheduler.depth)
        if self.brownout is not None:
            self._observe_brownout()

    async def join(self) -> None:
        """Await until every accepted chunk has resolved."""
        await self._quiesced.wait()

    # Shutdown -----------------------------------------------------------
    async def close(self) -> None:
        """Refuse new work, fail queued chunks, await in-flight ones.

        Queued-but-undispatched columns resolve to
        :class:`GatewayClosed`; chunks already executing finish
        normally (their futures resolve with real results).
        """
        if self._closed:
            return
        self._closed = True
        self._wake.set()
        dropped = self.scheduler.drain_all()
        for _tenant, chunk in dropped:
            self._resolve(chunk, [GatewayClosed("queued at shutdown")
                                  for _ in chunk.cols])
            self._outstanding -= 1
        if self._outstanding == 0:
            self._quiesced.set()
        if dropped:
            trace.event("gateway.closed_drop", n_chunks=len(dropped))
        if self._dispatcher is not None:
            await self._dispatcher
        if self._tasks:
            await asyncio.gather(*self._tasks,
                                 return_exceptions=True)
        if self.supervisor is not None:
            await self.supervisor.drain(cancel=True)
        self.pool.close()
        self._depth_gauge.set(0)

    async def __aenter__(self) -> "SolveGateway":
        self._ensure_started()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # Introspection ------------------------------------------------------
    def stats(self) -> dict:
        """The ``gateway.*`` tallies (pool scaling included) plus live
        queue state and each attached policy's own ``stats()``."""
        snap = self.metrics.values("gateway.")
        snap.update(
            queue_depth=self.scheduler.depth,
            in_flight=self.scheduler.in_flight,
            tenants=self.scheduler.stats(),
            pool=self.pool.stats(),
            estimator=self.estimator.stats(),
            queue_wait_estimate=self._queue_wait_estimate(),
            supervisor=(self.supervisor.stats()
                        if self.supervisor is not None else None),
            brownout=(self.brownout.stats()
                      if self.brownout is not None else None),
            hedge_policy=(self.hedge.stats()
                          if self.hedge is not None else None))
        return snap
