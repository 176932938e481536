"""Shard supervisor: probe, quarantine, restart under a budget.

:class:`ShardSupervisor` owns shard *health* the way the elastic
controller owns shard *count*. The division of labor with the plan
tier (:mod:`repro.resilience`) mirrors the two failure domains:

* the **plan tier** degrades a failing *plan* (fallback chains,
  recompile budgets) — the artifact is suspect;
* the **shard tier** replaces a failing *worker* — the artifact is
  fine, the executor is sick (poisoned cache, exhausted resources,
  chaos-injected crash).

The supervisor's loop, all driven from the gateway's event loop:

1. The gateway hands it every shard whose attempt raised
   (:meth:`handle_failure`). A shard condemned as ``defunct`` goes
   straight back to the pool, whose ``release`` reaps it. Anything
   else gets a **canary probe** — a tiny known-answer solve, checked
   bit-for-bit (:class:`~repro.supervise.canary.CanaryProbe`).
2. A shard that fails its probe is **quarantined** (pulled out of
   rotation), closed, and a **restart campaign** starts: sleep by
   capped exponential backoff (:class:`~repro.supervise.backoff.Backoff`),
   build a replacement through ``pool.build_shard()`` (the
   ``pool.spawn`` chaos site lives there), probe it, and only
   **adopt** it into rotation once the probe passes.
3. Every restart *attempt* consumes one slot of a finite
   ``restart_budget`` — the shard-tier analogue of the plan tier's
   recompile budget — so a permanently failing environment converges
   to a smaller pool instead of an infinite restart storm.
"""

from __future__ import annotations

import asyncio

from repro.observe import trace
from repro.observe.metrics import MetricsRegistry
from repro.supervise.backoff import Backoff
from repro.supervise.canary import CanaryProbe
from repro.utils.validation import check_positive


class ShardSupervisor:
    """Health-check + quarantine + budgeted-restart policy.

    Parameters
    ----------
    canary:
        The :class:`~repro.supervise.canary.CanaryProbe` shards must
        pass; built lazily from the gateway's config when ``None``.
    backoff:
        Each restart campaign's :class:`~repro.supervise.backoff.Backoff`:
        its delays and its ``max_attempts`` cap.
    restart_budget:
        Total restart attempts across the supervisor's lifetime.
    """

    def __init__(self, canary: CanaryProbe | None = None, *,
                 backoff: Backoff | None = None,
                 restart_budget: int = 8):
        self.canary = canary
        self.backoff = backoff if backoff is not None else Backoff()
        self.restart_budget = check_positive(restart_budget,
                                             "restart_budget")
        self.budget_left = self.restart_budget
        self.pool = None
        self.metrics = MetricsRegistry()
        count = self.metrics.counter
        self._quarantines = count(
            "supervisor.quarantines",
            "shards pulled from rotation after a failed probe")
        self._restarts = count(
            "supervisor.restarts",
            "replacement shards adopted after a canary pass")
        self._restart_failures = count(
            "supervisor.restart_failures",
            "restart attempts that did not adopt")
        self._releases_healthy = count(
            "supervisor.releases_healthy",
            "failed shards probed healthy and returned to rotation")
        self._backoff_seconds = count(
            "supervisor.backoff_total_seconds",
            "seconds slept between restart attempts")
        self._campaigns: set = set()

    def bind(self, pool) -> "ShardSupervisor":
        """Attach to the gateway's pool (the gateway calls this)."""
        self.pool = pool
        if self.canary is None:
            # Default probe under the pool's own service config, so the
            # probe path is the traffic path.
            sample = pool._shards[0] if pool._shards else None
            config = getattr(getattr(sample, "service", None),
                             "config", None)
            self.canary = CanaryProbe(config)
        return self

    # Failure intake -----------------------------------------------------
    async def handle_failure(self, shard, exc: BaseException) -> None:
        """Disposition one shard whose chunk attempt raised ``exc``.

        Defunct shards go to ``pool.release`` (which reaps them and
        replenishes ``min_shards``); everything else is canary-probed:
        healthy shards return to rotation — the *chunk* failed, not
        the worker — and unhealthy ones are quarantined and restarted.
        """
        if shard.defunct:
            await self.pool.release(shard)
            return
        healthy, reason = await asyncio.to_thread(self.canary.check,
                                                  shard)
        if healthy:
            self._releases_healthy.inc()
            await self.pool.release(shard)
            return
        await self._quarantine(shard, reason)

    async def sweep(self) -> int:
        """Probe every currently idle shard; quarantine the sick ones.

        Returns how many shards were quarantined. Useful as a periodic
        background health pass; chaos tests call it directly.
        """
        sick = 0
        suspects = []
        while True:
            shard = self.pool.try_acquire()
            if shard is None:
                break
            suspects.append(shard)
        for shard in suspects:
            healthy, reason = await asyncio.to_thread(
                self.canary.check, shard)
            if healthy:
                await self.pool.release(shard)
            else:
                sick += 1
                await self._quarantine(shard, reason)
        return sick

    async def _quarantine(self, shard, reason: str) -> None:
        self._quarantines.inc()
        self.pool.quarantine(shard)
        trace.event("supervise.quarantine", shard=shard.index,
                    reason=reason)
        shard.close()
        task = asyncio.get_running_loop().create_task(
            self._restart_campaign(shard.index))
        self._campaigns.add(task)
        task.add_done_callback(self._campaigns.discard)

    # Restart ------------------------------------------------------------
    async def _restart_campaign(self, dead_index: int) -> None:
        """Replace one quarantined shard: backoff → build → probe →
        adopt, bounded by ``backoff.max_attempts`` and the global
        budget."""
        for attempt in range(1, self.backoff.max_attempts + 1):
            if self.budget_left <= 0:
                trace.event("supervise.budget_exhausted",
                            dead_shard=dead_index)
                return
            self.budget_left -= 1
            delay = self.backoff.delay(attempt)
            self._backoff_seconds.inc(delay)
            await asyncio.sleep(delay)
            try:
                shard = self.pool.build_shard()
            except BaseException as exc:  # noqa: BLE001 - chaos spawn
                self._restart_failures.inc()
                trace.event("supervise.restart_failed",
                            dead_shard=dead_index, phase="spawn",
                            error=type(exc).__name__)
                continue
            healthy, reason = await asyncio.to_thread(
                self.canary.check, shard)
            if not healthy:
                self._restart_failures.inc()
                trace.event("supervise.restart_failed",
                            dead_shard=dead_index, phase="probe",
                            error=reason)
                shard.close()
                continue
            self.pool.adopt(shard)
            self._restarts.inc()
            self.pool.lifecycle_events.append(
                {"action": "restart", "shard": shard.index,
                 "replaces": dead_index,
                 "n_shards": self.pool.n_shards})
            trace.event("supervise.restart", shard=shard.index,
                        replaces=dead_index)
            return
        trace.event("supervise.campaign_abandoned",
                    dead_shard=dead_index,
                    attempts=self.backoff.max_attempts)

    async def drain(self, cancel: bool = False) -> None:
        """Await (or cancel) outstanding restart campaigns.

        The gateway's ``close()`` cancels; tests that want the restart
        to land await with ``cancel=False``.
        """
        tasks = list(self._campaigns)
        if cancel:
            for t in tasks:
                t.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # Introspection ------------------------------------------------------
    def stats(self) -> dict:
        return {
            **self.metrics.values("supervisor."),
            "restart_budget": self.restart_budget,
            "budget_left": self.budget_left,
            "campaigns_active": len(self._campaigns),
            "canary": (self.canary.stats()
                       if self.canary is not None else None),
        }
