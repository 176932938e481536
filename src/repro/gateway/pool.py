"""Elastic worker-shard pool with hysteresis and warm draining.

A :class:`GatewayShard` owns one synchronous
:class:`~repro.serve.service.SolveService` (or any submit/drain
compatible frontend): because every shard owns its own
:class:`~repro.serve.cache.PlanCache` and — when configured — its own
fallback chain, shards are fully independent and elasticity reduces
to lifecycle + work placement.

:class:`ElasticShardPool` scales the shard count against observed
queue depth with **hysteresis**: a scale decision needs the pressure
signal to persist for ``up_patience``/``down_patience`` consecutive
observations *and* a cooldown to have elapsed since the last scale
event, so an oscillating queue cannot thrash the pool. Scaling down
**warm-drains**: the victim shard is only reaped once idle — a busy
shard is marked draining, keeps its in-flight work, and is closed when
released, so no accepted request is ever lost to elasticity.

Hysteresis is counted in *observations* (one per submit/completion/
``poll()``), not wall seconds, which keeps the controller deterministic
and testable.

Beyond elasticity the pool understands **health**: a shard whose
``execute`` raised a non-recoverable error is marked ``defunct`` and
reaped on release (the pool replenishes itself back to ``min_shards``),
and the supervision tier (:mod:`repro.supervise`) can ``quarantine`` a
shard out of rotation, ``build_shard`` a replacement (through the
``pool.spawn`` chaos site), and ``adopt`` it once its canary probe
passes.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque

from repro.observe import trace
from repro.observe.metrics import MetricsRegistry
from repro.resilience import hooks
from repro.resilience.errors import NON_RECOVERABLE_ERRORS, FaultInjected
from repro.utils.validation import check_positive


class GatewayShard:
    """One worker: a private sync service executed off-loop.

    ``execute`` runs in a worker thread (``asyncio.to_thread``); the
    shard is handed to exactly one chunk at a time by the pool, so the
    underlying service never sees concurrent drains from the gateway.

    Three health flags drive lifecycle decisions:

    * ``defunct`` — ``execute`` hit a non-recoverable error
      (:data:`~repro.resilience.errors.NON_RECOVERABLE_ERRORS`);
      :meth:`ElasticShardPool.release` reaps such a shard instead of
      returning it to the free list.
    * ``poisoned`` — an armed ``shard_poison`` fault marked this shard:
      every execute raises until the supervisor replaces it.
    * ``quarantined`` — the supervisor pulled the shard out of
      rotation; ``release`` ignores it (the supervisor owns it now).
    """

    def __init__(self, index: int, service):
        self.index = index
        self.service = service
        self.draining = False
        self.defunct = False
        self.poisoned = False
        self.quarantined = False

    def poison(self) -> None:
        """Chaos hook: make every later ``execute`` raise (until the
        supervisor restarts this shard with a fresh service)."""
        self.poisoned = True

    def execute(self, grid, stencil, op: str, config,
                columns: list, values=None,
                value_digest: str | None = None) -> list:
        """Solve ``columns`` (same structure + op) as one coalesced
        batch; returns one result *or exception* per column.

        ``values``/``value_digest`` forward ILU coefficient snapshots
        to the service (``op="ilu_apply"`` only).
        """
        hooks.fire("gateway.shard", shard=self, op=op)
        if self.poisoned:
            raise FaultInjected(
                "gateway.shard", "shard_poison",
                f"shard {self.index} is poisoned until restart")
        extra = {}
        if values is not None:
            extra["values"] = values
        if value_digest is not None:
            extra["value_digest"] = value_digest
        try:
            tickets = [self.service.submit(grid, stencil, rhs, op=op,
                                           config=config, **extra)
                       for rhs in columns]
            self.service.drain()
        except NON_RECOVERABLE_ERRORS:
            self.defunct = True
            raise
        out = []
        for t in tickets:
            try:
                out.append(t.result(timeout=0))
            except NON_RECOVERABLE_ERRORS as exc:
                # The service's internals tripped resource exhaustion
                # or a violated invariant: surface the column error AND
                # condemn the shard — release() will reap it.
                self.defunct = True
                out.append(exc)
            except BaseException as exc:  # noqa: BLE001 - per-column
                out.append(exc)
        return out

    def cache_tallies(self) -> dict:
        """This shard's ``cache.*`` counters (``{}`` without a cache)."""
        cache = getattr(self.service, "cache", None)
        return {} if cache is None else cache.metrics.values("cache.")

    def has_plan(self, fingerprint: str) -> bool:
        cache = getattr(self.service, "cache", None)
        return (cache is not None
                and cache.peek(fingerprint) is not None)

    def close(self) -> None:
        self.service.close()

    def stats(self) -> dict:
        return {
            "index": self.index,
            "draining": self.draining,
            "defunct": self.defunct,
            "poisoned": self.poisoned,
            "quarantined": self.quarantined,
            "service": self.service.stats(),
        }


class ElasticShardPool:
    """Queue-depth-driven shard pool (asyncio-native).

    Parameters
    ----------
    factory:
        Zero-argument callable building one shard's service.
    min_shards, max_shards:
        Pool size bounds; the pool starts at ``min_shards``.
    high_water:
        Scale **up** when queued chunks per active shard reach this.
    low_water:
        Scale **down** when total queued chunks are at or below this
        (and a shard is idle or can be drained).
    up_patience, down_patience:
        Consecutive observations the pressure must persist before a
        scale event fires (the hysteresis band).
    cooldown:
        Observations to ignore after any scale event (anti-thrash).
    metrics:
        The :class:`~repro.observe.metrics.MetricsRegistry` holding the
        ``gateway.scale_up`` / ``gateway.scale_down`` counters and the
        ``gateway.shards`` gauge (the gateway passes its own; a private
        one by default).
    """

    def __init__(self, factory, min_shards: int = 1,
                 max_shards: int = 4, high_water: float = 4.0,
                 low_water: float = 1.0, up_patience: int = 2,
                 down_patience: int = 3, cooldown: int = 2,
                 metrics=None):
        self.factory = factory
        self.min_shards = check_positive(min_shards, "min_shards")
        self.max_shards = check_positive(max_shards, "max_shards")
        if self.max_shards < self.min_shards:
            raise ValueError(
                f"max_shards {max_shards} < min_shards {min_shards}")
        self.high_water = float(high_water)
        self.low_water = float(low_water)
        self.up_patience = check_positive(up_patience, "up_patience")
        self.down_patience = check_positive(down_patience,
                                            "down_patience")
        self.cooldown = int(cooldown)
        self._ids = itertools.count()
        self._shards: list[GatewayShard] = []
        self._free: deque = deque()
        self._cond = asyncio.Condition()
        self._up_streak = 0
        self._down_streak = 0
        self._cooldown_left = 0
        self.scale_events: list[dict] = []
        #: Health-driven lifecycle events (defunct reaps, quarantines,
        #: adoptions) — separate from the controller's scale_events.
        self.lifecycle_events: list[dict] = []
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self._scale_up = self.metrics.counter(
            "gateway.scale_up", "shards added by the controller")
        self._scale_down = self.metrics.counter(
            "gateway.scale_down",
            "shards warm-drained and reaped by the controller")
        self._shards_gauge = self.metrics.gauge(
            "gateway.shards", "active worker shards")
        for _ in range(self.min_shards):
            self._spawn()

    # Lifecycle ----------------------------------------------------------
    def build_shard(self) -> GatewayShard:
        """Construct one shard *without* adding it to the pool.

        Fires the ``pool.spawn`` chaos site (an armed ``spawn_fail``
        fault raises here), so callers that must survive spawn
        failures — the supervisor's restart loop — can catch and back
        off. The shard only serves traffic after :meth:`adopt`.
        """
        index = next(self._ids)
        hooks.fire("pool.spawn", shard_index=index)
        return GatewayShard(index, self.factory())

    def adopt(self, shard: GatewayShard) -> GatewayShard:
        """Put a built (and, if supervised, canary-checked) shard into
        rotation and wake any ``acquire`` waiters."""
        self._shards.append(shard)
        self._free.append(shard)
        self._shards_gauge.set(len(self._shards))
        self._notify_soon()
        return shard

    def _spawn(self) -> GatewayShard:
        return self.adopt(self.build_shard())

    def _remove(self, shard: GatewayShard) -> None:
        if shard in self._shards:
            self._shards.remove(shard)
        try:
            self._free.remove(shard)
        except ValueError:
            pass
        self._shards_gauge.set(len(self._shards))

    def _reap(self, shard: GatewayShard, depth: int,
              deferred: bool) -> None:
        """Close an idle shard (warm drain already satisfied)."""
        self._remove(shard)
        shard.close()
        self._scale_down.inc()
        event = {"action": "scale_down", "shard": shard.index,
                 "n_shards": len(self._shards), "queue_depth": depth,
                 "warm_drained": deferred}
        self.scale_events.append(event)
        trace.event("gateway.scale_down", **event)

    def _reap_defunct(self, shard: GatewayShard) -> None:
        """Close a shard condemned by a non-recoverable failure, and
        replenish the pool if that dropped it below ``min_shards``."""
        self._remove(shard)
        shard.close()
        event = {"action": "reap_defunct", "shard": shard.index,
                 "n_shards": len(self._shards)}
        self.lifecycle_events.append(event)
        trace.event("gateway.reap_defunct", **event)
        if len(self._shards) < self.min_shards:
            try:
                self._spawn()
            except BaseException as exc:  # noqa: BLE001 - chaos spawn
                # An armed spawn_fail fault: record the hole; the
                # supervisor's restart path (or the next scale-up)
                # refills it.
                self.lifecycle_events.append(
                    {"action": "spawn_failed",
                     "error": type(exc).__name__})
                trace.event("gateway.spawn_failed",
                            error=type(exc).__name__)

    def quarantine(self, shard: GatewayShard) -> None:
        """Pull a shard out of rotation without closing it.

        The supervisor calls this for a shard that failed its canary
        probe; the shard keeps its service alive (the supervisor may
        re-probe or close it) but can no longer be acquired, and a
        later ``release`` of it is a no-op.
        """
        shard.quarantined = True
        self._remove(shard)
        event = {"action": "quarantine", "shard": shard.index,
                 "n_shards": len(self._shards)}
        self.lifecycle_events.append(event)
        trace.event("gateway.quarantine", **event)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def n_free(self) -> int:
        return len(self._free)

    @property
    def n_draining(self) -> int:
        return sum(1 for s in self._shards if s.draining)

    def has_plan(self, fingerprint: str) -> bool:
        """True when any shard's cache already holds this structure."""
        return any(s.has_plan(fingerprint) for s in self._shards)

    def cache_tallies(self) -> dict:
        """The live shards' ``cache.*`` counters, summed by name."""
        total: dict = {}
        for shard in self._shards:
            for name, value in shard.cache_tallies().items():
                total[name] = total.get(name, 0) + value
        return total

    # Placement ----------------------------------------------------------
    async def acquire(self) -> GatewayShard:
        """Wait for — and take — an idle shard."""
        async with self._cond:
            while not self._free:
                await self._cond.wait()
            return self._free.popleft()

    def try_acquire(self) -> GatewayShard | None:
        """Take an idle shard *without* waiting (``None`` when none).

        The hedging path uses this: a straggler is only duplicated
        when spare capacity exists — hedging must never make an
        overloaded pool worse by queueing duplicate work.
        """
        if self._free:
            return self._free.popleft()
        return None

    async def release(self, shard: GatewayShard) -> None:
        """Return a shard — unless its health says otherwise.

        A ``quarantined`` shard is ignored (the supervisor owns its
        lifecycle now); a ``defunct`` shard — one whose ``execute``
        raised a non-recoverable error — is reaped, never returned to
        the free list; a ``draining`` shard completes its warm drain
        and is reaped as the controller promised.
        """
        async with self._cond:
            if shard.quarantined:
                self._cond.notify_all()
                return
            if shard.defunct:
                self._reap_defunct(shard)
            elif shard.draining:
                self._reap(shard, depth=0, deferred=True)
            else:
                self._free.append(shard)
            self._cond.notify_all()

    # Scaling controller -------------------------------------------------
    def observe(self, queue_depth: int) -> str | None:
        """Feed one queue-depth sample; maybe scale. Returns the
        action taken (``"scale_up"``/``"scale_down"``) or ``None``.

        Must be called from the event loop (it touches the free list);
        the gateway calls it on every submit, every chunk completion,
        and every explicit ``poll()``.
        """
        depth = int(queue_depth)
        active = max(1, len(self._shards) - self.n_draining)
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return None
        if depth / active >= self.high_water:
            self._up_streak += 1
            self._down_streak = 0
        elif depth <= self.low_water:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0
        if (self._up_streak >= self.up_patience
                and len(self._shards) < self.max_shards):
            self._up_streak = 0
            self._cooldown_left = self.cooldown
            shard = self._spawn()
            self._scale_up.inc()
            event = {"action": "scale_up", "shard": shard.index,
                     "n_shards": len(self._shards),
                     "queue_depth": depth}
            self.scale_events.append(event)
            trace.event("gateway.scale_up", **event)
            self._notify_soon()
            return "scale_up"
        if (self._down_streak >= self.down_patience
                and len(self._shards) - self.n_draining
                > self.min_shards):
            self._down_streak = 0
            self._cooldown_left = self.cooldown
            # Prefer the youngest idle shard: older shards carry the
            # warmest plan caches.
            idle = next((s for s in reversed(self._free)
                         if not s.draining), None)
            if idle is not None:
                self._free.remove(idle)
                self._reap(idle, depth=depth, deferred=False)
            else:
                # Every shard is busy: warm-drain — mark one, reap on
                # release, lose nothing.
                victim = next(s for s in self._shards
                              if not s.draining)
                victim.draining = True
            return "scale_down"
        return None

    def _notify_soon(self) -> None:
        """Wake acquire() waiters after a spawn (loop context only)."""
        async def _notify():
            async with self._cond:
                self._cond.notify_all()
        try:
            asyncio.get_running_loop().create_task(_notify())
        except RuntimeError:  # no loop: nobody can be waiting
            pass

    # Shutdown -----------------------------------------------------------
    def close(self) -> None:
        """Close every shard (callers must have drained in-flight)."""
        for shard in self._shards:
            shard.close()
        self._shards.clear()
        self._free.clear()
        self._shards_gauge.set(0)

    def stats(self) -> dict:
        return {
            "n_shards": len(self._shards),
            "n_free": len(self._free),
            "n_draining": self.n_draining,
            "min_shards": self.min_shards,
            "max_shards": self.max_shards,
            "scale_events": list(self.scale_events),
            "lifecycle_events": list(self.lifecycle_events),
            "shards": [s.stats() for s in self._shards],
        }
