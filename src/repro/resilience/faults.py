"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` is a reproducible specification of *what goes
wrong*: each :class:`FaultSpec` names a fault kind (NaN/Inf/bit-flip
value corruption, permutation scrambling, block-index corruption,
worker exceptions, kernel delays, and the gateway-tier shard faults —
crash, hang, poison, spawn failure), where it strikes, and how many
times. Arm a plan with :func:`inject` and every corruption site and
random choice derives from the plan's seed — the same plan replays the
same chaos bit-for-bit, so recovery behaviour is assertable.

Two delivery mechanisms:

* **Hook faults** (``worker_exception``, ``kernel_exception``,
  ``kernel_delay``, the shard kinds ``shard_crash`` / ``shard_hang`` /
  ``shard_poison`` / ``spawn_fail``, and any corruption spec with
  ``at_compile=True``) trigger through the sites of
  :mod:`repro.resilience.hooks`, which the pooled executor, the vector
  engine, the plan compiler, and the gateway's shard pool fire.
* **Direct corruption** — :meth:`FaultInjector.corrupt_plan` applies
  the plan's corruption specs to an already-compiled
  :class:`~repro.serve.plan.SolvePlan`, modelling bit rot / memory
  corruption of cached artifacts.

When no injector is armed every hook site is a single ``None`` check:
the clean path's op counts are unchanged.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.resilience import hooks
from repro.resilience.errors import FaultInjected

#: Fault kinds that corrupt compiled-plan artifacts.
CORRUPTION_KINDS = (
    "nan_value",          # one value-array entry -> NaN
    "inf_value",          # one value-array entry -> +Inf
    "bitflip_value",      # flip one bit of one value-array entry
    "scramble_permutation",  # duplicate one old_to_new entry
    "bad_block_index",    # one blk_ind entry -> out of range
)

#: Fault kinds that act at hook sites.
SITE_KINDS = (
    "worker_exception",   # raise FaultInjected in a pooled worker task
    "kernel_exception",   # raise FaultInjected at kernel entry
    "kernel_delay",       # sleep at kernel entry
    "shard_crash",        # raise FaultInjected at gateway-shard entry
    "shard_hang",         # sleep at gateway-shard entry (straggler)
    "shard_poison",       # shard raises on every execute until restart
    "spawn_fail",         # raise FaultInjected while spawning a shard
)

FAULT_KINDS = CORRUPTION_KINDS + SITE_KINDS

#: Value arrays a corruption spec may target on a SolvePlan.
VALUE_TARGETS = ("lower", "upper", "dbsr", "matrix", "diag")


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    target:
        For corruption kinds: which artifact to corrupt — a member of
        :data:`VALUE_TARGETS` for value faults, ignored for
        permutation/block-index faults.
    strategies:
        For ``kernel_exception`` / ``kernel_delay``: which fallback
        rungs (:data:`~repro.resilience.fallback.LADDER`: ``"dbsr"``,
        ``"csr"``) the fault strikes at the ``plan.execute`` site.
        ``None`` strikes every rung.
    ops:
        Optional op filter: plan ops (``("lower",)`` etc.) or
        ``"ilu_apply"``; ``None`` = all ops.
    max_fires:
        How many times the fault triggers before disarming itself.
        ``None`` means persistent (never disarms) — the unrecoverable
        regime used to exercise the circuit breaker.
    at_compile:
        Corruption kinds only: also corrupt every *newly compiled*
        plan at the ``serve.compile`` hook (so recompiles stay
        poisoned). Off by default — corruption then only happens via
        :meth:`FaultInjector.corrupt_plan`.
    delay_seconds:
        Sleep length for ``kernel_delay`` and ``shard_hang``.
    seed:
        Per-spec seed offset mixed into the plan seed.

    The shard kinds strike the gateway tier: ``shard_crash`` raises at
    :meth:`~repro.gateway.pool.GatewayShard.execute` entry (one chunk
    lost, shard otherwise fine), ``shard_hang`` sleeps there (a
    straggler the hedging policy must beat), ``shard_poison`` marks the
    shard so *every* later execute raises until the supervisor restarts
    it, and ``spawn_fail`` raises while the pool is building a new
    shard (exercising the restart backoff budget). All honor the
    ``ops`` filter; ``strategies`` is ignored at shard sites (a shard
    hosts every rung).

    A rung or op name outside the known sets raises ``ValueError``: a
    filter that can never match would make its scenario pass without
    injecting anything.
    """

    kind: str
    target: str = "lower"
    strategies: tuple | None = ("dbsr",)
    ops: tuple | None = None
    max_fires: int | None = 1
    at_compile: bool = False
    delay_seconds: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.kind in ("nan_value", "inf_value", "bitflip_value") \
                and self.target not in VALUE_TARGETS:
            raise ValueError(
                f"unknown value target {self.target!r}; "
                f"known: {VALUE_TARGETS}")
        # Lazy imports: repro.serve imports this package at load time.
        from repro.resilience.fallback import LADDER
        from repro.serve.ilu_plan import ILU_OPS
        from repro.serve.plan import PLAN_OPS

        for field_name, known in (("strategies", LADDER),
                                  ("ops", PLAN_OPS + ILU_OPS)):
            names = getattr(self, field_name)
            if names is not None and (not names
                                      or not set(names) <= set(known)):
                raise ValueError(
                    f"{field_name} {names!r} must be a non-empty subset "
                    f"of {known}")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of faults — one chaos scenario."""

    specs: tuple
    seed: int = 2024
    name: str = "chaos"

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))


@dataclass
class FaultRecord:
    """One delivered fault occurrence (for reporting/assertions)."""

    kind: str
    site: str
    detail: str = ""
    artifact: str = ""
    index: int = -1


class FaultInjector:
    """Armed instance of a :class:`FaultPlan`.

    Thread-safe: hook sites may fire from pooled workers *and* from
    the gateway's shard worker threads concurrently. Fire counting
    (:meth:`_take`), record keeping, and every draw from a spec's
    seeded generator happen under one re-entrant lock, so a ``count=N``
    spec fires exactly ``N`` times across threads and delivery order
    across threads cannot change *where* corruption lands.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.RLock()
        self._fires = [0] * len(plan.specs)
        self._rngs = [np.random.default_rng(plan.seed + 31 * i + s.seed)
                      for i, s in enumerate(plan.specs)]
        self.records: list[FaultRecord] = []
        self.injected = 0

    # Arming --------------------------------------------------------------
    def _take(self, i: int) -> bool:
        """Atomically consume one firing of spec ``i`` if still armed."""
        spec = self.plan.specs[i]
        with self._lock:
            if spec.max_fires is not None \
                    and self._fires[i] >= spec.max_fires:
                return False
            self._fires[i] += 1
            self.injected += 1
            return True

    def fires(self, i: int) -> int:
        """How many times spec ``i`` has fired so far."""
        with self._lock:
            return self._fires[i]

    def _record(self, rec: FaultRecord) -> None:
        with self._lock:
            self.records.append(rec)

    # Hook dispatch --------------------------------------------------------
    def fire(self, site: str, **ctx) -> None:
        for i, spec in enumerate(self.plan.specs):
            if spec.kind == "worker_exception" \
                    and site == "parallel.worker":
                if self._take(i):
                    self._record(FaultRecord(spec.kind, site,
                                             detail=str(ctx.get("group"))))
                    raise FaultInjected(site, spec.kind,
                                        f"group {ctx.get('group')}")
            elif spec.kind in ("kernel_exception", "kernel_delay") \
                    and site in ("plan.execute", "simd.engine"):
                strategy = ctx.get("strategy")
                op = ctx.get("op")
                if spec.strategies is not None and strategy is not None \
                        and strategy not in spec.strategies:
                    continue
                if spec.ops is not None and op is not None \
                        and op not in spec.ops:
                    continue
                if site == "simd.engine" and spec.kind != "kernel_delay":
                    # Engine construction only carries delay faults;
                    # exceptions there would abort counted benchmarks
                    # rather than model kernel crashes.
                    continue
                if self._take(i):
                    self._record(FaultRecord(spec.kind, site,
                                             detail=f"{strategy}/{op}"))
                    if spec.kind == "kernel_delay":
                        time.sleep(spec.delay_seconds)
                    else:
                        raise FaultInjected(site, spec.kind,
                                            f"{strategy} kernel, op={op}")
            elif spec.kind in ("shard_crash", "shard_hang",
                               "shard_poison") \
                    and site == "gateway.shard":
                op = ctx.get("op")
                if spec.ops is not None and op is not None \
                        and op not in spec.ops:
                    continue
                if self._take(i):
                    shard = ctx.get("shard")
                    index = getattr(shard, "index", -1)
                    self._record(FaultRecord(
                        spec.kind, site, detail=f"shard {index}/{op}",
                        index=index))
                    if spec.kind == "shard_hang":
                        time.sleep(spec.delay_seconds)
                    elif spec.kind == "shard_poison":
                        if shard is not None:
                            shard.poison()
                    else:
                        raise FaultInjected(
                            site, spec.kind,
                            f"shard {index}, op={op}")
            elif spec.kind == "spawn_fail" and site == "pool.spawn":
                if self._take(i):
                    index = ctx.get("shard_index", -1)
                    self._record(FaultRecord(spec.kind, site,
                                             detail=f"shard {index}",
                                             index=int(index)))
                    raise FaultInjected(site, spec.kind,
                                        f"spawning shard {index}")
            elif spec.kind in CORRUPTION_KINDS and spec.at_compile \
                    and site == "serve.compile":
                plan_obj = ctx.get("plan")
                if plan_obj is not None and self._take(i):
                    self._apply_corruption(i, spec, plan_obj,
                                           site="serve.compile")

    # Direct corruption ----------------------------------------------------
    def corrupt_plan(self, plan) -> list[FaultRecord]:
        """Apply every corruption spec to ``plan``'s artifacts in place.

        Returns the records of the corruptions actually delivered
        (respecting each spec's remaining ``max_fires`` budget).
        Thread-safe: concurrent callers each get exactly the records
        of *their* corruptions, never a slice of someone else's.
        """
        delivered = []
        for i, spec in enumerate(self.plan.specs):
            if spec.kind in CORRUPTION_KINDS and self._take(i):
                rec = self._apply_corruption(i, spec, plan,
                                             site="direct")
                if rec is not None:
                    delivered.append(rec)
        return delivered

    def _apply_corruption(self, i: int, spec: FaultSpec, plan,
                          site: str) -> FaultRecord | None:
        # The whole draw-and-mutate runs under the injector lock: a
        # spec's generator must advance in take order even when two
        # shard workers corrupt plans concurrently.
        with self._lock:
            return self._apply_corruption_locked(i, spec, plan, site)

    def _apply_corruption_locked(self, i: int, spec: FaultSpec, plan,
                                 site: str) -> FaultRecord | None:
        rng = self._rngs[i]
        rec = None
        if spec.kind in ("nan_value", "inf_value", "bitflip_value"):
            name, arr = _value_array(plan, spec.target)
            if arr.size == 0:
                return None
            flat = arr.reshape(-1)
            idx = int(rng.integers(flat.size))
            if spec.kind == "nan_value":
                flat[idx] = np.nan
            elif spec.kind == "inf_value":
                flat[idx] = np.inf
            elif flat.dtype == np.float32:
                bits = flat[idx:idx + 1].view(np.uint32)
                bit = int(rng.integers(23, 31))  # exponent-field bits
                bits ^= np.uint32(1 << bit)
            else:
                bits = flat[idx:idx + 1].view(np.uint64)
                bit = int(rng.integers(52, 63))  # exponent-field bits
                bits ^= np.uint64(1 << bit)
            rec = FaultRecord(spec.kind, site, artifact=name,
                              index=idx)
        elif spec.kind == "scramble_permutation":
            perm = plan.ordering.old_to_new
            n = len(perm)
            if n < 2:
                return None
            i1 = int(rng.integers(n))
            i2 = int(rng.integers(n - 1))
            i2 += i2 >= i1  # distinct positions -> a duplicated image
            perm[i1] = perm[i2]
            rec = FaultRecord(spec.kind, site,
                              artifact="ordering.old_to_new",
                              index=i1)
        elif spec.kind == "bad_block_index":
            blk_ind = plan.lower.blk_ind
            if blk_ind.size == 0:
                return None
            idx = int(rng.integers(blk_ind.size))
            blk_ind[idx] = plan.lower.n_cols  # beyond any valid block
            rec = FaultRecord(spec.kind, site,
                              artifact="lower.blk_ind", index=idx)
        if rec is not None:
            self._record(rec)
        return rec

    # Reporting ------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "plan": self.plan.name,
                "seed": self.plan.seed,
                "injected": self.injected,
                "fires_per_spec": list(self._fires),
                "records": [
                    {"kind": r.kind, "site": r.site,
                     "artifact": r.artifact, "index": r.index,
                     "detail": r.detail}
                    for r in self.records
                ],
            }


def _value_array(plan, target: str) -> tuple[str, np.ndarray]:
    """Resolve a value-fault target name to ``(label, array)``."""
    if target == "lower":
        return "lower.values", plan.lower.values
    if target == "upper":
        return "upper.values", plan.upper.values
    if target == "dbsr":
        return "dbsr.values", plan.dbsr.values
    if target == "matrix":
        return "matrix.data", plan.matrix.data
    return "diag", plan.diag


@contextmanager
def inject(plan: FaultPlan):
    """Arm ``plan`` for the duration of the block; yields the injector.

    Always disarms on exit, even when the injected faults propagate.
    """
    injector = FaultInjector(plan)
    hooks.install(injector)
    try:
        yield injector
    finally:
        hooks.uninstall(injector)
