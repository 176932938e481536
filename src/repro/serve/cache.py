"""Structural plan cache — compile once per structure, serve forever.

A :class:`PlanCache` is a thread-safe LRU map from structural
fingerprints (:func:`repro.serve.plan.structural_fingerprint`) to
compiled :class:`~repro.serve.plan.SolvePlan` objects. It is the
serving layer's realization of the paper's amortization argument: the
expensive reorder/convert/autotune pipeline runs on the first request
of a structure and every subsequent request pays only the kernel cost.

Counters (hits, misses, evictions, compiles, compile seconds) make the
amortization measurable. They live in the cache's own
:class:`~repro.observe.metrics.MetricsRegistry` (``cache.*``), and the
``serve`` bench reports the hit rate and the per-request amortized
setup time straight from :meth:`PlanCache.stats`, a view over it.

Autotune picks can optionally be **persisted** across processes: with a
``persist_path``, every autotuned ``bsize`` is recorded under its
fingerprint in a small JSON file, and later processes (whose caches
start cold) skip the autotune sweep on their first compile of that
structure. Only the pick is persisted, never the plan itself — matrices
re-derive deterministically from the structure.

Two serving-tier extensions share the map:

* **ILU plans** (:class:`~repro.serve.ilu_plan.ILUPlan`) cache under
  their domain-tagged structure hash via :meth:`get_or_compile_ilu`,
  and time-dependent coefficients on a fixed structure take
  :meth:`refresh_values` — a value-only repack that reuses the stored
  permutation/tiling/autotune pick and only re-runs the numeric
  factorization. Invalidation stays **fingerprint-scoped** throughout:
  structural drift on one structure never flushes siblings.
* **Single flight.** One ``_lock`` guards the map, the counters and
  ``_inflight``, which holds one :class:`_Flight` per fingerprint whose
  compile or repack is running. Every lookup decides under that lock
  to *serve* a resident plan, *lead* a new flight, or *wait* on the
  flight in the air (with no lock held) and decide again. The leader
  works with no lock held, then removes its flight, inserts its plan
  and wakes the waiters in one critical section. An :meth:`invalidate`
  landing mid-flight marks the flight stale, and its plan is dropped
  (counted in ``stale_drops``) instead of resurrecting the entry.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict

from repro.grids.grid import StructuredGrid
from repro.observe import trace
from repro.observe.metrics import MetricsRegistry
from repro.serve.plan import (
    PlanConfig,
    SolvePlan,
    compile_plan,
    structural_fingerprint,
)
from repro.utils.validation import check_positive, require

#: Pick-file schema. v2 added the plan's requested ``backend`` to each
#: entry (the fingerprint keying changed with it); files carrying any
#: other schema string — including the old implicit v1 — are ignored
#: with a warning rather than silently half-read.
PICKS_SCHEMA = "dbsr-repro/autotune-picks/v2"


class _Flight:
    """One running compile or repack of a fingerprint.

    ``done`` is held until the leader lands, plan or exception; a
    ``threading.Event`` would add two heap allocations to every compile,
    which raised ``tri-large-k8``'s peak RSS by about 5% (2-vCPU x86-64).
    ``stale`` says an :meth:`PlanCache.invalidate` landed meanwhile.
    """

    __slots__ = ("done", "stale")

    def __init__(self):
        self.done = threading.Lock()
        self.done.acquire()
        self.stale = False

    def wait(self) -> None:
        """Block, with no cache lock held, until the flight lands."""
        with self.done:
            pass


class PlanCache:
    """Thread-safe LRU cache of compiled solve plans.

    Parameters
    ----------
    capacity:
        Maximum number of resident plans; the least-recently-used plan
        is evicted when a compile would exceed it.
    persist_path:
        Optional JSON file remembering autotuned ``bsize`` picks per
        fingerprint across processes. Missing or corrupt files are
        treated as empty (persistence must never break serving).

    Notes
    -----
    Concurrent :meth:`get_or_compile` calls for the *same* fingerprint
    share one flight, so a structure is compiled exactly once; calls
    for different fingerprints compile in parallel.
    """

    def __init__(self, capacity: int = 8,
                 persist_path: str | None = None):
        self.capacity = check_positive(capacity, "capacity")
        self.persist_path = persist_path
        self._plans: OrderedDict[str, SolvePlan] = OrderedDict()
        self._lock = threading.Lock()
        #: fp -> the compile or repack running for it. An entry lives
        #: exactly as long as its leader works, so the map is bounded
        #: by concurrency, not by the structures ever seen.
        self._inflight: dict[str, _Flight] = {}
        #: Serializes pick-file writes without blocking ``_lock``.
        self._persist_lock = threading.Lock()
        #: Tallies (``cache.*``); updated under ``_lock`` so that
        #: :meth:`stats` reads one consistent snapshot.
        self.metrics = MetricsRegistry()
        count = self.metrics.counter
        self._hits = count("cache.hits", "lookups served a resident plan")
        self._misses = count("cache.misses", "lookups with no resident plan")
        self._evictions = count("cache.evictions", "LRU evictions")
        self._compiles = count("cache.compiles", "plans compiled")
        self._invalidations = count("cache.invalidations",
                                    "resident plans invalidated")
        self._compile_seconds = count("cache.compile_seconds",
                                      "wall seconds spent compiling")
        self._refreshes = count("cache.refreshes",
                                "value-only ILU repacks")
        self._refresh_seconds = count("cache.refresh_seconds",
                                      "wall seconds spent repacking")
        self._stale_drops = count("cache.stale_drops",
                                  "plans dropped: invalidated mid-flight")
        self._picks = self._load_picks()

    # Persistence -------------------------------------------------------
    def _load_picks(self) -> dict:
        """Load the persisted picks, validating the file's schema.

        A file written under a different schema (an older release, or
        some unrelated JSON that happens to carry an ``autotune_picks``
        key) used to be silently half-read, feeding stale ``bsize``
        hints into freshly keyed fingerprints. Now any schema mismatch
        discards the file with a warning — serving proceeds with a cold
        pick store and simply re-autotunes.
        """
        if not self.persist_path or not os.path.exists(self.persist_path):
            return {}
        try:
            with open(self.persist_path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict) \
                or data.get("schema") != PICKS_SCHEMA:
            import warnings

            found = data.get("schema") if isinstance(data, dict) \
                else None
            warnings.warn(
                f"ignoring autotune pick file {self.persist_path!r}: "
                f"schema {found!r} != {PICKS_SCHEMA!r}",
                RuntimeWarning, stacklevel=2)
            return {}
        picks = data.get("autotune_picks", {})
        if not isinstance(picks, dict):
            return {}
        return {fp: entry for fp, entry in picks.items()
                if isinstance(entry, dict) and "bsize" in entry}

    def _save_picks(self) -> None:
        """Atomically persist the current picks.

        The snapshot is taken *after* ``_persist_lock`` is held, so the
        last writer always writes the newest picks: an older snapshot
        can never overwrite a newer one. File I/O holds only
        ``_persist_lock``, never ``_lock``, so it cannot stall lookups.
        """
        if not self.persist_path:
            return
        tmp = f"{self.persist_path}.tmp"
        with self._persist_lock:
            with self._lock:
                blob = {
                    "schema": PICKS_SCHEMA,
                    "autotune_picks": dict(self._picks),
                }
            with open(tmp, "w") as fh:
                json.dump(blob, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.persist_path)

    def persisted_bsize(self, fingerprint: str) -> int | None:
        """The persisted autotune pick for a fingerprint, if any."""
        with self._lock:
            entry = self._picks.get(fingerprint)
        return int(entry["bsize"]) if entry else None

    # Core map ----------------------------------------------------------
    def get(self, fingerprint: str) -> SolvePlan | None:
        """Look up a plan; counts a hit or miss and refreshes LRU."""
        with self._lock:
            plan = self._plans.get(fingerprint)
            if plan is None:
                self._misses.inc()
            else:
                self._plans.move_to_end(fingerprint)
                self._hits.inc()
        trace.event("cache.hit" if plan is not None else "cache.miss",
                    fingerprint=fingerprint[:12])
        return plan

    def peek(self, fingerprint: str) -> SolvePlan | None:
        """Counter-free lookup: no hit/miss accounting, no LRU touch.

        For observers (the gateway pool pricing a request, benches,
        tests) that must not perturb the hit-rate statistics.
        """
        with self._lock:
            return self._plans.get(fingerprint)

    def invalidate(self, fingerprint: str) -> bool:
        """Drop a (poisoned) plan; the next request recompiles it.

        Returns whether an entry was actually removed. Used by the
        self-healing fallback chain
        (:class:`repro.resilience.fallback.FallbackChain`) when a
        cached plan fails validation.

        Scope is strictly this fingerprint: siblings keep their entries
        *and* their hit-rate statistics. A compile or repack of this
        fingerprint in flight is marked stale, so its plan is dropped
        instead of resurrecting the plan being poisoned right now.
        """
        with self._lock:
            removed = self._plans.pop(fingerprint, None) is not None
            if removed:
                self._invalidations.inc()
            flight = self._inflight.get(fingerprint)
            if flight is not None:
                flight.stale = True
        if removed:
            trace.event("cache.invalidate", fingerprint=fingerprint[:12])
        return removed

    def verify(self, fingerprint: str | None = None,
               evict_bad: bool = True) -> list:
        """Integrity-check cached plans; returns poisoned fingerprints.

        Runs the structural + digest validators of
        :mod:`repro.resilience.guardrails` over one plan (or all of
        them) and, with ``evict_bad``, invalidates every plan that
        fails so it recompiles on next use.
        """
        from repro.resilience.errors import PlanValidationError
        from repro.resilience.guardrails import validate_plan

        with self._lock:
            fps = [fingerprint] if fingerprint is not None \
                else list(self._plans)
        bad = []
        for fp in fps:
            with self._lock:
                plan = self._plans.get(fp)
            if plan is None:
                continue
            try:
                validate_plan(plan, level="integrity")
            except PlanValidationError:
                bad.append(fp)
                if evict_bad:
                    self.invalidate(fp)
        return bad

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._plans

    # Single flight ------------------------------------------------------
    def _decide(self, fp: str, digest: str | None = None,
                waited: bool = False) -> tuple:
        """The one locked decision of a lookup: ``(what, plan, flight)``.

        ``what`` is ``"serve"`` (a resident plan whose value digest
        matches ``digest``, if given; counts a hit), ``"wait"`` (a
        flight is in the air), ``"repack"`` (resident, but factorized
        from other values; nothing counted yet) or ``"lead"`` (a new
        flight is registered; counts a miss).
        """
        with self._lock:
            plan = self._plans.get(fp)
            flight = self._inflight.get(fp)
            if plan is not None \
                    and (digest is None or digest == plan.value_digest):
                self._plans.move_to_end(fp)
                self._hits.inc()
                what = "serve"
            elif flight is not None:
                what = "wait"
            elif plan is not None:
                what = "repack"
            else:
                flight = self._inflight[fp] = _Flight()
                self._misses.inc()
                what = "lead"
        if what == "serve":
            trace.event("cache.coalesced_hit" if waited else "cache.hit",
                        fingerprint=fp[:12])
        elif what == "lead":
            trace.event("cache.miss", fingerprint=fp[:12])
        return what, plan, flight

    def _count_hit(self, fp: str, waited: bool) -> None:
        """Count a structure hit served through a repack."""
        with self._lock:
            self._hits.inc()
        trace.event("cache.coalesced_hit" if waited else "cache.hit",
                    fingerprint=fp[:12])

    def _lead(self, fp: str, flight: _Flight, build) -> tuple:
        """Run ``build()`` with no lock held and land it; a failed build
        lands no plan, so its waiters decide again. ``(plan, seconds)``.
        """
        plan = None
        t0 = time.perf_counter()
        try:
            plan = build()
            seconds = time.perf_counter() - t0
        finally:
            self._land(fp, flight, plan)
        return plan, seconds

    def _land(self, fp: str, flight: _Flight, plan) -> None:
        """End a flight: remove it, insert its plan unless the flight
        went stale, and wake its waiters, all in one critical section.
        """
        evicted = []
        with self._lock:
            del self._inflight[fp]
            dropped = plan is not None and flight.stale
            if dropped:
                self._stale_drops.inc()
            elif plan is not None:
                self._plans[fp] = plan
                self._plans.move_to_end(fp)
                while len(self._plans) > self.capacity:
                    old, _ = self._plans.popitem(last=False)
                    self._evictions.inc()
                    evicted.append(old)
            flight.done.release()
        if dropped:
            trace.event("cache.stale_put_dropped", fingerprint=fp[:12])
        for old in evicted:
            trace.event("cache.evict", fingerprint=old[:12])

    def _compile(self, fp: str, flight: _Flight, config: PlanConfig,
                 build) -> SolvePlan:
        """Lead a compile flight of ``build(bsize_hint)``; count it and
        persist its autotune pick."""
        plan, seconds = self._lead(fp, flight, lambda: build(
            self.persisted_bsize(fp) if config.bsize is None else None))
        with self._lock:
            self._compiles.inc()
            self._compile_seconds.inc(seconds)
            if plan.autotuned:
                self._picks[fp] = {
                    "bsize": int(plan.bsize),
                    "block_dims": list(plan.block_dims),
                    "grid": list(plan.grid.dims),
                    "stencil": plan.stencil.name,
                    "backend": plan.config.backend,
                }
        if plan.autotuned:
            self._save_picks()
        return plan

    # Compile-through ----------------------------------------------------
    def get_or_compile(self, grid: StructuredGrid, stencil,
                       config: PlanConfig | None = None
                       ) -> tuple[SolvePlan, bool]:
        """Return ``(plan, was_hit)`` for a structure, compiling on miss.

        N concurrent first requests of one structure share one flight:
        one compile and one miss; the waiters count coalesced hits.
        """
        config = config if config is not None else PlanConfig()
        fp = structural_fingerprint(grid, stencil, config)
        waited = False
        while True:
            what, plan, flight = self._decide(fp, waited=waited)
            if what == "serve":
                return plan, True
            if what == "lead":
                return self._compile(
                    fp, flight, config, lambda hint: compile_plan(
                        grid, stencil, config, bsize_hint=hint)), False
            flight.wait()
            waited = True

    # ILU compile-through ------------------------------------------------
    def get_or_compile_ilu(self, grid: StructuredGrid, stencil,
                           config: PlanConfig | None = None,
                           values=None, expect_digest: str | None = None
                           ) -> tuple:
        """Return ``(ilu_plan, was_hit)``; structure hits may repack.

        The split fingerprint resolves here: the *structure hash* keys
        the lookup, the *value digest* decides what a hit means.

        * Digest matches (or the caller sent no values) — serve the
          cached factors as-is.
        * ``values`` provided with a different digest — the structure
          is unchanged, so this is still a hit, but the numeric factors
          are refreshed through the cheap :meth:`refresh_values` repack
          (permutation/tiling/autotune all reused). The hit is counted
          once the repack completes; a plan evicted or invalidated
          before the repack starts sends the lookup round again.
        * ``expect_digest`` declared without values and the cached plan
          was factorized from something else — raise
          :class:`~repro.resilience.errors.StaleValuesError`; the
          service must never silently solve with old coefficients.
        """
        import numpy as np

        from repro.resilience.errors import StaleValuesError
        from repro.serve import ilu_plan

        config = config if config is not None else PlanConfig()
        fp = ilu_plan.ilu_structural_fingerprint(grid, stencil, config)
        vd = None
        if values is not None:
            values = np.asarray(values,
                                dtype=config.np_dtype).reshape(-1)
            vd = ilu_plan.value_digest(values)
            require(expect_digest is None or expect_digest == vd,
                    "expect_digest contradicts the provided values")
        waited = False
        while True:
            what, plan, flight = self._decide(fp, vd, waited)
            if what == "wait":
                flight.wait()
                waited = True
                continue
            if what == "repack":
                try:
                    plan, _ = self.refresh_values(fp, values)
                except KeyError:
                    continue  # evicted or invalidated meanwhile
                except Exception:
                    self._count_hit(fp, waited)
                    raise
                self._count_hit(fp, waited)
                return plan, True
            if what == "lead":
                # A cold compile from canonical values cannot satisfy
                # a declared foreign snapshot: the plan stays cached (a
                # resubmit carrying values repacks it), but the request
                # fails typed below.
                plan = self._compile(
                    fp, flight, config,
                    lambda hint: ilu_plan.compile_ilu_plan(
                        grid, stencil, config, values=values,
                        bsize_hint=hint))
            if expect_digest is not None \
                    and expect_digest != plan.value_digest:
                raise StaleValuesError(fp, expect_digest,
                                       plan.value_digest)
            return plan, what == "serve"

    def refresh_values(self, fingerprint: str, values) -> tuple:
        """Value-only repack of a cached ILU plan; ``(plan, repacked)``.

        The incremental-recompilation fast path: detects an unchanged
        numeric snapshot by digest (returning the cached plan
        untouched), otherwise leads a repack flight that re-scatters
        the DBSR value arrays and re-runs the numeric ILU(0)
        factorization — the permutation, tiling and autotune pick are
        all reused, never recomputed. Raises ``KeyError`` when the
        fingerprint is not resident (repack needs a skeleton; callers
        fall back to :meth:`get_or_compile_ilu`), checked under the
        lock that registers the flight.
        """
        import numpy as np

        from repro.serve import ilu_plan

        plan = self.peek(fingerprint)
        if plan is None:
            raise KeyError(
                f"no cached plan for {fingerprint[:12]}…; repack needs "
                f"a resident structure (use get_or_compile_ilu)")
        require(getattr(plan, "kind", "") == "ilu",
                f"plan {fingerprint[:12]}… is not an ILU plan")
        values = np.asarray(values,
                            dtype=plan.config.np_dtype).reshape(-1)
        vd = ilu_plan.value_digest(values)
        while True:
            with self._lock:
                current = self._plans.get(fingerprint)
                flight = self._inflight.get(fingerprint)
                if current is not None and flight is None \
                        and current.value_digest != vd:
                    flight = self._inflight[fingerprint] = _Flight()
                    break
            if current is None:
                raise KeyError(
                    f"no cached plan for {fingerprint[:12]}…; it was "
                    f"evicted or invalidated before the repack started")
            if current.value_digest == vd:
                return current, False
            flight.wait()
        fresh, seconds = self._lead(
            fingerprint, flight,
            lambda: ilu_plan.repack_ilu_plan(current, values))
        with self._lock:
            self._refreshes.inc()
            self._refresh_seconds.inc(seconds)
        return fresh, True

    # Reporting ----------------------------------------------------------
    def stats(self) -> dict:
        """The ``cache.*`` tallies plus size, capacity and ``hit_rate``.

        Read under ``_lock``, which every update holds, so every counter
        pair is mutually consistent (no torn reads), and ``hit_rate`` is
        derived from the snapshot itself rather than re-read.
        """
        with self._lock:
            snap = self.metrics.values("cache.")
            snap.update(capacity=self.capacity, size=len(self._plans),
                        persisted_picks=len(self._picks))
        lookups = snap["hits"] + snap["misses"]
        snap["hit_rate"] = snap["hits"] / lookups if lookups else 0.0
        return snap
