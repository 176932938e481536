"""Structural plan cache — compile once per structure, serve forever.

A :class:`PlanCache` is a thread-safe LRU map from structural
fingerprints (:func:`repro.serve.plan.structural_fingerprint`) to
compiled :class:`~repro.serve.plan.SolvePlan` objects. It is the
serving layer's realization of the paper's amortization argument: the
expensive reorder/convert/autotune pipeline runs on the first request
of a structure and every subsequent request pays only the kernel cost.

Counters (hits, misses, evictions, compiles, compile seconds) make the
amortization measurable — the ``serve`` bench reports the hit rate
and the per-request amortized setup time straight from
:meth:`PlanCache.stats`.

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
* **Generation-counted invalidation** closes the resurrection race: an
  :meth:`invalidate` landing while a compile for the same fingerprint
  is in flight bumps that fingerprint's generation, and the compile's
  eventual insert is dropped (counted in ``stale_drops``) instead of
  resurrecting the just-poisoned entry.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict

from repro.grids.grid import StructuredGrid
from repro.observe import trace
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
    serialize on a per-fingerprint lock so a structure is compiled
    exactly once; calls for different fingerprints compile in parallel.
    """

    def __init__(self, capacity: int = 8,
                 persist_path: str | None = None):
        self.capacity = check_positive(capacity, "capacity")
        self.persist_path = persist_path
        self._plans: OrderedDict[str, SolvePlan] = OrderedDict()
        self._lock = threading.Lock()
        #: fp -> [lock, refcount]; entries exist only while compiles
        #: for that fingerprint are in flight (see get_or_compile), so
        #: the map is bounded by concurrency, not by distinct
        #: structures ever seen.
        self._compile_locks: dict[str, list] = {}
        #: fp -> invalidation generation. Entries exist only while a
        #: compile/refresh for that fingerprint is in flight (same
        #: lifetime as ``_compile_locks``): an invalidate with nothing
        #: in flight has nothing to race, so the map stays bounded.
        self._generations: dict[str, int] = {}
        #: Serializes pick-file writes without blocking ``_lock``.
        self._persist_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compiles = 0
        self.invalidations = 0
        self.compile_seconds = 0.0
        self.refreshes = 0
        self.refresh_seconds = 0.0
        self.stale_drops = 0
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

    def _save_picks(self, picks: dict) -> None:
        """Atomically persist a picks *snapshot*.

        Runs under ``_persist_lock`` only — never ``_lock`` — so slow
        file I/O cannot stall concurrent lookups. Callers snapshot
        ``self._picks`` under ``_lock`` and pass the copy here.
        """
        if not self.persist_path:
            return
        blob = {
            "schema": PICKS_SCHEMA,
            "autotune_picks": picks,
        }
        tmp = f"{self.persist_path}.tmp"
        with self._persist_lock:
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
                self.misses += 1
            else:
                self._plans.move_to_end(fingerprint)
                self.hits += 1
        trace.event("cache.hit" if plan is not None else "cache.miss",
                    fingerprint=fingerprint[:12])
        return plan

    def peek(self, fingerprint: str) -> SolvePlan | None:
        """Counter-free lookup: no hit/miss accounting, no LRU touch.

        For observers (the sharded service refreshing a healed plan,
        tests) that must not perturb the hit-rate statistics.
        """
        with self._lock:
            return self._plans.get(fingerprint)

    def put(self, plan: SolvePlan) -> None:
        """Insert a plan, evicting LRU entries beyond capacity."""
        evicted = []
        with self._lock:
            self._plans[plan.fingerprint] = plan
            self._plans.move_to_end(plan.fingerprint)
            while len(self._plans) > self.capacity:
                fp, _ = self._plans.popitem(last=False)
                self.evictions += 1
                evicted.append(fp)
        for fp in evicted:
            trace.event("cache.evict", fingerprint=fp[:12])

    def invalidate(self, fingerprint: str) -> bool:
        """Drop a (poisoned) plan; the next request recompiles it.

        Returns whether an entry was actually removed. Used by the
        self-healing fallback chain
        (:class:`repro.resilience.fallback.FallbackChain`) when a
        cached plan fails validation.

        Scope is strictly this fingerprint: siblings keep their entries
        *and* their hit-rate statistics. If a compile or refresh for
        this fingerprint is in flight, its generation is bumped so the
        concurrent worker's eventual ``put`` is dropped instead of
        resurrecting the plan being poisoned right now.
        """
        with self._lock:
            removed = self._plans.pop(fingerprint, None) is not None
            if removed:
                self.invalidations += 1
            if fingerprint in self._compile_locks:
                self._generations[fingerprint] = \
                    self._generations.get(fingerprint, 0) + 1
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

    # Per-fingerprint serialization --------------------------------------
    def _acquire_flock(self, fp: str) -> list:
        """Refcount-acquire the per-fingerprint compile/refresh lock.

        The entry lives exactly as long as compiles for this
        fingerprint are in flight, so ``_compile_locks`` (and the
        generation map scoped to it) stays bounded by live compiles
        instead of growing with every structure ever requested.
        """
        with self._lock:
            entry = self._compile_locks.get(fp)
            if entry is None:
                entry = self._compile_locks[fp] = [threading.Lock(), 0]
            entry[1] += 1
        return entry

    def _release_flock(self, fp: str, entry: list) -> None:
        with self._lock:
            entry[1] -= 1
            if entry[1] == 0:
                self._compile_locks.pop(fp, None)
                self._generations.pop(fp, None)

    def _guarded_put(self, plan, generation: int) -> bool:
        """Insert unless the fingerprint was invalidated meanwhile.

        ``generation`` is the fingerprint's invalidation generation
        snapshotted *before* the compile/repack started. A concurrent
        :meth:`invalidate` bumps it, in which case this plan is stale —
        built from state the invalidator declared poisoned — and must
        not resurrect the entry. Returns whether the plan was inserted.
        """
        with self._lock:
            if self._generations.get(plan.fingerprint, 0) != generation:
                self.stale_drops += 1
                stale = True
            else:
                stale = False
        if stale:
            trace.event("cache.stale_put_dropped",
                        fingerprint=plan.fingerprint[:12])
            return False
        self.put(plan)
        return True

    # Compile-through ----------------------------------------------------
    def get_or_compile(self, grid: StructuredGrid, stencil,
                       config: PlanConfig | None = None
                       ) -> tuple[SolvePlan, bool]:
        """Return ``(plan, was_hit)`` for a structure, compiling on miss.

        The compile (and its counters) happens under a per-fingerprint
        lock: N concurrent first requests of one structure cost one
        compile, not N.
        """
        config = config if config is not None else PlanConfig()
        fp = structural_fingerprint(grid, stencil, config)
        plan = self.get(fp)
        if plan is not None:
            return plan, True
        entry = self._acquire_flock(fp)
        try:
            with entry[0]:
                return self._compile_locked(grid, stencil, config, fp)
        finally:
            self._release_flock(fp, entry)

    def _compile_locked(self, grid, stencil, config,
                        fp: str) -> tuple[SolvePlan, bool]:
        """Compile-or-coalesce under the per-fingerprint lock."""
        # Double-check: another thread may have compiled meanwhile.
        # Reclassify this request's miss as a hit — it is served
        # from cache, so each get_or_compile contributes exactly
        # one hit-or-miss event.
        with self._lock:
            plan = self._plans.get(fp)
            if plan is not None:
                self._plans.move_to_end(fp)
                self.misses -= 1
                self.hits += 1
            generation = self._generations.get(fp, 0)
        if plan is not None:
            trace.event("cache.coalesced_hit", fingerprint=fp[:12])
            return plan, True
        hint = self.persisted_bsize(fp) if config.bsize is None \
            else None
        t0 = time.perf_counter()
        plan = compile_plan(grid, stencil, config, bsize_hint=hint)
        seconds = time.perf_counter() - t0
        self._record_compile(fp, plan, seconds)
        # Guarded against a concurrent invalidate: inserting would
        # resurrect the plan the invalidator just poisoned. The caller
        # still gets the freshly compiled plan either way.
        self._guarded_put(plan, generation)
        return plan, False

    def _record_compile(self, fp: str, plan, seconds: float) -> None:
        """Count a compile and persist its autotune pick, if any."""
        snapshot = None
        with self._lock:
            self.compiles += 1
            self.compile_seconds += seconds
            if plan.autotuned:
                self._picks[fp] = {
                    "bsize": int(plan.bsize),
                    "block_dims": list(plan.block_dims),
                    "grid": list(plan.grid.dims),
                    "stencil": plan.stencil.name,
                    "backend": plan.config.backend,
                }
                # Snapshot under the lock, write outside it: file
                # I/O must never block concurrent lookups.
                snapshot = dict(self._picks)
        if snapshot is not None:
            self._save_picks(snapshot)

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
          (permutation/tiling/autotune all reused).
        * ``expect_digest`` declared without values and the cached plan
          was factorized from something else — raise
          :class:`~repro.resilience.errors.StaleValuesError`; the
          service must never silently solve with old coefficients.
        """
        import numpy as np

        from repro.serve.ilu_plan import (
            ilu_structural_fingerprint,
            value_digest,
        )

        config = config if config is not None else PlanConfig()
        fp = ilu_structural_fingerprint(grid, stencil, config)
        vd = None
        if values is not None:
            values = np.asarray(values,
                                dtype=config.np_dtype).reshape(-1)
            vd = value_digest(values)
            require(expect_digest is None or expect_digest == vd,
                    "expect_digest contradicts the provided values")
        plan = self.get(fp)
        if plan is not None:
            try:
                return self._serve_ilu_hit(plan, fp, values, vd,
                                           expect_digest), True
            except KeyError:
                # LRU-evicted or invalidated between the get() and the
                # repack's residency re-check (plausible under capacity
                # pressure) — recompile below instead of leaking the
                # KeyError to the caller and failing the request.
                pass
        entry = self._acquire_flock(fp)
        try:
            with entry[0]:
                return self._compile_ilu_locked(
                    grid, stencil, config, fp, values, vd, expect_digest,
                    counted_hit=plan is not None)
        finally:
            self._release_flock(fp, entry)

    def _serve_ilu_hit(self, plan, fp: str, values, vd,
                       expect_digest: str | None,
                       flock_held: bool = False):
        """Verify-on-hit: digest compare, then repack or raise.

        ``flock_held`` says the caller already holds this fingerprint's
        compile/refresh lock (``_compile_ilu_locked``'s coalesced-hit
        path); the repack then runs its lock-assumed body directly —
        re-entering :meth:`refresh_values` would self-deadlock on the
        non-reentrant per-fingerprint lock.
        """
        from repro.resilience.errors import StaleValuesError

        if vd is not None and vd != plan.value_digest:
            if flock_held:
                plan, _ = self._refresh_locked(fp, values)
            else:
                plan, _ = self.refresh_values(fp, values)
            return plan
        if expect_digest is not None \
                and expect_digest != plan.value_digest:
            raise StaleValuesError(fp, expect_digest, plan.value_digest)
        return plan

    def _compile_ilu_locked(self, grid, stencil, config, fp: str,
                            values, vd, expect_digest: str | None,
                            counted_hit: bool = False) -> tuple:
        """ILU compile-or-coalesce under the per-fingerprint lock.

        ``counted_hit`` says the caller's lookup already counted a hit
        (the serve-on-hit path fell through here on a KeyError), so a
        coalesced hit must not reclassify a miss that never happened.
        """
        from repro.serve.ilu_plan import compile_ilu_plan

        with self._lock:
            plan = self._plans.get(fp)
            if plan is not None:
                self._plans.move_to_end(fp)
                if not counted_hit:
                    self.misses -= 1
                    self.hits += 1
                    counted_hit = True
        if plan is not None:
            trace.event("cache.coalesced_hit", fingerprint=fp[:12])
            try:
                return self._serve_ilu_hit(plan, fp, values, vd,
                                           expect_digest,
                                           flock_held=True), True
            except KeyError:
                # Invalidated between the double-check and the repack's
                # residency re-check; fall through to a cold compile.
                pass
        if counted_hit:
            # The lookup was counted as a hit but ends in a compile —
            # keep one-hit-or-miss-per-request accounting honest.
            with self._lock:
                self.hits -= 1
                self.misses += 1
        with self._lock:
            generation = self._generations.get(fp, 0)
        hint = self.persisted_bsize(fp) if config.bsize is None \
            else None
        t0 = time.perf_counter()
        plan = compile_ilu_plan(grid, stencil, config, values=values,
                                bsize_hint=hint)
        seconds = time.perf_counter() - t0
        self._record_compile(fp, plan, seconds)
        self._guarded_put(plan, generation)
        if expect_digest is not None \
                and expect_digest != plan.value_digest:
            from repro.resilience.errors import StaleValuesError

            # A cold compile from canonical values cannot satisfy the
            # declared snapshot; the plan stays cached (a resubmit
            # carrying values repacks it) but this request must fail
            # typed rather than solve with the wrong coefficients.
            raise StaleValuesError(fp, expect_digest, plan.value_digest)
        return plan, False

    def refresh_values(self, fingerprint: str, values) -> tuple:
        """Value-only repack of a cached ILU plan; ``(plan, repacked)``.

        The incremental-recompilation fast path: detects an unchanged
        numeric snapshot by digest (returning the cached plan
        untouched), otherwise re-scatters the DBSR value arrays and
        re-runs the numeric ILU(0) factorization under the same
        per-fingerprint lock compiles use — the permutation, tiling and
        autotune pick are all reused, never recomputed. Raises
        ``KeyError`` when the fingerprint is not resident (repack needs
        a skeleton; callers fall back to :meth:`get_or_compile_ilu`).
        """
        import numpy as np

        from repro.serve.ilu_plan import value_digest

        plan = self.peek(fingerprint)
        if plan is None:
            raise KeyError(
                f"no cached plan for {fingerprint[:12]}…; repack needs "
                f"a resident structure (use get_or_compile_ilu)")
        require(getattr(plan, "kind", "") == "ilu",
                f"plan {fingerprint[:12]}… is not an ILU plan")
        values = np.asarray(values,
                            dtype=plan.config.np_dtype).reshape(-1)
        if value_digest(values) == plan.value_digest:
            return plan, False
        entry = self._acquire_flock(fingerprint)
        try:
            with entry[0]:
                return self._refresh_locked(fingerprint, values)
        finally:
            self._release_flock(fingerprint, entry)

    def _refresh_locked(self, fingerprint: str, values) -> tuple:
        """Repack body; the caller holds this fingerprint's flock.

        Residency is re-checked *under* the lock and a ``KeyError``
        raised when the plan is gone — an invalidate or eviction
        landing between the caller's lookup and the lock acquisition
        must never be papered over by repacking from the caller's stale
        plan object (that would resurrect a just-poisoned entry and
        violate the documented not-resident contract). The generation
        is snapshotted *before* that re-check: an invalidate landing
        after the snapshot bumps it (the flock entry is live) and
        :meth:`_guarded_put` drops the repack; one landing before it
        already evicted the plan and trips the KeyError.
        """
        import numpy as np

        from repro.serve.ilu_plan import repack_ilu_plan, value_digest

        with self._lock:
            generation = self._generations.get(fingerprint, 0)
        current = self.peek(fingerprint)
        if current is None:
            raise KeyError(
                f"no cached plan for {fingerprint[:12]}…; it was "
                f"evicted or invalidated before the repack started")
        require(getattr(current, "kind", "") == "ilu",
                f"plan {fingerprint[:12]}… is not an ILU plan")
        values = np.asarray(values,
                            dtype=current.config.np_dtype).reshape(-1)
        # A concurrent refresh may have installed this exact snapshot
        # while we waited on the lock.
        if value_digest(values) == current.value_digest:
            return current, False
        t0 = time.perf_counter()
        fresh = repack_ilu_plan(current, values)
        seconds = time.perf_counter() - t0
        with self._lock:
            self.refreshes += 1
            self.refresh_seconds += seconds
        self._guarded_put(fresh, generation)
        return fresh, True

    # Reporting ----------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up yet).

        Reads both counters under ``_lock`` so a concurrent
        miss→hit reclassification cannot be observed half-applied.
        """
        with self._lock:
            hits, total = self.hits, self.hits + self.misses
        return hits / total if total else 0.0

    def stats(self) -> dict:
        """Machine-readable counter snapshot.

        The whole snapshot is taken under one ``_lock`` acquisition —
        every counter pair is mutually consistent (no torn reads), and
        ``hit_rate`` is derived from the snapshot itself rather than
        re-read.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
            snap = {
                "capacity": self.capacity,
                "size": len(self._plans),
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses)
                if hits + misses else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "compiles": self.compiles,
                "compile_seconds": self.compile_seconds,
                "refreshes": self.refreshes,
                "refresh_seconds": self.refresh_seconds,
                "stale_drops": self.stale_drops,
                "persisted_picks": len(self._picks),
            }
        return snap
