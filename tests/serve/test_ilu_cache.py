"""PlanCache ILU paths: split fingerprint, repack, and the bugfix sweep.

Three regressions ride along, each pinned to a historical bug:

* **Resurrection race** — an :meth:`~repro.serve.cache.PlanCache.invalidate`
  landing while a compile/refresh for the same fingerprint is in
  flight used to be overwritten when the worker's ``put`` landed;
  generation counting now drops the stale insert.
* **Verify-on-hit** — a structure hit whose value digest mismatches
  must repack (values provided) or raise a *typed*
  :class:`~repro.resilience.errors.StaleValuesError` (digest declared
  without values), never silently serve old coefficients.
* **Fingerprint-scoped invalidation** — invalidating or refreshing one
  structure never flushes a sibling or perturbs its statistics.
"""

import threading

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.resilience.errors import StaleValuesError
from repro.serve.cache import PlanCache
from repro.serve.ilu_plan import ilu_structural_fingerprint
from repro.serve.plan import PlanConfig

pytestmark = pytest.mark.fast

GRID = StructuredGrid((6, 6, 6))
SIBLING = StructuredGrid((5, 5, 5))
CONFIG = PlanConfig(bsize=4)


def _perturbed(plan, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    return plan.values_src * (
        1.0 + scale * rng.uniform(-1.0, 1.0, plan.values_src.shape))


# Compile-through and the split fingerprint ---------------------------------

def test_miss_then_hit_and_separate_namespace():
    cache = PlanCache(capacity=4)
    plan, hit = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    assert not hit and plan.kind == "ilu"
    again, hit = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    assert hit and again is plan
    # A triangular plan of the same geometry occupies its own slot.
    tri, hit = cache.get_or_compile(GRID, "27pt", CONFIG)
    assert not hit and tri.fingerprint != plan.fingerprint
    assert len(cache) == 2


def test_hit_with_matching_digest_serves_cached_object():
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    served, hit = cache.get_or_compile_ilu(
        GRID, "27pt", CONFIG, values=plan.values_src)
    assert hit and served is plan
    assert cache.refreshes == 0


def test_hit_with_new_values_repacks_in_place():
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    v2 = _perturbed(plan, seed=2)
    served, hit = cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                           values=v2)
    assert hit and served is not plan
    assert served.refreshed and cache.refreshes == 1
    assert cache.peek(plan.fingerprint) is served


def test_refresh_values_requires_resident_structure():
    cache = PlanCache(capacity=4)
    with pytest.raises(KeyError):
        cache.refresh_values("no-such-fingerprint", np.ones(4))


def test_refresh_values_same_digest_is_a_noop():
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    served, repacked = cache.refresh_values(plan.fingerprint,
                                            plan.values_src)
    assert not repacked and served is plan
    assert cache.refreshes == 0


def test_refresh_values_rejects_non_ilu_plans():
    cache = PlanCache(capacity=4)
    tri, _ = cache.get_or_compile(GRID, "27pt", CONFIG)
    with pytest.raises(Exception):
        cache.refresh_values(tri.fingerprint, np.ones(4))


# Bugfix 2: verify-on-hit ---------------------------------------------------

def test_declared_digest_mismatch_raises_typed_error():
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    with pytest.raises(StaleValuesError):
        cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                 expect_digest="0" * 64)
    # The cached plan is untouched — a later resubmit with the actual
    # values repacks instead of failing.
    assert cache.peek(plan.fingerprint) is plan
    v2 = _perturbed(plan, seed=4)
    served, hit = cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                           values=v2)
    assert hit and served.refreshed


def test_declared_digest_match_is_served():
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    served, hit = cache.get_or_compile_ilu(
        GRID, "27pt", CONFIG, expect_digest=plan.value_digest)
    assert hit and served is plan


def test_cold_compile_cannot_satisfy_foreign_digest():
    cache = PlanCache(capacity=4)
    fp = ilu_structural_fingerprint(GRID, "27pt", CONFIG)
    with pytest.raises(StaleValuesError):
        cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                 expect_digest="f" * 64)
    # The compile itself is kept (the structure is sound), only the
    # request fails typed.
    assert cache.peek(fp) is not None


def test_values_contradicting_expect_digest_rejected():
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    with pytest.raises(Exception):
        cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                 values=_perturbed(plan),
                                 expect_digest="0" * 64)


# Bugfix 1: resurrection race ----------------------------------------------

def test_invalidate_during_refresh_drops_stale_put():
    """The threaded race, deterministically interleaved.

    A refresh snapshots its generation, then blocks inside the repack
    (monkeypatched barrier); an invalidate lands meanwhile. The
    refresh's eventual put must be dropped — the invalidator declared
    this fingerprint poisoned — and counted in ``stale_drops``.
    """
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    fp = plan.fingerprint

    in_repack = threading.Event()
    release = threading.Event()
    from repro.serve import ilu_plan as ilu_mod

    real_repack = ilu_mod.repack_ilu_plan

    def slow_repack(p, values):
        in_repack.set()
        assert release.wait(10)
        return real_repack(p, values)

    results = {}

    def worker():
        try:
            results["out"] = cache.refresh_values(
                fp, _perturbed(plan, seed=6))
        except Exception as exc:  # pragma: no cover - diagnostic
            results["err"] = exc

    # refresh_values imports repack_ilu_plan at call time, so patching
    # the module symbol intercepts it.
    try:
        ilu_mod.repack_ilu_plan = slow_repack
        t = threading.Thread(target=worker)
        t.start()
        assert in_repack.wait(10)
        assert cache.invalidate(fp)
        release.set()
        t.join(10)
    finally:
        ilu_mod.repack_ilu_plan = real_repack

    assert "err" not in results
    fresh, repacked = results["out"]
    assert repacked  # the caller still gets its freshly packed plan
    # ... but the cache must NOT have been resurrected with it.
    assert cache.peek(fp) is None
    assert cache.stale_drops == 1


def test_invalidate_during_cold_ilu_compile_drops_stale_put():
    cache = PlanCache(capacity=4)
    fp = ilu_structural_fingerprint(GRID, "27pt", CONFIG)

    in_compile = threading.Event()
    release = threading.Event()
    from repro.serve import ilu_plan as ilu_mod

    real_compile = ilu_mod.compile_ilu_plan

    def slow_compile(grid, stencil, config, values=None,
                     bsize_hint=None):
        in_compile.set()
        assert release.wait(10)
        return real_compile(grid, stencil, config, values=values,
                            bsize_hint=bsize_hint)

    results = {}

    def worker():
        results["out"] = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)

    try:
        ilu_mod.compile_ilu_plan = slow_compile
        t = threading.Thread(target=worker)
        t.start()
        assert in_compile.wait(10)
        cache.invalidate(fp)  # nothing resident yet: bumps generation
        release.set()
        t.join(10)
    finally:
        ilu_mod.compile_ilu_plan = real_compile

    plan, hit = results["out"]
    assert not hit and plan.kind == "ilu"
    assert cache.peek(fp) is None
    assert cache.stale_drops == 1


# Coalesced-repack deadlock and residency races -----------------------------

def test_coalesced_hit_with_new_snapshot_does_not_deadlock():
    """Two concurrent first requests, same structure, different values.

    The follower coalesces on the leader's compile, sees a mismatched
    value digest and must repack — while already holding the
    per-fingerprint lock. The repack used to re-enter
    ``refresh_values`` and re-acquire that same non-reentrant lock,
    hanging the drain thread forever; it now runs the lock-assumed
    repack body directly.
    """
    from repro.serve import ilu_plan as ilu_mod
    from repro.serve.ilu_plan import value_digest

    donor, _ = PlanCache(capacity=1).get_or_compile_ilu(
        GRID, "27pt", CONFIG)
    v1 = donor.values_src
    v2 = _perturbed(donor, seed=11)

    cache = PlanCache(capacity=4)
    fp = ilu_structural_fingerprint(GRID, "27pt", CONFIG)
    in_compile = threading.Event()
    release = threading.Event()
    real_compile = ilu_mod.compile_ilu_plan

    def slow_compile(grid, stencil, config, values=None,
                     bsize_hint=None):
        in_compile.set()
        assert release.wait(10)
        return real_compile(grid, stencil, config, values=values,
                            bsize_hint=bsize_hint)

    results = {}

    def worker(name, vals):
        results[name] = cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                                 values=vals)

    try:
        ilu_mod.compile_ilu_plan = slow_compile
        leader = threading.Thread(target=worker, args=("a", v1),
                                  daemon=True)
        leader.start()
        assert in_compile.wait(10)
        follower = threading.Thread(target=worker, args=("b", v2),
                                    daemon=True)
        follower.start()
        # Park the follower on the per-fingerprint lock (refcount 2)
        # before releasing the leader's compile.
        for _ in range(500):
            if cache._compile_locks.get(fp, [None, 0])[1] == 2:
                break
            threading.Event().wait(0.01)
        assert cache._compile_locks.get(fp, [None, 0])[1] == 2
        release.set()
        leader.join(15)
        follower.join(15)
        assert not leader.is_alive() and not follower.is_alive(), \
            "coalesced repack deadlocked on the per-fingerprint lock"
    finally:
        ilu_mod.compile_ilu_plan = real_compile

    plan_a, hit_a = results["a"]
    plan_b, hit_b = results["b"]
    assert not hit_a and hit_b
    assert plan_b.refreshed and cache.refreshes == 1
    assert plan_b.value_digest == value_digest(
        np.asarray(v2, dtype=plan_b.config.np_dtype).reshape(-1))
    assert cache.peek(fp) is plan_b


def test_invalidate_before_flock_raises_not_resurrects(monkeypatch):
    """Invalidate landing between the peek and the lock acquisition.

    No compile is in flight at invalidate time, so no generation bump
    happens; ``refresh_values`` used to fall back to the caller's
    stale plan object, repack it, and reinsert — resurrecting the
    just-poisoned entry. It must instead honor the documented contract
    and raise ``KeyError``.
    """
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    fp = plan.fingerprint
    real_acquire = cache._acquire_flock

    def invalidate_then_acquire(f):
        assert cache.invalidate(f)
        return real_acquire(f)

    monkeypatch.setattr(cache, "_acquire_flock",
                        invalidate_then_acquire)
    with pytest.raises(KeyError):
        cache.refresh_values(fp, _perturbed(plan, seed=3))
    assert cache.peek(fp) is None
    assert cache.refreshes == 0


def test_eviction_between_hit_and_repack_falls_back_to_compile(
        monkeypatch):
    """A hit whose plan vanishes before the repack recompiles instead
    of leaking ``KeyError`` (plausible under LRU capacity pressure)."""
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    fp = plan.fingerprint
    real_refresh = cache.refresh_values

    def evict_then_refresh(fingerprint, values):
        with cache._lock:
            cache._plans.pop(fingerprint, None)
        return real_refresh(fingerprint, values)

    monkeypatch.setattr(cache, "refresh_values", evict_then_refresh)
    served, hit = cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                           values=_perturbed(plan,
                                                             seed=5))
    assert not hit and served is not plan and served.kind == "ilu"
    assert cache.peek(fp) is served
    # The lookup was first counted a hit, then reclassified when it
    # ended in a compile: one hit-or-miss event per request.
    assert cache.stats()["hits"] == 0
    assert cache.stats()["misses"] == 2


# Sibling isolation ---------------------------------------------------------

def test_invalidation_and_refresh_are_fingerprint_scoped():
    cache = PlanCache(capacity=4)
    plan_a, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    plan_b, _ = cache.get_or_compile_ilu(SIBLING, "27pt", CONFIG)
    for _ in range(3):
        cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
        cache.get_or_compile_ilu(SIBLING, "27pt", CONFIG)
    hits_before = cache.hits
    assert cache.invalidate(plan_a.fingerprint)
    # B is still resident, still the same object, still a pure hit.
    served_b, hit = cache.get_or_compile_ilu(SIBLING, "27pt", CONFIG)
    assert hit and served_b is plan_b
    assert cache.hits == hits_before + 1
    # Refreshing A's values (after recompiling it) leaves B alone.
    plan_a2, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    cache.refresh_values(plan_a2.fingerprint,
                         _perturbed(plan_a2, seed=9))
    assert cache.peek(plan_b.fingerprint) is plan_b
