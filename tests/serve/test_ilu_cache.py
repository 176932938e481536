"""PlanCache ILU paths: split fingerprint, repack, and the bugfix sweep.

Three regressions ride along, each pinned to a historical bug:

* **Resurrection race** — an :meth:`~repro.serve.cache.PlanCache.invalidate`
  landing while a compile/refresh for the same fingerprint is in
  flight used to be overwritten when the worker's ``put`` landed;
  the invalidate now marks the flight stale and its insert is dropped.
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
    assert cache.stats()["refreshes"] == 0


def test_hit_with_new_values_repacks_in_place():
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    v2 = _perturbed(plan, seed=2)
    served, hit = cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                           values=v2)
    assert hit and served is not plan
    assert served.refreshed and cache.stats()["refreshes"] == 1
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
    assert cache.stats()["refreshes"] == 0


def test_refresh_values_rejects_non_ilu_plans():
    cache = PlanCache(capacity=4)
    tri, _ = cache.get_or_compile(GRID, "27pt", CONFIG)
    with pytest.raises(Exception):
        cache.refresh_values(tri.fingerprint, np.ones(4))


# Bytes decide a hit; the digest labels a repack ---------------------------

def _count_digests(monkeypatch):
    from repro.serve import ilu_plan as ilu_mod

    calls = []
    real = ilu_mod.value_digest

    def spy(values):
        calls.append(1)
        return real(values)

    monkeypatch.setattr(ilu_mod, "value_digest", spy)
    return calls


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_equal_snapshot_in_a_fresh_array_hits_without_hashing(
        monkeypatch, dtype):
    config = PlanConfig(bsize=4, dtype=dtype)
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", config)
    calls = _count_digests(monkeypatch)
    # A fresh float64 array: float32 configs normalize it first.
    fresh = np.array(plan.values_src, dtype=np.float64)
    served, hit = cache.get_or_compile_ilu(GRID, "27pt", config,
                                           values=fresh)
    assert hit and served is plan and calls == []
    served, hit = cache.get_or_compile_ilu(
        GRID, "27pt", config, values=_perturbed(plan, seed=3))
    assert hit and served.refreshed and len(calls) == 1
    assert served.values_src.dtype == config.np_dtype
    assert served.value_digest == cache.peek(plan.fingerprint) \
        .value_digest
    assert cache.stats()["refreshes"] == 1


def test_float32_snapshot_one_ulp_apart_repacks():
    config = PlanConfig(bsize=4, dtype="f32")
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", config)
    v2 = plan.values_src.copy()
    v2[0] = np.nextafter(v2[0], np.float32(np.inf))
    served, hit = cache.get_or_compile_ilu(GRID, "27pt", config,
                                           values=v2)
    assert hit and served.refreshed
    assert np.array_equal(served.values_src, v2)


def test_signed_zero_snapshots_are_different():
    """``-0.0 == +0.0`` as floats, but not as snapshots: the cache
    repacks, exactly as two different SHA-256 labels would say."""
    base = PlanCache(capacity=1).get_or_compile_ilu(
        GRID, "27pt", CONFIG)[0].values_src
    diag = np.flatnonzero(base == base.max())
    off = np.setdiff1d(np.arange(base.size), diag)[0]
    plus = base.copy()
    plus[off] = 0.0
    minus = plus.copy()
    minus[off] = -0.0
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG, values=plus)
    served, hit = cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                           values=minus)
    assert hit and served.refreshed and served is not plan
    assert served.value_digest != plan.value_digest
    assert np.signbit(served.values_src[off])
    assert cache.stats()["refreshes"] == 1


def test_nan_payloads_are_different_snapshots(monkeypatch):
    """Two NaNs with different payloads repack (a stubbed repack: the
    real one refuses non-finite factors)."""
    from repro.serve import ilu_plan as ilu_mod

    repacks = []

    def repack(plan, values, digest):
        repacks.append(digest)
        return ilu_mod.ILUPlan(**{**vars(plan), "values_src": values,
                                  "value_digest": digest})

    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    monkeypatch.setattr(ilu_mod, "repack_ilu_plan", repack)
    quiet = plan.values_src.copy()
    quiet.view(np.uint64)[0] = 0x7FF8000000000000
    payload = quiet.copy()
    payload.view(np.uint64)[0] = 0x7FF8000000000001
    assert np.isnan(quiet[0]) and np.isnan(payload[0])
    first, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                        values=quiet)
    again, hit = cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                          values=quiet.copy())
    assert hit and again is first and len(repacks) == 1
    second, hit = cache.get_or_compile_ilu(GRID, "27pt", CONFIG,
                                           values=payload)
    assert hit and second is not first and len(repacks) == 2
    assert repacks[0] != repacks[1]


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

    def slow_repack(p, values, digest):
        in_repack.set()
        assert release.wait(10)
        return real_repack(p, values, digest)

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
    assert cache.stats()["stale_drops"] == 1


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
    assert cache.stats()["stale_drops"] == 1


# Coalesced-repack deadlock and residency races -----------------------------

def test_coalesced_hit_with_new_snapshot_does_not_deadlock(flight_waits):
    """Two concurrent first requests, same structure, different values.

    The follower coalesces on the leader's compile, sees a mismatched
    value digest and must repack. The repack once ran while the
    follower still held the per-fingerprint compile lock, re-entered
    ``refresh_values`` and re-acquired that non-reentrant lock, hanging
    the drain thread forever. Now the follower waits on the leader's
    flight with no lock held and then repacks like any other hit.
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
        # Park the follower on the leader's flight before releasing the
        # leader's compile.
        assert flight_waits.acquire(timeout=10)
        release.set()
        leader.join(15)
        follower.join(15)
        assert not leader.is_alive() and not follower.is_alive(), \
            "coalesced repack deadlocked behind the leader's flight"
    finally:
        ilu_mod.compile_ilu_plan = real_compile

    plan_a, hit_a = results["a"]
    plan_b, hit_b = results["b"]
    assert not hit_a and hit_b
    assert plan_b.refreshed and cache.stats()["refreshes"] == 1
    assert plan_b.value_digest == value_digest(
        np.asarray(v2, dtype=plan_b.config.np_dtype).reshape(-1))
    assert cache.peek(fp) is plan_b


def test_invalidate_before_flock_raises_not_resurrects(monkeypatch):
    """Invalidate landing between the peek and the locked re-check.

    No repack is in flight at invalidate time, so no flight is marked
    stale; ``refresh_values`` used to fall back to the caller's stale
    plan object, repack it, and reinsert — resurrecting the
    just-poisoned entry. It must instead honor the documented contract
    and raise ``KeyError``.
    """
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    fp = plan.fingerprint
    real_peek = cache.peek

    def peek_then_invalidate(f):
        found = real_peek(f)
        monkeypatch.setattr(cache, "peek", real_peek)
        assert cache.invalidate(f)
        return found

    monkeypatch.setattr(cache, "peek", peek_then_invalidate)
    with pytest.raises(KeyError):
        cache.refresh_values(fp, _perturbed(plan, seed=3))
    assert cache.peek(fp) is None
    assert cache.stats()["refreshes"] == 0


def test_eviction_between_hit_and_repack_falls_back_to_compile(
        monkeypatch):
    """A hit whose plan vanishes before the repack recompiles instead
    of leaking ``KeyError`` (plausible under LRU capacity pressure)."""
    cache = PlanCache(capacity=4)
    plan, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    fp = plan.fingerprint
    real_refresh = cache._refresh

    def evict_then_refresh(fingerprint, values, vd):
        with cache._lock:
            cache._plans.pop(fingerprint, None)
        return real_refresh(fingerprint, values, vd)

    monkeypatch.setattr(cache, "_refresh", evict_then_refresh)
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
    hits_before = cache.stats()["hits"]
    assert cache.invalidate(plan_a.fingerprint)
    # B is still resident, still the same object, still a pure hit.
    served_b, hit = cache.get_or_compile_ilu(SIBLING, "27pt", CONFIG)
    assert hit and served_b is plan_b
    assert cache.stats()["hits"] == hits_before + 1
    # Refreshing A's values (after recompiling it) leaves B alone.
    plan_a2, _ = cache.get_or_compile_ilu(GRID, "27pt", CONFIG)
    cache.refresh_values(plan_a2.fingerprint,
                         _perturbed(plan_a2, seed=9))
    assert cache.peek(plan_b.fingerprint) is plan_b
