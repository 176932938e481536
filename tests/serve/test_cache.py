"""PlanCache: LRU semantics, counters, persistence, thread-safety."""

import json
import threading

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig, structural_fingerprint


CFG = PlanConfig(bsize=4, n_workers=2)


def _grid(nx=8):
    return StructuredGrid((nx, nx, nx))


def test_miss_then_hit_counters():
    cache = PlanCache(capacity=4)
    plan, hit = cache.get_or_compile(_grid(), "27pt", CFG)
    assert not hit
    again, hit2 = cache.get_or_compile(_grid(), "27pt", CFG)
    assert hit2
    assert again is plan  # same object, not a recompile
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert cache.stats()["compiles"] == 1
    assert cache.stats()["compile_seconds"] > 0
    assert cache.stats()["hit_rate"] == 0.5
    assert len(cache) == 1
    assert plan.fingerprint in cache


def test_lru_eviction_order():
    cache = PlanCache(capacity=2)
    p1, _ = cache.get_or_compile(_grid(4), "7pt", CFG)
    p2, _ = cache.get_or_compile(_grid(4), "27pt", CFG)
    # Touch p1 so p2 becomes least-recently-used.
    cache.get_or_compile(_grid(4), "7pt", CFG)
    cache.get_or_compile(_grid(6), "7pt", CFG)  # evicts p2
    assert cache.stats()["evictions"] == 1
    assert p1.fingerprint in cache
    assert p2.fingerprint not in cache
    # Re-requesting the evicted structure recompiles.
    _, hit = cache.get_or_compile(_grid(4), "27pt", CFG)
    assert not hit
    assert cache.stats()["compiles"] == 4


def test_get_without_entry_counts_miss():
    cache = PlanCache()
    assert cache.get("0" * 64) is None
    assert cache.stats()["misses"] == 1
    assert cache.stats()["hit_rate"] == 0.0


def test_cached_plan_results_bit_identical_to_fresh(rng):
    """ISSUE criterion: a cached plan must produce bit-identical
    results vs a freshly compiled plan for the same structure."""
    from repro.serve.plan import compile_plan

    cache = PlanCache()
    cached, _ = cache.get_or_compile(_grid(), "27pt", CFG)
    fresh = compile_plan(_grid(), "27pt", CFG)
    assert cached.fingerprint == fresh.fingerprint
    b = rng.standard_normal(cached.n)
    for op in ("lower", "upper", "spmv", "symgs"):
        assert np.array_equal(cached.execute(op, b),
                              fresh.execute(op, b)), op


def test_concurrent_same_structure_compiles_once():
    cache = PlanCache()
    results = []
    barrier = threading.Barrier(4)

    def worker():
        barrier.wait()
        results.append(cache.get_or_compile(_grid(), "27pt", CFG))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.stats()["compiles"] == 1
    plans = {id(plan) for plan, _ in results}
    assert len(plans) == 1  # everyone got the same object
    # Exactly one miss; the other three are (reclassified) hits.
    assert cache.stats()["misses"] == 1
    assert cache.stats()["hits"] == 3


def test_autotune_pick_persisted_across_instances(tmp_path):
    path = str(tmp_path / "picks.json")
    auto = PlanConfig(bsize=None, machine="kp920", n_workers=2)
    cache1 = PlanCache(persist_path=path)
    plan1, _ = cache1.get_or_compile(_grid(), "27pt", auto)
    assert plan1.autotuned
    blob = json.loads(open(path).read())
    assert blob["schema"] == "dbsr-repro/autotune-picks/v2"
    fp = structural_fingerprint(_grid(), "27pt", auto)
    assert blob["autotune_picks"][fp]["bsize"] == plan1.bsize
    assert blob["autotune_picks"][fp]["backend"] == auto.backend

    # A cold cache in a "new process" reuses the pick: same bsize,
    # no autotune sweep on the recompile.
    cache2 = PlanCache(persist_path=path)
    assert cache2.persisted_bsize(fp) == plan1.bsize
    plan2, hit = cache2.get_or_compile(_grid(), "27pt", auto)
    assert not hit  # cold cache still compiles...
    assert not plan2.autotuned  # ...but skipped the sweep
    assert plan2.bsize == plan1.bsize
    assert plan2.fingerprint == plan1.fingerprint


def test_corrupt_persist_file_is_ignored(tmp_path):
    path = tmp_path / "picks.json"
    path.write_text("{not json")
    cache = PlanCache(persist_path=str(path))
    assert cache.stats()["persisted_picks"] == 0
    # And serving still works end to end.
    plan, _ = cache.get_or_compile(_grid(4), "7pt", CFG)
    assert plan.n == 64


def test_pinned_bsize_not_persisted(tmp_path):
    path = tmp_path / "picks.json"
    cache = PlanCache(persist_path=str(path))
    cache.get_or_compile(_grid(), "27pt", CFG)  # bsize pinned to 4
    assert not path.exists()


def test_stats_schema():
    cache = PlanCache(capacity=3)
    cache.get_or_compile(_grid(4), "7pt", CFG)
    s = cache.stats()
    assert s["capacity"] == 3
    assert s["size"] == 1
    assert s["compiles"] == 1
    assert set(s) == {"capacity", "size", "hits", "misses", "hit_rate",
                      "evictions", "invalidations", "compiles",
                      "compile_seconds", "persisted_picks", "refreshes",
                      "refresh_seconds", "stale_drops"}
    json.dumps(s)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


def test_legacy_v1_pick_file_ignored_with_warning(tmp_path):
    """Schema drift regression: a v1 pick file (pre-backend keying)
    must be discarded with a warning, not silently half-read."""
    path = tmp_path / "picks.json"
    path.write_text(json.dumps({
        "schema": "dbsr-repro/autotune-picks/v1",
        "autotune_picks": {"deadbeef": {"bsize": 64}},
    }))
    with pytest.warns(RuntimeWarning, match="autotune-picks/v2"):
        cache = PlanCache(persist_path=str(path))
    assert cache.stats()["persisted_picks"] == 0


def test_schemaless_json_with_picks_key_ignored(tmp_path):
    path = tmp_path / "picks.json"
    path.write_text(json.dumps({
        "autotune_picks": {"deadbeef": {"bsize": 64}},
    }))
    with pytest.warns(RuntimeWarning, match="schema None"):
        cache = PlanCache(persist_path=str(path))
    assert cache.persisted_bsize("deadbeef") is None


def test_current_schema_file_loads_silently(tmp_path):
    import warnings as _warnings

    path = tmp_path / "picks.json"
    path.write_text(json.dumps({
        "schema": "dbsr-repro/autotune-picks/v2",
        "autotune_picks": {"cafe": {"bsize": 8, "backend": "numpy-fast"}},
    }))
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        cache = PlanCache(persist_path=str(path))
    assert cache.persisted_bsize("cafe") == 8
