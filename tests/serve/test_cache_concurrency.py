"""Regression tests for the PlanCache concurrency fixes.

Historical bugs, each with a dedicated regression here:

* the per-fingerprint compile-lock map grew one entry per distinct
  fingerprint forever; its successor, ``_inflight``, holds one flight
  per *running* compile and is empty at rest.
* ``_save_picks`` wrote the picks JSON while holding the global
  ``_lock``, stalling every concurrent lookup during file I/O; writes
  now happen outside it, under a dedicated ``_persist_lock``.
* a pick-file writer that snapshotted the picks before taking
  ``_persist_lock`` could overwrite a newer snapshot with its older one;
  the snapshot is now taken under the write lock.
* ``hit_rate``/``stats()`` read counters without the lock, so a reader
  racing a counter update could observe torn values; snapshots are now
  taken under one lock acquisition.

A compile that raises must free its flight: the callers waiting on it
retry, one of them leads, and nobody hangs. And many threads repacking
and invalidating under a 10 µs switch interval never see old
coefficients.
"""

import json
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig, structural_fingerprint

pytestmark = pytest.mark.fast


def _stub_compile(monkeypatch, barrier=None):
    """Replace compile_plan with a cheap fingerprint-faithful stub."""
    def fake_compile(grid, stencil, config, bsize_hint=None):
        if barrier is not None:
            barrier.wait()
        return SimpleNamespace(
            autotuned=False, bsize=1,
            fingerprint=structural_fingerprint(grid, stencil, config))

    monkeypatch.setattr("repro.serve.cache.compile_plan", fake_compile)


GRIDS = [StructuredGrid((n, 4)) for n in (2, 3, 4, 5, 6)]


class TestCompileLockPruning:
    def test_map_empty_after_sequential_compiles(self, monkeypatch):
        _stub_compile(monkeypatch)
        cache = PlanCache(capacity=2)
        for g in GRIDS:
            cache.get_or_compile(g, "5pt", PlanConfig(bsize=2))
        # 5 distinct structures (3 already evicted) — no flight leak.
        assert cache._inflight == {}
        assert cache.stats()["compiles"] == len(GRIDS)

    def test_map_bounded_by_live_compiles(self, monkeypatch,
                                          flight_waits):
        release = threading.Event()

        def slow_compile(grid, stencil, config, bsize_hint=None):
            started.set()
            assert release.wait(10)
            return SimpleNamespace(
                autotuned=False, bsize=1,
                fingerprint=structural_fingerprint(
                    grid, stencil, config))

        monkeypatch.setattr("repro.serve.cache.compile_plan",
                            slow_compile)
        cache = PlanCache()
        started = threading.Event()
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_compile(
                    GRIDS[0], "5pt", PlanConfig(bsize=2))))
            for _ in range(4)]
        threads[0].start()
        assert started.wait(10)
        for t in threads[1:]:
            t.start()
        # One structure in flight -> exactly one flight, however many
        # requests coalesce on it.
        for _ in threads[1:]:
            assert flight_waits.acquire(timeout=10)
        assert len(cache._inflight) == 1
        release.set()
        for t in threads:
            t.join(10)
        assert cache._inflight == {}
        assert cache.stats()["compiles"] == 1
        assert len(results) == 4
        # Exactly one miss; the coalesced followers count hits.
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 3


class TestPicksWriteOutsideLock:
    def test_global_lock_free_during_write(self, tmp_path, monkeypatch):
        path = str(tmp_path / "picks.json")
        cache = PlanCache(capacity=4, persist_path=path)
        observed = []
        real_replace = os.replace

        def spy_replace(src, dst):
            # The fix's contract: file I/O holds only _persist_lock,
            # never the global counter lock.
            free = cache._lock.acquire(blocking=False)
            if free:
                cache._lock.release()
            observed.append((free, cache._persist_lock.locked()))
            return real_replace(src, dst)

        monkeypatch.setattr("repro.serve.cache.os.replace", spy_replace)
        plan, hit = cache.get_or_compile(
            StructuredGrid((4, 4)), "5pt", PlanConfig())
        assert not hit and plan.autotuned
        assert observed == [(True, True)]

    def test_atomic_persistence_survives(self, tmp_path):
        path = str(tmp_path / "picks.json")
        cache = PlanCache(persist_path=path)
        plan, _ = cache.get_or_compile(
            StructuredGrid((4, 4)), "5pt", PlanConfig())
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        fresh = PlanCache(persist_path=path)
        assert fresh.persisted_bsize(plan.fingerprint) == plan.bsize


class TestPicksLostUpdate:
    def test_older_snapshot_never_overwrites_newer(self, tmp_path,
                                                   monkeypatch):
        """Two compiles persist their picks; the file keeps both.

        The first writer is held between recording its pick and writing
        the file while a second compile records and writes its own. A
        writer that snapshotted the picks before taking the write lock
        then overwrote the file with its older one-pick snapshot.
        """
        def autotuned_compile(grid, stencil, config, bsize_hint=None):
            return SimpleNamespace(
                autotuned=True, bsize=2, block_dims=(1, 2), grid=grid,
                stencil=SimpleNamespace(name=stencil), config=config,
                fingerprint=structural_fingerprint(grid, stencil, config))

        monkeypatch.setattr("repro.serve.cache.compile_plan",
                            autotuned_compile)
        path = str(tmp_path / "picks.json")
        cache = PlanCache(persist_path=path)
        real_save = cache._save_picks
        first_in, second_saved = threading.Event(), threading.Event()

        def held_save(*args):
            if not first_in.is_set():
                first_in.set()
                assert second_saved.wait(10)
            real_save(*args)

        monkeypatch.setattr(cache, "_save_picks", held_save)
        first = threading.Thread(target=cache.get_or_compile,
                                 args=(GRIDS[0], "5pt", PlanConfig()))
        first.start()
        assert first_in.wait(10)
        cache.get_or_compile(GRIDS[1], "5pt", PlanConfig())
        second_saved.set()
        first.join(10)
        assert not first.is_alive()
        with open(path) as fh:
            on_disk = json.load(fh)["autotune_picks"]
        assert cache.stats()["persisted_picks"] == 2
        assert len(on_disk) == 2


class TestFlightFailure:
    def test_failed_leader_frees_waiters_and_one_leads(
            self, monkeypatch, flight_waits):
        started, release = threading.Event(), threading.Event()
        compiles = []

        def failing_once(grid, stencil, config, bsize_hint=None):
            compiles.append(grid)
            if len(compiles) == 1:
                started.set()
                assert release.wait(10)
                raise RuntimeError("compile failed")
            return SimpleNamespace(
                autotuned=False, bsize=1,
                fingerprint=structural_fingerprint(
                    grid, stencil, config))

        monkeypatch.setattr("repro.serve.cache.compile_plan",
                            failing_once)
        cache = PlanCache()
        results = {}

        def request(i):
            try:
                results[i] = cache.get_or_compile(
                    GRIDS[0], "5pt", PlanConfig(bsize=2))
            except RuntimeError as exc:
                results[i] = exc

        threads = [threading.Thread(target=request, args=(i,),
                                    daemon=True) for i in range(4)]
        threads[0].start()
        assert started.wait(10)
        for t in threads[1:]:
            t.start()
        for _ in threads[1:]:
            assert flight_waits.acquire(timeout=10)
        release.set()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads), "a waiter hung"
        assert isinstance(results[0], RuntimeError)
        served = [results[i] for i in (1, 2, 3)]
        # One waiter led the retry; the others were served its plan.
        assert sorted(hit for _, hit in served) == [False, True, True]
        assert len({id(plan) for plan, _ in served}) == 1
        assert cache._inflight == {}
        # Each led compile counted one miss; only the retry compiled.
        assert len(compiles) == 2
        s = cache.stats()
        assert (s["misses"], s["hits"], s["compiles"]) == (2, 2, 1)


class TestSnapshotConsistency:
    def test_threaded_stats_never_torn(self, monkeypatch):
        _stub_compile(monkeypatch)
        cache = PlanCache(capacity=len(GRIDS))
        stop = threading.Event()
        bad: list = []

        def reader():
            last_total = 0
            while not stop.is_set():
                snap = cache.stats()
                total = snap["hits"] + snap["misses"]
                expect = (snap["hits"] / total) if total else 0.0
                if snap["hit_rate"] != expect or total < last_total \
                        or snap["hits"] < 0 or snap["misses"] < 0:
                    bad.append(snap)
                    return
                last_total = total

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                g = GRIDS[int(rng.integers(len(GRIDS)))]
                cache.get_or_compile(g, "5pt", PlanConfig(bsize=2))

        readers = [threading.Thread(target=reader) for _ in range(2)]
        workers = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in readers + workers:
            t.start()
        for t in workers:
            t.join(30)
        stop.set()
        for t in readers:
            t.join(30)
        assert not bad, f"torn snapshot observed: {bad[0]}"
        snap = cache.stats()
        assert snap["hits"] + snap["misses"] == 8 * 300
        assert snap["compiles"] == len(GRIDS)
        assert cache.stats()["hit_rate"] == snap["hits"] / (8 * 300)

    def test_peek_does_not_touch_counters(self, monkeypatch):
        _stub_compile(monkeypatch)
        cache = PlanCache()
        plan, _ = cache.get_or_compile(GRIDS[0], "5pt",
                                       PlanConfig(bsize=2))
        before = cache.stats()
        assert cache.peek(plan.fingerprint) is plan
        assert cache.peek("no-such-fingerprint") is None
        assert cache.stats() == before


class TestIluStress:
    def test_repacks_and_invalidations_under_fast_switching(
            self, monkeypatch):
        """Six threads, a one-plan cache and a 10 µs switch interval.

        Every served plan carries the requested values, every lookup
        counts exactly once, and no flight outlives its leader.
        """
        from repro.serve import ilu_plan

        config = PlanConfig(bsize=2)
        builds = {"compile": 0, "repack": 0}
        count_lock = threading.Lock()

        def build(kind, fp, values, digest=None):
            with count_lock:
                builds[kind] += 1
            return SimpleNamespace(
                kind="ilu", fingerprint=fp, config=config,
                value_digest=(ilu_plan.value_digest(values)
                              if digest is None else digest),
                values_src=values, autotuned=False, bsize=1)

        monkeypatch.setattr(
            ilu_plan, "compile_ilu_plan",
            lambda grid, stencil, config, values=None, bsize_hint=None:
            build("compile", ilu_plan.ilu_structural_fingerprint(
                grid, stencil, config), values))
        monkeypatch.setattr(
            ilu_plan, "repack_ilu_plan",
            lambda plan, values, digest: build(
                "repack", plan.fingerprint, values, digest))
        values = [np.full(4, float(i)) for i in range(3)]
        fps = [ilu_plan.ilu_structural_fingerprint(g, "5pt", config)
               for g in GRIDS[:2]]
        cache = PlanCache(capacity=1)
        lookups, stale = [], []

        def worker(seed):
            rng = np.random.default_rng(seed)
            n = 0
            for _ in range(200):
                s, k = int(rng.integers(2)), int(rng.integers(3))
                if rng.random() < 0.1:
                    cache.invalidate(fps[s])
                    continue
                plan, _ = cache.get_or_compile_ilu(
                    GRIDS[s], "5pt", config, values=values[k])
                n += 1
                if plan.value_digest != ilu_plan.value_digest(values[k]):
                    stale.append((s, k))
            lookups.append(n)

        threads = [threading.Thread(target=worker, args=(seed,),
                                    daemon=True) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(lookups) == len(threads)
        assert not stale, f"served old coefficients: {stale[:3]}"
        assert cache.stats()["hits"] + cache.stats()["misses"] == sum(lookups)
        assert cache.stats()["compiles"] == builds["compile"]
        assert cache.stats()["refreshes"] == builds["repack"]
        assert cache._inflight == {}
