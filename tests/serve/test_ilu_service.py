"""SolveService ILU tier: submit/drain, digest grouping, staleness."""

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.ilu.ilu0_csr import ilu0_apply_csr
from repro.resilience.errors import StaleValuesError
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig
from repro.serve.service import (
    SERVICE_OPS,
    RequestError,
    SolveService,
)

pytestmark = pytest.mark.fast

CFG = PlanConfig(bsize=4, n_workers=2)
GRID = StructuredGrid((6, 6, 6))
N = GRID.n_points


@pytest.fixture()
def service():
    with SolveService(config=CFG, max_batch=4, max_pending=16) as svc:
        yield svc


def _perturbed(plan, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    return plan.values_src * (
        1.0 + scale * rng.uniform(-1.0, 1.0, plan.values_src.shape))


def test_service_ops_includes_ilu_apply():
    assert "ilu_apply" in SERVICE_OPS


def test_ilu_apply_roundtrip_bitwise_vs_csr_factors(service):
    rng = np.random.default_rng(1)
    b = rng.standard_normal(N)
    ticket = service.submit(GRID, "27pt", b, op="ilu_apply")
    service.drain()
    z = ticket.result()
    plan = service.cache.get(ticket.fingerprint)
    factors = plan.factors.to_csr_factors()
    ref = plan.restrict(ilu0_apply_csr(factors, plan.extend(b)))
    assert np.array_equal(z, ref)


def test_batched_ilu_apply_bitwise_matches_solo(service):
    rng = np.random.default_rng(2)
    rhss = [rng.standard_normal(N) for _ in range(4)]
    tickets = [service.submit(GRID, "27pt", b, op="ilu_apply")
               for b in rhss]
    service.drain()
    assert all(t.metrics["batch_k"] == 4 for t in tickets)

    with SolveService(config=CFG, max_batch=4) as solo:
        for t, b in zip(tickets, rhss):
            ref = solo.submit(GRID, "27pt", b, op="ilu_apply")
            solo.drain()
            assert np.array_equal(t.result(), ref.result())


def test_submitted_values_trigger_one_repack(service):
    rng = np.random.default_rng(3)
    first = service.submit(GRID, "27pt", rng.standard_normal(N),
                           op="ilu_apply")
    service.drain()
    plan = service.cache.get(first.fingerprint)
    v2 = _perturbed(plan, seed=7)
    second = service.submit(GRID, "27pt", rng.standard_normal(N),
                            op="ilu_apply", values=v2)
    service.drain()
    second.result(timeout=0)
    assert service.cache.stats()["refreshes"] == 1
    refreshed = service.cache.get(first.fingerprint)
    assert refreshed.refreshed


def test_value_digest_splits_batches(service):
    """Requests for different snapshots must not share one plan."""
    rng = np.random.default_rng(4)
    warm = service.submit(GRID, "27pt", rng.standard_normal(N),
                          op="ilu_apply")
    service.drain()
    plan = service.cache.get(warm.fingerprint)
    v2 = _perturbed(plan, seed=8)
    a = service.submit(GRID, "27pt", rng.standard_normal(N),
                       op="ilu_apply")
    b = service.submit(GRID, "27pt", rng.standard_normal(N),
                       op="ilu_apply", values=v2)
    service.drain()
    a.result(timeout=0)
    b.result(timeout=0)
    # Different digest groups — they cannot have been coalesced.
    assert a.metrics["batch_k"] == 1
    assert b.metrics["batch_k"] == 1


def test_declared_digest_mismatch_fails_typed(service):
    rng = np.random.default_rng(5)
    warm = service.submit(GRID, "27pt", rng.standard_normal(N),
                          op="ilu_apply")
    service.drain()
    warm.result(timeout=0)
    stale = service.submit(GRID, "27pt", rng.standard_normal(N),
                           op="ilu_apply", value_digest="0" * 64)
    service.drain()
    with pytest.raises(StaleValuesError):
        stale.result(timeout=0)


def test_values_on_non_ilu_op_rejected(service):
    rng = np.random.default_rng(6)
    with pytest.raises(RequestError):
        service.submit(GRID, "27pt", rng.standard_normal(N),
                       op="lower", values=np.ones(3))
    with pytest.raises(RequestError):
        service.submit(GRID, "27pt", rng.standard_normal(N),
                       op="lower", value_digest="0" * 64)


def test_contradictory_value_digest_rejected(service):
    rng = np.random.default_rng(7)
    warm = service.submit(GRID, "27pt", rng.standard_normal(N),
                          op="ilu_apply")
    service.drain()
    plan = service.cache.get(warm.fingerprint)
    with pytest.raises(RequestError):
        service.submit(GRID, "27pt", rng.standard_normal(N),
                       op="ilu_apply", values=_perturbed(plan),
                       value_digest="0" * 64)


def test_queue_hit_hashes_each_request_once(service, monkeypatch):
    """The queue labels a snapshot at submission; the drain looks it up
    by its bytes and does not hash it again to check its own label."""
    import repro.serve.ilu_plan as ilu_plan_mod

    rng = np.random.default_rng(9)
    warm = service.submit(GRID, "27pt", rng.standard_normal(N),
                          op="ilu_apply")
    service.drain()
    values = _perturbed(service.cache.get(warm.fingerprint), seed=2)
    service.submit(GRID, "27pt", rng.standard_normal(N), op="ilu_apply",
                   values=values)
    service.drain()  # the repack to ``values``
    calls = []
    real = ilu_plan_mod.value_digest
    monkeypatch.setattr(ilu_plan_mod, "value_digest",
                        lambda v: calls.append(1) or real(v))
    t = service.submit(GRID, "27pt", rng.standard_normal(N),
                       op="ilu_apply", values=values.copy())
    service.drain()
    assert t.metrics["cache_hit"]
    assert len(calls) == 1


def test_queue_keeps_its_own_snapshot(service):
    """A caller reusing its coefficient buffer between submit and drain
    changes neither the snapshot served nor its label."""
    from repro.serve.ilu_plan import value_digest

    rng = np.random.default_rng(10)
    warm = service.submit(GRID, "27pt", rng.standard_normal(N),
                          op="ilu_apply")
    service.drain()
    values = _perturbed(service.cache.get(warm.fingerprint), seed=3)
    expect = value_digest(values)
    t = service.submit(GRID, "27pt", rng.standard_normal(N),
                       op="ilu_apply", values=values)
    values *= 2.0
    service.drain()
    assert t.result(timeout=0) is not None
    assert service.cache.get(t.fingerprint).value_digest == expect


def test_ilu_metrics_report_counts(service):
    rng = np.random.default_rng(8)
    t = service.submit(GRID, "27pt", rng.standard_normal(N),
                       op="ilu_apply")
    service.drain()
    t.result(timeout=0)
    assert t.metrics["counts_per_solve"]["ops"]["vfma"] > 0


def test_eviction_race_does_not_abort_drain(service, monkeypatch):
    """A plan evicted between the hit lookup and the repack's
    residency check used to leak ``KeyError`` out of ``_drain_groups``,
    aborting the whole drain and failing every pending group untyped;
    the cache now falls back to a cold compile and the drain completes.
    """
    rng = np.random.default_rng(10)
    warm = service.submit(GRID, "27pt", rng.standard_normal(N),
                          op="ilu_apply")
    service.drain()
    warm.result(timeout=0)
    plan = service.cache.get(warm.fingerprint)
    cache = service.cache
    real_refresh = cache._refresh

    def evict_then_refresh(fingerprint, values, vd):
        with cache._lock:
            cache._plans.pop(fingerprint, None)
        return real_refresh(fingerprint, values, vd)

    monkeypatch.setattr(cache, "_refresh", evict_then_refresh)
    racy = service.submit(GRID, "27pt", rng.standard_normal(N),
                          op="ilu_apply",
                          values=_perturbed(plan, seed=11))
    other = service.submit(GRID, "27pt", rng.standard_normal(N),
                           op="lower")
    assert service.drain() == 2
    assert racy.result(timeout=0) is not None
    assert other.result(timeout=0) is not None


def test_stale_failure_leaves_sibling_groups_draining(service):
    """A stale ilu group must fail alone; other ops still complete."""
    rng = np.random.default_rng(9)
    warm = service.submit(GRID, "27pt", rng.standard_normal(N),
                          op="ilu_apply")
    service.drain()
    warm.result(timeout=0)
    stale = service.submit(GRID, "27pt", rng.standard_normal(N),
                           op="ilu_apply", value_digest="1" * 64)
    good = service.submit(GRID, "27pt", rng.standard_normal(N),
                          op="lower")
    service.drain()
    assert good.result(timeout=0) is not None
    with pytest.raises(StaleValuesError):
        stale.result(timeout=0)
