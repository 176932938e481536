"""SolveService: coalescing, backpressure, isolation, metrics."""

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.kernels.counts import spmv_dbsr_counts, symgs_dbsr_counts
from repro.kernels.sptrsv_csr import split_triangular
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig
from repro.serve.service import (
    Backpressure,
    RequestError,
    SolveService,
)
from repro.simd.counters import OpCounter, counter_to_dict

CFG = PlanConfig(bsize=4, n_workers=2)
GRID = StructuredGrid((8, 8, 8))
N = GRID.n_points


@pytest.fixture()
def service():
    with SolveService(config=CFG, max_batch=4, max_pending=16) as svc:
        yield svc


def _rhs(rng, count=1):
    return [rng.standard_normal(N) for _ in range(count)]


def test_submit_drain_roundtrip(service, rng):
    b = rng.standard_normal(N)
    ticket = service.submit(GRID, "27pt", b)
    assert not ticket.done
    assert service.n_pending == 1
    assert service.drain() == 1
    assert ticket.done
    x = ticket.result()
    # The answer actually solves (L + D) x = b.
    plan = service.cache.get(ticket.fingerprint)
    L, D, _ = split_triangular(plan.matrix)
    xp = plan.extend(x)
    assert np.abs(L.matvec(xp) + D * xp - plan.extend(b)).max() < 1e-10


def test_coalesced_batch_bitwise_matches_individual(service, rng):
    """Requests sharing a structure are batched — and the batched
    answers are bit-identical to solo drains of the same RHS."""
    rhss = _rhs(rng, 4)
    tickets = [service.submit(GRID, "27pt", b) for b in rhss]
    service.drain()
    assert all(t.metrics["batch_k"] == 4 for t in tickets)
    assert service.stats()["batches_executed"] == 1

    solo = SolveService(config=CFG, max_batch=4)
    for t, b in zip(tickets, rhss):
        ref = solo.submit(GRID, "27pt", b)
        solo.drain()
        assert np.array_equal(t.result(), ref.result())
    solo.close()


def test_batches_respect_max_batch(service, rng):
    tickets = [service.submit(GRID, "27pt", b) for b in _rhs(rng, 6)]
    assert service.drain() == 6
    # 6 requests, max_batch 4 -> one batch of 4 + one of 2.
    assert service.stats()["batches_executed"] == 2
    widths = sorted(t.metrics["batch_k"] for t in tickets)
    assert widths == [2, 2, 4, 4, 4, 4]


def test_mixed_structures_grouped_separately(service, rng):
    small = StructuredGrid((4, 4, 4))
    t1 = service.submit(GRID, "27pt", rng.standard_normal(N))
    t2 = service.submit(small, "27pt", rng.standard_normal(64))
    t3 = service.submit(GRID, "27pt", rng.standard_normal(N))
    assert t1.fingerprint != t2.fingerprint
    service.drain()
    assert t1.metrics["batch_k"] == 2  # t1 and t3 coalesced
    assert t3.metrics["batch_k"] == 2
    assert t2.metrics["batch_k"] == 1
    assert t2.result().shape == (64,)


def test_per_request_cache_hit_metric(service, rng):
    tickets = [service.submit(GRID, "27pt", b) for b in _rhs(rng, 3)]
    service.drain()
    hits = [t.metrics["cache_hit"] for t in tickets]
    assert hits == [False, True, True]
    assert service.cache.stats()["hits"] == 2
    assert service.cache.stats()["misses"] == 1


def test_backpressure(service, rng):
    for b in _rhs(rng, 16):
        service.submit(GRID, "27pt", b)
    with pytest.raises(Backpressure):
        service.submit(GRID, "27pt", rng.standard_normal(N))
    # Draining frees the queue.
    assert service.drain() == 16
    service.submit(GRID, "27pt", rng.standard_normal(N))


def test_submit_rejects_bad_requests(service, rng):
    with pytest.raises(RequestError):
        service.submit(GRID, "27pt", rng.standard_normal(N), op="nope")
    with pytest.raises(RequestError):
        service.submit(GRID, "27pt", rng.standard_normal(N - 1))
    with pytest.raises(RequestError):
        service.submit(GRID, "27pt", rng.standard_normal((N, 2)))
    assert service.stats()["submitted"] == 0


def _solve_each(cols):
    """Direct submit/drain answers, one fresh service per column."""
    out = []
    for b in cols:
        with SolveService(config=CFG) as solo:
            t = solo.submit(GRID, "27pt", b)
            solo.drain()
            out.append(t.result())
    return out


@pytest.mark.parametrize("entry", ["drain", "block"])
def test_nonfinite_rhs_isolated_at_drain(service, rng, entry):
    """One NaN column among three fails alone, through either entry;
    its neighbours equal the direct answers bit for bit."""
    cols = [rng.standard_normal(N), np.full(N, np.nan),
            rng.standard_normal(N)]
    if entry == "drain":
        tickets = [service.submit(GRID, "27pt", b) for b in cols]
        assert service.drain() == 2
        assert all(t.done for t in tickets)
        with pytest.raises(RequestError):
            tickets[1].result()
        got = [tickets[0].result(), tickets[2].result()]
    else:
        out = service.solve_block(GRID, "27pt", cols, "lower")
        assert isinstance(out[1], RequestError)
        got = [out[0], out[2]]
    want = _solve_each([cols[0], cols[2]])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert service.stats()["submitted"] == 3
    assert service.stats()["failed"] == 1
    assert service.stats()["completed"] == 2
    assert service.stats()["batches_executed"] == 1


@pytest.mark.parametrize("entry", ["drain", "block"])
def test_kernel_failure_falls_back_to_individual(service, rng,
                                                 monkeypatch, entry):
    """A batch-level kernel error re-runs requests one by one so only
    the culprit fails."""
    from repro.serve.plan import SolvePlan

    real_execute = SolvePlan.execute
    calls = {"n": 0}

    def flaky(self, op, B):
        calls["n"] += 1
        B = np.asarray(B)
        if B.ndim == 2 and B.shape[1] > 1:
            raise FloatingPointError("batch blew up")
        return real_execute(self, op, B)

    cols = _rhs(rng, 3)
    want = _solve_each(cols)
    monkeypatch.setattr(SolvePlan, "execute", flaky)
    if entry == "drain":
        tickets = [service.submit(GRID, "27pt", b) for b in cols]
        assert service.drain() == 3  # all succeed individually
        for t in tickets:
            assert t.result().shape == (N,)
            assert t.metrics["batch_k"] == 1
        got = [t.result() for t in tickets]
    else:
        got = service.solve_block(GRID, "27pt", cols, "lower")
    assert calls["n"] == 4  # 1 failed batch + 3 solo runs
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert service.stats()["completed"] == 3


def test_request_metrics_contents(service, rng):
    t = service.submit(GRID, "27pt", rng.standard_normal(N))
    service.drain()
    m = t.metrics
    assert m["op"] == "lower"
    assert m["bsize"] == 4
    assert m["backend"] == "numpy-fast"
    assert m["seconds"] > 0
    counts = m["counts_per_solve"]
    assert counts["bytes"]["values"] > 0
    assert counts["ops"]["vgather"] == 0


def test_spmv_op_has_no_sptrsv_counts(service, rng):
    """An SpMV ticket carries the SpMV closed form — no triangular-solve
    divides or b-loads."""
    t = service.submit(GRID, "27pt", rng.standard_normal(N), op="spmv")
    service.drain()
    plan = service.cache.get(t.fingerprint)
    assert t.metrics["counts_per_solve"] == counter_to_dict(
        spmv_dbsr_counts(plan.dbsr))
    assert t.metrics["counts_per_solve"]["ops"]["vdiv"] == 0


def test_solve_phase_counter_sums_batch_closed_forms(rng):
    """Served SYMGS tickets carry per-solve counts, and the session's
    ``solve`` phase counter is the sum of the closed forms of the
    batches it served (one ``plan.op_counts(op, k)`` per batch)."""
    with SolveService(config=CFG, max_batch=4) as svc:
        tickets = [svc.submit(GRID, "27pt", b, op="symgs")
                   for b in _rhs(rng, 6)]
        svc.drain()
        plan = svc.cache.get(tickets[0].fingerprint)
        widths = sorted(t.metrics["batch_k"] for t in tickets)
        assert widths == [2, 2, 4, 4, 4, 4]
        expected = OpCounter(bsize=1)
        for k in (4, 2):
            expected.merge(symgs_dbsr_counts(plan.dbsr, k))
        for t in tickets:
            k = t.metrics["batch_k"]
            assert t.metrics["counts_per_solve"] == counter_to_dict(
                symgs_dbsr_counts(plan.dbsr, k).scaled(1.0 / k))
        solve = svc.stats()["phases"]["solve"]
        assert solve["calls"] == 2
        assert solve["counter"]["ops"] == counter_to_dict(expected)["ops"]
        assert solve["counter"]["bytes"] \
            == counter_to_dict(expected)["bytes"]


def test_result_timeout_before_drain(service, rng):
    t = service.submit(GRID, "27pt", rng.standard_normal(N))
    with pytest.raises(TimeoutError):
        t.result(timeout=0.01)
    service.drain()
    assert t.result().shape == (N,)


def test_drain_empty_is_noop(service):
    assert service.drain() == 0
    assert service.stats()["batches_executed"] == 0


def test_shared_cache_across_services(rng):
    cache = PlanCache()
    with SolveService(cache=cache, config=CFG) as a:
        a.submit(GRID, "27pt", rng.standard_normal(N))
        a.drain()
    with SolveService(cache=cache, config=CFG) as b:
        t = b.submit(GRID, "27pt", rng.standard_normal(N))
        b.drain()
    assert t.metrics["cache_hit"]
    assert cache.stats()["compiles"] == 1


def test_stats_aggregates(service, rng):
    for b in _rhs(rng, 5):
        service.submit(GRID, "27pt", b)
    service.drain()
    s = service.stats()
    assert s["submitted"] == 5
    assert s["completed"] == 5
    assert s["failed"] == 0
    assert s["pending"] == 0
    assert s["batches_executed"] == 2
    assert s["cache"]["compiles"] == 1
    assert "compile" in s["phases"]
    assert "solve" in s["phases"]
