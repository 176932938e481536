"""Admission control: pre-compile estimates and typed refusals.

The load-bearing claim: a request the gateway refuses costs **zero**
compiles — the estimator prices work from geometry alone (exact
analytic nnz + machine-model roofline), corrected by live EWMAs, and
rejection happens before any queue slot or plan."""

import asyncio

import numpy as np
import pytest

from repro.gateway import (AdmissionRejected, Ewma, QuotaExceeded,
                           ServiceTimeEstimator, SolveGateway,
                           TenantQuota)
from repro.grids.assembly import assemble_csr, stencil_nnz
from repro.grids.grid import StructuredGrid
from repro.grids.stencils import stencil_by_name
from repro.serve.plan import PlanConfig, structural_fingerprint

pytestmark = pytest.mark.fast

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)


def _rhs(seed=0, k=None):
    rng = np.random.default_rng(seed)
    shape = GRID.n_points if k is None else (GRID.n_points, k)
    return rng.standard_normal(shape)


# Estimator building blocks ---------------------------------------------

@pytest.mark.parametrize("dims,stencil", [
    ((6, 6, 6), "27pt"), ((6, 6, 6), "7pt"), ((5, 9, 3), "27pt"),
    ((12, 12), "9pt"), ((7, 4), "5pt"),
])
def test_stencil_nnz_matches_assembled_matrix(dims, stencil):
    grid = StructuredGrid(dims)
    st = stencil_by_name(stencil)
    assert stencil_nnz(grid, st) == assemble_csr(grid, st).nnz


def test_ewma_none_until_fed_then_smooths():
    e = Ewma(alpha=0.5)
    assert e.value is None and e.n == 0
    assert e.update(1.0) == 1.0
    assert e.update(3.0) == pytest.approx(2.0)
    assert e.n == 2


def test_ewma_rejects_bad_alpha():
    with pytest.raises(ValueError):
        Ewma(alpha=0.0)
    with pytest.raises(ValueError):
        Ewma(alpha=1.5)


def test_estimate_switches_from_model_to_ewma():
    est = ServiceTimeEstimator()
    fp = structural_fingerprint(GRID, "27pt", CONFIG)
    before = est.estimate(GRID, "27pt", CONFIG, "lower", 1, fp)
    assert before["source"] == "model"
    assert before["service_seconds"] > 0
    est.observe(fp, "lower", seconds=0.5, k=1,
                model_seconds=before["model_seconds"])
    after = est.estimate(GRID, "27pt", CONFIG, "lower", 1, fp)
    assert after["source"] == "ewma"
    assert after["service_seconds"] == pytest.approx(0.5)
    # The calibration ratio also learned from the same sample.
    assert est.calibration() > 1.0


def test_estimate_scales_with_k_and_backlog():
    est = ServiceTimeEstimator()
    fp = structural_fingerprint(GRID, "27pt", CONFIG)
    est.observe(fp, "lower", seconds=0.1, k=1)
    e1 = est.estimate(GRID, "27pt", CONFIG, "lower", 1, fp)
    e4 = est.estimate(GRID, "27pt", CONFIG, "lower", 4, fp)
    assert e4["service_seconds"] == pytest.approx(
        4 * e1["service_seconds"])
    busy = est.estimate(GRID, "27pt", CONFIG, "lower", 1, fp,
                        backlog_chunks=6, n_shards=2)
    assert busy["queue_wait_seconds"] == pytest.approx(6 * 0.1 / 2)
    assert busy["total_seconds"] > e1["total_seconds"]


def test_cold_structure_pays_observed_compile_cost():
    est = ServiceTimeEstimator()
    fp = structural_fingerprint(GRID, "27pt", CONFIG)
    est.observe_compile(2.0)
    cold = est.estimate(GRID, "27pt", CONFIG, "lower", 1, fp,
                        cold=True)
    hot = est.estimate(GRID, "27pt", CONFIG, "lower", 1, fp,
                       cold=False)
    assert cold["compile_seconds"] == pytest.approx(2.0)
    assert hot["compile_seconds"] == 0.0


def test_calibration_ratio_is_clamped():
    est = ServiceTimeEstimator()
    fp = "fp"
    # A measured/modeled ratio of 1e18 lands on the upper clamp, 1e3.
    est.observe(fp, "lower", seconds=1e9, k=1, model_seconds=1e-9)
    assert est.calibration() == pytest.approx(1e3)


# Gateway-level refusals ------------------------------------------------

def test_infeasible_deadline_rejected_with_zero_compile_delta():
    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1) as gw:
            # Warm: one real solve gives the estimator a live EWMA
            # and the shard cache its one plan.
            await gw.solve(GRID, "27pt", _rhs(0))
            compiles = gw.pool.cache_tallies()["compiles"]
            assert compiles == 1
            with pytest.raises(AdmissionRejected) as ei:
                await gw.submit(GRID, "27pt", _rhs(1),
                                deadline=1e-12)
            assert gw.pool.cache_tallies()["compiles"] == compiles
            return ei.value, gw.stats()

    exc, stats = asyncio.run(run())
    assert exc.reason == "deadline"
    assert exc.estimate is not None
    assert exc.estimate["total_seconds"] > 1e-12
    assert exc.estimate["source"] == "ewma"
    assert stats["rejected"] == 1
    # The refused request never became a ticket: nothing queued,
    # nothing outstanding, nothing failed.
    assert stats["queue_depth"] == 0 and stats["failed"] == 0


def test_cold_structure_rejection_uses_model_without_compiling():
    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1) as gw:
            with pytest.raises(AdmissionRejected) as ei:
                await gw.submit(GRID, "27pt", _rhs(0), deadline=0.0)
            assert gw.pool.cache_tallies()["compiles"] == 0
            return ei.value

    exc = asyncio.run(run())
    assert exc.estimate["source"] == "model"


def test_deadline_zero_is_rejected_but_generous_deadline_admits():
    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1) as gw:
            x = await gw.solve(GRID, "27pt", _rhs(0), deadline=300.0)
            assert np.all(np.isfinite(x))
            with pytest.raises(AdmissionRejected):
                await gw.submit(GRID, "27pt", _rhs(1), deadline=0.0)

    asyncio.run(run())


def test_queued_quota_refusal_is_atomic_and_typed():
    async def run():
        quota = TenantQuota(max_queued=2, max_in_flight=1)
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1, stream_chunk=1,
                                quotas={"t": quota}) as gw:
            # 4 columns -> 4 chunks > max_queued: all-or-nothing.
            with pytest.raises(QuotaExceeded) as ei:
                await gw.submit(GRID, "27pt", _rhs(0, k=4),
                                tenant="t")
            assert gw.scheduler.queued("t") == 0
            assert gw.stats()["rejected"] == 1
            # A fitting request is still admitted afterwards.
            x = await gw.solve(GRID, "27pt", _rhs(1, k=2),
                               tenant="t")
            assert x.shape == (GRID.n_points, 2)
            return ei.value

    exc = asyncio.run(run())
    assert exc.reason == "quota" and exc.quota == "queued"
    assert exc.limit == 2 and exc.tenant == "t"
    assert isinstance(exc, AdmissionRejected)


def test_unknown_op_refused_at_admission_without_probes_or_retries():
    from repro.serve.service import RequestError
    from repro.supervise.backoff import Backoff
    from repro.supervise.canary import CanaryProbe
    from repro.supervise.supervisor import ShardSupervisor

    supervisor = ShardSupervisor(
        canary=CanaryProbe(CONFIG, nx=4),
        backoff=Backoff(base=0.005, cap=0.02, max_attempts=2))

    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1, supervisor=supervisor,
                                retry=Backoff(max_attempts=2)) as gw:
            with pytest.raises(RequestError, match="unknown op"):
                await gw.submit(GRID, "27pt", _rhs(0), op="nope")
            assert gw.scheduler.depth == 0
            # The gateway still serves a valid request afterwards.
            await gw.solve(GRID, "27pt", _rhs(1))
            return gw.stats()

    stats = asyncio.run(run())
    assert stats["accepted"] == 1 and stats["failed"] == 0
    assert stats["retries"] == 0
    assert stats["supervisor"]["canary"]["probes"] == 0
    assert stats["supervisor"]["releases_healthy"] == 0


def test_per_tenant_counters_are_distinct_series_of_one_family():
    """Tenant names that flatten alike (``"team a"``/``"team_a"``,
    ``"x.y"``/``"x_y"``) keep their own counts, and the exported text
    declares each family once."""
    tenants = ("team a", "team_a", "x.y", "x_y")

    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1) as gw:
            for i, tenant in enumerate(tenants):
                for j in range(i + 1):
                    await gw.solve(GRID, "27pt", _rhs(j), tenant=tenant)
            return gw.metrics.to_prometheus_text().splitlines()

    lines = asyncio.run(run())
    for i, tenant in enumerate(tenants):
        for which in ("accepted", "completed"):
            sample = (f"repro_gateway_tenant_{which}_total"
                      f'{{tenant="{tenant}"}} {i + 1}')
            assert sample in lines, sample
    families = [ln.split()[2] for ln in lines if ln.startswith("# TYPE ")]
    assert len(families) == len(set(families)), sorted(families)
    assert "repro_gateway_tenant_accepted_total" in families
