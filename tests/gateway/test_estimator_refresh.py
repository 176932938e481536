"""Split compile EWMAs: warm repacks must not be priced as cold.

The regression (Bugfix 3): the estimator used to keep a single
compile-seconds EWMA, so a warm ILU structure whose coefficients
rotated was charged a full cold compile at admission — and feasible
refresh traffic was rejected whenever cold compiles were expensive.
Cold compiles and value-only repacks now feed separate series, and
``estimate(..., warm_refresh=True)`` prices only the repack.
"""

import asyncio

import numpy as np
import pytest

from repro.gateway import (
    AdmissionRejected,
    ServiceTimeEstimator,
    SolveGateway,
)
from repro.grids.grid import StructuredGrid
from repro.serve.ilu_plan import ilu_structural_fingerprint
from repro.serve.plan import PlanConfig

pytestmark = pytest.mark.fast

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)


def _rhs(seed=0):
    return np.random.default_rng(seed).standard_normal(GRID.n_points)


# Estimator unit level --------------------------------------------------

def test_observe_compile_routes_by_kind():
    est = ServiceTimeEstimator()
    est.observe_compile(10.0, kind="cold")
    est.observe_compile(0.01, kind="refresh")
    assert est.compile_seconds() == pytest.approx(10.0)
    assert est.refresh_seconds() == pytest.approx(0.01)
    stats = est.stats()
    assert stats["compile_ewma_seconds"] == pytest.approx(10.0)
    assert stats["refresh_ewma_seconds"] == pytest.approx(0.01)


def test_observe_compile_rejects_unknown_kind():
    est = ServiceTimeEstimator()
    with pytest.raises(ValueError):
        est.observe_compile(1.0, kind="warm")


def test_refresh_default_is_half_cold_until_observed():
    est = ServiceTimeEstimator()
    est.observe_compile(4.0, kind="cold")
    assert est.refresh_seconds() == pytest.approx(2.0)
    est.observe_compile(0.25, kind="refresh")
    assert est.refresh_seconds() == pytest.approx(0.25)


def test_warm_refresh_is_charged_refresh_not_cold():
    """The regression itself: pre-fix this estimate carried the cold
    compile EWMA (10 s) and the breakdown had no refresh term."""
    est = ServiceTimeEstimator()
    fp = ilu_structural_fingerprint(GRID, "27pt", CONFIG)
    est.observe_compile(10.0, kind="cold")
    est.observe_compile(0.01, kind="refresh")
    est.observe(fp, "ilu_apply", seconds=0.001, k=1)

    warm = est.estimate(GRID, "27pt", CONFIG, "ilu_apply", 1, fp,
                        cold=False, warm_refresh=True)
    assert warm["compile_seconds"] == 0.0
    assert warm["refresh_seconds"] == pytest.approx(0.01)
    assert warm["total_seconds"] < 1.0

    cold = est.estimate(GRID, "27pt", CONFIG, "ilu_apply", 1, fp,
                        cold=True, warm_refresh=True)
    # Cold dominates: a structure absent from every shard cache pays
    # the full compile, never both terms.
    assert cold["compile_seconds"] == pytest.approx(10.0)
    assert cold["refresh_seconds"] == 0.0


def test_ilu_apply_has_an_analytic_model():
    est = ServiceTimeEstimator()
    fp = ilu_structural_fingerprint(GRID, "27pt", CONFIG)
    e = est.estimate(GRID, "27pt", CONFIG, "ilu_apply", 1, fp)
    assert e["source"] == "model"
    assert e["model_seconds"] > 0


# Gateway admission level -----------------------------------------------

def test_value_rotation_admitted_under_deadline_cold_rejected():
    """A deadline that fits solve+repack but not solve+cold-compile
    must admit the warm rotation and reject a genuinely cold
    structure."""
    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1) as gw:
            first = await gw.submit(GRID, "27pt", _rhs(0),
                                    op="ilu_apply")
            await first.result()
            # Poison the cold EWMA (repeatedly: the first real compile
            # already seeded it) so any cold-priced admission with a
            # short deadline must reject.
            for _ in range(5):
                gw.estimator.observe_compile(10.0, kind="cold")
            gw.estimator.observe_compile(0.01, kind="refresh")

            plan = None
            for shard in list(gw.pool._shards):
                plan = shard.service.cache.peek(first.fingerprint)
                if plan is not None:
                    break
            rng = np.random.default_rng(3)
            v2 = plan.values_src * (1.0 + 0.05 * rng.uniform(
                -1.0, 1.0, plan.values_src.shape))

            rotated = await gw.submit(GRID, "27pt", _rhs(1),
                                      op="ilu_apply", values=v2,
                                      deadline=2.0)
            await rotated.result()

            cold_grid = StructuredGrid((7, 7, 7))
            with pytest.raises(AdmissionRejected) as ei:
                await gw.submit(cold_grid, "27pt",
                                np.zeros(cold_grid.n_points),
                                op="ilu_apply", deadline=2.0)
            return ei.value, gw.stats()

    exc, stats = asyncio.run(run())
    assert exc.reason == "deadline"
    assert exc.estimate["compile_seconds"] > 2.0
    assert exc.estimate["refresh_seconds"] == 0.0
    assert stats["rejected"] == 1


def test_refresh_ewma_fed_from_shard_stats():
    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1) as gw:
            first = await gw.submit(GRID, "27pt", _rhs(0),
                                    op="ilu_apply")
            await first.result()
            plan = None
            for shard in list(gw.pool._shards):
                plan = shard.service.cache.peek(first.fingerprint)
                if plan is not None:
                    break
            rng = np.random.default_rng(4)
            v2 = plan.values_src * (1.0 + 0.05 * rng.uniform(
                -1.0, 1.0, plan.values_src.shape))
            rotated = await gw.submit(GRID, "27pt", _rhs(1),
                                      op="ilu_apply", values=v2)
            await rotated.result()
            return gw.estimator.stats()

    stats = asyncio.run(run())
    assert stats["refresh_ewma_seconds"] is not None
    assert stats["refresh_ewma_seconds"] > 0.0
