"""The gateway's one block path into the sync engine.

Each dispatched chunk is one :meth:`SolveService.solve_block` call: no
per-column tickets, no second fingerprint, no value digest on a hit, and
the estimator prices each ``(fingerprint, op, k)`` model once. Every
gatewayed column stays bit-identical to the direct ``submit/drain``
answer.
"""

import asyncio

import numpy as np
import pytest

import repro.serve.cache as cache_mod
import repro.serve.ilu_plan as ilu_plan_mod
import repro.serve.plan as plan_mod
import repro.serve.service as service_mod
from repro.gateway import ServiceTimeEstimator, SolveGateway
from repro.grids.grid import StructuredGrid
from repro.serve.ilu_plan import compile_ilu_plan
from repro.serve.plan import PlanConfig
from repro.serve.service import SolveService

pytestmark = pytest.mark.fast

GRID = StructuredGrid((6, 6, 6))
CONFIG = PlanConfig(bsize=4)


def _rhs(seed=0, k=None):
    rng = np.random.default_rng(seed)
    shape = GRID.n_points if k is None else (GRID.n_points, k)
    return rng.standard_normal(shape)


def _values(seed):
    """A perturbed coefficient snapshot of the 27pt structure."""
    src = compile_ilu_plan(GRID, "27pt", CONFIG).values_src
    rng = np.random.default_rng(seed)
    return src * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, src.shape))


def _direct(rhs, op, config, **kw):
    """Column by column through submit/drain, stacked like the gateway."""
    cols = [rhs] if rhs.ndim == 1 else \
        [rhs[:, j] for j in range(rhs.shape[1])]
    with SolveService(config=config) as svc:
        tickets = [svc.submit(GRID, "27pt", col, op=op, **kw)
                   for col in cols]
        svc.drain()
        out = [t.result(timeout=0) for t in tickets]
    return out[0] if rhs.ndim == 1 else np.stack(out, axis=1)


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def test_one_block_call_per_chunk_and_no_ticket_round_trip(monkeypatch):
    calls = {}
    for name in ("solve_block", "submit", "drain"):
        _counting(monkeypatch, SolveService, name, calls)
    rhs = _rhs(1, k=3)

    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1, stream_chunk=2) as gw:
            return await gw.solve(GRID, "27pt", rhs)

    got = asyncio.run(run())
    assert calls == {"solve_block": 2}
    assert np.array_equal(got, _direct(rhs, "lower", CONFIG))


@pytest.mark.parametrize("op", ["lower", "upper", "spmv", "symgs",
                                "ilu_apply"])
@pytest.mark.parametrize("k, max_batch", [(1, 8), (5, 2)],
                         ids=["k1", "k5-sliced"])
def test_block_path_bit_identical_to_submit_drain(op, k, max_batch):
    """A chunk wider than ``max_batch`` runs in slices; every column
    still equals the direct answer bit for bit."""
    rhs = _rhs(11, k=None if k == 1 else k)

    async def run():
        factory = lambda: SolveService(config=CONFIG,  # noqa: E731
                                       max_batch=max_batch)
        async with SolveGateway(factory, config=CONFIG, min_shards=1,
                                max_shards=1, stream_chunk=5) as gw:
            return await gw.solve(GRID, "27pt", rhs, op=op)

    assert np.array_equal(asyncio.run(run()), _direct(rhs, op, CONFIG))


def test_ilu_values_bit_identical_to_submit_drain():
    values = _values(3)
    rhs = _rhs(12, k=3)

    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1) as gw:
            return await gw.solve(GRID, "27pt", rhs, op="ilu_apply",
                                  values=values)

    assert np.array_equal(asyncio.run(run()),
                          _direct(rhs, "ilu_apply", CONFIG,
                                  values=values))


def _count_fingerprints(monkeypatch, calls):
    for mod in (service_mod, cache_mod, ilu_plan_mod, plan_mod):
        real = mod.structural_fingerprint

        def spy(*args, _real=real, **kwargs):
            calls["fingerprint"] = calls.get("fingerprint", 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, "structural_fingerprint", spy)


def test_warm_request_costs_two_fingerprints_and_one_model(monkeypatch):
    models, fingerprints = {}, {}
    _counting(monkeypatch, ServiceTimeEstimator, "model_seconds", models)

    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1) as gw:
            await gw.solve(GRID, "27pt", _rhs(0))  # compiles
            _count_fingerprints(monkeypatch, fingerprints)
            await gw.solve(GRID, "27pt", _rhs(1))  # warm

    asyncio.run(run())
    # Admission and the cache's own key check; the service adds none.
    assert fingerprints == {"fingerprint": 2}
    # Priced at the first admission; the post-chunk calibrations and
    # the identical second request reuse it.
    assert models == {"model_seconds": 1}


def test_ilu_hit_and_repack_digest_counts(monkeypatch):
    v1, v2 = _values(1), _values(2)

    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1) as gw:
            await gw.solve(GRID, "27pt", _rhs(0), op="ilu_apply",
                           values=v1)  # cold compile from v1
            digests = {}
            _counting(monkeypatch, ilu_plan_mod, "value_digest", digests)
            await gw.solve(GRID, "27pt", _rhs(1), op="ilu_apply",
                           values=v1)
            hit = digests.pop("value_digest", 0)
            await gw.solve(GRID, "27pt", _rhs(2), op="ilu_apply",
                           values=v2)
            return hit, digests.pop("value_digest", 0), gw

    hit, repack, gw = asyncio.run(run())
    # Hit: admission and the cache compare bytes; nothing is hashed.
    assert hit == 0
    # Repack: one digest, the label the new factors carry.
    assert repack == 1
    cache = gw.pool.cache_tallies()
    assert cache["refreshes"] == 1 and cache["compiles"] == 1


def test_contradicting_digest_is_refused_at_admission(monkeypatch):
    """Declared together with values, a digest must be theirs: the
    gateway refuses a contradiction as the service does, and hashes
    only requests that declare both."""
    v1 = _values(1)
    vd1 = ilu_plan_mod.value_digest(v1)

    async def run():
        async with SolveGateway(config=CONFIG, min_shards=1,
                                max_shards=1) as gw:
            with pytest.raises(service_mod.RequestError):
                await gw.submit(GRID, "27pt", _rhs(0), op="ilu_apply",
                                values=v1, value_digest="0" * 64)
            digests = {}
            _counting(monkeypatch, ilu_plan_mod, "value_digest", digests)
            await gw.solve(GRID, "27pt", _rhs(0), op="ilu_apply",
                           values=v1, value_digest=vd1)
            declared = digests.pop("value_digest", 0)
            await gw.solve(GRID, "27pt", _rhs(1), op="ilu_apply",
                           values=v1)
            return declared, digests.pop("value_digest", 0)

    declared, hit = asyncio.run(run())
    # The admission check and the cold compile's label.
    assert declared == 2
    assert hit == 0
