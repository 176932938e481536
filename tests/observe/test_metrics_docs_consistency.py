"""Every registered instrument is documented, and every documented one
is registered.

Guards against drift between the instrument tables of
``docs/observability.md`` §2 and what the stack actually registers: a
seeded gateway with a supervisor, a hedge policy, retries, a brownout
controller and a per-shard fallback chain serves traffic, and every
:class:`~repro.observe.metrics.MetricsRegistry` reachable from it is
compared with the tables, name and kind.
"""

import asyncio
import os
import re
from collections import deque

import numpy as np
import pytest

from repro.gateway import AdmissionRejected, SolveGateway
from repro.grids.grid import StructuredGrid
from repro.observe.metrics import MetricsRegistry
from repro.resilience.fallback import FallbackChain
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig
from repro.serve.service import SolveService
from repro.supervise import (Backoff, BrownoutController, HedgePolicy,
                             ShardSupervisor)

DOC = os.path.join(os.path.dirname(__file__), "..", "..", "docs",
                   "observability.md")
GRID = StructuredGrid((5, 5, 5))
CONFIG = PlanConfig(bsize=4)


def _documented() -> dict:
    """``{name: kind}`` from the §2 instrument tables."""
    with open(DOC) as fh:
        text = fh.read()
    section = text[text.index("## 2."):text.index("## 3.")]
    rows = re.findall(r"^\| `([^`]+)` \| (\w+) \|", section, re.M)
    assert rows, "no instrument table found in docs/observability.md §2"
    return dict(rows)


def _registries(root) -> list:
    """Every registry reachable from ``root`` through repro objects."""
    found, seen, todo = [], set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, MetricsRegistry):
            found.append(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, deque)):
            todo.extend(obj)
        elif type(obj).__module__.startswith("repro.") \
                and hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return found


@pytest.fixture(scope="module")
def registered() -> dict:
    """``{family: kind}`` across a fully supervised gateway's stack."""

    def service():
        cache = PlanCache()
        return SolveService(cache=cache, config=CONFIG,
                            resilience=FallbackChain(cache=cache))

    async def run():
        rng = np.random.default_rng(5)
        async with SolveGateway(
                service, config=CONFIG, supervisor=ShardSupervisor(),
                hedge=HedgePolicy(), retry=Backoff(),
                brownout=BrownoutController()) as gw:
            for tenant in ("a", "b"):
                await gw.solve(GRID, "27pt",
                               rng.standard_normal(GRID.n_points),
                               tenant=tenant)
            with pytest.raises(AdmissionRejected):
                await gw.submit(GRID, "27pt",
                                rng.standard_normal(GRID.n_points),
                                tenant="a", deadline=1e-12)
            return _registries(gw)

    families = {}
    for reg in asyncio.run(run()):
        for key, snap in reg.snapshot().items():
            families[key.split("{")[0]] = snap["type"]
    return families


def _pattern(name: str):
    """``fallback.depth.<d>`` matches ``fallback.depth.0`` and so on."""
    return re.compile(re.sub(r"<[^>]+>", r"[^.]+", re.escape(name))
                      + r"\Z")


def test_every_registered_family_is_documented(registered):
    documented = _documented()
    undocumented = {
        name: kind for name, kind in registered.items()
        if not any(_pattern(doc).match(name) and documented[doc] == kind
                   for doc in documented)}
    assert not undocumented, (
        f"instruments missing from docs/observability.md §2 (or "
        f"listed with another kind): {undocumented}")


def test_every_documented_name_is_registered(registered):
    missing = [doc for doc, kind in _documented().items()
               if not any(_pattern(doc).match(name) and registered[name]
                          == kind for name in registered)]
    assert not missing, (
        f"documented in docs/observability.md §2 but never registered: "
        f"{missing}")


def test_the_stack_registers_every_layer(registered):
    layers = {name.split(".")[0] for name in registered}
    assert layers == {"serve", "cache", "fallback", "breaker",
                      "supervisor", "canary", "brownout", "gateway"}
