"""Deterministic known-answer canary probes for shard health.

The batched triangular kernels are deterministic and bit-identical
across shards (one structure, one op, one config ⇒ one exact result —
the same property the gateway bench pins with ``np.array_equal``).
That determinism makes shard health *decidable*: compute a tiny known
answer once through a direct :class:`~repro.serve.service.SolveService`
and a shard is healthy iff it reproduces that answer **bit for bit**.
No tolerance, no flakiness: a canary mismatch is a real fault (poisoned
shard, corrupted cache, broken service), never noise.

The probe is intentionally tiny (a 4³ grid by default — a few hundred
unknowns) so the supervisor can afford to run it on every suspect
shard and on every restart candidate before adoption.
"""

from __future__ import annotations

import numpy as np

from repro.grids.grid import StructuredGrid
from repro.observe.metrics import MetricsRegistry
from repro.serve.plan import PlanConfig, _resolve_stencil
from repro.serve.service import SolveService
from repro.utils.validation import check_positive


class CanaryProbe:
    """A tiny solve with a precomputed, bit-exact expected answer.

    Parameters
    ----------
    config:
        :class:`~repro.serve.plan.PlanConfig` the probe solves under;
        should match the pool's config so the probe exercises the same
        plan pipeline the real traffic does.
    nx:
        Cube edge of the probe grid (``nx**3`` unknowns).
    stencil, op:
        Structure and kernel the probe exercises.
    seed:
        Seed of the probe RHS — fixed so every probe of every shard
        solves the *same* system.
    """

    def __init__(self, config: PlanConfig | None = None, *,
                 nx: int = 4, stencil: str = "27pt",
                 op: str = "lower", seed: int = 7):
        check_positive(nx, "nx")
        self.config = config if config is not None else PlanConfig()
        self.grid = StructuredGrid((nx,) * 3)
        self.stencil = _resolve_stencil(stencil)
        self.op = op
        rng = np.random.default_rng(seed)
        self.rhs = rng.standard_normal(self.grid.n_points)
        self.metrics = MetricsRegistry()
        self._probes = self.metrics.counter(
            "canary.probes", "probes run, across all shards")
        self._failures = self.metrics.counter(
            "canary.failures", "probes that raised or mismatched")
        # The known answer, computed once through the plain sync path.
        with SolveService(config=self.config) as svc:
            ticket = svc.submit(self.grid, self.stencil, self.rhs,
                                op=self.op)
            svc.drain()
            self.expected = ticket.result(timeout=0)

    def check(self, shard) -> tuple[bool, str]:
        """Probe one shard; returns ``(healthy, reason)``.

        Healthy means the shard executed the probe without raising and
        returned the expected answer bit-for-bit. The probe runs
        through the shard's normal ``execute`` path, so it sees
        whatever the next real chunk would see (including armed
        ``gateway.shard`` faults — chaos tests rely on that).
        """
        self._probes.inc()
        try:
            out = shard.execute(self.grid, self.stencil, self.op,
                                self.config, [self.rhs])
        except BaseException as exc:  # noqa: BLE001 - any raise = sick
            self._failures.inc()
            return False, f"probe raised {type(exc).__name__}: {exc}"
        if len(out) != 1:
            self._failures.inc()
            return False, f"probe returned {len(out)} columns, not 1"
        result = out[0]
        if isinstance(result, BaseException):
            self._failures.inc()
            return False, (f"probe column failed with "
                           f"{type(result).__name__}: {result}")
        if not np.array_equal(result, self.expected):
            self._failures.inc()
            return False, "probe answer is not bit-identical"
        return True, "ok"

    def stats(self) -> dict:
        return {"nx": int(self.grid.dims[0]), "op": self.op,
                **self.metrics.values("canary.")}
