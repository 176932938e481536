"""The four benchmark workloads.

Every workload is a closed loop with one client: it sends its next
request only after the previous one has resolved.  Inputs (right-hand sides and
coefficient snapshots) come from ``numpy.random.default_rng(seed)``
and are generated before any timing starts; the program only ever
sees the generated arrays.

Steadiness rules the workloads follow:

* one event-loop thread plus one shard worker thread (``min_shards =
  max_shards = 1`` and a one-thread default executor), and one client:
  with two concurrent clients a request either waits for the other's
  execution or does not, and the mix of those two latency modes moved
  with host speed (tri-small's p50 jumped between about 2.2 and
  3.8 ms on the same code);
* within a workload every request costs the same, except on
  ``ilu-drift``, whose three request kinds come in fixed shares (7pt
  hits 1/4, 27pt hits 1/2, 27pt repacks 1/4) so that p50 lies in the
  middle of the 27pt hit band and p90 inside the one repack band;
* plans use the default feasibility autotune (no timed candidate
  search, no persisted picks), so every run resolves the same bsize;
* the client stops only at the end of a *round*, so exact counts
  (hit fraction, repacks per 1000 columns, bytes per column) do not
  depend on how many requests fit in the timed phase.
"""

from __future__ import annotations

import importlib
from array import array
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from host import host_factor

#: Seconds between host-speed probes in a timed phase (each probe
#: takes about 15 ms; they happen only between requests).
PROBE_EVERY = 0.25


def plan_config():
    from repro.serve.plan import PlanConfig

    # n_workers=2 matches the 2-vCPU host the bounds were set on; the
    # feasibility autotune (autotune_prune=None) never times candidates.
    return PlanConfig(n_workers=2)


@dataclass
class Phase:
    """What one closed-loop phase measured.

    The phase is cut into *slices* of about ``PROBE_EVERY`` seconds at
    request boundaries; :meth:`probe` reads the host's speed factor
    between slices (while no request is in flight), and every time in
    a slice is divided by the geometric mean of the factors read
    before and after it (see ``host.py``).
    """

    #: Seconds per request; a flat array so memory does not grow with
    #: the number of requests a phase happens to fit.
    latencies: array = field(default_factory=lambda: array("d"))
    #: Slice of each request.
    slice_of: array = field(default_factory=lambda: array("l"))
    #: Host factor read before each slice (and one after the last).
    factors: list = field(default_factory=list)
    #: Wall seconds of each slice, probes excluded.
    slice_wall: list = field(default_factory=list)
    #: Per request (start, end); traced phases only.
    intervals: list = field(default_factory=list)
    cols: int = 0
    failed: int = 0
    wall: float = 0.0
    requests: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=dict)
    #: Per request (admit, queue_wait, return) seconds; traced only.
    layers: list = field(default_factory=list)
    cache_before: dict | None = None
    cache_after: dict | None = None
    solves: list = field(default_factory=list)
    slice_t0: float = 0.0

    def probe(self) -> None:
        """Close the running slice (if any), read the host factor and
        open the next slice."""
        if self.factors:
            self.slice_wall.append(time.perf_counter() - self.slice_t0)
        self.factors.append(host_factor())
        self.slice_t0 = time.perf_counter()

    def record(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self.slice_of.append(len(self.factors) - 1)

    def slice_factors(self) -> np.ndarray:
        f = np.asarray(self.factors)
        return np.sqrt(f[:-1] * f[1:])

    @property
    def busy(self) -> float:
        """Wall seconds spent on requests (probes excluded)."""
        return sum(self.slice_wall)

    @property
    def cols_per_s(self) -> float:
        return self.cols / self.busy if self.busy > 0 else 0.0

    def norm_latencies(self) -> np.ndarray:
        """Request latencies in reference-host seconds."""
        return (np.asarray(self.latencies)
                / self.slice_factors()[np.asarray(self.slice_of)])

    @property
    def norm_cols_per_s(self) -> float:
        """Columns per reference-host second."""
        norm = float(np.sum(np.asarray(self.slice_wall)
                            / self.slice_factors()))
        return self.cols / norm if norm > 0 else 0.0


@dataclass
class Structure:
    label: str
    stencil: str
    nx: int
    grid: object = None


class GatewayWorkload:
    """A closed-loop client driving a one-shard :class:`SolveGateway`."""

    #: Drives the serving stack (the HPCG workload does not).
    serving = True
    #: Requests the client completes between stop checks.
    round_len = 1
    warmup_requests = 8
    stream_chunk = 1
    k = 1
    #: How many of the first ``sample_window`` requests the gate checks.
    n_samples = 4
    sample_window = 16

    def __init__(self, seed: int):
        from repro.grids.grid import StructuredGrid

        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.config = plan_config()
        self._counted = {}
        for s in self.structures:
            s.grid = StructuredGrid((s.nx,) * 3)
        self.make_inputs()
        self.sample_idx = set(int(i) for i in self.rng.choice(
            self.sample_window, self.n_samples, replace=False))

    # Inputs -------------------------------------------------------------
    def make_inputs(self) -> None:
        raise NotImplementedError

    def request(self, i: int) -> tuple:
        """``(structure index, op, rhs, values)`` of request ``i``."""
        raise NotImplementedError

    def tenant(self, i: int) -> str:
        return "a"

    async def prime(self, gw) -> None:
        """Bring per-structure state to a known point before a phase."""

    # Gateway lifecycle --------------------------------------------------
    def new_gateway(self):
        from repro.gateway.gateway import SolveGateway
        from repro.serve.cache import PlanCache
        from repro.serve.service import SolveService

        cache = PlanCache()
        config = self.config
        gw = SolveGateway(lambda: SolveService(cache=cache, config=config),
                          config=config, stream_chunk=self.stream_chunk,
                          min_shards=1, max_shards=1)
        gw.bench_cache = cache
        return gw

    async def submit(self, gw, tenant: str, s: int, op: str, rhs,
                     values=None):
        st = self.structures[s]
        ticket = await gw.submit(st.grid, st.stencil, rhs, op=op,
                                 tenant=tenant, values=values)
        return await ticket.result()

    async def setup_once(self) -> tuple:
        """One cold set-up: fresh gateway and cache, first request on
        every structure completed.  Returns ``(seconds, gateway)``."""
        t0 = time.perf_counter()
        gw = self.new_gateway()
        for s in range(len(self.structures)):
            _, op, rhs, values = self.first_request(s)
            await self.submit(gw, self.tenant(0), s, op, rhs, values)
        return time.perf_counter() - t0, gw

    def first_request(self, s: int) -> tuple:
        return self.request(0)

    # Phases -------------------------------------------------------------
    async def run_phase(self, gw, seconds: float | None = None,
                        max_requests: int | None = None,
                        tracer=None, host=None) -> Phase:
        await self.prime(gw)
        phase = Phase()
        phase.cache_before = gw.bench_cache.stats()
        t0 = time.perf_counter()
        deadline = None if seconds is None else t0 + seconds
        phase.probe()
        await self._client(gw, deadline, max_requests, phase, tracer, host)
        phase.probe()
        phase.wall = time.perf_counter() - t0
        phase.cache_after = gw.bench_cache.stats()
        return phase

    async def _client(self, gw, deadline, max_requests, phase, tracer,
                      host) -> None:
        i = 0
        while True:
            if i % self.round_len == 0:
                now = time.perf_counter()
                if ((deadline is not None and now >= deadline)
                        or (max_requests is not None and i >= max_requests)):
                    return
                if now - phase.slice_t0 >= PROBE_EVERY:
                    phase.probe()
            s, op, rhs, values = self.request(i)
            t0 = time.perf_counter()
            try:
                x = await self.submit(gw, self.tenant(i), s, op, rhs, values)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                phase.failed += self.k
                print(f"# request failed: {type(exc).__name__}: {exc}")
                i += 1
                continue
            t1 = time.perf_counter()
            phase.record(t1 - t0)
            phase.cols += self.k
            phase.requests[(s, op)] += 1
            if i in self.sample_idx:
                phase.samples[i] = x.copy()
            if tracer is not None:
                phase.intervals.append((t0, t1))
                key = rhs.ctypes.data
                a0, a1 = tracer.admit_by_key.pop(key)
                e0, e1 = tracer.shard_by_key.pop(key)
                phase.layers.append((a1 - a0, e0 - a1, t1 - e1))
            if host is not None:
                host.sample_threads()
            i += 1

    # Plans and exact counts ---------------------------------------------
    def fingerprint(self, s: int) -> str:
        from repro.serve.plan import structural_fingerprint

        st = self.structures[s]
        return structural_fingerprint(st.grid, st.stencil, self.config)

    def served_plans(self, gw) -> list:
        return [gw.bench_cache.peek(self.fingerprint(s))
                for s in range(len(self.structures))]

    def structure_counts(self, plan) -> dict:
        return {"bsize": int(plan.bsize), "tiles": int(plan.dbsr.n_tiles),
                "lower_tiles": int(plan.lower.n_tiles),
                "upper_tiles": int(plan.upper.n_tiles)}

    def counts(self, gw, phase: Phase) -> dict:
        """Exact, seed-independent counts of one phase."""
        plans = self.served_plans(gw)
        b, a = phase.cache_before, phase.cache_after
        hits, misses = a["hits"] - b["hits"], a["misses"] - b["misses"]
        repacks = a["refreshes"] - b["refreshes"]
        nbytes = sum(n * plans[s].op_counts(op, self.k).total_bytes
                     for (s, op), n in phase.requests.items())
        return {
            "structures": {st.label: self.structure_counts(p)
                           for st, p in zip(self.structures, plans)},
            "hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "repacks_per_kcol": 1000.0 * repacks / phase.cols,
            "bytes_per_col": nbytes / phase.cols,
        }

    # Correctness gate ---------------------------------------------------
    def reference(self, s: int, op: str, rhs, values) -> np.ndarray:
        """The served op recomputed on the ``numpy-counted`` tier."""
        from repro.serve.plan import compile_plan

        if s not in self._counted:
            st = self.structures[s]
            self._counted[s] = compile_plan(
                st.grid, st.stencil,
                replace(self.config, backend="numpy-counted"))
        return self._counted[s].execute(op, rhs)

    def gate(self, state, phase: Phase) -> tuple:
        """``(columns checked, columns wrong)`` over sampled outputs."""
        checked = wrong = 0
        for i, x in phase.samples.items():
            ref = self.reference(*self.request(i))
            x2, r2 = x.reshape(x.shape[0], -1), ref.reshape(x.shape[0], -1)
            for j in range(x2.shape[1]):
                checked += 1
                wrong += not np.array_equal(x2[:, j], r2[:, j])
        return checked, wrong


class TriSmall(GatewayWorkload):
    """k=1 lower/upper on 7pt nx=16 from two tenants taking turns.

    A round is four requests: tenant a lower, a upper, b lower, b upper.
    """

    name = "tri-small"
    round_len = 4
    warmup_requests = 100
    n_samples = 4
    sample_window = 32

    def __init__(self, seed):
        self.structures = [Structure("7pt-16", "7pt", 16)]
        super().__init__(seed)

    def make_inputs(self):
        n = self.structures[0].grid.n_points
        self.pool = [self.rng.standard_normal(n) for _ in range(16)]

    def request(self, i):
        return 0, ("lower", "upper")[i % 2], self.pool[i % 16], None

    def tenant(self, i):
        return "ab"[(i // 2) % 2]


class TriLargeK8(GatewayWorkload):
    """k=8 SYMGS on 27pt nx=32 (kernel dominated)."""

    name = "tri-large-k8"
    k = 8
    stream_chunk = 8
    warmup_requests = 3
    n_samples = 2
    sample_window = 6

    def __init__(self, seed):
        self.structures = [Structure("27pt-32", "27pt", 32)]
        super().__init__(seed)

    def make_inputs(self):
        n = self.structures[0].grid.n_points
        # Fortran order keeps each column contiguous, so the gateway's
        # per-column split is a view sharing the block's memory.
        self.pool = [np.asfortranarray(self.rng.standard_normal((n, 8)))
                     for _ in range(4)]

    def request(self, i):
        return 0, "symgs", self.pool[i % 4], None


class ILUDrift(GatewayWorkload):
    """ILU(0) applies on two structures, one of whose coefficients drift.

    A round is 16 requests: 12 on 27pt nx=16 and 4 on 7pt nx=24 in a
    seeded order.  The j-th request to 27pt carries snapshot
    ``(j // 3) % 8``, so every 3rd request to it is a value-only
    repack: exactly 250 repacks per 1000 columns, all of one structure
    and so of one cost.  Requests to 7pt always carry the same snapshot
    and are verified hits.  Each phase starts 27pt from a separate
    priming snapshot so its first request there is a repack too.
    """

    name = "ilu-drift"
    round_len = 16
    warmup_requests = 32
    n_samples = 6
    sample_window = 32
    n_snapshots = 8
    #: Requests to the drifting structure per snapshot.
    repack_every = 3

    def __init__(self, seed):
        self.structures = [Structure("27pt-16", "27pt", 16),
                           Structure("7pt-24", "7pt", 24)]
        super().__init__(seed)

    def make_inputs(self):
        from repro.grids.assembly import assemble_csr
        from repro.grids.stencils import stencil_by_name

        self.rhs = []
        self.snapshots = []
        for s, st in enumerate(self.structures):
            base = assemble_csr(st.grid, stencil_by_name(st.stencil)).data
            self.rhs.append([self.rng.standard_normal(st.grid.n_points)
                             for _ in range(16)])
            # 27pt: n_snapshots cycling snapshots plus one priming
            # snapshot; 7pt: one.  Multiplicative +-5% drift on every
            # coefficient.
            n = self.n_snapshots + 1 if s == 0 else 1
            self.snapshots.append([
                base * (1.0 + 0.05 * self.rng.uniform(-1, 1, base.shape))
                for _ in range(n)])
        self.rounds = {}

    def _round(self, r: int) -> tuple:
        if r not in self.rounds:
            order = np.random.default_rng((self.seed, r)).permutation(
                np.array([0] * 12 + [1] * 4))
            seen = [12 * r, 4 * r]
            js = []
            for s in order:
                js.append(seen[s])
                seen[s] += 1
            self.rounds[r] = (order, js)
        return self.rounds[r]

    def request(self, i):
        order, js = self._round(i // 16)
        s, j = int(order[i % 16]), js[i % 16]
        k = (j // self.repack_every) % self.n_snapshots if s == 0 else 0
        return s, "ilu_apply", self.rhs[s][j % 16], self.snapshots[s][k]

    def first_request(self, s):
        # The last snapshot: 27pt's priming one, 7pt's only one.
        return s, "ilu_apply", self.rhs[s][0], self.snapshots[s][-1]

    async def prime(self, gw):
        for s in range(len(self.structures)):
            _, op, rhs, values = self.first_request(s)
            await self.submit(gw, self.tenant(0), s, op, rhs, values)

    def fingerprint(self, s):
        from repro.serve.ilu_plan import ilu_structural_fingerprint

        st = self.structures[s]
        return ilu_structural_fingerprint(st.grid, st.stencil, self.config)

    def structure_counts(self, plan):
        return {"bsize": int(plan.bsize),
                "tiles": int(plan.factors.matrix.n_tiles)}

    def reference(self, s, op, rhs, values):
        """``ilu0_apply_csr`` over the projected factors of a cold
        compile from the same snapshot (repacks must match it)."""
        from repro.ilu.ilu0_csr import ilu0_apply_csr
        from repro.serve.ilu_plan import compile_ilu_plan

        st = self.structures[s]
        plan = compile_ilu_plan(st.grid, st.stencil, self.config,
                                values=values)
        factors = plan.factors.to_csr_factors()
        return plan.restrict(ilu0_apply_csr(factors, plan.extend(rhs)))


class HPCGMG:
    """HPCG's MG-preconditioned CG on one prebuilt hierarchy.

    No serving layer: each request is one PCG solve to 1e-9 on the
    problem's own right-hand side (a random one would take 10 or 11
    iterations), so every solve does the same work.  The seed has
    nothing to vary here and is accepted for the common interface.
    """

    serving = False

    name = "hpcg-mg"
    nx = 12
    n_levels = 3
    bsize = 8
    tol = 1e-9
    maxiter = 50
    warmup_requests = 1

    def __init__(self, seed):
        self.seed = seed
        self.expected_iters = None
        self.reference_x = None

    async def setup_once(self):
        from repro.grids.problems import hpcg_problem
        from repro.multigrid.hierarchy import build_hierarchy
        from repro.multigrid.smoothers import make_smoother
        from repro.multigrid.vcycle import MGPreconditioner

        t0 = time.perf_counter()
        problem = hpcg_problem(self.nx)
        top = build_hierarchy(
            problem.grid, problem.stencil,
            lambda g, s, m: make_smoother("dbsr", g, s, m,
                                          bsize=self.bsize, n_workers=2),
            n_levels=self.n_levels, matrix=problem.matrix)
        # Set-up is eager here: the hierarchy build reorders and converts
        # every level, so the first solve pays nothing extra and is not
        # part of set-up (it would only repeat latency_p50_ms).
        state = (problem, top, MGPreconditioner(top))
        return time.perf_counter() - t0, state

    def solve(self, state):
        # Looked up on the module at call time so a traced run sees the
        # wrapped function.
        pcg = importlib.import_module("repro.solvers.pcg")
        problem, _, precond = state
        return pcg.pcg(problem.matrix, problem.rhs, precond, tol=self.tol,
                       maxiter=self.maxiter)

    async def run_phase(self, state, seconds=None, max_requests=None,
                        tracer=None, host=None) -> Phase:
        phase = Phase()
        t_start = time.perf_counter()
        deadline = None if seconds is None else t_start + seconds
        phase.probe()
        while not ((deadline is not None
                    and time.perf_counter() >= deadline)
                   or (max_requests is not None
                       and len(phase.solves) >= max_requests)):
            if time.perf_counter() - phase.slice_t0 >= PROBE_EVERY:
                phase.probe()
            t0 = time.perf_counter()
            x, hist = self.solve(state)
            t1 = time.perf_counter()
            phase.record(t1 - t0)
            phase.intervals.append((t0, t1))
            phase.cols += 1
            phase.solves.append((x, hist.iterations, hist.converged))
            if self.expected_iters is None:
                # The first (warm-up) solve records the iteration count
                # and the solution every later solve must repeat.
                self.expected_iters = hist.iterations
                self.reference_x = x.copy()
            if host is not None:
                host.sample_threads()
        phase.probe()
        phase.wall = time.perf_counter() - t_start
        if phase.solves:
            phase.samples[0] = phase.solves[0][0]
        return phase

    def counts(self, state, phase):
        from repro.multigrid.hierarchy import hierarchy_levels

        _, top, _ = state
        return {
            "levels": [{"bsize": int(lv.smoother.bsize),
                        "tiles": int(lv.smoother.dbsr.n_tiles)}
                       for lv in hierarchy_levels(top)],
            "pcg_iters": sorted({it for _, it, _ in phase.solves}),
        }

    def gate(self, state, phase) -> tuple:
        """Every solve must converge to ``tol`` in the recorded
        iteration count and repeat the warm-up solve bitwise."""
        problem = state[0]
        bnorm = float(np.linalg.norm(problem.rhs))
        wrong = 0
        for x, iters, converged in phase.solves:
            relres = float(np.linalg.norm(
                problem.rhs - problem.matrix.matvec(x))) / bnorm
            wrong += not (converged and iters == self.expected_iters
                          and relres <= self.tol
                          and np.array_equal(x, self.reference_x))
        return len(phase.solves), wrong

    def flops_per_solve(self, state) -> float:
        from repro.hpcg.flops import hpcg_flops_per_iteration

        problem = state[0]
        return self.expected_iters * hpcg_flops_per_iteration(
            problem.n, problem.matrix.nnz, self.n_levels)


WORKLOADS = {cls.name: cls for cls in (TriSmall, TriLargeK8, ILUDrift,
                                       HPCGMG)}


def one_thread_executor():
    """The shard worker pool: one thread, so at most two are busy."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="shard")
