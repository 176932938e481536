"""PlanCache single flight, checked against a sequential model.

A Hypothesis ``RuleBasedStateMachine`` runs lookups, ILU lookups (plain,
with new values, with a declared digest), value refreshes,
invalidations and LRU evictions against one :class:`PlanCache`. Each
request runs on its own thread, but a deterministic scheduler lets at
most one thread run at a time, and every thread parks at three kinds
of points that only the machine moves it on from:

* inside the stubbed ``compile_plan`` / ``compile_ilu_plan`` /
  ``repack_ilu_plan``: a flight's leader at work. ``release`` lands it
  or makes it raise;
* on entry to ``_refresh``, the repack body that a lookup's repack
  and ``refresh_values`` share: the window between the decision to
  repack (or ``refresh_values``' own residency peek) and the repack's
  locked residency check. ``release`` lets it in;
* in a flight's ``wait()``: a waiter. Once the flight has landed, the
  waiters resume one at a time, in start order.

Every thread is mirrored by a generator over a plain ``OrderedDict``
LRU that yields at the same points. After every step the cache's
map, LRU order, flights and counters must equal the model's, and
each request ends with the model's result.
"""

import sys
import threading
from collections import OrderedDict
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.grids.grid import StructuredGrid
from repro.resilience.errors import StaleValuesError
from repro.serve import cache as cache_mod
from repro.serve import ilu_plan
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig, structural_fingerprint

pytestmark = pytest.mark.fast

CONFIG = PlanConfig(bsize=2)
#: Two triangular and two ILU structures compete for two slots.
CAPACITY = 2
TRI = [StructuredGrid((n, 4)) for n in (2, 3)]
ILU = [StructuredGrid((n, 5)) for n in (2, 3)]
TRI_FPS = [structural_fingerprint(g, "5pt", CONFIG) for g in TRI]
ILU_FPS = [ilu_plan.ilu_structural_fingerprint(g, "5pt", CONFIG)
           for g in ILU]
VALUES = [np.full(4, 1.0), np.full(4, 2.0)]
DIGESTS = [ilu_plan.value_digest(v) for v in VALUES]
#: Value digest and coefficients of an ILU plan compiled without
#: values: bytes that neither entry of ``VALUES`` holds.
CANONICAL = "canonical"
CANONICAL_VALUES = np.full(4, 0.5)
#: ``get_or_compile_ilu`` request shapes: (values index, expect_digest).
ILU_REQUESTS = [(None, None), (0, None), (1, None),
                (None, CANONICAL), (None, DIGESTS[0])]
#: Requests in progress at once.
MAX_LIVE = 5
#: Seconds a handoff may take before the run counts as hung.
HANDOFF_TIMEOUT = 10.0


class BuildFailed(RuntimeError):
    """A stubbed compile or repack told to fail."""


class Abandoned(BaseException):
    """Unwinds a worker the machine gives up on at teardown."""


def _result_of(call) -> tuple:
    """A request's outcome in the model's vocabulary."""
    try:
        plan, flag = call()
    except KeyError:
        return ("keyerror",)
    except StaleValuesError:
        return ("stale_values",)
    except BuildFailed:
        return ("failed",)
    except BaseException as exc:
        return ("error", repr(exc))
    return ("ok", plan.fingerprint, plan.value_digest, flag)


# The sequential model --------------------------------------------------------

class ModelFlight:
    def __init__(self, fp):
        self.fp = fp
        self.stale = False
        self.done = False


class Model:
    """The cache's specification: one dict, no threads.

    Each request is a generator yielding where its thread parks —
    ``("stub", kind)``, ``("gate",)`` or ``("flight", flight)`` — and
    returning its result. A stub yield receives ``"ok"`` or
    ``"fail"``.
    """

    COUNTERS = ("hits", "misses", "compiles", "refreshes", "evictions",
                "invalidations", "stale_drops")

    def __init__(self):
        self.plans = OrderedDict()  # fp -> value digest (None: tri)
        self.flights = {}
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def _decide(self, fp, digest):
        if fp in self.plans and digest in (None, self.plans[fp]):
            self.plans.move_to_end(fp)
            self.hits += 1
            return "serve", None
        if fp in self.flights:
            return "wait", self.flights[fp]
        if fp in self.plans:
            return "repack", None
        self.misses += 1
        flight = self.flights[fp] = ModelFlight(fp)
        return "lead", flight

    def _land(self, flight, digest, outcome):
        del self.flights[flight.fp]
        flight.done = True
        if outcome != "ok":
            return
        if flight.stale:
            self.stale_drops += 1
            return
        self.plans[flight.fp] = digest
        self.plans.move_to_end(flight.fp)
        while len(self.plans) > CAPACITY:
            self.plans.popitem(last=False)
            self.evictions += 1

    def invalidate(self, fp):
        removed = self.plans.pop(fp, "absent") != "absent"
        self.invalidations += removed
        if fp in self.flights:
            self.flights[fp].stale = True
        return removed

    def lookup(self, fp):
        while True:
            what, flight = self._decide(fp, None)
            if what == "serve":
                return ("ok", fp, None, True)
            if what == "wait":
                yield ("flight", flight)
                continue
            outcome = yield ("stub", "compile")
            self._land(flight, None, outcome)
            if outcome != "ok":
                return ("failed",)
            self.compiles += 1
            return ("ok", fp, None, False)

    def ilu_lookup(self, fp, digest, expect):
        while True:
            what, flight = self._decide(fp, digest)
            if what == "wait":
                yield ("flight", flight)
                continue
            if what == "repack":
                result = yield from self.repack(fp, digest)
                if result[0] == "keyerror":
                    continue
                self.hits += 1
                return result[:3] + (True,) if result[0] == "ok" \
                    else result
            if what == "lead":
                outcome = yield ("stub", "compile")
                have = CANONICAL if digest is None else digest
                self._land(flight, have, outcome)
                if outcome != "ok":
                    return ("failed",)
                self.compiles += 1
            else:
                have = self.plans[fp]
            if expect is not None and expect != have:
                return ("stale_values",)
            return ("ok", fp, have, what == "serve")

    def refresh(self, fp, digest):
        if fp not in self.plans:  # refresh_values' residency peek
            return ("keyerror",)
        return (yield from self.repack(fp, digest))

    def repack(self, fp, digest):
        yield ("gate",)
        while True:
            if fp not in self.plans:
                return ("keyerror",)
            if self.plans[fp] == digest:
                return ("ok", fp, digest, False)
            if fp in self.flights:
                yield ("flight", self.flights[fp])
                continue
            flight = self.flights[fp] = ModelFlight(fp)
            outcome = yield ("stub", "repack")
            self._land(flight, digest, outcome)
            if outcome != "ok":
                return ("failed",)
            self.refreshes += 1
            return ("ok", fp, digest, True)


# The deterministic scheduler -------------------------------------------------

class Worker:
    def __init__(self, scheduler, name, call, model):
        self.scheduler, self.name, self.model = scheduler, name, model
        self.park = None      # where the thread is parked, or None
        self.expect = None    # where the model says it parks
        self.outcome = None   # how the current stub park ends
        self.abandoned = False
        self.go = threading.Event()
        self.thread = threading.Thread(target=self._run, args=(call,),
                                       daemon=True, name=name)
        self.thread.worker = self

    def _run(self, call):
        result = _result_of(call)
        self.scheduler.parked(self, ("done", result))


class PlanCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cv = threading.Condition()
        self.model = Model()
        self.workers = []
        self.lookups = 0
        self.built = {"compile": 0, "repack": 0}
        #: Invalidation clock: every stub plan records the clock at its
        #: build start, every invalidate its tick per fingerprint.
        self.clock = 0
        self.invalidated_at = {}
        self.cache = PlanCache(capacity=CAPACITY)
        gated = self.cache._refresh

        def _refresh(fingerprint, values, vd):
            self._park(("gate",))
            return gated(fingerprint, values, vd)

        self.cache._refresh = _refresh
        machine = self

        class ScheduledFlight(cache_mod._Flight):
            __slots__ = ()

            def wait(self):
                machine._park(("flight", self))

        self.patches = [
            mock.patch.object(cache_mod, "_Flight", ScheduledFlight),
            mock.patch.object(cache_mod, "compile_plan",
                              self._compile_stub),
            mock.patch.object(ilu_plan, "compile_ilu_plan",
                              self._compile_ilu_stub),
            mock.patch.object(ilu_plan, "repack_ilu_plan",
                              self._repack_stub),
        ]
        for patch in self.patches:
            patch.start()

    # Stubs (run on worker threads) -------------------------------------
    def _build(self, kind, fp, digest, values=None):
        started = self.clock
        if self._park(("stub", kind)) == "fail":
            raise BuildFailed(kind)
        self.built[kind] += 1
        return SimpleNamespace(
            fingerprint=fp, value_digest=digest, values_src=values,
            started=started, kind="tri" if digest is None else "ilu",
            config=CONFIG, autotuned=False, bsize=1)

    def _compile_stub(self, grid, stencil, config, bsize_hint=None):
        return self._build("compile",
                           structural_fingerprint(grid, stencil, config),
                           None)

    def _compile_ilu_stub(self, grid, stencil, config, values=None,
                          bsize_hint=None):
        fp = ilu_plan.ilu_structural_fingerprint(grid, stencil, config)
        if values is None:
            return self._build("compile", fp, CANONICAL,
                               CANONICAL_VALUES)
        return self._build("compile", fp, ilu_plan.value_digest(values),
                           values)

    def _repack_stub(self, plan, values, digest):
        # The cache hands over the digest it computed for the repack.
        assert digest == ilu_plan.value_digest(values)
        return self._build("repack", plan.fingerprint, digest, values)

    # Handoffs ----------------------------------------------------------
    def _park(self, where):
        """On a worker thread: park at ``where`` until resumed."""
        worker = threading.current_thread().worker
        self.parked(worker, where)
        if not worker.go.wait(6 * HANDOFF_TIMEOUT) or worker.abandoned:
            raise Abandoned(worker.name)
        worker.go.clear()
        return worker.outcome

    def parked(self, worker, where):
        with self.cv:
            worker.park = where
            self.cv.notify_all()

    def _await(self, worker):
        with self.cv:
            parked = self.cv.wait_for(lambda: worker.park is not None,
                                      HANDOFF_TIMEOUT)
        assert parked, f"{worker.name} neither parked nor finished"
        try:
            worker.expect = worker.model.send(worker.outcome)
        except StopIteration as stop:
            worker.expect = ("done", stop.value)
        real, model = worker.park, worker.expect
        assert real[0] == model[0], \
            f"{worker.name} parked at {real[0]}, the model at {model[0]}"
        if real[0] == "flight":
            assert real[1] is self.cache._inflight[model[1].fp], \
                f"{worker.name} waits on a flight that is not its key's"
        else:
            assert real[1:] == model[1:], \
                f"{worker.name}: {real[1:]} != model {model[1:]}"

    def _resume(self, worker, outcome="ok"):
        worker.outcome = outcome
        with self.cv:
            worker.park = None
        worker.go.set()
        self._await(worker)

    def _settle(self):
        """Resume, in start order, every waiter whose flight landed."""
        while True:
            ready = [w for w in self.workers if w.park[0] == "flight"
                     and not w.park[1].done.locked()]
            if not ready:
                return
            assert ready[0].expect[1].done
            self._resume(ready[0])

    def _start(self, name, call, model):
        worker = Worker(self, f"{name}#{len(self.workers)}", call, model)
        self.workers.append(worker)
        worker.thread.start()
        self._await(worker)
        self._settle()

    def _live(self):
        return sum(w.park[0] != "done" for w in self.workers)

    def _releasable(self):
        return [w for w in self.workers if w.park[0] in ("stub", "gate")]

    # Rules -------------------------------------------------------------
    @precondition(lambda self: self._live() < MAX_LIVE)
    @rule(s=st.integers(0, 1))
    def lookup(self, s):
        self.lookups += 1
        self._start(f"get_or_compile(T{s})",
                    lambda: self.cache.get_or_compile(TRI[s], "5pt",
                                                      CONFIG),
                    self.model.lookup(TRI_FPS[s]))

    @precondition(lambda self: self._live() < MAX_LIVE)
    @rule(s=st.integers(0, 1), request=st.sampled_from(ILU_REQUESTS))
    def ilu_lookup(self, s, request):
        k, expect = request
        values = None if k is None else VALUES[k]
        self.lookups += 1
        self._start(f"get_or_compile_ilu(I{s}, {request})",
                    lambda: self.cache.get_or_compile_ilu(
                        ILU[s], "5pt", CONFIG, values=values,
                        expect_digest=expect),
                    self.model.ilu_lookup(
                        ILU_FPS[s], None if k is None else DIGESTS[k],
                        expect))

    @precondition(lambda self: self._live() < MAX_LIVE)
    @rule(s=st.integers(0, 1), k=st.integers(0, 1))
    def refresh(self, s, k):
        self._start(f"refresh_values(I{s}, v{k})",
                    lambda: self.cache.refresh_values(ILU_FPS[s],
                                                      VALUES[k]),
                    self.model.refresh(ILU_FPS[s], DIGESTS[k]))

    @rule(f=st.integers(0, 3))
    def invalidate(self, f):
        fp = (TRI_FPS + ILU_FPS)[f]
        self.clock += 1
        self.invalidated_at[fp] = self.clock
        assert self.cache.invalidate(fp) == self.model.invalidate(fp)

    @precondition(lambda self: self._releasable())
    @rule(i=st.integers(0, MAX_LIVE - 1),
          outcome=st.sampled_from(["ok", "ok", "ok", "fail"]))
    def release(self, i, outcome):
        parked = self._releasable()
        worker = parked[i % len(parked)]
        self._resume(worker, outcome if worker.park[0] == "stub"
                     else "ok")
        self._settle()

    # Invariants --------------------------------------------------------
    @invariant()
    def cache_matches_model(self):
        plans = self.cache._plans
        assert [(fp, p.value_digest) for fp, p in plans.items()] \
            == list(self.model.plans.items())
        assert {fp: f.stale for fp, f in self.cache._inflight.items()} \
            == {fp: f.stale for fp, f in self.model.flights.items()}
        for name in Model.COUNTERS:
            assert self.cache.stats()[name] == getattr(self.model, name), \
                name

    @invariant()
    def no_stale_plan_resident(self):
        for fp, plan in self.cache._plans.items():
            assert plan.started >= self.invalidated_at.get(fp, 0), \
                f"{fp[:12]} resident from a build the invalidate poisoned"

    @invariant()
    def no_flight_without_a_working_leader(self):
        if not any(w.park[0] == "stub" for w in self.workers):
            assert self.cache._inflight == {}

    @invariant()
    def counters_match_the_builds(self):
        assert self.cache.stats()["compiles"] == self.built["compile"]
        assert self.cache.stats()["refreshes"] == self.built["repack"]

    def teardown(self):
        try:
            if sys.exc_info()[0] is not None:
                return  # a step already failed: just unwind the threads
            while self._releasable():
                self._resume(self._releasable()[0])
                self._settle()
            hung = [w.name for w in self.workers if w.park[0] != "done"]
            assert not hung, f"never finished: {hung}"
            for worker in self.workers:
                worker.thread.join(HANDOFF_TIMEOUT)
                assert not worker.thread.is_alive(), worker.name
            self.cache_matches_model()
            s = self.cache.stats()
            assert s["hits"] + s["misses"] == self.lookups
            assert self.cache._inflight == {}
        finally:
            for worker in self.workers:
                worker.abandoned = True
                worker.go.set()
            for patch in self.patches:
                patch.stop()


PlanCacheMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=25, derandomize=True,
    deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow])
TestPlanCacheStateMachine = PlanCacheMachine.TestCase
