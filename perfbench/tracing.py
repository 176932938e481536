"""Per-layer tracing done from outside the program.

:class:`LayerTracer` wraps the public functions and methods at each
layer boundary of the serving stack and the HPCG path, records one
span per call, and accumulates each span's *self* time (its duration
minus the child spans nested inside it on the same thread).  Nothing
in ``repro`` is modified on disk: :meth:`LayerTracer.install` swaps
attributes in place and :meth:`LayerTracer.uninstall` puts the
originals back, so an untraced phase runs the program untouched.

Spans nest per thread (a thread-local stack).  A few span names open a
*scope* (a cold compile, a value-only repack); every span
closed inside a scope also adds its self time to ``scoped[(scope,
name)]``, which is how set-up time is split into its pipeline stages.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import defaultdict

SCOPES = ("cache.compile", "cache.repack")

#: Outermost spans of a request (admission on the loop thread, shard
#: execution on the worker thread, a whole PCG solve): request time
#: covered by none of them is ``trace.unaccounted_frac``.
TIMELINE = ("gateway.admit", "gateway.shard", "solvers.pcg")


class _Span:
    __slots__ = ("name", "t0", "child", "parent", "scope")

    def __init__(self, name, t0, parent):
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.parent = parent
        if name in SCOPES:
            self.scope = self
        else:
            self.scope = parent.scope if parent is not None else None


class LayerTracer:
    """Wrapper-based span recorder with self-time accounting."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_s = defaultdict(float)
            self.total_s = defaultdict(float)
            self.calls = defaultdict(int)
            self.scoped = defaultdict(float)
            self.by_parent = defaultdict(float)
            self.batch_cols = []
            self.timeline = []
            #: rhs data pointer -> (t0, t1) of the gateway.shard span
            #: that executed it, and of the admission that queued it.
            self.shard_by_key = {}
            self.admit_by_key = {}

    # Span bookkeeping ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, span: _Span, name: str, t1: float) -> None:
        dur = t1 - span.t0
        self_time = dur - span.child
        parent = span.parent
        with self._lock:
            if parent is not None:
                parent.child += dur
            self.self_s[name] += self_time
            self.total_s[name] += dur
            self.calls[name] += 1
            if span.scope is not None:
                self.scoped[(span.scope.name, name)] += self_time
            if parent is not None:
                self.by_parent[(parent.name, name)] += self_time
            if name in TIMELINE:
                self.timeline.append((span.t0, t1))

    def _wrap(self, name, fn, name_of=None, on_exit=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = _Span(name if name_of is None else name_of(args, kwargs),
                         0.0, stack[-1] if stack else None)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            final = span.name
            if on_exit is not None:
                final = on_exit(args, kwargs, result, span.t0, t1) or final
            tracer._close(span, final, t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_async(self, name, fn, on_exit):
        tracer = self

        async def wrapper(*args, **kwargs):
            # Coroutines interleave on the loop thread, so an async span
            # never joins the thread-local stack: it is recorded as a
            # root span with no children.
            t0 = time.perf_counter()
            result = await fn(*args, **kwargs)
            t1 = time.perf_counter()
            on_exit(args, kwargs, result, t0, t1)
            tracer._close(_Span(name, t0, None), name, t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, owner, attr, name, **kw) -> None:
        self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], **kw))

    # Hooks computing names and correlation keys ------------------------
    def _shard_exit(self, args, kwargs, result, t0, t1):
        columns = args[5] if len(args) > 5 else kwargs["columns"]
        with self._lock:
            self.shard_by_key[columns[0].ctypes.data] = (t0, t1)

    def _admit_exit(self, args, kwargs, result, t0, t1):
        rhs = args[3] if len(args) > 3 else kwargs["rhs"]
        with self._lock:
            self.admit_by_key[rhs.ctypes.data] = (t0, t1)

    @staticmethod
    def _lookup_exit(args, kwargs, result, t0, t1):
        return "cache.lookup" if result[1] else "cache.lookup_miss"

    @staticmethod
    def _repack_exit(args, kwargs, result, t0, t1):
        return "cache.repack" if result[1] else "cache.repack_noop"

    def _execute_exit(self, args, kwargs, result, t0, t1):
        with self._lock:
            self.batch_cols.append(1 if result.ndim == 1
                                   else int(result.shape[1]))

    @staticmethod
    def _kernel_name(args, kwargs):
        op = args[2] if len(args) > 2 else kwargs["op"]
        return f"kernel.{op}"

    # Installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import importlib

        import repro.grids.assembly as assembly
        import repro.ordering.vbmc as vbmc
        import repro.serve.cache as cache
        import repro.serve.ilu_plan as ilu_plan
        import repro.serve.plan as plan
        import repro.simd.autotune as autotune
        from repro.backends.base import KernelBackend
        from repro.formats.csr import CSRMatrix
        from repro.formats.dbsr import DBSRMatrix
        from repro.gateway.gateway import SolveGateway
        from repro.gateway.pool import GatewayShard
        from repro.multigrid.smoothers import DBSRSymgsSmoother
        from repro.multigrid.vcycle import MGPreconditioner
        from repro.serve.service import SolveService

        if self._patches:
            raise RuntimeError("tracer already installed")
        fn = self._patch_function
        # Serving path.
        self._patch(SolveGateway, "submit", self._wrap_async(
            "gateway.admit", SolveGateway.__dict__["submit"],
            self._admit_exit))
        fn(GatewayShard, "execute", "gateway.shard",
           on_exit=self._shard_exit)
        fn(SolveService, "submit", "service.submit")
        fn(SolveService, "drain", "service.drain")
        fn(cache.PlanCache, "get_or_compile", "cache.lookup",
           on_exit=self._lookup_exit)
        fn(cache.PlanCache, "get_or_compile_ilu", "cache.lookup",
           on_exit=self._lookup_exit)
        fn(cache.PlanCache, "refresh_values", "cache.repack",
           on_exit=self._repack_exit)
        fn(plan.SolvePlan, "execute", "plan.execute",
           on_exit=self._execute_exit)
        fn(ilu_plan.ILUPlan, "apply", "plan.execute",
           on_exit=self._execute_exit)
        for cls in (plan.SolvePlan, ilu_plan.ILUPlan):
            fn(cls, "extend", "plan.pad_permute")
            fn(cls, "restrict", "plan.pad_permute")
        fn(KernelBackend, "run", "kernel", name_of=self._kernel_name)
        # Set-up path (compile, repack).
        fn(cache, "compile_plan", "cache.compile")
        fn(ilu_plan, "compile_ilu_plan", "cache.compile")
        fn(autotune, "autotune_bsize", "compile.autotune")
        fn(vbmc, "build_vbmc", "compile.vbmc")
        fn(assembly, "assemble_csr", "compile.assemble")
        from_csr = DBSRMatrix.__dict__["from_csr"]
        self._patch(DBSRMatrix, "from_csr", classmethod(self._wrap(
            "compile.dbsr", from_csr.__func__)))
        for mod in (plan, ilu_plan):
            fn(mod, "validate_plan", "compile.guard")
            fn(mod, "seal_plan", "compile.guard")
        fn(ilu_plan, "build_ilu0_schedule", "compile.ilu_factor")
        fn(ilu_plan, "ilu0_factorize_dbsr", "compile.ilu_factor")
        fn(ilu_plan, "ilu0_refactorize_dbsr", "ilu.refactor")
        # HPCG path.
        # ``repro.solvers`` re-exports the function under the module's
        # name, so the module object has to come from the import system.
        fn(importlib.import_module("repro.solvers.pcg"), "pcg",
           "solvers.pcg")
        fn(MGPreconditioner, "__call__", "multigrid.vcycle")
        fn(DBSRSymgsSmoother, "__call__", "multigrid.smooth")
        fn(CSRMatrix, "matvec", "csr.matvec")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # Queries ------------------------------------------------------------
    def scoped_ms_per(self, scope: str, name: str) -> float:
        """Mean self ms of ``name`` per ``scope`` span (0 if none)."""
        n = self.calls.get(scope, 0)
        return 1e3 * self.scoped.get((scope, name), 0.0) / n if n else 0.0

    def self_ms_per_call(self, name: str) -> float:
        n = self.calls.get(name, 0)
        return 1e3 * self.self_s.get(name, 0.0) / n if n else 0.0

    def covered(self, intervals) -> float:
        """Seconds of ``intervals`` covered by any timeline span."""
        merged = []
        for t0, t1 in sorted(self.timeline):
            if merged and t0 <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], t1)
            else:
                merged.append([t0, t1])
        starts = [m[0] for m in merged]
        cum = [0.0]
        for m in merged:
            cum.append(cum[-1] + m[1] - m[0])

        def upto(t):
            i = bisect.bisect_right(starts, t)
            if i == 0:
                return 0.0
            m0, m1 = merged[i - 1]
            return cum[i - 1] + min(t, m1) - m0

        return sum(upto(b) - upto(a) for a, b in intervals)
