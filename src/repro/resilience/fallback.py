"""Self-healing solve path: the DBSR → CSR fallback ladder.

DBSR is the fastest but structurally most fragile format (one
corrupted anchor poisons a whole sweep); scalar CSR over the permuted
operator is the always-correct reference. A :class:`FallbackChain`
walks that two-rung ladder for one solve:

1. **Validate** the rung's artifacts (structural checks + sealed
   SHA-256 integrity digests from :mod:`repro.resilience.guardrails`).
2. **Heal** — if validation shows the compiled plan is poisoned, the
   chain invalidates its :class:`~repro.serve.cache.PlanCache` entry
   and recompiles once; the fresh plan serves this request *and* every
   later one (self-healing, not just degradation).
3. **Execute** the rung, then **verify** the solution: finiteness
   always, and for triangular ops a relative-residual check against
   the trusted permuted CSR operator (which catches silent value
   corruption such as mantissa bit-flips).
4. On failure, descend to the CSR rung at once. There is no backoff
   sleep: the CSR rung runs in-process on the trusted permuted
   operator and shares no resource with the failed DBSR rung, so
   waiting could not make it more likely to succeed.

A per-fingerprint :class:`CircuitBreaker` sits in front: after
``threshold`` consecutive exhausted ladders the structure is declared
sick and solves fail fast with
:class:`~repro.resilience.errors.CircuitOpen` until a cooldown elapses
(then one half-open probe decides whether to close again).

The CSR rung fires the same ``plan.execute`` hook site as the native
path, so chaos plans can strike either rung.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.observe import trace
from repro.resilience import hooks
from repro.resilience.errors import (
    NON_RECOVERABLE_ERRORS,
    CircuitOpen,
    FallbackExhausted,
    NonFiniteError,
    PlanValidationError,
    ResilienceError,
)
from repro.resilience.guardrails import (
    check_integrity,
    validate_csr,
    validate_dbsr,
    validate_diag,
    validate_permutation,
)

#: The degradation ladder, fastest (most fragile) first.
LADDER = ("dbsr", "csr")

#: Circuit-breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """Per-fingerprint failure circuit.

    ``threshold`` consecutive unrecoverable failures open the circuit;
    while open, :meth:`allow` raises
    :class:`~repro.resilience.errors.CircuitOpen` without doing any
    work. After ``cooldown_seconds`` the circuit goes half-open: one
    probe solve is let through — success closes the circuit, failure
    re-opens it (and restarts the cooldown). While the probe is in
    flight every other :meth:`allow` is rejected, so a burst cannot
    pile onto a sick structure; a probe that never reports back
    releases its slot after another cooldown.

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, threshold: int = 3,
                 cooldown_seconds: float = 30.0,
                 clock=time.monotonic):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = int(threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self.clock = clock
        self._lock = threading.Lock()
        self._failures: dict[str, int] = {}
        self._state: dict[str, str] = {}
        self._opened_at: dict[str, float] = {}
        self._probe_at: dict[str, float] = {}
        self.open_events = 0
        self.rejections = 0

    def state(self, fingerprint: str) -> str:
        with self._lock:
            return self._state.get(fingerprint, CLOSED)

    def allow(self, fingerprint: str) -> None:
        """Raise :class:`CircuitOpen` unless a solve may proceed."""
        with self._lock:
            state = self._state.get(fingerprint, CLOSED)
            if state == CLOSED:
                return
            now = self.clock()
            if state == HALF_OPEN:
                # Exactly one probe per half-open window: it stays
                # claimed until record_success/record_failure resolves
                # it, or — if the probe hangs — until another cooldown
                # elapses and a new probe may re-claim the slot.
                since = now - self._probe_at.get(fingerprint, now)
                if since >= self.cooldown_seconds:
                    self._probe_at[fingerprint] = now
                    return
                self.rejections += 1
                raise CircuitOpen(
                    fingerprint, self._failures.get(fingerprint, 0),
                    retry_after=self.cooldown_seconds - since)
            elapsed = now - self._opened_at[fingerprint]
            if elapsed >= self.cooldown_seconds:
                self._state[fingerprint] = HALF_OPEN
                self._probe_at[fingerprint] = now
                trace.event("breaker.half_open",
                            fingerprint=fingerprint[:12])
                return
            self.rejections += 1
            raise CircuitOpen(fingerprint,
                              self._failures.get(fingerprint, 0),
                              retry_after=self.cooldown_seconds - elapsed)

    def record_success(self, fingerprint: str) -> None:
        with self._lock:
            was = self._state.get(fingerprint, CLOSED)
            self._failures[fingerprint] = 0
            self._state[fingerprint] = CLOSED
            self._probe_at.pop(fingerprint, None)
        if was != CLOSED:
            trace.event("breaker.close", fingerprint=fingerprint[:12])

    def record_failure(self, fingerprint: str) -> bool:
        """Count a failure; returns ``True`` if the circuit opened."""
        with self._lock:
            was = self._state.get(fingerprint, CLOSED)
            n = self._failures.get(fingerprint, 0) + 1
            self._failures[fingerprint] = n
            opened = was == HALF_OPEN or n >= self.threshold
            if opened:
                self._state[fingerprint] = OPEN
                self._opened_at[fingerprint] = self.clock()
                self._probe_at.pop(fingerprint, None)
                self.open_events += 1
        if opened:
            trace.event("breaker.open", fingerprint=fingerprint[:12],
                        failures=n)
        return opened

    def stats(self) -> dict:
        with self._lock:
            return {
                "threshold": self.threshold,
                "cooldown_seconds": self.cooldown_seconds,
                "open_events": self.open_events,
                "rejections": self.rejections,
                "states": dict(self._state),
                "failures": dict(self._failures),
            }


@dataclass
class FallbackResult:
    """Outcome of one chain execution."""

    solution: np.ndarray
    rung: str
    depth: int
    recompiled: bool
    attempts: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def degraded(self) -> bool:
        return self.depth > 0 or self.recompiled


class FallbackChain:
    """Executes solves down the DBSR → CSR ladder.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.serve.cache.PlanCache`; poisoned
        entries are invalidated there and recompiled through it so the
        healing is visible to every later request.
    breaker:
        Circuit breaker (a default 3-failure/30 s one if omitted).
    max_recompiles:
        Recompile budget per request (healing attempts).
    residual_check, residual_scale:
        Verify triangular solves against the trusted permuted CSR
        operator with relative tolerance
        ``residual_scale * eps(dtype)``; catches silent value
        corruption the structural validators cannot see.
    integrity:
        Also compare sealed SHA-256 digests before each rung.
    """

    def __init__(self, cache=None, breaker: CircuitBreaker | None = None,
                 max_recompiles: int = 1, residual_check: bool = True,
                 residual_scale: float = 1e6, integrity: bool = True):
        self.cache = cache
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.max_recompiles = int(max_recompiles)
        self.residual_check = residual_check
        self.residual_scale = float(residual_scale)
        self.integrity = integrity
        self._lock = threading.Lock()
        # Counters -------------------------------------------------------
        self.solves = 0
        self.faults_detected = 0
        self.recovered = 0
        self.recompiles = 0
        self.exhausted = 0
        self.depth_histogram = {i: 0 for i in range(len(LADDER))}
        self.rung_failures = {r: 0 for r in LADDER}
        self.seconds_by_depth = {i: 0.0 for i in range(len(LADDER))}

    # Public API -----------------------------------------------------------
    def execute(self, plan, op: str, B: np.ndarray) -> FallbackResult:
        """Solve ``op`` for ``B`` with validation, healing, fallback.

        Returns a :class:`FallbackResult`; raises
        :class:`~repro.resilience.errors.CircuitOpen` when the
        breaker refuses the fingerprint and
        :class:`~repro.resilience.errors.FallbackExhausted` when every
        rung fails.
        """
        fp = plan.fingerprint
        self.breaker.allow(fp)
        t0 = time.perf_counter()
        attempts: list[tuple[str, str]] = []
        current = plan
        recompiled = False
        with trace.span("fallback.solve", op=op,
                        fingerprint=fp[:12]) as sp:
            for depth, rung in enumerate(LADDER):
                with trace.span("fallback.rung", rung=rung,
                                depth=depth) as rsp:
                    ok, X = self._attempt_rung(
                        current, rung, depth, op, B, attempts, rsp)
                    if ok is None:  # poisoned plan healed in place
                        current, recompiled = X, True
                        ok, X = self._attempt_rung(
                            current, rung, depth, op, B, attempts, rsp,
                            healed_already=True)
                    if not ok:
                        continue
                    if rsp is not None:
                        rsp.attrs["outcome"] = "ok"
                seconds = time.perf_counter() - t0
                self._record_success(fp, depth, attempts, recompiled,
                                     seconds)
                if sp is not None:
                    sp.attrs["rung"] = rung
                    sp.attrs["depth"] = depth
                    sp.attrs["recompiled"] = recompiled
                return FallbackResult(solution=X, rung=rung, depth=depth,
                                      recompiled=recompiled,
                                      attempts=list(attempts),
                                      seconds=seconds)
            with self._lock:
                self.solves += 1
                self.exhausted += 1
            if sp is not None:
                sp.attrs["outcome"] = "exhausted"
            self.breaker.record_failure(fp)
            raise FallbackExhausted(fp, op, attempts)

    def _attempt_rung(self, current, rung: str, depth: int, op: str,
                      B: np.ndarray, attempts: list, rsp,
                      healed_already: bool = False):
        """One validate+execute attempt of one rung.

        Returns ``(True, X)`` on success, ``(False, None)`` on a failed
        attempt, and ``(None, fresh_plan)`` when validation failed but
        healing produced a fresh plan the caller should retry with
        (``healed_already`` marks that retry — a healed plan that still
        fails validation is a failed attempt, not another heal).
        """
        try:
            self._validate_rung(current, rung)
        except PlanValidationError as exc:
            attempts.append((rung, repr(exc)))
            trace.event("fallback.validation_failed", rung=rung,
                        depth=depth)
            if rsp is not None:
                rsp.attrs["outcome"] = "validation_failed"
            if healed_already:
                self._count_rung_failure(rung)
                return False, None
            self._count("faults_detected")
            healed = self._heal(current)
            if healed is None:
                self._count_rung_failure(rung)
                return False, None
            trace.event("fallback.heal", rung=rung,
                        fingerprint=current.fingerprint[:12])
            return None, healed
        try:
            X = self._run_rung(current, rung, op, B)
            self._check_solution(current, rung, op, B, X)
        except NON_RECOVERABLE_ERRORS:
            # Resource exhaustion / violated invariants: descending a
            # rung cannot fix these — surface them to the caller.
            raise
        except Exception as exc:  # noqa: BLE001 - ladder boundary
            self._count("faults_detected")
            self._count_rung_failure(rung)
            attempts.append((rung, repr(exc)))
            trace.event("fallback.execution_failed", rung=rung,
                        depth=depth)
            if rsp is not None:
                rsp.attrs["outcome"] = "execution_failed"
            return False, None
        return True, X

    # Reference path --------------------------------------------------------
    def execute_reference(self, plan, op: str, B: np.ndarray) -> np.ndarray:
        """The clean scalar CSR reference path (the ladder's last rung).

        Chaos tests compare recovered solutions against this — a
        recovery that lands on the CSR rung is bit-identical to it.
        """
        if getattr(plan, "kind", "") == "ilu":
            return self._run_ilu_csr(plan, op, B, fire=False)
        return self._run_csr(plan, op, B, fire=False)

    # Internals -------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def _count_rung_failure(self, rung: str) -> None:
        with self._lock:
            self.rung_failures[rung] += 1

    def _record_success(self, fp: str, depth: int, attempts,
                        recompiled: bool, seconds: float) -> None:
        with self._lock:
            self.solves += 1
            self.depth_histogram[depth] += 1
            self.seconds_by_depth[depth] += seconds
            if depth > 0 or recompiled or attempts:
                self.recovered += 1
        self.breaker.record_success(fp)

    def _heal(self, plan):
        """Invalidate + recompile a poisoned plan; ``None`` on failure."""
        with self._lock:
            # Check and reserve the budget slot in one critical section
            # so concurrent solves over the same poisoned plan cannot
            # both pass the check and exceed max_recompiles.
            if self.recompiles_used_for(plan) >= self.max_recompiles:
                return None
            plan._heal_attempts = self.recompiles_used_for(plan) + 1
            self.recompiles += 1
        is_ilu = getattr(plan, "kind", "") == "ilu"
        try:
            if self.cache is not None:
                self.cache.invalidate(plan.fingerprint)
                if is_ilu:
                    # Recompile from the same coefficient snapshot so
                    # the healed factors carry the same value digest.
                    fresh, _ = self.cache.get_or_compile_ilu(
                        plan.grid, plan.stencil, plan.config,
                        values=plan.values_src)
                else:
                    fresh, _ = self.cache.get_or_compile(
                        plan.grid, plan.stencil, plan.config)
            elif is_ilu:
                from repro.serve.ilu_plan import compile_ilu_plan

                fresh = compile_ilu_plan(plan.grid, plan.stencil,
                                         plan.config,
                                         values=plan.values_src)
            else:
                from repro.serve.plan import compile_plan

                fresh = compile_plan(plan.grid, plan.stencil, plan.config)
        except NON_RECOVERABLE_ERRORS:
            raise
        except Exception:  # noqa: BLE001 - compile itself may be poisoned
            return None
        fresh._heal_attempts = 0
        return fresh

    # Per-request recompile budget: tracked on the plan object itself so
    # a retry storm over one poisoned structure cannot recompile forever.
    @staticmethod
    def recompiles_used_for(plan) -> int:
        return getattr(plan, "_heal_attempts", 0)

    # Rung validation -------------------------------------------------------
    def _validate_rung(self, plan, rung: str) -> None:
        if getattr(plan, "kind", "") == "ilu":
            # Both rungs execute through the DBSR factors (the CSR rung
            # applies their projection), so both validate them.
            validate_permutation(plan.ordering.old_to_new,
                                 plan.n_padded)
            validate_diag(plan.factors.diag_vector(), "ilu_diag")
            validate_dbsr(plan.factors.matrix, "ilu_factors")
            scope = ("ordering.old_to_new", "ilu_diag", "ilu_factors",
                     "ilu_dia_ptr")
            if rung != "dbsr":
                validate_csr(plan.matrix, "matrix")
                scope += ("matrix",)
            if self.integrity:
                check_integrity(plan, artifacts=scope)
            return
        validate_permutation(plan.ordering.old_to_new, plan.n_padded)
        validate_diag(plan.diag)
        if rung == "dbsr":
            validate_dbsr(plan.dbsr, "dbsr")
            validate_dbsr(plan.lower, "lower", triangular="lower")
            validate_dbsr(plan.upper, "upper", triangular="upper")
            scope = ("ordering.old_to_new", "diag", "dbsr", "lower",
                     "upper")
        else:
            validate_csr(plan.matrix, "matrix")
            scope = ("ordering.old_to_new", "diag", "matrix")
        if self.integrity:
            check_integrity(plan, artifacts=scope)

    # Rung execution --------------------------------------------------------
    def _run_rung(self, plan, rung: str, op: str,
                  B: np.ndarray) -> np.ndarray:
        if rung == "dbsr":
            return plan.execute(op, B)
        if getattr(plan, "kind", "") == "ilu":
            return self._run_ilu_csr(plan, op, B)
        return self._run_csr(plan, op, B)

    def _run_csr(self, plan, op: str, B: np.ndarray,
                 fire: bool = True) -> np.ndarray:
        from repro.kernels.sptrsv_csr import (
            sptrsv_csr_ordered,
            sptrsv_csr_upper_ordered,
        )
        from repro.kernels.symgs import symgs_csr

        # ``fire=False`` is the untraced clean reference path
        # (execute_reference): no hooks, no spans.
        with (trace.span("plan.execute", op=op, strategy="csr",
                         backend="reference",
                         fingerprint=plan.fingerprint[:12])
              if fire else trace.null_span()) as sp:
            if fire:
                hooks.fire("plan.execute", strategy="csr", op=op,
                           fingerprint=plan.fingerprint)
            L, D, U = self._csr_artifacts(plan)
            single, Bp = self._extend(plan, B)
            if sp is not None:
                k = int(Bp.shape[1])
                sp.attrs["k"] = k
                sp.set_counts(self._csr_counts(plan, L, U, op, k))
            out = np.empty_like(Bp)
            for j in range(Bp.shape[1]):
                if op == "lower":
                    out[:, j] = sptrsv_csr_ordered(L, D, Bp[:, j])
                elif op == "upper":
                    out[:, j] = sptrsv_csr_upper_ordered(U, D, Bp[:, j])
                elif op == "spmv":
                    out[:, j] = plan.matrix.matvec(Bp[:, j])
                else:
                    x = np.zeros_like(Bp[:, j])
                    out[:, j] = symgs_csr(plan.matrix, D, x, Bp[:, j])
            return self._restrict(plan, out, single)

    @staticmethod
    def _csr_counts(plan, L, U, op: str, k: int):
        from repro.kernels.counts import (
            spmv_csr_counts,
            sptrsv_csr_counts,
            symgs_csr_counts,
        )

        if op in ("lower", "upper"):
            tri = L if op == "lower" else U
            return sptrsv_csr_counts(tri, divide=True).scaled(k)
        if op == "spmv":
            return spmv_csr_counts(plan.matrix).scaled(k)
        return symgs_csr_counts(plan.matrix).scaled(k)

    def _run_ilu_csr(self, plan, op: str, B: np.ndarray,
                     fire: bool = True) -> np.ndarray:
        """ILU CSR rung: apply the bitwise projection of the factors.

        The block factorization fills zero-padding lanes in, so a
        scalar re-factorization of the padded operator is *not* a
        bitwise twin of the DBSR factors — projecting the factored
        values themselves (:meth:`DBSRILUFactors.to_csr_factors`) is,
        which keeps this rung ``np.array_equal`` to the native one.
        """
        from repro.ilu.ilu0_csr import ilu0_apply_csr

        with (trace.span("plan.execute", op=op, strategy="csr",
                         backend="reference",
                         fingerprint=plan.fingerprint[:12])
              if fire else trace.null_span()) as sp:
            if fire:
                hooks.fire("plan.execute", strategy="csr", op=op,
                           fingerprint=plan.fingerprint)
            factors = self._ilu_csr_factors(plan)
            single, Bp = self._extend(plan, B)
            if sp is not None:
                k = int(Bp.shape[1])
                sp.attrs["k"] = k
                sp.set_counts(self._ilu_csr_counts(factors, k))
            out = np.empty_like(Bp)
            for j in range(Bp.shape[1]):
                out[:, j] = ilu0_apply_csr(factors, Bp[:, j])
            return self._restrict(plan, out, single)

    @staticmethod
    def _ilu_csr_counts(factors, k: int):
        from repro.kernels.counts import sptrsv_csr_counts

        return sptrsv_csr_counts(factors.lower, divide=False).merge(
            sptrsv_csr_counts(factors.upper, divide=True)).scaled(k)

    # Derived artifacts, built once per plan object and cached on it.
    @staticmethod
    def _ilu_csr_factors(plan):
        cached = getattr(plan, "_fallback_ilu_csr", None)
        if cached is None:
            cached = plan.factors.to_csr_factors()
            plan._fallback_ilu_csr = cached
        return cached

    @staticmethod
    def _csr_artifacts(plan):
        cached = getattr(plan, "_fallback_csr", None)
        if cached is None:
            from repro.kernels.sptrsv_csr import split_triangular

            cached = split_triangular(plan.matrix)
            plan._fallback_csr = cached
        return cached

    # Vector mapping (mirrors SolvePlan.execute's extend/restrict).
    @staticmethod
    def _extend(plan, B: np.ndarray):
        B = np.asarray(B, dtype=plan.config.np_dtype)
        single = B.ndim == 1
        return single, plan.extend(B.reshape(plan.n, -1))

    @staticmethod
    def _restrict(plan, Xp: np.ndarray, single: bool) -> np.ndarray:
        out = plan.restrict(Xp)
        return out[:, 0] if single else out

    # Solution verification -------------------------------------------------
    def _check_solution(self, plan, rung: str, op: str, B: np.ndarray,
                        X: np.ndarray) -> None:
        if not np.all(np.isfinite(X)):
            raise NonFiniteError(
                f"{rung} rung produced a non-finite solution for "
                f"op {op!r}")
        if not self.residual_check or op not in ("lower", "upper"):
            return
        L, D, U = self._csr_artifacts(plan)
        single, Bp = self._extend(plan, B)
        _, Xp = self._extend(plan, X)
        T = L if op == "lower" else U
        tol = self.residual_scale * float(
            np.finfo(np.asarray(Xp).dtype).eps)
        for j in range(Bp.shape[1]):
            r = T.matvec(Xp[:, j]) + D * Xp[:, j] - Bp[:, j]
            scale = float(np.linalg.norm(Bp[:, j])) or 1.0
            rel = float(np.linalg.norm(r)) / scale
            if not np.isfinite(rel) or rel > tol:
                raise ResilienceError(
                    f"{rung} solution failed the residual guard: "
                    f"relative residual {rel:.3e} > {tol:.3e} "
                    f"(silent value corruption?)")

    # Reporting -------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "solves": self.solves,
                "faults_detected": self.faults_detected,
                "recovered": self.recovered,
                "recompiles": self.recompiles,
                "exhausted": self.exhausted,
                "depth_histogram": {str(k): v for k, v
                                    in self.depth_histogram.items()},
                "rung_failures": dict(self.rung_failures),
                "seconds_by_depth": {str(k): v for k, v
                                     in self.seconds_by_depth.items()},
                "breaker": self.breaker.stats(),
            }
