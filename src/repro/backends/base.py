"""Kernel-backend interface: one execution tier for the plan ops.

A :class:`KernelBackend` supplies the compiled execution tier behind
:meth:`repro.serve.plan.SolvePlan.execute`: the ``PLAN_OPS`` surface
(``lower`` / ``upper`` / ``spmv`` / ``symgs``, plus ``ilu_apply`` for
ILU plans) over the underlying format-level multi-RHS DBSR kernels.

Backends are numerical twins, not alternatives: every tier must return
results equal under ``np.array_equal`` to the ``numpy-counted``
reference tier on the same inputs — the repository's bit-identity
convention, pinned by the golden-trace differential suite. A backend
that cannot hold that contract does not belong in the registry.

Backends are stateless singletons shared across plans and threads; any
per-call scratch state (e.g. the counted tier's engine) must be
documented as a test/bench affordance, never relied on for serving.
"""

from __future__ import annotations

import numpy as np


class KernelBackend:
    """Abstract execution tier for the ``PLAN_OPS`` surface.

    Subclasses implement the four format-level DBSR kernels; the
    plan-level ops (:meth:`lower` … :meth:`ilu_apply`) bind them to a
    plan's artifacts.

    All plan-level ops take and return **padded-ordering** ``(n_padded,
    k)`` blocks — :meth:`SolvePlan.execute` owns the extend/restrict
    mapping and the tracing span.
    """

    #: Registry key; also the ``backend`` attr on execution spans.
    name = "abstract"

    @classmethod
    def is_available(cls) -> bool:
        """Whether this tier can execute in the current environment."""
        return True

    # Plan-level ops (PLAN_OPS surface) --------------------------------
    def run(self, plan, op: str, Bp: np.ndarray) -> np.ndarray:
        """Dispatch one plan op over a padded ``(n_padded, k)`` block."""
        return getattr(self, op)(plan, Bp)

    def lower(self, plan, Bp: np.ndarray) -> np.ndarray:
        return self.sptrsv_dbsr_multi(plan.lower, Bp, plan.diag,
                                      forward=True)

    def upper(self, plan, Bp: np.ndarray) -> np.ndarray:
        return self.sptrsv_dbsr_multi(plan.upper, Bp, plan.diag,
                                      forward=False)

    def spmv(self, plan, Bp: np.ndarray) -> np.ndarray:
        return self.spmv_dbsr_multi(plan.dbsr, Bp)

    def symgs(self, plan, Bp: np.ndarray) -> np.ndarray:
        X = np.zeros_like(Bp)
        return self.symgs_dbsr_multi(plan.dbsr, plan.diag, X, Bp)

    def ilu_apply(self, plan, Bp: np.ndarray) -> np.ndarray:
        """Apply an :class:`~repro.serve.ilu_plan.ILUPlan`'s factors."""
        return self.ilu_apply_dbsr_multi(plan.factors, Bp)

    # Format-level multi-RHS kernels -----------------------------------
    def sptrsv_dbsr_multi(self, matrix, Bp: np.ndarray,
                          diag: np.ndarray | None,
                          forward: bool) -> np.ndarray:
        """Solve ``(L+D) X = B`` (forward) or ``(D+U) X = B``."""
        raise NotImplementedError

    def spmv_dbsr_multi(self, matrix, Bp: np.ndarray) -> np.ndarray:
        """``Y = A X`` over an ``(n, k)`` block in DBSR."""
        raise NotImplementedError

    def symgs_dbsr_multi(self, matrix, diag: np.ndarray, X: np.ndarray,
                         Bp: np.ndarray) -> np.ndarray:
        """One SYMGS sweep over ``(n, k)`` blocks; updates ``X``."""
        raise NotImplementedError

    def ilu_apply_dbsr_multi(self, factors, Bp: np.ndarray) -> np.ndarray:
        """Solve ``L U Z = B`` over factored DBSR ILU(0) artifacts."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
