"""Numerical and structural guardrails for compiled solve plans.

Cheap validators that stand between a (possibly corrupted) compiled
artifact and a kernel launch. Two levels:

* **Structural** — invariants checkable from the arrays alone:
  permutations are bijections, ``blk_ptr`` is monotone, block indices
  and anchors are in range, triangular factors are strictly
  triangular, values and diagonals are finite (and diagonals
  non-zero). These run at compile time
  (:func:`repro.serve.plan.compile_plan` calls
  :func:`validate_plan` before returning) and before each fallback
  rung executes.
* **Integrity** — SHA-256 digests over every artifact's raw bytes,
  sealed at compile time (:func:`seal_plan`). A digest mismatch
  catches *any* single-bit corruption, including in-range index
  rewrites and mantissa bit-flips that are structurally silent.

All failures raise :class:`~repro.resilience.errors.PlanValidationError`
naming the artifact (and, for structural checks, the first offending
index). Validators are pure numpy passes — they never construct a
:class:`~repro.simd.engine.VectorEngine`, so clean-path op counts are
untouched.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.resilience.errors import PlanValidationError


# Structural validators ------------------------------------------------------

def validate_permutation(old_to_new: np.ndarray, n_padded: int,
                         artifact: str = "ordering.old_to_new") -> None:
    """``old_to_new`` must be an injection into ``[0, n_padded)``.

    (The padded image may be larger than the domain; duplicates or
    out-of-range entries mean ``extend``/``restrict`` silently lose or
    alias vector entries.)
    """
    perm = np.asarray(old_to_new)
    if perm.ndim != 1:
        raise PlanValidationError("permutation must be 1-D",
                                  artifact=artifact)
    bad = np.flatnonzero((perm < 0) | (perm >= n_padded))
    if len(bad):
        raise PlanValidationError(
            f"permutation entry {int(perm[bad[0]])} out of range "
            f"[0, {n_padded})", artifact=artifact, index=int(bad[0]))
    uniq, counts = np.unique(perm, return_counts=True)
    if len(uniq) != len(perm):
        dup = int(uniq[counts > 1][0])
        idx = int(np.flatnonzero(perm == dup)[1])
        raise PlanValidationError(
            f"permutation is not a bijection: image {dup} duplicated",
            artifact=artifact, index=idx)


def validate_finite(arr: np.ndarray, artifact: str) -> None:
    """Every entry of ``arr`` must be finite."""
    finite = np.isfinite(arr)
    if not finite.all():
        idx = int(np.flatnonzero(~finite.reshape(-1))[0])
        raise PlanValidationError("non-finite value", artifact=artifact,
                                  index=idx)


def validate_diag(diag: np.ndarray, artifact: str = "diag") -> None:
    """Diagonal entries must be finite and non-zero (they divide)."""
    validate_finite(diag, artifact)
    zero = np.flatnonzero(diag == 0)
    if len(zero):
        raise PlanValidationError("zero diagonal entry",
                                  artifact=artifact, index=int(zero[0]))


def validate_dbsr(m, name: str = "dbsr",
                  triangular: str | None = None) -> None:
    """Structural invariants of a DBSR matrix.

    ``triangular`` may be ``"lower"`` or ``"upper"`` to additionally
    require every stored lane to be strictly below/above the diagonal.
    """
    ptr = m.blk_ptr
    if ptr[0] != 0 or ptr[-1] != len(m.blk_ind) \
            or np.any(np.diff(ptr) < 0):
        raise PlanValidationError("blk_ptr not a monotone CSR pointer",
                                  artifact=f"{name}.blk_ptr")
    bs = m.bsize
    n_bcols = -(-m.n_cols // bs)  # ceil
    bad = np.flatnonzero((m.blk_ind < 0) | (m.blk_ind >= n_bcols))
    if len(bad):
        raise PlanValidationError(
            f"block column {int(m.blk_ind[bad[0]])} out of range "
            f"[0, {n_bcols})", artifact=f"{name}.blk_ind",
            index=int(bad[0]))
    bad = np.flatnonzero((m.blk_offset <= -bs) | (m.blk_offset >= bs))
    if len(bad):
        raise PlanValidationError(
            "blk_offset outside (-bsize, bsize)",
            artifact=f"{name}.blk_offset", index=int(bad[0]))
    anchors = m.anchors
    bad = np.flatnonzero((anchors < -(bs - 1)) | (anchors > m.n_cols - 1))
    if len(bad):
        raise PlanValidationError(
            "tile anchor outside the padded vector range",
            artifact=f"{name}.anchors", index=int(bad[0]))
    if triangular is not None and m.n_tiles:
        brow_of = np.repeat(np.arange(m.brow), np.diff(ptr))
        if triangular == "lower":
            bad = np.flatnonzero(anchors >= brow_of * bs)
        else:
            bad = np.flatnonzero(anchors <= brow_of * bs)
        if len(bad):
            raise PlanValidationError(
                f"tile not strictly {triangular} triangular",
                artifact=f"{name}.blk_ind", index=int(bad[0]))
    validate_finite(m.values, f"{name}.values")


def validate_csr(m, name: str = "matrix") -> None:
    """Structural invariants of a CSR matrix."""
    ptr = m.indptr
    if ptr[0] != 0 or ptr[-1] != len(m.indices) \
            or np.any(np.diff(ptr) < 0):
        raise PlanValidationError("indptr not a monotone CSR pointer",
                                  artifact=f"{name}.indptr")
    bad = np.flatnonzero((m.indices < 0) | (m.indices >= m.n_cols))
    if len(bad):
        raise PlanValidationError(
            f"column index {int(m.indices[bad[0]])} out of range",
            artifact=f"{name}.indices", index=int(bad[0]))
    validate_finite(m.data, f"{name}.data")


# Integrity digests ----------------------------------------------------------

def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).view(np.uint8))
    return h.hexdigest()


def _plan_artifacts(plan) -> dict:
    """Digestable artifact map of a compiled plan.

    Dispatches on the plan's ``kind``: ILU plans
    (:class:`~repro.serve.ilu_plan.ILUPlan`) seal the permutation, the
    permuted CSR operator, the factored DBSR skeleton + values, the
    diagonal pivots, and the value scatter maps (a corrupted scatter
    map would silently misplace every future repack's coefficients).
    """
    if getattr(plan, "kind", "") == "ilu":
        f = plan.factors.matrix
        return {
            "ordering.old_to_new": (plan.ordering.old_to_new,),
            "matrix": (plan.matrix.indptr, plan.matrix.indices,
                       plan.matrix.data),
            "ilu_factors": (f.blk_ptr, f.blk_ind, f.blk_offset,
                            f.values),
            "ilu_dia_ptr": (plan.factors.dia_ptr,),
            "ilu_diag": (plan.factors.diag_vector(),),
            "scatter": (plan.csr_scatter, plan.dbsr_scatter),
        }
    return {
        "ordering.old_to_new": (plan.ordering.old_to_new,),
        "matrix": (plan.matrix.indptr, plan.matrix.indices,
                   plan.matrix.data),
        "dbsr": (plan.dbsr.blk_ptr, plan.dbsr.blk_ind,
                 plan.dbsr.blk_offset, plan.dbsr.values),
        "lower": (plan.lower.blk_ptr, plan.lower.blk_ind,
                  plan.lower.blk_offset, plan.lower.values),
        "upper": (plan.upper.blk_ptr, plan.upper.blk_ind,
                  plan.upper.blk_offset, plan.upper.values),
        "diag": (plan.diag,),
    }


def seal_plan(plan) -> dict:
    """Record per-artifact SHA-256 digests on ``plan.integrity``.

    Called by :func:`repro.serve.plan.compile_plan` after compile-time
    validation; :func:`check_integrity` later detects any byte-level
    drift of the sealed artifacts.
    """
    plan.integrity = {name: _digest(*arrays)
                      for name, arrays in _plan_artifacts(plan).items()}
    return plan.integrity


def check_integrity(plan, artifacts=None) -> None:
    """Re-digest sealed artifacts; raise on the first mismatch.

    ``artifacts`` optionally restricts the check to a subset of
    artifact names (fallback rungs only verify what they read).
    """
    sealed = getattr(plan, "integrity", None)
    if not sealed:
        return
    for name, arrays in _plan_artifacts(plan).items():
        if artifacts is not None and name not in artifacts:
            continue
        expect = sealed.get(name)
        if expect is not None and _digest(*arrays) != expect:
            raise PlanValidationError(
                "integrity digest mismatch (artifact corrupted after "
                "compile)", artifact=name)


# Whole-plan validation ------------------------------------------------------

def validate_plan(plan, level: str = "structural") -> None:
    """Validate a compiled plan's artifacts.

    ``level="structural"`` runs the range/bijection/finiteness checks;
    ``level="integrity"`` additionally compares the sealed SHA-256
    digests (catching in-range corruption the structural checks cannot
    see). Raises :class:`PlanValidationError` on the first problem.
    """
    if getattr(plan, "kind", "") == "ilu":
        validate_permutation(plan.ordering.old_to_new, plan.n_padded)
        validate_csr(plan.matrix, "matrix")
        validate_dbsr(plan.factors.matrix, "ilu_factors")
        validate_diag(plan.factors.diag_vector(), "ilu_diag")
        if level == "integrity":
            check_integrity(plan)
        return
    validate_permutation(plan.ordering.old_to_new, plan.n_padded)
    validate_csr(plan.matrix, "matrix")
    validate_dbsr(plan.dbsr, "dbsr")
    validate_dbsr(plan.lower, "lower", triangular="lower")
    validate_dbsr(plan.upper, "upper", triangular="upper")
    validate_diag(plan.diag)
    if level == "integrity":
        check_integrity(plan)
