"""ILU(0) serving plans — the paper's second workload, made cacheable.

A :class:`ILUPlan` is to :func:`repro.ilu.ilu0_dbsr.ilu0_factorize_dbsr`
what :class:`~repro.serve.plan.SolvePlan` is to the triangular kernels:
the one-time reorder + DBSR conversion + numeric factorization reified
as a sealed, fingerprinted value, so a long-running service pays the
setup once per *structure* and serves every later preconditioner
application (`L U z = r`) from batched kernels.

The new twist over :class:`SolvePlan` is the **split fingerprint**:

* the *structure hash* — :func:`ilu_structural_fingerprint`, derived
  from the same v2 payload as
  :func:`~repro.serve.plan.structural_fingerprint` plus an ILU workload
  domain tag (so an ILU plan never collides with a triangular plan of
  the same geometry in one :class:`~repro.serve.cache.PlanCache`) —
  keys the cache;
* the *value digest* — :func:`value_digest` over the raw coefficient
  bytes — seals *which* numeric snapshot the factors were computed
  from.

Time-dependent coefficients on a fixed structure hit the cheap path:
:func:`repack_ilu_plan` reuses the stored permutation, tiling and
autotune pick, scatters the new values through precomputed exact
scatter maps (derived once at cold compile from a tagged pass through
the very same ``apply_matrix``/``from_csr`` pipeline, so the repack is
**bitwise identical** to a cold compile with the same values), and only
replays the structure's stage-major ILU(0) schedule.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix
from repro.formats.dbsr_levels import ValueStacks, schedule_ilu_sweeps
from repro.grids.grid import StructuredGrid
from repro.grids.stencils import Stencil
# ``ilu0_factorize_dbsr`` is unused here but stays a module attribute:
# it is the Algorithm-4 reference, and perfbench's tracer wraps all
# three names in this module.
from repro.ilu.ilu0_dbsr import (  # noqa: F401
    DBSRILUFactors,
    build_ilu0_schedule,
    ilu0_factorize_dbsr,
    ilu0_refactorize_dbsr,
)
from repro.observe import trace
from repro.resilience import hooks
from repro.resilience.guardrails import seal_plan, validate_plan
from repro.serve.plan import (
    PlanConfig,
    _compile_prelude,
    _resolve_stencil,
    structural_fingerprint,
)
from repro.utils.validation import require

#: Ops an ILU plan can execute (see :meth:`ILUPlan.execute`).
ILU_OPS = ("ilu_apply",)

#: Workload domain folded into the structure hash so ILU plans and
#: triangular :class:`SolvePlan`\ s of the same geometry never share a
#: cache key.
_ILU_DOMAIN = "ilu0/v1"

#: Scatter-map sentinels: lanes that carry no source coefficient.
_PAD = -1       # DBSR zero-padding lane / never a CSR entry
_VIRTUAL = -2   # virtual padding row's unit diagonal (always 1.0)


def ilu_structural_fingerprint(grid: StructuredGrid,
                               stencil, config: PlanConfig) -> str:
    """Structure hash of an ILU plan (domain-tagged v2 fingerprint)."""
    base = structural_fingerprint(grid, stencil, config)
    return hashlib.sha256(
        f"{base}/{_ILU_DOMAIN}".encode("ascii")).hexdigest()


def value_digest(values: np.ndarray) -> str:
    """SHA-256 over a coefficient array's raw bytes.

    Callers normalize dtype first (the serve path stores coefficients
    in the plan config's dtype), so equal snapshots always hash equal.
    """
    arr = np.ascontiguousarray(values)
    return hashlib.sha256(arr.view(np.uint8)).hexdigest()


@dataclass
class ILUPlan:
    """One structure's compiled + factorized ILU(0) artifacts.

    Attributes
    ----------
    fingerprint:
        The :func:`ilu_structural_fingerprint` this plan answers to.
    value_digest:
        :func:`value_digest` of ``values_src`` — the numeric snapshot
        the factors were computed from.
    values_src:
        Unpermuted assembly-order coefficients (the repack input; also
        what healing recompiles from).
    matrix:
        Permuted + padded operator in CSR with the current values (the
        CSR fallback rung and residual guards read this).
    factors:
        :class:`~repro.ilu.ilu0_dbsr.DBSRILUFactors` sharing the DBSR
        skeleton.
    csr_scatter, dbsr_scatter:
        Exact value scatter maps (source index per stored entry/lane;
        sentinels for padding and virtual unit diagonals) that make
        :func:`repack_ilu_plan` bitwise-identical to a cold compile.
    schedule:
        :class:`~repro.ilu.ilu0_dbsr.ILU0Schedule` — the factorization's
        tile matches resolved once at cold compile and grouped into
        dependency stages; cold compiles and repacks both replay it.
    repack_seconds, refreshed:
        Cost of the last value-only repack and whether this plan object
        came from one (cold compiles report 0.0 / False).
    """

    fingerprint: str
    value_digest: str
    config: PlanConfig
    grid: StructuredGrid
    stencil: Stencil
    bsize: int
    block_dims: tuple
    ordering: object
    matrix: CSRMatrix
    factors: DBSRILUFactors
    values_src: np.ndarray
    csr_scatter: np.ndarray
    dbsr_scatter: np.ndarray
    schedule: object = field(default=None, repr=False, compare=False)
    backend: object = field(default=None, repr=False, compare=False)
    compile_seconds: float = 0.0
    repack_seconds: float = 0.0
    refreshed: bool = False
    autotuned: bool = field(default=False)
    integrity: dict | None = field(default=None, repr=False,
                                   compare=False)

    #: Dispatch tag read by the cache, fallback chain and guardrails.
    kind = "ilu"

    @property
    def n(self) -> int:
        """Original (unpadded) problem size."""
        return self.ordering.n_orig

    @property
    def n_padded(self) -> int:
        return self.ordering.n_padded

    # Vector mapping (mirrors SolvePlan) --------------------------------
    def extend(self, B: np.ndarray) -> np.ndarray:
        """Original-order ``(n,)`` or ``(n, k)`` block -> padded order."""
        B = np.asarray(B)
        single = B.ndim == 1
        cols = B.reshape(self.n, -1)
        out = np.zeros((self.n_padded, cols.shape[1]), dtype=cols.dtype)
        out[self.ordering.old_to_new, :] = cols
        return out[:, 0] if single else out

    def restrict(self, B: np.ndarray) -> np.ndarray:
        """Padded-order block -> original order (inverse of extend)."""
        B = np.asarray(B)
        single = B.ndim == 1
        cols = B.reshape(self.n_padded, -1)
        out = cols[self.ordering.old_to_new, :]
        return out[:, 0] if single else out

    # Execution ---------------------------------------------------------
    def _backend(self):
        if self.backend is None:
            from repro.backends import resolve_backend

            self.backend = resolve_backend(self.config.backend)
        return self.backend

    def execute(self, op: str, B: np.ndarray) -> np.ndarray:
        """Apply the preconditioner (``op`` must be ``"ilu_apply"``)."""
        require(op in ILU_OPS, f"unknown op {op!r}; known: {ILU_OPS}")
        return self.apply(B)

    def apply(self, B: np.ndarray) -> np.ndarray:
        """Solve ``L U Z = B`` over a ``(n,)`` vector or ``(n, k)`` block.

        Dispatch goes through the plan's resolved kernel backend; every
        tier is bit-identical per column to
        :func:`repro.ilu.ilu0_csr.ilu0_apply_csr` run against the
        scalar ILU(0) factorization of the same permuted operator (the
        serve ILU suite pins this across rungs, backends and ``k``).
        """
        backend = self._backend()
        with trace.span("plan.execute", op="ilu_apply",
                        strategy="dbsr", backend=backend.name,
                        fingerprint=self.fingerprint[:12]) as sp:
            hooks.fire("plan.execute", strategy="dbsr", op="ilu_apply",
                       fingerprint=self.fingerprint)
            B = np.asarray(B, dtype=self.config.np_dtype)
            single = B.ndim == 1
            require(B.shape[0] == self.n,
                    f"rhs length {B.shape[0]} != problem size {self.n}")
            Bp = self.extend(B.reshape(self.n, -1))
            if sp is not None:
                sp.attrs["k"] = int(Bp.shape[1])
                sp.set_counts(self.op_counts("ilu_apply",
                                             int(Bp.shape[1])))
            Xp = backend.run(self, "ilu_apply", Bp)
            out = self.restrict(Xp)
            return out[:, 0] if single else out

    def op_counts(self, op: str, k: int = 1):
        """Closed-form op counts of one ``k``-column application."""
        from repro.kernels.counts import dbsr_op_counts

        require(op in ILU_OPS, f"unknown op {op!r}; known: {ILU_OPS}")
        return dbsr_op_counts(op, self.factors, k)

    def describe(self) -> dict:
        """JSON-friendly summary (for metrics and persistence)."""
        return {
            "kind": "ilu",
            "fingerprint": self.fingerprint,
            "value_digest": self.value_digest,
            "grid": list(self.grid.dims),
            "stencil": self.stencil.name,
            "dtype": str(np.dtype(self.config.np_dtype)),
            "backend": self.config.backend,
            "backend_resolved": self._backend().name,
            "bsize": self.bsize,
            "autotuned": self.autotuned,
            "block_dims": list(self.block_dims),
            "n": self.n,
            "n_padded": self.n_padded,
            "n_tiles": self.factors.matrix.n_tiles,
            "n_colors": self.ordering.n_colors,
            "compile_seconds": self.compile_seconds,
            "repack_seconds": self.repack_seconds,
            "refreshed": self.refreshed,
        }


# Scatter-map machinery ------------------------------------------------------

def _derive_scatter_maps(ordering, A: CSRMatrix, bsize: int):
    """Exact value-provenance maps via a tagged pipeline pass.

    Runs a CSR twin of ``A`` whose data is ``arange(nnz) + 2`` through
    the *same* ``apply_matrix`` → ``from_csr`` pipeline a cold compile
    uses. Both steps are pure value permutations (virtual padding rows
    get exactly ``1.0``; DBSR padding lanes get exactly ``0.0``), so
    reading the tags back yields, for every permuted-CSR entry and
    every DBSR lane, the index of the source coefficient — or a
    sentinel. The tags ride in float64 regardless of the serving dtype
    so indices up to 2**53 survive exactly.
    """
    nnz = len(A.data)
    tags = np.arange(nnz, dtype=np.float64) + 2.0
    A_tag = CSRMatrix(A.indptr.copy(), A.indices.copy(), tags, A.shape)
    Ap_tag = ordering.apply_matrix(A_tag)
    dbsr_tag = DBSRMatrix.from_csr(Ap_tag, bsize)

    csr_scatter = np.rint(Ap_tag.data).astype(np.int64) - 2
    csr_scatter[np.rint(Ap_tag.data).astype(np.int64) == 1] = _VIRTUAL

    flat = np.rint(dbsr_tag.values.reshape(-1)).astype(np.int64)
    dbsr_scatter = flat - 2
    dbsr_scatter[flat == 0] = _PAD
    dbsr_scatter[flat == 1] = _VIRTUAL
    return csr_scatter, dbsr_scatter, Ap_tag, dbsr_tag


def _scatter_csr_data(csr_scatter: np.ndarray, values_src: np.ndarray,
                      dtype) -> np.ndarray:
    data = np.ones(csr_scatter.shape[0], dtype=dtype)
    real = csr_scatter >= 0
    data[real] = values_src[csr_scatter[real]]
    return data


def _scatter_dbsr_values(dbsr_scatter: np.ndarray,
                         values_src: np.ndarray, bsize: int,
                         dtype) -> np.ndarray:
    flat = np.zeros(dbsr_scatter.shape[0], dtype=dtype)
    real = dbsr_scatter >= 0
    flat[real] = values_src[dbsr_scatter[real]]
    flat[dbsr_scatter == _VIRTUAL] = 1.0
    return flat.reshape(-1, bsize)


def _build_numeric(plan_skeleton: dict, values_src: np.ndarray,
                   dtype, schedule) -> tuple:
    """Scatter one value snapshot into (CSR operator, ILU factors).

    The numeric factorization replays the structure's
    :class:`~repro.ilu.ilu0_dbsr.ILU0Schedule` — the one ILU body of
    cold compiles and value-only repacks alike, which is what makes a
    repack bitwise-identical to a cold compile.
    """
    csr_scatter = plan_skeleton["csr_scatter"]
    dbsr_scatter = plan_skeleton["dbsr_scatter"]
    data = _scatter_csr_data(csr_scatter, values_src, dtype)
    matrix = CSRMatrix(plan_skeleton["indptr"].copy(),
                       plan_skeleton["indices"], data,
                       plan_skeleton["shape"])
    values = _scatter_dbsr_values(dbsr_scatter, values_src,
                                  plan_skeleton["bsize"], dtype)
    dbsr = DBSRMatrix(plan_skeleton["blk_ptr"].copy(),
                      plan_skeleton["blk_ind"].copy(),
                      plan_skeleton["blk_offset"].copy(), values,
                      plan_skeleton["shape"],
                      nnz_hint=plan_skeleton["nnz"])
    return matrix, ilu0_refactorize_dbsr(dbsr, schedule)


def _skeleton_of(plan: ILUPlan) -> dict:
    m = plan.factors.matrix
    return {
        "csr_scatter": plan.csr_scatter,
        "dbsr_scatter": plan.dbsr_scatter,
        "indptr": plan.matrix.indptr,
        "indices": plan.matrix.indices,
        "shape": plan.matrix.shape,
        "bsize": plan.bsize,
        "blk_ptr": m.blk_ptr,
        "blk_ind": m.blk_ind,
        "blk_offset": m.blk_offset,
        "nnz": m.nnz,
    }


# Compilation ---------------------------------------------------------------

def compile_ilu_plan(grid: StructuredGrid, stencil,
                     config: PlanConfig | None = None,
                     values: np.ndarray | None = None,
                     bsize_hint: int | None = None) -> ILUPlan:
    """Cold-compile an ILU(0) plan for one structure.

    Pipeline: autotune ``bsize`` (unless pinned or hinted) → AUTO block
    partition → vectorized BMC coloring + permutation → assembly →
    tagged scatter-map derivation → stage-major ILU(0) schedule of the
    tagged DBSR skeleton → value scatter → schedule replay (the same
    numeric body a repack runs) → validate + seal.

    Parameters
    ----------
    values:
        Coefficients in unpermuted assembly order (matching
        ``assemble_csr(grid, stencil).data``); ``None`` uses the
        canonical assembled values.
    bsize_hint:
        A previously-autotuned pick; skips the autotune sweep. Ignored
        when ``config.bsize`` is set.
    """
    from repro.backends import resolve_backend

    config = config if config is not None else PlanConfig()
    stencil = _resolve_stencil(stencil)
    fingerprint = ilu_structural_fingerprint(grid, stencil, config)
    np_dtype = config.np_dtype
    backend = resolve_backend(config.backend)

    with trace.span("serve.compile", kind="ilu", strategy="dbsr",
                    backend=backend.name,
                    fingerprint=fingerprint[:12]) as sp:
        t0 = time.perf_counter()
        bsize, autotuned, block_dims, ordering, A = _compile_prelude(
            grid, stencil, config, bsize_hint)
        if values is None:
            values_src = np.array(A.data, dtype=np_dtype, copy=True)
        else:
            values_src = np.asarray(values,
                                    dtype=np_dtype).reshape(-1).copy()
            require(values_src.shape[0] == A.data.shape[0],
                    f"values must carry {A.data.shape[0]} coefficients "
                    f"(assembly order), got {values_src.shape[0]}")
        digest = value_digest(values_src)

        csr_scatter, dbsr_scatter, Ap_tag, dbsr_tag = \
            _derive_scatter_maps(ordering, A, bsize)
        skeleton = {
            "csr_scatter": csr_scatter,
            "dbsr_scatter": dbsr_scatter,
            "indptr": Ap_tag.indptr,
            "indices": Ap_tag.indices,
            "shape": Ap_tag.shape,
            "bsize": bsize,
            "blk_ptr": dbsr_tag.blk_ptr,
            "blk_ind": dbsr_tag.blk_ind,
            "blk_offset": dbsr_tag.blk_offset,
            "nnz": dbsr_tag.nnz,
        }
        schedule = build_ilu0_schedule(dbsr_tag)
        matrix, factors = _build_numeric(skeleton, values_src, np_dtype,
                                         schedule)
        schedule_ilu_sweeps(factors.matrix, factors.dia_ptr)

        plan = ILUPlan(
            fingerprint=fingerprint,
            value_digest=digest,
            config=config,
            grid=grid,
            stencil=stencil,
            bsize=bsize,
            block_dims=block_dims,
            ordering=ordering,
            matrix=matrix,
            factors=factors,
            values_src=values_src,
            csr_scatter=csr_scatter,
            dbsr_scatter=dbsr_scatter,
            schedule=schedule,
            backend=backend,
            compile_seconds=time.perf_counter() - t0,
            autotuned=autotuned,
        )
        if sp is not None:
            sp.attrs["bsize"] = int(bsize)
            sp.attrs["autotuned"] = autotuned
        hooks.fire("serve.compile", plan=plan, fingerprint=fingerprint)
        validate_plan(plan)
        seal_plan(plan)
        return plan


def repack_ilu_plan(plan: ILUPlan, values: np.ndarray) -> ILUPlan:
    """Value-only refresh: reuse the structure, re-factorize the numbers.

    Skips autotune, coloring, assembly and format conversion entirely —
    the stored scatter maps place the new coefficients exactly where a
    cold compile would, so the returned plan's matrix, factors and
    solves are **bitwise identical** to
    ``compile_ilu_plan(..., values=values)`` with the same resolved
    ``bsize`` (the ``ilu.repack.amortized`` gate of ``repro bench all``).
    """
    np_dtype = plan.config.np_dtype
    values_src = np.asarray(values, dtype=np_dtype).reshape(-1).copy()
    require(values_src.shape == plan.values_src.shape,
            f"values shape {values_src.shape} != structure's "
            f"{plan.values_src.shape} (structural drift needs a "
            f"cold compile, not a repack)")
    with trace.span("serve.refresh", kind="ilu",
                    fingerprint=plan.fingerprint[:12]) as sp:
        t0 = time.perf_counter()
        digest = value_digest(values_src)
        matrix, factors = _build_numeric(_skeleton_of(plan),
                                         values_src, np_dtype,
                                         plan.schedule)
        # Same skeleton, so the same level schedule, by identity; new
        # values, so new stacks.
        factors.matrix.schedule = plan.factors.matrix.schedule
        factors.matrix.stacks = ValueStacks(factors.matrix,
                                            dia_ptr=factors.dia_ptr)
        fresh = ILUPlan(
            fingerprint=plan.fingerprint,
            value_digest=digest,
            config=plan.config,
            grid=plan.grid,
            stencil=plan.stencil,
            bsize=plan.bsize,
            block_dims=plan.block_dims,
            ordering=plan.ordering,
            matrix=matrix,
            factors=factors,
            values_src=values_src,
            csr_scatter=plan.csr_scatter,
            dbsr_scatter=plan.dbsr_scatter,
            schedule=plan.schedule,
            backend=plan.backend,
            compile_seconds=plan.compile_seconds,
            repack_seconds=time.perf_counter() - t0,
            refreshed=True,
            autotuned=plan.autotuned,
        )
        if sp is not None:
            sp.attrs["repack_seconds"] = fresh.repack_seconds
        hooks.fire("serve.refresh", plan=fresh,
                   fingerprint=fresh.fingerprint)
        validate_plan(fresh)
        seal_plan(fresh)
        return fresh


# Preconditioned CG ---------------------------------------------------------

def ilu_pcg(plan: ILUPlan, b: np.ndarray, tol: float = 1e-8,
            maxiter: int = 1000) -> tuple:
    """Precondition-aware CG: solve ``A x = b`` with ``M = L U``.

    Runs :func:`repro.solvers.pcg.pcg` in the plan's permuted + padded
    space (the virtual padding rows form an identity block with zero
    right-hand side, so they never perturb the Krylov iterates) with
    the plan backend's ILU application at ``k = 1`` as the
    preconditioner; returns ``(x, history)`` with ``x`` in the caller's
    original ordering.
    """
    from repro.solvers.pcg import pcg

    b = np.asarray(b, dtype=plan.config.np_dtype)
    require(b.ndim == 1 and b.shape[0] == plan.n,
            f"b must be ({plan.n},), got {b.shape}")
    bp = plan.extend(b)
    backend = plan._backend()

    def precond(r: np.ndarray) -> np.ndarray:
        return backend.ilu_apply_dbsr_multi(plan.factors,
                                            r[:, None])[:, 0]

    xp, history = pcg(plan.matrix, bp, precond, tol=tol,
                      maxiter=maxiter)
    return plan.restrict(xp), history
