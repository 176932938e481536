"""Solve-plan compilation — the serving layer's "compile once" step.

The paper's amortization argument (§V) is that BMC reordering and DBSR
conversion are one-time preprocessing paid once per matrix *structure*
and amortized over many SpTRSV/SYMGS sweeps. A :class:`SolvePlan`
reifies that one-time work as a value: the block partition, the
vectorized-BMC coloring and permutation, the DBSR conversion, the
triangular split, and the autotuned ``bsize`` pick — everything a
request-serving frontend needs to execute a solve with nothing but
kernel calls.

Plans are keyed by a **structural fingerprint**: a SHA-256 digest over
the canonical JSON of the fields that determine the compiled artifacts
(grid dims, stencil signature, dtype, bsize, worker count, requested
kernel backend).
The digest is deterministic across processes (no Python hash
randomization) and across dict orderings (keys are sorted), so it can
double as a persistence key for autotune picks
(:class:`repro.serve.cache.PlanCache`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix
from repro.formats.dbsr_levels import build_block_levels, schedule_sweeps
from repro.grids.grid import StructuredGrid
from repro.grids.stencils import Stencil, stencil_by_name
from repro.observe import trace
from repro.resilience import hooks
from repro.resilience.guardrails import seal_plan, validate_plan
from repro.utils.validation import check_positive, require

#: Ops a compiled plan can execute (see :meth:`SolvePlan.execute`).
PLAN_OPS = ("lower", "upper", "spmv", "symgs")


@dataclass(frozen=True)
class PlanConfig:
    """Tunables that select what a plan compiles to.

    Attributes
    ----------
    bsize:
        Vector length; ``None`` lets
        :func:`repro.simd.autotune.autotune_bsize` pick per structure.
    n_workers:
        Worker count the block partition is sized for.
    dtype:
        ``"f64"`` or ``"f32"`` (normalized into the fingerprint).
    machine:
        Short machine name (``intel``/``kp920``/``thunderx2``/
        ``phytium``) feeding the autotuner's lane count.
    groups_per_worker:
        Autotune slack: vector groups each worker should get per color.
    backend:
        Kernel execution tier (see :mod:`repro.backends`): the
        *requested* tier, part of the fingerprint. An unavailable
        optional tier (``numba``) resolves to ``numpy-fast`` at compile
        time with a warning.
    autotune_prune:
        Autotune search mode when ``bsize`` is left to the tuner:
        ``None`` (feasibility rule, the historical default),
        ``"exhaustive"`` (measure every feasible candidate) or
        ``"roofline"`` (measure only the top model-ranked candidates —
        the cold-compile fast path). Deliberately *not* part of the
        structural fingerprint: like ``bsize_hint``, it only steers
        which equally-valid pick the tuner lands on, never the
        compiled artifacts' validity.
    """

    bsize: int | None = None
    n_workers: int = 4
    dtype: str = "f64"
    machine: str = "intel"
    groups_per_worker: int = 1
    backend: str = "numpy-fast"
    autotune_prune: str | None = None

    def __post_init__(self):
        # Lazy import: repro.serve.__init__ imports this module at
        # package load, and repro.backends must stay cycle-free.
        from repro.backends import BACKEND_NAMES
        from repro.simd.autotune import PRUNE_MODES

        require(self.backend in BACKEND_NAMES,
                f"unknown backend {self.backend!r}; "
                f"known: {BACKEND_NAMES}")
        require(self.autotune_prune in PRUNE_MODES,
                f"unknown autotune_prune {self.autotune_prune!r}; "
                f"known: {PRUNE_MODES}")
        if self.bsize is not None:
            check_positive(self.bsize, "bsize")
        check_positive(self.n_workers, "n_workers")
        check_positive(self.groups_per_worker, "groups_per_worker")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype in ("f32", "float32") \
            else np.float64


def _resolve_stencil(stencil: Stencil | str) -> Stencil:
    return stencil_by_name(stencil) if isinstance(stencil, str) \
        else stencil


def structural_fingerprint(grid: StructuredGrid,
                           stencil: Stencil | str,
                           config: PlanConfig) -> str:
    """Deterministic digest of everything that shapes the compiled plan.

    Two requests with equal fingerprints can share one plan; any field
    that changes the compiled artifacts (dims, stencil, dtype, bsize,
    worker count) changes the digest.
    """
    stencil = _resolve_stencil(stencil)
    payload = {
        # v2: added the requested kernel backend tier.
        "v": 2,
        "backend": config.backend,
        "grid": [int(d) for d in grid.dims],
        "stencil": {
            "name": stencil.name,
            "offsets": [[int(c) for c in off] for off in stencil.offsets],
            "weights": [float(w) for w in stencil.weights],
        },
        "dtype": str(np.dtype(config.np_dtype)),
        "bsize": "auto" if config.bsize is None else int(config.bsize),
        # Plans are always DBSR; the key keeps persisted digests valid.
        "strategy": "dbsr",
        "machine": config.machine,
        "n_workers": int(config.n_workers),
        "groups_per_worker": int(config.groups_per_worker),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


@dataclass
class SolvePlan:
    """One structure's compiled solve artifacts.

    Everything here is request-independent: plans are immutable after
    compilation and safe to share across threads (kernels only read the
    matrices; per-request state lives in the caller's buffers).

    Attributes
    ----------
    fingerprint:
        The :func:`structural_fingerprint` this plan answers to.
    config:
        The :class:`PlanConfig` it was compiled under.
    grid, stencil:
        Problem geometry and operator.
    bsize:
        Resolved vector length (autotuned when ``config.bsize`` is
        ``None``).
    block_dims:
        The AUTO block partition extents.
    ordering:
        The :class:`~repro.ordering.vbmc.VBMCOrdering` (permutation,
        schedule, padding).
    matrix:
        Permuted + padded operator in CSR (assembly output).
    dbsr:
        Full operator in DBSR.
    lower, upper:
        Strictly triangular DBSR factors.
    diag:
        Diagonal of the permuted operator.
    backend:
        The *resolved* :class:`~repro.backends.KernelBackend` instance
        every :meth:`execute` dispatches through (its ``name`` may
        differ from ``config.backend`` when an optional tier was
        unavailable at compile time).
    compile_seconds:
        Wall-clock cost of this compilation (the quantity the cache
        amortizes).
    """

    fingerprint: str
    config: PlanConfig
    grid: StructuredGrid
    stencil: Stencil
    bsize: int
    block_dims: tuple
    ordering: object
    matrix: CSRMatrix
    dbsr: DBSRMatrix
    lower: DBSRMatrix
    upper: DBSRMatrix
    diag: np.ndarray
    backend: object = field(default=None, repr=False, compare=False)
    compile_seconds: float = 0.0
    autotuned: bool = field(default=False)
    #: Per-artifact SHA-256 digests sealed at compile time by
    #: :func:`repro.resilience.guardrails.seal_plan`; lets the fallback
    #: chain detect byte-level corruption of cached artifacts.
    integrity: dict | None = field(default=None, repr=False,
                                   compare=False)

    @property
    def n(self) -> int:
        """Original (unpadded) problem size."""
        return self.ordering.n_orig

    @property
    def n_padded(self) -> int:
        return self.ordering.n_padded

    # Vector mapping (multi-RHS aware) ---------------------------------
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
        """The resolved kernel backend (lazily bound for plans that
        were constructed without :func:`compile_plan`)."""
        if self.backend is None:
            from repro.backends import resolve_backend

            self.backend = resolve_backend(self.config.backend)
        return self.backend

    def execute(self, op: str, B: np.ndarray) -> np.ndarray:
        """Run one op over a ``(n,)`` vector or ``(n, k)`` RHS block.

        Ops (all in original ordering; padding is internal):

        * ``"lower"`` — solve ``(L + D) x = b``.
        * ``"upper"`` — solve ``(D + U) x = b``.
        * ``"spmv"``  — ``y = A x``.
        * ``"symgs"`` — one SYMGS sweep from a zero initial guess.

        Dispatch goes through the plan's resolved kernel backend; every
        tier is bit-identical per column to the ``numpy-counted`` twin
        (verified by the serve and golden-trace suites), so results do
        not depend on which tier a plan compiled to.
        """
        require(op in PLAN_OPS, f"unknown op {op!r}; known: {PLAN_OPS}")
        backend = self._backend()
        with trace.span("plan.execute", op=op, strategy="dbsr",
                        backend=backend.name,
                        fingerprint=self.fingerprint[:12]) as sp:
            hooks.fire("plan.execute", strategy="dbsr", op=op,
                       fingerprint=self.fingerprint)
            B = np.asarray(B, dtype=self.config.np_dtype)
            single = B.ndim == 1
            require(B.shape[0] == self.n,
                    f"rhs length {B.shape[0]} != problem size {self.n}")
            Bp = self.extend(B.reshape(self.n, -1))
            if sp is not None:
                sp.attrs["k"] = int(Bp.shape[1])
                sp.set_counts(self.op_counts(op, int(Bp.shape[1])))
            Xp = backend.run(self, op, Bp)
            out = self.restrict(Xp)
            return out[:, 0] if single else out

    def op_counts(self, op: str, k: int = 1):
        """Closed-form op counts of one ``execute(op)`` over ``k`` RHS.

        These are the counts the tracer attributes to ``plan.execute``
        spans; the golden-trace suite asserts they equal the closed
        forms in :mod:`repro.kernels.counts` exactly (they *are* those
        closed forms, over the matrix :meth:`execute` sweeps for
        ``op``).
        """
        from repro.kernels.counts import dbsr_op_counts

        swept = {"lower": self.lower, "upper": self.upper}
        return dbsr_op_counts(op, swept.get(op, self.dbsr), k)

    def describe(self) -> dict:
        """JSON-friendly summary (for metrics and persistence)."""
        return {
            "fingerprint": self.fingerprint,
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
            "n_tiles": self.dbsr.n_tiles,
            "n_colors": self.ordering.n_colors,
            "compile_seconds": self.compile_seconds,
        }


def _compile_prelude(grid: StructuredGrid, stencil: Stencil,
                    config: PlanConfig,
                    bsize_hint: int | None) -> tuple:
    """The set-up every plan kind starts from.

    Resolves ``bsize`` (``config.bsize``, else ``bsize_hint``, else an
    autotune sweep under a ``serve.autotune`` span), then builds the
    AUTO block partition, the vectorized BMC ordering and the assembled
    operator. Returns ``(bsize, autotuned, block_dims, ordering, A)``.
    """
    from repro.grids.assembly import assemble_csr
    from repro.ordering.blocks import auto_block_dims
    from repro.ordering.coloring import n_colors
    from repro.ordering.vbmc import build_vbmc
    from repro.simd.autotune import autotune_bsize

    autotuned = False
    if config.bsize is not None:
        bsize = config.bsize
    elif bsize_hint is not None:
        bsize = check_positive(bsize_hint, "bsize_hint")
    else:
        from repro.experiments.base import machine_by_name

        machine = machine_by_name(config.machine)
        with trace.span("serve.autotune", machine=config.machine,
                        prune=str(config.autotune_prune)):
            bsize = autotune_bsize(
                grid, stencil, machine, n_workers=config.n_workers,
                dtype_bytes=int(np.dtype(config.np_dtype).itemsize),
                groups_per_worker=config.groups_per_worker,
                prune=config.autotune_prune)
        autotuned = True

    block_dims = auto_block_dims(grid, config.n_workers, bsize=bsize,
                                 n_colors=n_colors(grid, stencil))
    ordering = build_vbmc(grid, stencil, block_dims, bsize)
    A = assemble_csr(grid, stencil, dtype=config.np_dtype)
    return bsize, autotuned, tuple(block_dims), ordering, A


def compile_plan(grid: StructuredGrid, stencil: Stencil | str,
                 config: PlanConfig | None = None,
                 bsize_hint: int | None = None) -> SolvePlan:
    """Run the full one-time setup for one structure.

    Pipeline: autotune ``bsize`` (unless pinned by ``config.bsize`` or
    a persisted ``bsize_hint``) → AUTO block partition → vectorized BMC
    coloring + permutation → assembly → DBSR conversion → triangular
    split.

    Parameters
    ----------
    bsize_hint:
        A previously-autotuned pick (e.g. restored from a
        :class:`~repro.serve.cache.PlanCache` persistence file); skips
        the autotune sweep. Ignored when ``config.bsize`` is set.
    """
    from repro.backends import resolve_backend
    from repro.kernels.sptrsv_csr import split_triangular

    config = config if config is not None else PlanConfig()
    stencil = _resolve_stencil(stencil)
    fingerprint = structural_fingerprint(grid, stencil, config)
    # Resolve the kernel tier now, not per-execute: an unavailable
    # optional tier (numba) degrades to numpy-fast here, once, with a
    # warning — while the fingerprint keeps the *requested* name.
    backend = resolve_backend(config.backend)

    with trace.span("serve.compile", strategy="dbsr",
                    backend=backend.name,
                    fingerprint=fingerprint[:12]) as sp:
        t0 = time.perf_counter()
        bsize, autotuned, block_dims, ordering, A = _compile_prelude(
            grid, stencil, config, bsize_hint)
        Ap = ordering.apply_matrix(A)
        dbsr = DBSRMatrix.from_csr(Ap, bsize)
        L, D, U = split_triangular(Ap)
        Ld = DBSRMatrix.from_csr(L, bsize)
        Ud = DBSRMatrix.from_csr(U, bsize)
        # One level schedule of the full operator's windows drives the
        # lower, upper and SYMGS sweeps (a triangle's windows are a
        # subset of the full operator's); all three divide by D.
        levels = build_block_levels(dbsr)
        for m in (dbsr, Ld, Ud):
            schedule_sweeps(m, levels, diag=D)

        plan = SolvePlan(
            fingerprint=fingerprint,
            config=config,
            grid=grid,
            stencil=stencil,
            bsize=bsize,
            block_dims=block_dims,
            ordering=ordering,
            matrix=Ap,
            dbsr=dbsr,
            lower=Ld,
            upper=Ud,
            diag=D,
            backend=backend,
            compile_seconds=time.perf_counter() - t0,
            autotuned=autotuned,
        )
        if sp is not None:
            sp.attrs["bsize"] = int(bsize)
            sp.attrs["autotuned"] = autotuned
        # Chaos may corrupt the freshly compiled plan here; compile-time
        # validation then rejects it before it can reach a cache or
        # kernel.
        hooks.fire("serve.compile", plan=plan, fingerprint=fingerprint)
        validate_plan(plan)
        seal_plan(plan)
        return plan
