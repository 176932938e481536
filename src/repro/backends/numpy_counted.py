"""``numpy-counted`` tier: the instrumented bitwise-differential twin.

Executes every plan op through a :class:`~repro.simd.engine.VectorEngine`
so the full load/FMA/divide stream is tallied. This tier is the
*reference* the other tiers are compared against:

* results must equal the fast and jit tiers under ``np.array_equal``
  (the repository's bit-identity convention), and
* its tallies must equal the closed forms of
  :mod:`repro.kernels.counts` exactly.

Each kernel call runs on a **fresh** engine, stashed on the backend as
:attr:`NumpyCountedBackend.last_engine` so tests and the bench
collectors can read the per-op counter back. That stash is a test/bench
affordance only — it is not synchronized, so concurrent serving through
this tier gets correct numerics but racy counter readback.
"""

from __future__ import annotations

from repro.backends.base import KernelBackend
from repro.serve import batch
from repro.simd.engine import VectorEngine


class NumpyCountedBackend(KernelBackend):
    """Instrumented execution of the plan ops (the counted twin)."""

    name = "numpy-counted"

    def __init__(self):
        #: Engine of the most recent kernel call (test/bench readback).
        self.last_engine: VectorEngine | None = None

    def _engine(self, width: int, dtype) -> VectorEngine:
        engine = VectorEngine(width, dtype=dtype)
        self.last_engine = engine
        return engine

    def sptrsv_dbsr_multi(self, matrix, Bp, diag, forward):
        kern = batch.sptrsv_dbsr_lower_multi_counted if forward \
            else batch.sptrsv_dbsr_upper_multi_counted
        engine = self._engine(matrix.bsize, matrix.values.dtype)
        return kern(matrix, Bp, engine, diag=diag)

    def spmv_dbsr_multi(self, matrix, Bp):
        engine = self._engine(matrix.bsize, matrix.values.dtype)
        return batch.spmv_dbsr_multi_counted(matrix, Bp, engine)

    def symgs_dbsr_multi(self, matrix, diag, X, Bp):
        engine = self._engine(matrix.bsize, matrix.values.dtype)
        return batch.symgs_dbsr_multi_counted(matrix, diag, X, Bp, engine)

    def ilu_apply_dbsr_multi(self, factors, Bp):
        m = factors.matrix
        engine = self._engine(m.bsize, m.values.dtype)
        return batch.ilu_apply_dbsr_multi_counted(factors, Bp, engine)
