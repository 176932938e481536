"""``numpy-fast`` tier: allocation-hoisted, branch-free numpy kernels.

The default tier, for served plans and for every single-vector DBSR
caller (which run it at ``k = 1``). Delegates to the block kernels of
:mod:`repro.serve.batch` (padded ``(n + 2*bsize, k)`` buffers, one
tile-value load per sweep shared by all ``k`` columns). Bit-identity
with the ``numpy-counted`` twin is pinned by ``tests/backends`` and the
golden-trace suite.
"""

from __future__ import annotations

from repro.backends.base import KernelBackend
from repro.serve import batch


class NumpyFastBackend(KernelBackend):
    """Vectorized numpy execution of the plan ops."""

    name = "numpy-fast"

    def sptrsv_dbsr_multi(self, matrix, Bp, diag, forward):
        kern = batch.sptrsv_dbsr_lower_multi if forward \
            else batch.sptrsv_dbsr_upper_multi
        return kern(matrix, Bp, diag=diag)

    def spmv_dbsr_multi(self, matrix, Bp):
        return batch.spmv_dbsr_multi(matrix, Bp)

    def symgs_dbsr_multi(self, matrix, diag, X, Bp):
        return batch.symgs_dbsr_multi(matrix, diag, X, Bp)

    def ilu_apply_dbsr_multi(self, factors, Bp):
        return batch.ilu_apply_dbsr_multi(factors, Bp)
