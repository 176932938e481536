"""``numpy-fast`` tier: allocation-hoisted, branch-free numpy kernels.

The default tier, for served plans and for every single-vector DBSR
caller (which run it at ``k = 1``). Delegates to the block kernels of
:mod:`repro.serve.batch` (padded ``(n + 2*bsize, k)`` buffers, one
tile-value load per sweep shared by all ``k`` columns) and the
``engine=None`` fast path of the SELL sweeps. Bit-identity with the
``numpy-counted`` twin is pinned by ``tests/backends`` and the
golden-trace suite.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import KernelBackend
from repro.kernels.sptrsv_sell import sptrsv_sell_lower, sptrsv_sell_upper
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

    def sptrsv_sell_multi(self, sell, Bp, diag, forward):
        kern = sptrsv_sell_lower if forward else sptrsv_sell_upper
        out = np.empty_like(Bp)
        for j in range(Bp.shape[1]):
            out[:, j] = kern(sell, Bp[:, j], diag=diag)
        return out

    def ilu_apply_dbsr_multi(self, factors, Bp):
        return batch.ilu_apply_dbsr_multi(factors, Bp)
