"""Sparse kernels: SpMV, SpTRSV, and SYMGS in every storage format.

The SpTRSV implementations mirror the paper directly:

* :func:`~repro.kernels.sptrsv_csr.sptrsv_csr` — Algorithm 1 (serial
  CSR lower solve).
* :func:`~repro.kernels.sptrsv_level.sptrsv_levels` — level-scheduled
  parallel solve (the classic alternative in §VI).
* :func:`~repro.kernels.sptrsv_dbsr.sptrsv_dbsr_lower` /
  :func:`~repro.kernels.sptrsv_dbsr.sptrsv_dbsr_upper` — Algorithm 2,
  the vectorized gather-free DBSR solves.
* :mod:`~repro.kernels.symgs` — the HPCG symmetric Gauss–Seidel
  smoother in CSR and DBSR forms.

The DBSR entry points here are single-vector conveniences: each is a
``k = 1`` call into the default :mod:`repro.backends` tier, whose
numpy kernels live in :mod:`repro.serve.batch` (one fast and one
``VectorEngine``-instrumented body per operation).
:mod:`~repro.kernels.counts` provides the matching closed-form
operation counts used by the performance model, and tests assert the
instrumented tallies equal them.
"""

from repro.kernels.spmv import spmv
from repro.kernels.sptrsv_csr import (
    split_triangular,
    sptrsv_csr,
    sptrsv_csr_upper,
)
from repro.kernels.sptrsv_level import build_levels, sptrsv_levels
from repro.kernels.sptrsv_sell import sptrsv_sell_lower, sptrsv_sell_upper
from repro.kernels.jacobi import jacobi_sweep, sor_forward_sweep, ssor_sweep
from repro.kernels.fused import (
    fused_spmv_dot,
    fused_symgs_residual,
    fusion_traffic_ratio,
)
from repro.kernels.sptrsv_dbsr import sptrsv_dbsr_lower, sptrsv_dbsr_upper
from repro.kernels.symgs import symgs_csr, symgs_dbsr, gs_forward_csr
from repro.kernels.symgs_sell import symgs_sell, symgs_sell_counted
from repro.kernels import counts

__all__ = [
    "spmv",
    "split_triangular",
    "sptrsv_csr",
    "sptrsv_csr_upper",
    "build_levels",
    "sptrsv_levels",
    "sptrsv_sell_lower",
    "sptrsv_sell_upper",
    "jacobi_sweep",
    "sor_forward_sweep",
    "ssor_sweep",
    "fused_spmv_dot",
    "fused_symgs_residual",
    "fusion_traffic_ratio",
    "sptrsv_dbsr_lower",
    "sptrsv_dbsr_upper",
    "symgs_csr",
    "symgs_dbsr",
    "symgs_sell",
    "symgs_sell_counted",
    "gs_forward_csr",
    "counts",
]
