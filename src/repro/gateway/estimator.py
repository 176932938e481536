"""Deadline-aware service-time estimation — *before* any compile.

Admission control needs to answer "can this request make its deadline?"
without paying the very work it is trying to protect (reordering, DBSR
conversion, autotune). Two sources, blended:

* **Analytic model** — operation counts derived from the grid and
  stencil alone (the nonzero count of a clipped stencil operator is a
  closed form over its offsets: ``Σ_off Π_d (dim_d - |off_d|)``),
  shaped like the DBSR multi-RHS closed forms of
  :mod:`repro.kernels.counts` and priced by
  :meth:`repro.simd.machine.MachineModel.kernel_seconds` — the
  roofline-style ``max(compute, memory) + sync`` estimate
  (Schubert–Hager–Fehske's bandwidth-limit analysis, PAPERS.md).
* **Live EWMAs** — measured per-``(fingerprint, op)`` per-solve
  latencies observed from completed requests. Once a structure has
  traffic, its EWMA replaces the model; until then the model is scaled
  by a *calibration* EWMA of measured/modeled ratios, so the analytic
  estimate self-corrects toward this host's actual speed.

The estimator never imports the compile pipeline; everything here is
O(#offsets) arithmetic, which is what lets a hopeless request be
rejected with **zero** :class:`~repro.serve.cache.PlanCache` compile
deltas.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.simd.counters import OpCounter
from repro.utils.validation import check_positive


class Ewma:
    """Exponentially weighted moving average (``None`` until fed)."""

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.value: float | None = None
        self.n = 0

    def update(self, v: float) -> float:
        v = float(v)
        self.value = (v if self.value is None
                      else self.alpha * v + (1 - self.alpha) * self.value)
        self.n += 1
        return self.value


def stencil_nnz(grid, stencil) -> int:
    """Exact nonzero count of the clipped stencil operator on ``grid``.

    Each offset contributes one entry per grid point whose shifted
    neighbor stays in bounds — ``Π_d (dim_d - |off_d|)`` points — which
    is precisely what :func:`repro.grids.assembly.assemble_csr` emits,
    without assembling anything.
    """
    total = 0
    for off in stencil.offsets:
        per = 1
        for d, o in zip(grid.dims, off):
            per *= max(0, int(d) - abs(int(o)))
        total += per
    return total


class ServiceTimeEstimator:
    """Blended analytic + measured service-time estimates.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor for both latency and calibration series.
    default_bsize:
        Vector length assumed by the model when the config leaves
        ``bsize`` to the autotuner (the compiled pick is unknown at
        admission time; 4 is the paper's small-grid sweet spot).
    default_compile_seconds:
        Cold-structure compile estimate used before any compile has
        been observed. Deliberately optimistic: over-estimating
        compile cost would reject feasible first requests.
    calibration_bounds:
        Clamp on the measured/modeled ratio, so one wild sample cannot
        poison every later admission decision.
    """

    def __init__(self, alpha: float = 0.3, default_bsize: int = 4,
                 default_compile_seconds: float = 0.0,
                 calibration_bounds: tuple = (1e-3, 1e3)):
        self.default_bsize = check_positive(default_bsize,
                                            "default_bsize")
        self.default_compile_seconds = float(default_compile_seconds)
        self._alpha = alpha
        self._lo, self._hi = calibration_bounds
        self._lock = threading.Lock()
        self._latency: dict[tuple, Ewma] = {}
        self._calibration = Ewma(alpha)
        self._compile = Ewma(alpha)
        # Value-only ILU repacks are a small fraction of a cold
        # compile; charging them the cold EWMA would over-reject
        # feasible deadlines, so they get their own series.
        self._refresh = Ewma(alpha)

    # Analytic model -----------------------------------------------------
    def _counter(self, grid, stencil, config, op: str,
                 k: int) -> OpCounter:
        """DBSR-shaped multi-RHS counter from geometry alone.

        Mirrors :func:`repro.kernels.counts.sptrsv_dbsr_counts`
        with tile/row counts *estimated* (``tiles ≈ nnz/bsize``): one
        value load per tile serves all ``k`` columns, vector traffic
        scales with ``k``.
        """
        n = int(grid.n_points)
        nnz = stencil_nnz(grid, stencil)
        bsize = int(config.bsize or self.default_bsize)
        item = int(np.dtype(config.np_dtype).itemsize)
        brow = max(1, math.ceil(n / bsize))
        if op in ("lower", "upper"):
            nnz_op = max(1, (nnz - n) // 2)
            sweeps, divide = 1, True
        elif op == "spmv":
            nnz_op, sweeps, divide = nnz, 1, False
        elif op == "ilu_apply":
            # Forward + backward factor sweeps over the triangular
            # halves; the divide prices the backward diagonal solve.
            nnz_op = max(1, (nnz - n) // 2)
            sweeps, divide = 2, True
        else:  # symgs: both triangular sweeps + corrections
            nnz_op = max(1, (nnz - n) // 2)
            sweeps, divide = 2, True
        t = max(1, math.ceil(nnz_op / bsize))
        c = OpCounter(bsize=bsize)
        c.vload = (t * (1 + k) + k * brow + (brow if divide else 0))
        c.vfma = t * k
        c.vstore = k * brow
        c.vdiv = k * brow if divide else 0
        c.sload = 2 * t
        c.bytes_values = t * bsize * item
        c.bytes_index = t * 5 + (brow + 1) * 8
        c.bytes_vector = ((k * t + 2 * k * brow
                           + (brow if divide else 0)) * bsize * item)
        return c.scaled(sweeps) if sweeps != 1 else c

    def model_seconds(self, grid, stencil, config, op: str,
                      k: int = 1) -> float:
        """Machine-model estimate of one ``(op, k)`` solve."""
        from repro.experiments.base import machine_by_name
        from repro.ordering.coloring import _is_star
        from repro.serve.plan import _resolve_stencil

        stencil = _resolve_stencil(stencil)
        machine = machine_by_name(config.machine)
        counter = self._counter(grid, stencil, config, op, k)
        n_colors = 2 if _is_star(stencil) else 2 ** grid.ndim
        return machine.kernel_seconds(
            counter, threads=config.n_workers,
            dtype_bytes=int(np.dtype(config.np_dtype).itemsize),
            n_barriers=n_colors)

    # Live feedback ------------------------------------------------------
    def observe(self, fingerprint: str, op: str, seconds: float,
                k: int = 1, model_seconds: float | None = None) -> None:
        """Feed one measured chunk execution back into the EWMAs.

        ``seconds`` is the wall time of a ``k``-column batch; the
        stored latency is per solve. When the caller also passes the
        matching model estimate, the global calibration ratio updates.
        """
        per_solve = float(seconds) / max(1, int(k))
        with self._lock:
            ewma = self._latency.setdefault((fingerprint, op),
                                            Ewma(self._alpha))
            ewma.update(per_solve)
            if model_seconds is not None and model_seconds > 0:
                ratio = float(seconds) / float(model_seconds)
                self._calibration.update(
                    min(max(ratio, self._lo), self._hi))

    def observe_compile(self, seconds: float,
                        kind: str = "cold") -> None:
        """Feed one compile observation; ``kind`` picks the series.

        ``"cold"`` is a full structural compile, ``"refresh"`` a
        value-only ILU repack — keeping them separate is what stops
        warm repack traffic from being priced (and rejected) as if
        every request re-ran reordering + autotune.
        """
        if kind not in ("cold", "refresh"):
            raise ValueError(
                f"kind must be 'cold' or 'refresh', got {kind!r}")
        with self._lock:
            target = self._compile if kind == "cold" else self._refresh
            target.update(float(seconds))

    def latency(self, fingerprint: str, op: str) -> float | None:
        """Current per-solve EWMA for ``(fingerprint, op)``, if any."""
        with self._lock:
            ewma = self._latency.get((fingerprint, op))
            return None if ewma is None else ewma.value

    def compile_seconds(self) -> float:
        with self._lock:
            return (self._compile.value
                    if self._compile.value is not None
                    else self.default_compile_seconds)

    def refresh_seconds(self) -> float:
        """Warm value-only repack estimate.

        Before any repack has been observed, assume half a cold
        compile — still conservative (measured repacks are far
        cheaper) but never *more* expensive than the cold path.
        """
        with self._lock:
            if self._refresh.value is not None:
                return self._refresh.value
        return 0.5 * self.compile_seconds()

    def calibration(self) -> float:
        with self._lock:
            return (self._calibration.value
                    if self._calibration.value is not None else 1.0)

    # Admission ----------------------------------------------------------
    def estimate(self, grid, stencil, config, op: str, k: int,
                 fingerprint: str, cold: bool = False,
                 backlog_chunks: int = 0, n_shards: int = 1,
                 warm_refresh: bool = False) -> dict:
        """Full pre-compile estimate of one request's completion time.

        Returns a breakdown dict (every term in seconds): per-solve
        service time (EWMA when live, calibrated model otherwise),
        compile cost when the structure is ``cold`` in every shard
        cache, and queue wait modeled as the backlog spread over the
        shard pool. ``warm_refresh`` marks a warm ILU structure whose
        value digest changed: it is charged the (much cheaper) repack
        EWMA instead of the cold-compile one.
        """
        model = self.model_seconds(grid, stencil, config, op, k)
        live = self.latency(fingerprint, op)
        if live is not None:
            service, source = live * k, "ewma"
        else:
            service, source = model * self.calibration(), "model"
        per_chunk = (self.latency(fingerprint, op)
                     or service / max(1, k))
        queue_wait = (backlog_chunks * per_chunk
                      / max(1, int(n_shards)))
        compile_s = self.compile_seconds() if cold else 0.0
        refresh_s = (self.refresh_seconds()
                     if warm_refresh and not cold else 0.0)
        return {
            "service_seconds": float(service),
            "model_seconds": float(model),
            "source": source,
            "calibration": self.calibration(),
            "compile_seconds": float(compile_s),
            "refresh_seconds": float(refresh_s),
            "queue_wait_seconds": float(queue_wait),
            "total_seconds": float(service + compile_s + refresh_s
                                   + queue_wait),
        }

    def stats(self) -> dict:
        with self._lock:
            return {
                "structures_tracked": len(self._latency),
                "calibration": (self._calibration.value
                                if self._calibration.value is not None
                                else 1.0),
                "calibration_samples": self._calibration.n,
                "compile_ewma_seconds": self._compile.value,
                "refresh_ewma_seconds": self._refresh.value,
            }
