"""Deadline-aware service-time estimation — *before* any compile.

Admission control needs to answer "can this request make its deadline?"
without paying the very work it is trying to protect (reordering, DBSR
conversion, autotune). Two sources, blended:

* **Analytic model** — the op's DBSR closed form over a structure
  estimated from the grid and stencil alone
  (:func:`repro.kernels.counts.dbsr_geometry_counts`), priced by
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

import threading

import numpy as np

#: EWMA smoothing factor of the latency, calibration and compile series.
EWMA_ALPHA = 0.3

#: Vector length the model assumes when the config leaves ``bsize`` to
#: the autotuner (the compiled pick is unknown at admission time; 4 is
#: the paper's small-grid sweet spot).
DEFAULT_BSIZE = 4

#: Cold-compile estimate before any compile has been observed.
#: Deliberately optimistic: over-estimating compile cost would reject
#: feasible first requests.
DEFAULT_COMPILE_SECONDS = 0.0

#: Clamp on the measured/modeled ratio, so one wild sample cannot
#: poison every later admission decision.
CALIBRATION_BOUNDS = (1e-3, 1e3)


class Ewma:
    """Exponentially weighted moving average (``None`` until fed)."""

    def __init__(self, alpha: float = EWMA_ALPHA):
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


class ServiceTimeEstimator:
    """Blended analytic + measured service-time estimates."""

    def __init__(self):
        self._lock = threading.Lock()
        self._latency: dict[tuple, Ewma] = {}
        #: ``(fingerprint, op, k) -> model_seconds``, priced once.
        self._models: dict[tuple, float] = {}
        self._calibration = Ewma()
        self._compile = Ewma()
        # Value-only ILU repacks are a small fraction of a cold
        # compile; charging them the cold EWMA would over-reject
        # feasible deadlines, so they get their own series.
        self._refresh = Ewma()

    # Analytic model -----------------------------------------------------
    def model_seconds(self, grid, stencil, config, op: str,
                      k: int = 1) -> float:
        """Machine-model estimate of one ``(op, k)`` solve."""
        from repro.experiments.base import machine_by_name
        from repro.kernels.counts import dbsr_geometry_counts
        from repro.ordering.coloring import n_colors
        from repro.serve.plan import _resolve_stencil

        stencil = _resolve_stencil(stencil)
        machine = machine_by_name(config.machine)
        item = int(np.dtype(config.np_dtype).itemsize)
        counter = dbsr_geometry_counts(
            grid, stencil, op, int(config.bsize or DEFAULT_BSIZE), k=k,
            dtype_bytes=item)
        return machine.kernel_seconds(
            counter, threads=config.n_workers, dtype_bytes=item,
            n_barriers=n_colors(grid, stencil))

    def _model(self, fingerprint: str, grid, stencil, config, op: str,
               k: int) -> float:
        """:meth:`model_seconds`, priced once per ``(fingerprint, op,
        k)``; admission and the post-chunk calibration both read it."""
        key = (fingerprint, op, k)
        if key not in self._models:
            self._models[key] = self.model_seconds(grid, stencil, config,
                                                   op, k)
        return self._models[key]

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
            ewma = self._latency.setdefault((fingerprint, op), Ewma())
            ewma.update(per_solve)
            if model_seconds is not None and model_seconds > 0:
                ratio = float(seconds) / float(model_seconds)
                lo, hi = CALIBRATION_BOUNDS
                self._calibration.update(min(max(ratio, lo), hi))

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
                    else DEFAULT_COMPILE_SECONDS)

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
        coefficient bytes changed: it is charged the (much cheaper)
        repack EWMA instead of the cold-compile one.
        """
        model = self._model(fingerprint, grid, stencil, config, op, k)
        live = self.latency(fingerprint, op)
        if live is not None:
            service, source = live * k, "ewma"
        else:
            service, source = model * self.calibration(), "model"
        per_chunk = live or service / max(1, k)
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
