"""Long-lived solver runtime: one pool, one ledger, phase timers.

A :class:`SolverSession` owns the resources that used to be rebuilt on
every parallel sweep:

* **One shared ``ThreadPoolExecutor``**, created lazily on first use
  and reused across all colors, sweeps, V-cycles and CG iterations.
  ``pools_created`` (and the module-wide
  :data:`repro.parallel.executor.pool_stats`) make the "exactly one
  pool per solve" property assertable by tests.
* **A master :class:`~repro.simd.counters.OpCounter`** ledger.
  Kernels charge it through :meth:`SolverSession.tally`, under the
  session lock; a parallel sweep charges its closed form from
  :mod:`repro.kernels.counts` once, on the calling thread, after the
  sweep completes, so worker threads never touch it.
* **Structured phase timers**: ``with session.phase("sweep"): ...``
  records wall-clock seconds, call counts and the counter delta per
  named phase (reorder, convert, sweep, spmv, vcycle, ...), feeding
  the ``BENCH_runtime.json`` emission in
  :mod:`repro.runtime.kernel_bench`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

from repro.observe import trace
from repro.simd.counters import OpCounter, counter_to_dict
from repro.utils.validation import check_positive


def _counter_delta(after: OpCounter, before: OpCounter) -> OpCounter:
    out = OpCounter(bsize=after.bsize)
    for f in fields(OpCounter):
        if f.name == "bsize":
            continue
        setattr(out, f.name,
                getattr(after, f.name) - getattr(before, f.name))
    return out


@dataclass
class PhaseRecord:
    """Accumulated timing/accounting of one named phase."""

    name: str
    seconds: float = 0.0
    calls: int = 0
    counter: OpCounter = field(default_factory=lambda: OpCounter(bsize=1))

    def add(self, seconds: float, delta: OpCounter) -> None:
        self.seconds += seconds
        self.calls += 1
        self.counter.merge(delta)


class SolverSession:
    """Persistent runtime shared by every kernel of a solve.

    Parameters
    ----------
    n_workers:
        Worker threads of the shared pool.

    Notes
    -----
    The master counter has ``bsize=1`` so kernels of any vector width
    can merge into it; per-kernel widths belong in the per-kernel
    reports (:mod:`repro.runtime.kernel_bench`), the session ledger tracks
    totals (logical ops and exact bytes). The session is a context
    manager; leaving it shuts the pool down.
    """

    def __init__(self, n_workers: int = 2):
        self.n_workers = check_positive(n_workers, "n_workers")
        self._pool = None
        self.pools_created = 0
        self.counter = OpCounter(bsize=1)
        self.phases: dict[str, PhaseRecord] = {}
        self._lock = threading.Lock()

    # Pool ----------------------------------------------------------------
    @property
    def pool(self):
        """The shared thread pool (created on first access)."""
        if self._pool is None:
            from repro.parallel.executor import _new_pool

            with self._lock:
                if self._pool is None:
                    self._pool = _new_pool(self.n_workers)
                    self.pools_created += 1
        return self._pool

    def executor(self, schedule):
        """A color-barrier executor bound to the shared pool."""
        from repro.parallel.executor import ColorParallelExecutor

        return ColorParallelExecutor(schedule, self.n_workers,
                                     pool=self.pool)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # Op accounting --------------------------------------------------------
    def tally(self, counter: OpCounter) -> None:
        """Merge a finished kernel's counter into the session ledger
        (thread-safe)."""
        with self._lock:
            self.counter.merge(counter)

    # Phase timers ---------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Time a named phase and record its counter delta.

        Under an installed tracer each phase also opens a
        ``session.<name>`` span carrying the *measured* delta — the
        instrumented-twin tally, which the golden suite cross-checks
        against the closed forms.
        """
        before = replace(self.counter)
        t0 = time.perf_counter()
        with trace.span(f"session.{name}") as sp:
            try:
                yield self
            finally:
                seconds = time.perf_counter() - t0
                delta = _counter_delta(self.counter, before)
                rec = self.phases.get(name)
                if rec is None:
                    rec = self.phases[name] = PhaseRecord(name=name)
                rec.add(seconds, delta)
                if sp is not None:
                    sp.set_counts(delta)

    def timed(self, name: str, fn):
        """Wrap ``fn`` so every call runs inside ``phase(name)``."""

        def wrapped(*args, **kwargs):
            with self.phase(name):
                return fn(*args, **kwargs)

        return wrapped

    # Reporting ------------------------------------------------------------
    def phase_report(self) -> dict:
        """Machine-readable per-phase summary (dict of dicts)."""
        return {
            name: {
                "seconds": rec.seconds,
                "calls": rec.calls,
                "counter": counter_to_dict(rec.counter),
            }
            for name, rec in self.phases.items()
        }
