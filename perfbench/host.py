"""Host speed and host-noise context.

The shared 2-vCPU host this benchmark was tuned on changes speed by up
to about 2x from one second or minute to the next (a fixed pure-Python
loop and a ``tri-large-k8`` request slow down together), with no steal
time showing: the same code reads 88 ms in one run and 175 ms in the
next.  :func:`host_factor` reads the host's speed right now with two
fixed probes that use none of the program's code.  The timed phases
divide every time by the factor read around it (see ``Phase`` in
``workloads.py``), so timings are in *reference-host* seconds: what the
run would have taken on a host where both probes read their reference
times.  A change to the program moves a normalized time by the same
share as the raw time; a change of host state mostly does not.

Anyone comparing two runs also needs to tell a noisy host from a
regression: the CPU count, the hypervisor steal time over the timed
phase, the speed of a fixed pure-Python loop before and after it, and
how many threads the process ran are reported but never gated.
"""

from __future__ import annotations

import math
import os
import resource
import threading
import time

import numpy as np

#: Reference times of the two speed probes (seconds): a host on which
#: both probes read these has factor 1.0.  They set only the scale of
#: the normalized timings (about a quiet 2-vCPU Xeon VM at 2.1 GHz).
REF_PY_S = 3.2e-3
REF_NP_S = 2.2e-3

_PROBE_X, _PROBE_Y = np.random.default_rng(0).standard_normal((2, 1728))


def _probe_py() -> None:
    acc = 0
    for i in range(50_000):
        acc += i * i % 7


def _probe_np() -> None:
    # Many small numpy calls that allocate their results: the
    # interpreter-plus-numpy mix of the program's kernels.
    for _ in range(600):
        a = _PROBE_X + _PROBE_Y
        a[::3] * float(a @ a)


def _mean_of(fn, reps: int = 3) -> float:
    # The mean, not the best: a request pays for every slow moment the
    # host has while it runs, and so must the probe.
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def host_factor() -> float:
    """How many times slower than the reference the host runs now.

    The geometric mean of the two probes' mean-of-3 times over their
    reference times; about 15 ms per call.
    """
    return math.sqrt(_mean_of(_probe_py) / REF_PY_S
                     * _mean_of(_probe_np) / REF_NP_S)


def calibration_ms(reps: int = 5) -> float:
    """Median ms of a fixed pure-Python loop (interpreter speed probe)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]


def steal_seconds() -> float | None:
    """Cumulative steal time of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostProbe:
    """Collects the context of one timed phase."""

    def __init__(self):
        self.peak_threads = threading.active_count()
        self.calib_before_ms = None
        self.calib_after_ms = None
        self._steal0 = None
        self.steal_s = None

    def sample_threads(self) -> None:
        n = threading.active_count()
        if n > self.peak_threads:
            self.peak_threads = n

    def before(self) -> None:
        self.calib_before_ms = calibration_ms()
        self._steal0 = steal_seconds()

    def after(self) -> None:
        steal1 = steal_seconds()
        if self._steal0 is not None and steal1 is not None:
            self.steal_s = steal1 - self._steal0
        self.calib_after_ms = calibration_ms()

    def report(self) -> dict:
        return {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "steal_s": self.steal_s,
            "calib_before_ms": self.calib_before_ms,
            "calib_after_ms": self.calib_after_ms,
            "peak_threads": self.peak_threads,
        }
