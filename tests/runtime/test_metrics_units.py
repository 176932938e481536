"""Direct unit tests for runtime/kernel_bench.py internals.

The report-level tests in test_metrics.py exercise these through
``collect_bench_runtime``; here ``_best_of`` and ``_kernel_entry``
are pinned in isolation.
"""

from __future__ import annotations

import math

from repro.runtime.kernel_bench import _best_of, _kernel_entry
from repro.simd.counters import OpCounter


def test_best_of_runs_fn_repeats_times():
    calls = []
    assert _best_of(lambda: calls.append(1), 5) >= 0.0
    assert len(calls) == 5


def test_best_of_clamps_repeats_to_at_least_one():
    calls = []
    _best_of(lambda: calls.append(1), 0)
    _best_of(lambda: calls.append(1), -3)
    assert len(calls) == 2


def test_best_of_returns_minimum_timing():
    import time

    durations = iter([0.05, 0.0])

    def fn():
        time.sleep(next(durations))

    best = _best_of(fn, 2)
    # The fast (no-sleep) repeat wins; a mean would exceed 25 ms.
    assert 0.0 <= best < 0.025


def _counter():
    c = OpCounter(bsize=4)
    c.vfma = 10
    c.bytes_values = 320
    return c


def test_kernel_entry_sequential_only():
    entry = _kernel_entry(_counter(), seconds=0.5)
    assert entry["seconds"] == 0.5
    assert entry["counts"]["ops"]["vfma"] == 10
    assert "seconds_parallel" not in entry
    assert "speedup_vs_sequential" not in entry


def test_kernel_entry_parallel_speedup():
    entry = _kernel_entry(_counter(), seconds=1.0,
                          seconds_parallel=0.25)
    assert entry["seconds_parallel"] == 0.25
    assert entry["speedup_vs_sequential"] == 4.0


def test_kernel_entry_zero_parallel_time_is_nan_not_crash():
    entry = _kernel_entry(_counter(), seconds=1.0,
                          seconds_parallel=0.0)
    assert math.isnan(entry["speedup_vs_sequential"])
