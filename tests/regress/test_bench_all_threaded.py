"""Concurrency: parallel `bench all` == sequential, exclusives apart."""

import json
import threading
import time

from repro.regress import run_bench_all
from repro.regress.registry import BenchEmitter


def _timed_registry(tmp_path, intervals, lock, sleep=0.02):
    def make(name, exclusive=False):
        def collect(seed=2024):
            start = time.perf_counter()
            time.sleep(sleep)
            with lock:
                intervals[name] = (start, time.perf_counter(),
                                   threading.get_ident())
            return {"schema": f"stub/{name}/v1", "name": name,
                    "seed": seed}

        schema = tmp_path / f"{name}.schema.json"
        schema.write_text(json.dumps({
            "type": "object",
            "required": ["schema", "name"],
            "properties": {"schema": {"const": f"stub/{name}/v1"}},
        }))
        return BenchEmitter(
            name=name,
            out_default=str(tmp_path / f"BENCH_{name}.json"),
            schema_path=str(schema), collect=collect,
            exclusive=exclusive)

    return {
        "s1": make("s1"), "s2": make("s2"), "s3": make("s3"),
        "x1": make("x1", exclusive=True),
        "x2": make("x2", exclusive=True),
    }


def _strip_timing(report):
    clean = dict(report)
    clean.pop("elapsed_seconds")
    # The mode flag is the one config field allowed to differ.
    clean["config"] = {k: v for k, v in report["config"].items()
                       if k != "parallel"}
    return clean


def _run(tmp_path, parallel, intervals, lock):
    return run_bench_all(
        registry=_timed_registry(tmp_path, intervals, lock),
        checks=[], autotune=False, out=None, emit_individual=False,
        references_dir=tmp_path / "refs",
        machine_id="stub-1c-000000", parallel=parallel)


def test_parallel_equals_sequential(tmp_path):
    lock = threading.Lock()
    seq = _run(tmp_path, False, {}, lock)
    par = _run(tmp_path, True, {}, lock)
    assert _strip_timing(seq) == _strip_timing(par)
    assert par["config"]["parallel"] and not seq["config"]["parallel"]


def test_exclusive_emitters_never_overlap_others(tmp_path):
    lock = threading.Lock()
    intervals = {}
    report = _run(tmp_path, True, intervals, lock)
    assert report["ok"]
    assert set(intervals) == {"s1", "s2", "s3", "x1", "x2"}
    for xname in ("x1", "x2"):
        xs, xe, _ = intervals[xname]
        for other, (os_, oe, _) in intervals.items():
            if other == xname:
                continue
            assert xe <= os_ or oe <= xs, \
                f"{xname} overlapped {other}"


def test_parallel_actually_overlaps_shared(tmp_path):
    """The pool is real: with 3 shared emitters sleeping 20ms each,
    at least two run on distinct threads and their spans overlap."""
    lock = threading.Lock()
    intervals = {}
    _run(tmp_path, True, intervals, lock)
    shared = [intervals[n] for n in ("s1", "s2", "s3")]
    threads = {t for _, _, t in shared}
    assert len(threads) > 1
    overlaps = sum(
        1
        for i, (s_a, e_a, _) in enumerate(shared)
        for s_b, e_b, _ in shared[i + 1:]
        if s_a < e_b and s_b < e_a)
    assert overlaps >= 1


def test_sequential_runs_on_one_thread(tmp_path):
    lock = threading.Lock()
    intervals = {}
    _run(tmp_path, False, intervals, lock)
    assert len({t for _, _, t in intervals.values()}) == 1
