#!/usr/bin/env python3
"""DBSR serving-stack benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tri-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with the program
untouched.  Their times are in reference-host seconds: every time is
divided by the host's speed factor read around it (``host.py``),
because a shared host changes speed by up to about 2x from one minute
to the next; the raw times are printed in the ``# context`` line.
``--trace 1`` splits the time between an untraced and a traced phase
on the same warm gateway and reports per-layer self times
recorded by wrapping each layer's public functions from this directory
(see ``tracing.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Outside the timed phase every run checks a seeded sample of served
columns bitwise against an independent reference (``gate`` in
``workloads.py``); a mismatch counts as a failed column.  Exact counts
(resolved bsize, tiles, hit fraction, repacks per 1000 columns, bytes
per column, PCG iterations) are stored per workload under
``.perfbench_state/`` keyed by a hash of the code; a later run of the
same code whose counts differ is reported as not correct.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench_state"

#: Cold set-ups per run whose median is ``setup_s`` (after one
#: throwaway warm-up that absorbs import costs).
SETUP_REPS = 5
#: Traced set-ups per ``--trace 1`` run (compile stage breakdown).
TRACED_SETUP_REPS = 3

#: Metric name -> unit, as declared in BENCHMARK.json (one source of
#: truth for the names the result line carries).
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: compile.* metric -> span names timed inside a cold compile.
COMPILE_STAGES = {
    "compile.autotune_ms": ("compile.autotune",),
    "compile.vbmc_ms": ("compile.vbmc",),
    "compile.assemble_ms": ("compile.assemble",),
    "compile.dbsr_ms": ("compile.dbsr",),
    "compile.guard_ms": ("compile.guard",),
    "compile.ilu_factor_ms": ("compile.ilu_factor",),
}

KERNEL_OPS = ("lower", "upper", "symgs", "ilu_apply")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--canary", action="store_true",
                   help="corrupt one served column before the gate; the "
                        "run must then report it as failed")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload briefly and validate names, "
                        "units and the correctness gate")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


def code_hash() -> str:
    """Digest of the program and benchmark sources (exact-count key)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_counts(workload: str, counts: dict) -> bool:
    """Compare with the last run of the same code; record this one."""
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"{workload}.json"
    digest = code_hash()
    canonical = json.loads(json.dumps(counts))
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        previous = None
    if previous is not None and previous.get("code") == digest:
        if previous["counts"] != canonical:
            print(f"# INVALID: counts differ from a previous run of the "
                  f"same code: {previous['counts']} != {canonical}")
            return False
        return True
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"code": digest, "counts": canonical},
                              sort_keys=True))
    os.replace(tmp, path)
    return True


def percentiles_ms(latencies) -> tuple:
    p50, p90 = np.percentile(np.asarray(latencies), [50, 90])
    return 1e3 * float(p50), 1e3 * float(p90)


def array_nbytes(obj, seen: set, depth: int = 0) -> int:
    """Bytes of the numpy arrays reachable from a plan (each buffer
    counted once)."""
    if id(obj) in seen or depth > 8:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        if base is not obj:
            if id(base) in seen:
                return 0
            seen.add(id(base))
        return base.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(array_nbytes(o, seen, depth + 1) for o in obj)
    if isinstance(obj, dict):
        return sum(array_nbytes(o, seen, depth + 1) for o in obj.values())
    if type(obj).__module__.startswith("repro.") and hasattr(obj,
                                                             "__dict__"):
        return sum(array_nbytes(o, seen, depth + 1)
                   for o in vars(obj).values())
    return 0


async def close_state(state) -> None:
    if hasattr(state, "close"):
        await state.close()


def setup_metrics(tracer) -> dict:
    n = tracer.calls.get("cache.compile", 0)
    out = {"cache.compile_ms":
           1e3 * tracer.total_s.get("cache.compile", 0.0) / n if n else 0.0}
    for metric, names in COMPILE_STAGES.items():
        out[metric] = sum(tracer.scoped_ms_per("cache.compile", name)
                          for name in names)
    return out


def layer_metrics(wl, state, tracer, untraced, traced, compile_ms: dict,
                  counts: dict) -> dict:
    """Per-layer numbers of one traced phase (see BENCHMARK.json)."""
    t = tracer
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    m.update(compile_ms)
    if not wl.serving:
        n = t.calls.get("solvers.pcg", 0) or 1
        m["solvers.pcg_iters"] = wl.expected_iters
        m["solvers.pcg_self_ms"] = 1e3 * t.self_s["solvers.pcg"] / n
        m["solvers.spmv_ms"] = 1e3 * t.by_parent[
            ("solvers.pcg", "csr.matvec")] / n
        m["multigrid.vcycle_ms"] = 1e3 * t.self_s["multigrid.vcycle"] / n
        m["multigrid.residual_ms"] = 1e3 * t.by_parent[
            ("multigrid.vcycle", "csr.matvec")] / n
        m["multigrid.smooth_ms"] = 1e3 * t.self_s["multigrid.smooth"] / n
        m["hpcg.gflops"] = wl.flops_per_solve(state) / statistics.median(
            untraced.latencies) / 1e9
        levels = counts["levels"]
    else:
        if traced.layers:
            admit, wait, ret = zip(*traced.layers)
            m["gateway.admit_ms"] = 1e3 * statistics.fmean(admit)
            m["gateway.queue_wait_ms"] = 1e3 * statistics.fmean(wait)
            m["gateway.return_ms"] = 1e3 * statistics.fmean(ret)
        m["gateway.shard_self_ms"] = t.self_ms_per_call("gateway.shard")
        m["service.submit_ms"] = t.self_ms_per_call("service.submit")
        m["service.drain_self_ms"] = t.self_ms_per_call("service.drain")
        if t.batch_cols:
            m["service.batch_cols"] = statistics.fmean(t.batch_cols)
        m["cache.lookup_ms"] = t.self_ms_per_call("cache.lookup")
        m["cache.hit_frac"] = counts["hit_frac"]
        m["cache.repacks_per_kcol"] = counts["repacks_per_kcol"]
        n_repack = t.calls.get("cache.repack", 0)
        if n_repack:
            m["cache.repack_ms"] = 1e3 * t.total_s["cache.repack"] / n_repack
        m["ilu.refactor_ms"] = t.scoped_ms_per("cache.repack", "ilu.refactor")
        seen: set = set()
        m["cache.resident_mb"] = sum(array_nbytes(p, seen)
                                     for p in wl.served_plans(state)) / 2**20
        n_exec = t.calls.get("plan.execute", 0) or 1
        m["plan.execute_self_ms"] = 1e3 * t.self_s["plan.execute"] / n_exec
        m["plan.pad_permute_ms"] = 1e3 * t.self_s["plan.pad_permute"] / n_exec
        kernel_s = 0.0
        for op in KERNEL_OPS:
            m[f"kernel.{op}_ms"] = t.self_ms_per_call(f"kernel.{op}")
            kernel_s += t.self_s.get(f"kernel.{op}", 0.0)
        m["kernel.bytes_per_col"] = counts["bytes_per_col"]
        if kernel_s > 0:
            m["kernel.computed_gbps"] = (counts["bytes_per_col"] * traced.cols
                                         / kernel_s / 1e9)
        # Share of the phase's wall time (not of summed request times,
        # which double-count overlapping tri-small requests).
        m["kernel.share"] = kernel_s / traced.busy
        levels = list(counts["structures"].values())
    m["compile.bsize"] = min(lv["bsize"] for lv in levels)
    m["compile.tiles"] = sum(lv["tiles"] for lv in levels)
    total = sum(b - a for a, b in traced.intervals)
    m["trace.unaccounted_frac"] = 1.0 - t.covered(traced.intervals) / total
    m["trace.overhead_frac"] = 1.0 - (traced.norm_cols_per_s
                                      / untraced.norm_cols_per_s)
    return m


def gate(wl, state, phase, canary: bool) -> tuple:
    """``(columns checked, columns wrong)`` for one timed phase."""
    if canary:
        # Corrupt one served column in place: the gate must count it.
        next(iter(phase.samples.values())).reshape(-1)[0] += 1.0
    return wl.gate(state, phase)


def fidelity(untraced, traced) -> bool:
    """Traced outputs must equal untraced outputs bitwise."""
    shared = untraced.samples.keys() & traced.samples.keys()
    return bool(shared) and all(
        np.array_equal(untraced.samples[key], traced.samples[key])
        for key in shared)


async def run(args) -> tuple:
    """Run one workload; returns ``(result dict, context dict)``."""
    from host import HostProbe, host_factor, peak_rss_mb
    from tracing import LayerTracer
    from workloads import one_thread_executor

    loop = asyncio.get_running_loop()
    loop.set_default_executor(one_thread_executor())
    # numpy seeds must be non-negative; any integer the caller passes
    # maps to one.
    wl = WORKLOADS[args.workload](args.seed % 2**32)
    host = HostProbe()

    # Throwaway warm-up set-up (imports, first-touch allocations).
    _, state = await wl.setup_once()
    setup_times, setup_raw = [], []
    if not args.trace:
        for _ in range(SETUP_REPS):
            await close_state(state)
            before = host_factor()
            seconds, state = await wl.setup_once()
            setup_raw.append(seconds)
            setup_times.append(seconds / (before * host_factor()) ** 0.5)
    await wl.run_phase(state, max_requests=wl.warmup_requests)

    seconds = args.seconds / 2 if args.trace else args.seconds
    host.before()
    untraced = await wl.run_phase(state, seconds=seconds, host=host)
    host.after()
    # The serving peak; the gate below builds reference plans whose
    # memory is the benchmark's, not the program's.
    rss_mb = peak_rss_mb()
    phases = [untraced]
    traced = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
        try:
            compile_ms = {}
            if wl.serving:
                for _ in range(TRACED_SETUP_REPS):
                    _, extra = await wl.setup_once()
                    await close_state(extra)
                compile_ms = setup_metrics(tracer)
            tracer.reset()
            traced = await wl.run_phase(state, seconds=seconds,
                                        tracer=tracer, host=host)
        finally:
            tracer.uninstall()
        phases.append(traced)

    counts = wl.counts(state, untraced)
    counts_ok = check_counts(wl.name, counts)
    if traced is not None:
        counts_ok &= wl.counts(state, traced) == counts
    checked, wrong = gate(wl, state, untraced, args.canary)
    fidelity_ok = traced is None or fidelity(untraced, traced)

    attempted = sum(p.cols + p.failed for p in phases)
    failed = sum(p.failed for p in phases) + wrong
    raw_p50, raw_p90 = percentiles_ms(untraced.latencies)
    if traced is None:
        p50, p90 = percentiles_ms(untraced.norm_latencies())
        values = {"cols_per_s": untraced.norm_cols_per_s,
                  "latency_p50_ms": p50, "latency_p90_ms": p90,
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": rss_mb}
        units = E2E_UNITS
    else:
        values = layer_metrics(wl, state, tracer, untraced, traced,
                               compile_ms, counts)
        units = LAYER_UNITS
    if values.keys() != units.keys():
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(values.keys() ^ units.keys())}")
    await close_state(state)

    result = {
        "correct": bool(wrong == 0 and counts_ok and fidelity_ok),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    context = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "requests": [len(p.latencies) for p in phases],
        "cols": [p.cols for p in phases],
        "wall_s": [p.wall for p in phases],
        "gate_checked": checked, "gate_wrong": wrong,
        "failed_frac": failed / attempted if attempted else 0.0,
        "fidelity_ok": fidelity_ok, "counts_ok": counts_ok,
        "setup_times_s": setup_times,
        "raw": {"cols_per_s": untraced.cols_per_s,
                "latency_p50_ms": raw_p50, "latency_p90_ms": raw_p90,
                "setup_s": (statistics.median(setup_raw) if setup_raw
                            else None)},
        "host_factor": {"median": float(np.median(untraced.factors)),
                        "min": min(untraced.factors),
                        "max": max(untraced.factors),
                        "probes": len(untraced.factors)},
        "counts": counts,
        "host": host.report(),
    }
    return result, context


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        from smoke import run_smoke

        return run_smoke(Path(__file__).resolve())
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    result, context = asyncio.run(run(args))
    context["run_s"] = time.perf_counter() - t0
    print("# context " + json.dumps(context, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"# {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
